//! [`FpTree`]: pattern-growth minterm counting over a compressed prefix
//! tree.
//!
//! The vertical substrates (tid-set intersection, pooled classes,
//! sharded ranges) all pay per-candidate work proportional to the
//! database's *transaction count* — every contingency table walks
//! bitmaps of `n` bits. On dense, low-cardinality databases that is the
//! wrong currency: transactions cluster into a few distinct profiles,
//! and an FP-tree (Han-Pei-Yin) compresses the whole database into one
//! prefix tree whose size tracks the number of *distinct transaction
//! prefixes*, not the number of transactions. Counting then works on
//! the tree, so its cost is independent of how many baskets share a
//! profile — the regime where pattern growth beats Apriori-shaped
//! candidate intersection off its home turf (ROADMAP item 3).
//!
//! # Tree layout
//!
//! One arena of parent-linked nodes. Items are ordered by descending
//! whole-database support (ties broken by item id, so construction is
//! deterministic). The build indexes the database's baskets in one pass,
//! each distinct basket with its multiplicity, and inserts each distinct
//! basket once, in first-occurrence order: sorted into tree order and
//! inserted root-down, it shares the longest existing prefix and adds its
//! multiplicity to every node on its path. A repeated basket creates no
//! node, so the arena is node for node the one a per-transaction
//! insertion builds, while the work follows the distinct baskets. A
//! *header table* keeps, per item, the list of that item's nodes (the
//! classic node-links, stored as a vector in creation order).
//!
//! # Counting a contingency table
//!
//! For a candidate `S` with items at tree ranks `r_0 < … < r_{k-1}`,
//! walking item `r_i`'s node-links gives, per node, its count and the
//! exact set of `S`-items on the node's root path. Because transactions
//! are inserted in rank order, a node's ancestors are *precisely* the
//! transaction's items of smaller rank — so each node contributes its
//! count to the cell "contains `r_i`, exactly this subset of the
//! shallower `S`-items, deeper `S`-items unconstrained". One
//! deepest-first inclusion-exclusion pass then strips the
//! "unconstrained deeper" slack (each cell subtracts its already-exact
//! deeper extensions), and the all-absent cell is the remainder against
//! the transaction count. `k` node-link walks per candidate, no
//! per-candidate tid-set work at all.
//!
//! # Batching: conditional projections, memoized
//!
//! The tree counts only in batches, through its
//! [`TieredEngine::count_batch_guarded`]; a single set is a batch of
//! one. The batch orders a level's candidates by their *suffix item*
//! (the deepest-ranked member) and materialises each header item's
//! **conditional projection** — the node-link chain flattened into
//! `(root-path items, count)` entries — at most once per batch,
//! memoized across every candidate that touches the item. A projection
//! is flat: its entries' paths lie end to end in one item arena, beside
//! one vector of end offsets and one of counts, and the batch keeps the
//! projections in a vector indexed by item. A dense level whose
//! candidates are drawn from one correlated module thus pays one
//! projection per header item plus a cheap mask fold per candidate,
//! instead of one intersection recursion per candidate.
//!
//! # Interruption and degradation
//!
//! The guarded batch checks the [`CountProbe`] at every projection
//! boundary (before each candidate's projection walks) and charges each
//! completed table, so a trip abandons the batch with exact
//! completed-candidate accounting — identical first-trip-wins contract
//! to the vertical engines; a half-counted table never escapes, and at
//! most one candidate is counted past a work budget.
//! [`FpTreeCounter`] is the tree on the shared memory-pressure ladder
//! ([`Tiered`]): when a probe's arena budget cannot hold the batch's
//! memoized projections it degrades (stickily) to a lazily built
//! [`VerticalIndex`](crate::VerticalIndex), and below that to guarded
//! horizontal scans.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::counting::{BatchInterrupted, CountProbe, Tiered, TieredEngine};
use crate::database::TransactionDb;
use crate::hash::ItemsetBuildHasher;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::vertical::alloc_results;

/// Sentinel in the item→cell-bit scratch map: item not in the candidate.
const NOT_IN_SET: u32 = u32::MAX;

/// Fixed per-entry overhead charged when estimating a conditional
/// projection's memory footprint, before the per-path-item bytes. A flat
/// entry takes 16 of these bytes (its end offset and its count).
const PROJ_ENTRY_BYTES: u64 = 24;

/// One FP-tree node: its item, the number of transactions whose sorted
/// prefix runs through it, its parent (0 is the root sentinel), and its
/// depth (root children have depth 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    item: u32,
    count: u64,
    parent: u32,
    depth: u32,
}

/// An item's conditional projection: one entry per node on its
/// node-link chain, holding the items on the node's root path (order
/// irrelevant — only membership is folded into cell masks) and the
/// node's transaction count.
#[derive(Debug)]
struct Projection {
    /// Every entry's path items, end to end.
    items: Vec<u32>,
    /// `ends[e]` is where entry `e`'s path ends in `items`; it starts
    /// where entry `e - 1`'s ends.
    ends: Vec<usize>,
    /// `counts[e]` is entry `e`'s transaction count.
    counts: Vec<u64>,
}

/// A compressed prefix tree over a [`TransactionDb`], with a header
/// table of per-item node-links, built in one pass over the database.
#[derive(Debug, Clone)]
pub struct FpTree {
    n_transactions: usize,
    /// `rank_of[item]` is the item's position in the support-descending
    /// tree order (ties broken by item id).
    rank_of: Vec<u32>,
    /// Whole-database absolute support per item, for trivial tables.
    item_supports: Vec<u64>,
    /// Node arena; `nodes[0]` is the root sentinel.
    nodes: Vec<Node>,
    /// Header table: `headers[item]` lists the item's nodes.
    headers: Vec<Vec<u32>>,
    /// Estimated bytes of each item's materialised conditional
    /// projection, for memory-budget checks *before* anything grows.
    proj_bytes: Vec<u64>,
}

impl FpTree {
    /// Builds the tree: the database's stored item supports fix the item
    /// order, one pass over the transactions indexes the distinct
    /// baskets, and each distinct basket is inserted once, with its
    /// multiplicity.
    pub fn build(db: &TransactionDb) -> Self {
        let n_items = db.n_items() as usize;
        let supports = db.item_supports();
        let mut order: Vec<u32> = (0..db.n_items()).collect();
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(supports[i as usize]), i));
        let mut rank_of = vec![0u32; n_items];
        for (rank, &item) in order.iter().enumerate() {
            rank_of[item as usize] = rank as u32;
        }
        // Each distinct basket with its multiplicity, in first-occurrence
        // order. The index only finds a basket's slot and is never
        // iterated, so the tree stays deterministic.
        let mut slot_of: HashMap<&[Item], usize, ItemsetBuildHasher> = HashMap::default();
        let mut distinct: Vec<(&[Item], u64)> = Vec::new();
        for t in db.transactions() {
            match slot_of.entry(t) {
                Entry::Occupied(slot) => distinct[*slot.get()].1 += 1,
                Entry::Vacant(slot) => {
                    slot.insert(distinct.len());
                    distinct.push((t, 1));
                }
            }
        }
        drop(slot_of);
        let mut nodes = vec![Node {
            item: u32::MAX,
            count: 0,
            parent: 0,
            depth: 0,
        }];
        let mut headers: Vec<Vec<u32>> = vec![Vec::new(); n_items];
        // A node's child for an item, keyed `node << 32 | rank`; only
        // probed while inserting, never iterated.
        let mut children: HashMap<u64, u32, ItemsetBuildHasher> = HashMap::default();
        let mut ranks: Vec<u32> = Vec::new();
        for (t, multiplicity) in distinct {
            ranks.clear();
            ranks.extend(t.iter().map(|i| rank_of[i.index()]));
            ranks.sort_unstable();
            let mut at = 0u32;
            for &rank in &ranks {
                at = match children.entry(u64::from(at) << 32 | u64::from(rank)) {
                    Entry::Occupied(child) => {
                        let n = *child.get();
                        nodes[n as usize].count += multiplicity;
                        n
                    }
                    Entry::Vacant(child) => {
                        let n = nodes.len() as u32;
                        let item = order[rank as usize];
                        nodes.push(Node {
                            item,
                            count: multiplicity,
                            parent: at,
                            depth: nodes[at as usize].depth + 1,
                        });
                        child.insert(n);
                        headers[item as usize].push(n);
                        n
                    }
                };
            }
        }
        let proj_bytes = headers
            .iter()
            .map(|chain| {
                chain
                    .iter()
                    .map(|&n| PROJ_ENTRY_BYTES + 4 * u64::from(nodes[n as usize].depth - 1))
                    .sum()
            })
            .collect();
        FpTree {
            n_transactions: db.len(),
            rank_of,
            item_supports: supports.iter().map(|&s| s as u64).collect(),
            nodes,
            headers,
            proj_bytes,
        }
    }

    /// Number of transactions the tree compresses.
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Number of items in the universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.headers.len()
    }

    /// Number of tree nodes (excluding the root sentinel) — the measure
    /// of how well the database compressed.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Estimated bytes of the memoized conditional projections a batch
    /// over `sets` materialises (each distinct item's projection is
    /// built at most once). Used by [`FpTreeCounter`]'s memory-budget
    /// check *before* any projection is built.
    pub fn projection_bytes(&self, sets: &[Itemset]) -> u64 {
        let mut seen = vec![false; self.headers.len()];
        let mut total = 0u64;
        for set in sets {
            if set.len() < 2 {
                continue; // trivial sets never walk a projection
            }
            for item in set.items() {
                if !seen[item.index()] {
                    seen[item.index()] = true;
                    total += self.proj_bytes[item.index()];
                }
            }
        }
        total
    }

    /// Materialises item's conditional projection: one entry per node on
    /// its node-link chain, each vector allocated once at its final
    /// length.
    fn projection(&self, item: u32) -> Projection {
        let chain = &self.headers[item as usize];
        let path_items = chain
            .iter()
            .map(|&n| self.nodes[n as usize].depth as usize - 1)
            .sum();
        let mut projection = Projection {
            items: Vec::with_capacity(path_items),
            ends: Vec::with_capacity(chain.len()),
            counts: Vec::with_capacity(chain.len()),
        };
        for &n in chain {
            let node = &self.nodes[n as usize];
            let mut p = node.parent;
            while p != 0 {
                projection.items.push(self.nodes[p as usize].item);
                p = self.nodes[p as usize].parent;
            }
            projection.ends.push(projection.items.len());
            projection.counts.push(node.count);
        }
        projection
    }

    /// Counts all `2^k` cells of a set of at least two items into `out`
    /// (zeroed, `2^k` long), indexed as
    /// [`MintermCounter::minterm_counts`](crate::MintermCounter::minterm_counts)
    /// states. `cache` holds the batch's projections by item, and
    /// `bit_of` is reusable scratch of `n_items` entries, all
    /// [`NOT_IN_SET`] on entry and restored to that on exit.
    fn count_set_into(
        &self,
        set: &Itemset,
        cache: &mut [Option<Projection>],
        bit_of: &mut [u32],
        out: &mut [u64],
    ) {
        let k = set.len();
        debug_assert!(k >= 2, "0-/1-item sets are answered from item supports");
        debug_assert_eq!(out.len(), 1usize << k);
        let n = self.n_transactions as u64;
        // The candidate's items in tree order (shallowest first), each
        // carrying its cell-index bit from the original sorted-item
        // position.
        let mut by_rank: Vec<(u32, u32, usize)> = set
            .items()
            .iter()
            .enumerate()
            .map(|(j, item)| (self.rank_of[item.index()], item.id(), 1usize << j))
            .collect();
        by_rank.sort_unstable();
        for &(_, id, bit) in &by_rank {
            bit_of[id as usize] = bit as u32;
        }
        // Pass 1: each item's projection scatters node counts to the
        // cell "this item present, exactly this shallower subset,
        // deeper items unconstrained". Paths only ever contain
        // smaller-rank items, so the fold needs no rank filtering.
        for &(_, id, bit) in &by_rank {
            let projection = cache[id as usize].get_or_insert_with(|| self.projection(id));
            let mut start = 0;
            for (&end, &count) in projection.ends.iter().zip(&projection.counts) {
                let mut mask = 0usize;
                for &p in &projection.items[start..end] {
                    let b = bit_of[p as usize];
                    if b != NOT_IN_SET {
                        mask |= b as usize;
                    }
                }
                out[mask | bit] += count;
                start = end;
            }
        }
        // Pass 2, deepest item first: strip the "deeper unconstrained"
        // slack. A cell whose deepest item is r_i subtracts every
        // already-exact extension of itself by deeper items.
        for i in (0..k).rev() {
            let bit_i = by_rank[i].2;
            let deeper: usize = by_rank[i + 1..].iter().map(|e| e.2).sum();
            if deeper == 0 {
                continue;
            }
            let shallow: usize = by_rank[..i].iter().map(|e| e.2).sum();
            let mut sub = shallow;
            loop {
                let cell = sub | bit_i;
                let mut d = deeper;
                while d != 0 {
                    out[cell] -= out[cell | d];
                    d = (d - 1) & deeper;
                }
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & shallow;
            }
        }
        // The all-absent cell is whatever the k walks never reached.
        out[0] = n - out[1..].iter().sum::<u64>();
        for &(_, id, _) in &by_rank {
            bit_of[id as usize] = NOT_IN_SET;
        }
    }
}

/// Pattern-growth counter: answers contingency tables from an
/// [`FpTree`] (one build pass). Its footprint is the batch's memoized
/// projections; below that it drops to a full-range vertical twin, built
/// on first use (one extra database scan, recorded in
/// [`crate::CountingStats::db_scans`]), then to horizontal scans.
pub type FpTreeCounter<'a> = Tiered<'a, FpTree>;

impl<'a> FpTreeCounter<'a> {
    /// Builds the FP-tree (one pass over the transactions, recorded as
    /// one database scan; the item order comes from the database's
    /// stored supports) and wraps it.
    pub fn new(db: &'a TransactionDb) -> Self {
        Tiered::from_engine(db, FpTree::build(db))
    }
}

impl TieredEngine for FpTree {
    fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Batch counting with per-batch projection memoization; results
    /// come back in input order. Trivial 0-/1-item candidates are
    /// answered (and charged) up front from whole-tree totals, then
    /// candidates run ordered by suffix item, with `should_stop` checked
    /// before and the table charged after each one, so at most the
    /// candidate in hand is counted past a work budget. On interruption
    /// the batch is abandoned with a [`BatchInterrupted`] carrying exact
    /// completed-candidate accounting; in-flight tables are discarded.
    fn count_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let mut results = alloc_results(sets);
        let mut done = BatchInterrupted::default();
        let n = self.n_transactions as u64;
        // Non-trivial candidates as (suffix item's tree rank, row),
        // sorted, so one suffix's projections stay hot across its run of
        // candidates and the walk order is deterministic.
        let mut walk: Vec<(u32, usize)> = Vec::new();
        for (i, set) in sets.iter().enumerate() {
            match set.items() {
                [] => {
                    results[i][0] = n;
                    done.tables_completed += 1;
                    done.cells_completed += 1;
                }
                [a] => {
                    let s = self.item_supports[a.index()];
                    results[i][1] = s;
                    results[i][0] = n - s;
                    done.tables_completed += 1;
                    done.cells_completed += 2;
                }
                items => {
                    // Items are non-empty here, so the max exists.
                    #[allow(clippy::unwrap_used)]
                    let suffix = items
                        .iter()
                        .map(|item| self.rank_of[item.index()])
                        .max()
                        .unwrap();
                    walk.push((suffix, i));
                }
            }
        }
        walk.sort_unstable();
        if done.cells_completed > 0 && probe.charge(done.cells_completed) {
            return done.settle(true, results);
        }
        let mut cache: Vec<Option<Projection>> = (0..self.headers.len()).map(|_| None).collect();
        let mut bit_of = vec![NOT_IN_SET; self.headers.len()];
        let mut interrupted = false;
        for &(_, row) in &walk {
            if probe.should_stop() {
                interrupted = true;
                break;
            }
            // The row's table is written in place; the candidate
            // completes atomically from the caller's point of view
            // because any interruption above discards `results`.
            let mut table = std::mem::take(&mut results[row]);
            self.count_set_into(&sets[row], &mut cache, &mut bit_of, &mut table);
            results[row] = table;
            let cells = 1u64 << sets[row].len();
            done.tables_completed += 1;
            done.cells_completed += cells;
            if probe.charge(cells) {
                interrupted = true;
                break;
            }
        }
        done.settle(interrupted, results)
    }

    fn footprint_bytes(&self, sets: &[Itemset], _depths: usize) -> u64 {
        self.projection_bytes(sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{DegradationRung, HorizontalCounter, MintermCounter, NoProbe};
    use crate::vertical::VerticalIndex;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn db() -> TransactionDb {
        TransactionDb::from_ids(
            5,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 2],
                vec![1, 2],
                vec![2],
                vec![],
                vec![3],
                vec![0, 1, 2, 3],
                vec![0, 1, 2, 3],
                vec![2, 3],
            ],
        )
    }

    fn level() -> Vec<Itemset> {
        vec![
            Itemset::empty(),
            Itemset::from_ids([3]),
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 2]),
            Itemset::from_ids([1, 2]),
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([1, 2, 3]),
            Itemset::from_ids([0, 1, 2, 3]),
            Itemset::from_ids([4]),
            Itemset::from_ids([0, 4]),
        ]
    }

    #[test]
    fn tree_compresses_shared_prefixes() {
        let t = FpTree::build(&db());
        // 10 transactions insert far fewer nodes than their total item
        // count because profiles share prefixes.
        assert!(t.n_nodes() < 20, "no compression: {} nodes", t.n_nodes());
        assert_eq!(t.n_transactions(), 10);
    }

    #[test]
    fn tables_match_horizontal_reference() {
        let d = db();
        let mut t = FpTreeCounter::new(&d);
        let mut h = HorizontalCounter::new(&d);
        for set in level() {
            assert_eq!(
                t.minterm_counts(&set),
                h.minterm_counts(&set),
                "fp-tree diverged for {set}"
            );
        }
    }

    #[test]
    fn batch_matches_singles_and_counter_matches_horizontal() {
        let d = db();
        let sets = level();
        let mut t = FpTreeCounter::new(&d);
        let batch = t.minterm_counts_batch(&sets);
        for (set, got) in sets.iter().zip(&batch) {
            assert_eq!(got, &t.minterm_counts(set), "batch diverged for {set}");
        }
        let mut c = FpTreeCounter::new(&d);
        let mut h = HorizontalCounter::new(&d);
        assert_eq!(c.minterm_counts_batch(&sets), h.minterm_counts_batch(&sets));
        assert_eq!(c.stats().tables_built, sets.len() as u64);
        assert_eq!(c.stats().db_scans, 1, "tree build is one pass");
    }

    #[test]
    fn counts_partition_the_database() {
        let d = db();
        let mut t = FpTreeCounter::new(&d);
        for set in level() {
            let counts = t.minterm_counts(&set);
            assert_eq!(
                counts.iter().sum::<u64>() as usize,
                d.len(),
                "cells of {set} do not partition the database"
            );
        }
    }

    /// A probe that stops after a fixed number of charged cells.
    #[derive(Clone)]
    struct Budget {
        cells: u64,
        spent: Arc<AtomicU64>,
    }

    impl Budget {
        fn new(cells: u64) -> Self {
            Budget {
                cells,
                spent: Arc::default(),
            }
        }
    }

    impl CountProbe for Budget {
        fn should_stop(&self) -> bool {
            self.spent.load(Ordering::Relaxed) >= self.cells
        }
        fn charge(&self, cells: u64) -> bool {
            self.spent.fetch_add(cells, Ordering::Relaxed) + cells >= self.cells
        }
        fn share(&self) -> Arc<dyn CountProbe + Send + Sync> {
            Arc::new(self.clone())
        }
    }

    #[test]
    fn stopped_probe_interrupts_before_any_candidate() {
        struct Stopped;
        impl CountProbe for Stopped {
            fn should_stop(&self) -> bool {
                true
            }
            fn charge(&self, _cells: u64) -> bool {
                true
            }
            fn share(&self) -> Arc<dyn CountProbe + Send + Sync> {
                Arc::new(Stopped)
            }
        }
        let d = db();
        let mut c = FpTreeCounter::new(&d);
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([1, 2])];
        let err = c.minterm_counts_batch_guarded(&sets, &Stopped).unwrap_err();
        assert_eq!(err.tables_completed, 0);
        assert_eq!(c.stats().tables_built, 0);
    }

    #[test]
    fn budget_trip_keeps_completed_candidates_and_exact_stats() {
        let d = db();
        let sets = level();
        let mut c = FpTreeCounter::new(&d);
        let probe = Budget::new(8);
        let err = c.minterm_counts_batch_guarded(&sets, &probe).unwrap_err();
        assert!(err.tables_completed >= 1, "something must complete");
        assert!(
            err.tables_completed < sets.len() as u64,
            "an 8-cell budget cannot cover the level"
        );
        assert_eq!(c.stats().tables_built, err.tables_completed);
        assert_eq!(c.stats().cells_counted, err.cells_completed);
    }

    #[test]
    fn noprobe_guarded_matches_unguarded() {
        let d = db();
        let sets = level();
        let mut t = FpTreeCounter::new(&d);
        assert_eq!(
            t.minterm_counts_batch_guarded(&sets, &NoProbe).unwrap(),
            t.minterm_counts_batch(&sets)
        );
    }

    #[test]
    fn ladder_degrades_fptree_to_vertical_to_horizontal() {
        struct Arena(usize);
        impl CountProbe for Arena {
            fn should_stop(&self) -> bool {
                false
            }
            fn charge(&self, _cells: u64) -> bool {
                false
            }
            fn arena_budget_bytes(&self) -> Option<usize> {
                Some(self.0)
            }
            fn share(&self) -> Arc<dyn CountProbe + Send + Sync> {
                Arc::new(Arena(self.0))
            }
        }
        let d = db();
        let sets = vec![Itemset::from_ids([0, 1, 2]), Itemset::from_ids([1, 2, 3])];
        let mut h = HorizontalCounter::new(&d);
        let expected = h.minterm_counts_batch(&sets);

        // Unlimited arena: stays on the tree.
        let mut c = FpTreeCounter::new(&d);
        assert_eq!(
            c.minterm_counts_batch_guarded(&sets, &NoProbe).unwrap(),
            expected
        );
        assert_eq!(c.rung(), DegradationRung::Preferred);
        assert_eq!(c.stats().degraded_batches, 0);

        // A budget too small for the projections but big enough for one
        // vertical arena drops exactly one rung, and builds the twin.
        let proj = c.index().projection_bytes(&sets) as usize;
        let vertical = VerticalIndex::scratch_bytes(d.len(), 1);
        assert!(proj > 0 && vertical > 0);
        assert!(
            vertical < proj,
            "fixture must leave room for the middle rung: vertical {vertical} >= proj {proj}"
        );
        let mut c = FpTreeCounter::new(&d);
        let got = c
            .minterm_counts_batch_guarded(&sets, &Arena(proj - 1))
            .unwrap();
        assert_eq!(got, expected);
        assert_eq!(c.rung(), DegradationRung::Vertical);
        assert_eq!(c.stats().degraded_batches, 1);
        assert_eq!(c.stats().db_scans, 2, "vertical twin adds a scan");

        // A 1-byte budget falls through to horizontal and stays there.
        let mut c = FpTreeCounter::new(&d);
        let got = c.minterm_counts_batch_guarded(&sets, &Arena(1)).unwrap();
        assert_eq!(got, expected);
        assert_eq!(c.rung(), DegradationRung::Horizontal);
        assert_eq!(c.stats().degraded_batches, 1);
        let got = c.minterm_counts_batch_guarded(&sets, &Arena(1)).unwrap();
        assert_eq!(got, expected);
        assert_eq!(c.stats().degraded_batches, 2, "degradation is sticky");
    }

    #[test]
    fn empty_inputs_answer_trivially() {
        let empty = TransactionDb::from_ids(3, Vec::<Vec<u32>>::new());
        let mut c = FpTreeCounter::new(&empty);
        assert_eq!(c.minterm_counts(&Itemset::empty()), vec![0]);
        assert_eq!(c.minterm_counts(&Itemset::from_ids([1])), vec![0, 0]);
        assert!(c.minterm_counts_batch(&[]).is_empty());
    }

    /// Today's build, kept as the reference the per-distinct-basket build
    /// is checked against: one rank-sort and one child lookup per item
    /// occurrence, in transaction order.
    fn reference_build(db: &TransactionDb) -> FpTree {
        use std::collections::HashMap;
        let n_items = db.n_items() as usize;
        let supports = db.item_supports();
        let mut order: Vec<u32> = (0..db.n_items()).collect();
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(supports[i as usize]), i));
        let mut rank_of = vec![0u32; n_items];
        for (rank, &item) in order.iter().enumerate() {
            rank_of[item as usize] = rank as u32;
        }
        let mut nodes = vec![Node {
            item: u32::MAX,
            count: 0,
            parent: 0,
            depth: 0,
        }];
        let mut headers: Vec<Vec<u32>> = vec![Vec::new(); n_items];
        let mut children: HashMap<(u32, u32), u32> = HashMap::new();
        let mut sorted: Vec<u32> = Vec::new();
        for t in db.transactions() {
            sorted.clear();
            sorted.extend(t.iter().map(|i| i.id()));
            sorted.sort_unstable_by_key(|&i| rank_of[i as usize]);
            let mut at = 0u32;
            for &item in &sorted {
                at = match children.get(&(at, item)) {
                    Some(&n) => {
                        nodes[n as usize].count += 1;
                        n
                    }
                    None => {
                        let n = nodes.len() as u32;
                        nodes.push(Node {
                            item,
                            count: 1,
                            parent: at,
                            depth: nodes[at as usize].depth + 1,
                        });
                        children.insert((at, item), n);
                        headers[item as usize].push(n);
                        n
                    }
                };
            }
        }
        let proj_bytes = headers
            .iter()
            .map(|chain| {
                chain
                    .iter()
                    .map(|&n| PROJ_ENTRY_BYTES + 4 * u64::from(nodes[n as usize].depth - 1))
                    .sum()
            })
            .collect();
        FpTree {
            n_transactions: db.len(),
            rank_of,
            item_supports: supports.iter().map(|&s| s as u64).collect(),
            nodes,
            headers,
            proj_bytes,
        }
    }

    /// Today's projection, kept as the reference: one `(root path, count)`
    /// entry per node on the item's chain, the path read leaf-up.
    fn reference_projection(tree: &FpTree, item: u32) -> Vec<(Vec<u32>, u64)> {
        tree.headers[item as usize]
            .iter()
            .map(|&n| {
                let node = &tree.nodes[n as usize];
                let mut path = Vec::new();
                let mut p = node.parent;
                while p != 0 {
                    path.push(tree.nodes[p as usize].item);
                    p = tree.nodes[p as usize].parent;
                }
                (path, node.count)
            })
            .collect()
    }

    /// The production projection of `item`, entry by entry.
    fn projection_entries(tree: &FpTree, item: u32) -> Vec<(Vec<u32>, u64)> {
        let p = tree.projection(item);
        let starts = std::iter::once(0).chain(p.ends.iter().copied());
        starts
            .zip(&p.ends)
            .zip(&p.counts)
            .map(|((start, &end), &count)| (p.items[start..end].to_vec(), count))
            .collect()
    }

    /// The build and every projection agree with the references, field
    /// by field.
    fn assert_matches_reference(db: &TransactionDb) {
        let tree = FpTree::build(db);
        let reference = reference_build(db);
        assert_eq!(tree.n_transactions, reference.n_transactions);
        assert_eq!(tree.rank_of, reference.rank_of);
        assert_eq!(tree.item_supports, reference.item_supports);
        assert_eq!(tree.nodes, reference.nodes);
        assert_eq!(tree.headers, reference.headers);
        assert_eq!(tree.proj_bytes, reference.proj_bytes);
        assert_eq!(tree.n_nodes(), reference.n_nodes());
        for item in 0..db.n_items() {
            assert_eq!(
                projection_entries(&tree, item),
                reference_projection(&reference, item),
                "projection of item {item}"
            );
        }
    }

    #[test]
    fn edge_databases_match_the_reference_build() {
        assert_matches_reference(&TransactionDb::from_ids(4, Vec::<Vec<u32>>::new()));
        assert_matches_reference(&TransactionDb::from_ids(1, vec![vec![0]; 50]));
        assert_matches_reference(&TransactionDb::from_ids(
            1,
            (0..50).map(|i| if i % 3 == 0 { vec![] } else { vec![0] }),
        ));
        assert_matches_reference(&TransactionDb::from_ids(3, vec![Vec::<u32>::new(); 7]));
        assert_matches_reference(&db());
    }

    /// Most items any generated database has.
    const MAX_ITEMS: u32 = 12;

    /// Baskets drawn from at most four profiles, each draw toggling at
    /// most one item, so a few distinct baskets repeat many times over
    /// (as `perfbench`'s dense data does).
    fn profiled_db() -> impl Strategy<Value = TransactionDb> {
        (
            1..=MAX_ITEMS,
            proptest::collection::vec(proptest::collection::vec(0..MAX_ITEMS, 0..8), 1..=4),
            proptest::collection::vec((0usize..4, 0..MAX_ITEMS + 2), 0..400),
        )
            .prop_map(|(n, profiles, draws)| {
                let txns = draws.into_iter().map(|(p, toggle)| {
                    let mut t: Vec<u32> = profiles[p % profiles.len()]
                        .iter()
                        .map(|&i| i % n)
                        .collect();
                    if t.contains(&toggle) {
                        t.retain(|&i| i != toggle);
                    } else if toggle < n {
                        t.push(toggle);
                    }
                    t
                });
                TransactionDb::from_ids(n, txns)
            })
    }

    /// Baskets that are all distinct, in random order.
    fn distinct_db() -> impl Strategy<Value = TransactionDb> {
        (
            1..=MAX_ITEMS,
            proptest::collection::vec(proptest::collection::vec(0..MAX_ITEMS, 0..8), 0..80),
        )
            .prop_map(|(n, raw)| {
                let mut seen = std::collections::BTreeSet::new();
                let txns: Vec<Vec<u32>> = raw
                    .into_iter()
                    .map(|t| {
                        let mut t: Vec<u32> = t.into_iter().map(|i| i % n).collect();
                        t.sort_unstable();
                        t.dedup();
                        t
                    })
                    .filter(|t| seen.insert(t.clone()))
                    .collect();
                TransactionDb::from_ids(n, txns)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        #[test]
        fn build_matches_the_reference_build(
            db in prop_oneof![profiled_db(), distinct_db()]
        ) {
            assert_matches_reference(&db);
        }
    }

    #[test]
    fn projection_bytes_count_distinct_nontrivial_items_once() {
        let d = db();
        let t = FpTree::build(&d);
        let pairs = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([0, 2])];
        let trivial = vec![Itemset::from_ids([0]), Itemset::empty()];
        assert_eq!(t.projection_bytes(&trivial), 0);
        let both = t.projection_bytes(&pairs);
        let single = t.projection_bytes(&pairs[..1]);
        assert!(both > single, "item 2's projection must add bytes");
        let repeated = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 1]),
        ];
        assert_eq!(
            t.projection_bytes(&repeated),
            t.projection_bytes(&repeated[..1]),
            "memoized projections are charged once"
        );
    }
}
