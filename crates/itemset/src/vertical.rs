//! [`VerticalIndex`]: a per-item tid-set index over a [`TransactionDb`].
//!
//! The vertical layout stores, for every item, the set of transaction ids
//! that contain it. A contingency table becomes a recursive tid-set
//! split — no repeated database scans. This is the fast counting path; the horizontal scan in
//! [`crate::counting`] is the paper-faithful one.
//!
//! Two allocation disciplines keep the recursion off the heap:
//!
//! * a **depth-indexed scratch arena** (two bitmaps per recursion depth,
//!   reused across every table this index ever builds), so interior
//!   recursion nodes write into preallocated slots instead of
//!   materialising fresh bitmaps;
//! * the **last two recursion levels never materialise at all** — the
//!   four leaf cells of a set's final item pair `(a, b)` under a node
//!   `L` follow by inclusion–exclusion from one fused
//!   [`TidSet::triple_intersection_count`] pass (`|L ∩ a ∩ b|`) plus
//!   `|L ∩ a|`, `|L ∩ b|`, and `|L|`.
//!
//! The index counts only in batches (its
//! [`TieredEngine::count_batch_guarded`], reached through
//! [`crate::VerticalCounter`]), with Eclat-style prefix sharing:
//! candidates are grouped into equivalence classes by their
//! `(k-2)`-item prefix, the prefix's split tree is walked once per
//! class, and at each of its leaves the class-shared quantities — the
//! node total `|L|` and the per-item counts `|L ∩ a|` — are computed
//! once, so each member's marginal cost is a single triple-intersection
//! popcount pass per leaf. A single set is a batch of one: one class of
//! one member.
//!
//! Internally the immutable state (tid-sets + universe) lives in a
//! `VerticalCore` behind an `Arc`, and a level batch is planned into
//! self-contained `OwnedClass` work units. That split is what lets
//! [`crate::sharded::ShardedVerticalIndex`], the one pooled vertical
//! engine, hold one index per tid-range shard and fan the same classes
//! out across a worker pool — each job shares a core, owns its own
//! scratch arena, and counts whole classes — while this type stays the
//! single-threaded fast path. Both share the one sequential class runner
//! (`run_classes_sequential`) defined here.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::counting::{add_tables, BatchInterrupted, CountProbe, TieredEngine, MAX_TABLE_WIDTH};
use crate::database::TransactionDb;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::tidset::TidSet;

/// The immutable heart of a vertical index: per-item tid-sets plus the
/// cached universe bitmap. Shared (via `Arc`) between [`VerticalIndex`]
/// and the pooled engine's jobs — every method takes `&self`, so any
/// number of threads may count against one core concurrently, each with
/// its own scratch arena.
#[derive(Debug)]
pub(crate) struct VerticalCore {
    n_transactions: usize,
    tidsets: Vec<TidSet>,
    /// Cached `TidSet::full(n)` — the root of every split recursion.
    universe: TidSet,
}

/// One prefix-equivalence class of a level batch, owning its data so it
/// can cross a thread boundary: the shared `(k-2)`-item prefix, the
/// distinct suffix items appearing in any member's final `(a, b)` pair,
/// the members as `(index of a, index of b)` into `items`, and each
/// member's destination row in the batch's results. Member `j`'s counts
/// are written to local output row `j`; the caller scatters local rows
/// to `rows[j]`. Indexing (instead of hashing) lets every leaf fill a
/// flat per-item count buffer with one pass per distinct item.
#[derive(Debug, Clone)]
pub(crate) struct OwnedClass {
    pub(crate) prefix: Vec<Item>,
    pub(crate) items: Vec<Item>,
    pub(crate) members: Vec<(u32, u32)>,
    pub(crate) rows: Vec<usize>,
}

impl OwnedClass {
    /// Cells per member table: all members share `k = prefix + 2` items.
    pub(crate) fn table_len(&self) -> usize {
        1usize << (self.prefix.len() + 2)
    }

    /// Total cells this class produces (its work-budget charge).
    pub(crate) fn cells(&self) -> u64 {
        (self.members.len() * self.table_len()) as u64
    }

    /// Records this class's tables, once all of them are counted, in
    /// `done`.
    pub(crate) fn record(&self, done: &mut BatchInterrupted) {
        done.tables_completed += self.members.len() as u64;
        done.cells_completed += self.cells();
    }

    /// Charges this counted class's cells to `probe`; returns `true`
    /// when the charge exhausts the probe's budget.
    pub(crate) fn charge(&self, probe: &dyn CountProbe) -> bool {
        probe.charge(self.cells())
    }

    /// Rough cost estimate in 64-bit bitmap words touched: per leaf of
    /// the prefix tree, one node popcount + one split, one pass per
    /// distinct item, and one triple pass per member. Used by the
    /// pooled engine's sequential-fallback work floor.
    pub(crate) fn estimated_word_ops(&self, n_transactions: usize) -> u64 {
        let words = n_transactions.div_ceil(64).max(1) as u64;
        let leaves = 1u64 << self.prefix.len();
        leaves * (2 + self.items.len() as u64 + self.members.len() as u64) * words
    }
}

/// Answers the trivial 0-/1-item sets of `sets` into their (zeroed)
/// `results` rows from the database-wide transaction count and
/// `item_support`, records those tables in `done`, and groups the rest
/// into prefix-equivalence classes (deterministic `BTreeMap` prefix
/// order). Trivial sets never walk a split tree, which is what lets a
/// sharded engine answer them from supports summed across its shards.
pub(crate) fn plan_level(
    sets: &[Itemset],
    n_transactions: u64,
    item_support: impl Fn(Item) -> u64,
    results: &mut [Vec<u64>],
    done: &mut BatchInterrupted,
) -> Vec<OwnedClass> {
    let mut grouped: BTreeMap<&[Item], Vec<(usize, Item, Item)>> = BTreeMap::new();
    for (i, set) in sets.iter().enumerate() {
        match set.items() {
            [] => {
                results[i][0] = n_transactions;
                done.cells_completed += 1;
            }
            [a] => {
                let with = item_support(*a);
                results[i][1] = with;
                results[i][0] = n_transactions - with;
                done.cells_completed += 2;
            }
            [prefix @ .., a, b] => {
                grouped.entry(prefix).or_default().push((i, *a, *b));
                continue;
            }
        }
        done.tables_completed += 1;
    }
    grouped
        .into_iter()
        .map(|(prefix, raw)| {
            let mut items: Vec<Item> = raw.iter().flat_map(|&(_, a, b)| [a, b]).collect();
            items.sort_unstable();
            items.dedup();
            // `items` was deduped from exactly these members, so the
            // search cannot miss.
            #[allow(clippy::unwrap_used)]
            let pos = |item: Item| items.binary_search(&item).unwrap() as u32;
            let members = raw.iter().map(|&(_, a, b)| (pos(a), pos(b))).collect();
            let rows = raw.iter().map(|&(ci, _, _)| ci).collect();
            OwnedClass {
                prefix: prefix.to_vec(),
                items,
                members,
                rows,
            }
        })
        .collect()
}

/// Runs `classes` on the calling thread over the tid-range `shards` (one
/// shard for a plain [`VerticalIndex`]), scattering counts into
/// `results` and charging the probe per completed class. Shard 0 counts
/// in place into the members' zeroed result rows; every other shard
/// counts into a temporary table that is added in. Returns `true` if
/// the probe interrupted the run (completed classes are kept; a class
/// is never left half counted — the probe is consulted only between
/// classes).
pub(crate) fn run_classes_sequential(
    shards: &mut [VerticalIndex],
    classes: &[OwnedClass],
    probe: &dyn CountProbe,
    results: &mut [Vec<u64>],
    done: &mut BatchInterrupted,
) -> bool {
    let (first, rest) = shards.split_at_mut(1);
    let first = &mut first[0];
    let mut item_counts: Vec<usize> = Vec::new();
    let mut out: Vec<Vec<u64>> = Vec::new();
    for class in classes {
        if probe.should_stop() {
            return true;
        }
        // Zero-copy: move each member's (zeroed) result row into the
        // local output buffer, count, and move it back.
        out.clear();
        out.extend(class.rows.iter().map(|&r| std::mem::take(&mut results[r])));
        first
            .core
            .count_class(class, &mut item_counts, &mut first.scratch, &mut out);
        for shard in rest.iter_mut() {
            let part = shard
                .core
                .class_tables(class, &mut item_counts, &mut shard.scratch);
            add_tables(&mut out, &part);
        }
        for (local, &r) in out.iter_mut().zip(&class.rows) {
            results[r] = std::mem::take(local);
        }
        class.record(done);
        if class.charge(probe) {
            return true;
        }
    }
    false
}

impl VerticalCore {
    /// Builds a core in one pass over the transaction slice `start..end`
    /// (`0..db.len()` for an unsharded index): shard
    /// `tid` maps to database transaction `start + tid`, and every
    /// bitmap has capacity `end - start`. This is the horizontal-sharding
    /// primitive — a [`crate::sharded::ShardedVerticalIndex`] holds one
    /// such core per disjoint range, and elementwise sums of the
    /// per-shard contingency tables reproduce the whole-database tables
    /// exactly (every transaction lives in exactly one shard).
    pub(crate) fn build_range(db: &TransactionDb, start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= db.len());
        let n = end - start;
        let mut tidsets = vec![TidSet::new(n); db.n_items() as usize];
        for (tid, t) in db.transactions().enumerate().skip(start).take(n) {
            for item in t {
                tidsets[item.index()].insert(tid - start);
            }
        }
        #[cfg(debug_assertions)]
        for ts in &tidsets {
            ts.debug_check_invariants();
        }
        VerticalCore {
            n_transactions: n,
            tidsets,
            universe: TidSet::full(n),
        }
    }

    #[inline]
    pub(crate) fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    #[inline]
    pub(crate) fn n_items(&self) -> usize {
        self.tidsets.len()
    }

    #[inline]
    pub(crate) fn tidset(&self, item: Item) -> &TidSet {
        &self.tidsets[item.index()]
    }

    /// Counts one class into freshly zeroed member tables.
    pub(crate) fn class_tables(
        &self,
        class: &OwnedClass,
        item_counts: &mut Vec<usize>,
        scratch: &mut Vec<TidSet>,
    ) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = (0..class.members.len())
            .map(|_| vec![0u64; class.table_len()])
            .collect();
        self.count_class(class, item_counts, scratch, &mut out);
        out
    }

    /// Counts one class into `out`, where `out[j]` is member `j`'s
    /// zeroed `2^k`-cell table. Grows `scratch`/`item_counts` on demand;
    /// both are reused across calls.
    pub(crate) fn count_class(
        &self,
        class: &OwnedClass,
        item_counts: &mut Vec<usize>,
        scratch: &mut Vec<TidSet>,
        out: &mut [Vec<u64>],
    ) {
        debug_assert_eq!(out.len(), class.members.len());
        self.ensure_scratch(scratch, class.prefix.len());
        if item_counts.len() < class.items.len() {
            item_counts.resize(class.items.len(), 0);
        }
        self.prefix_recurse(
            &self.universe,
            &class.prefix,
            0,
            0,
            class,
            item_counts,
            scratch,
            out,
        );
    }

    /// Walks the split tree of `prefix`, then finishes every member
    /// (suffix item pair) at each leaf.
    ///
    /// `scratch` holds the arena slots for depths `>= depth`; interior
    /// nodes split into the first two slots and recurse with the rest, so
    /// a node's bitmaps stay live (and untouched) while its subtree runs.
    #[allow(clippy::too_many_arguments)]
    fn prefix_recurse(
        &self,
        current: &TidSet,
        prefix: &[Item],
        depth: usize,
        mask: usize,
        class: &OwnedClass,
        item_counts: &mut [usize],
        scratch: &mut [TidSet],
        out: &mut [Vec<u64>],
    ) {
        match prefix.split_first() {
            None => {
                // Leaf of the shared prefix tree: no bitmap ever
                // materialises here. The node total and the per-item
                // counts are class-shared (one popcount pass per distinct
                // suffix item, written into the flat buffer); each member
                // then pays a single fused triple-intersection pass, and
                // its remaining three cells follow by inclusion–exclusion.
                let node_total = current.count();
                if node_total == 0 {
                    return; // the output rows are already zeroed
                }
                let a_bit = 1usize << depth;
                let b_bit = 1usize << (depth + 1);
                for (slot, item) in item_counts.iter_mut().zip(&class.items) {
                    // `node_total` is a true upper bound of |L ∩ a|
                    // (L ∩ a ⊆ L), so the bounded popcount's early exit
                    // is still exact — it just skips the bitmap tail once
                    // the item saturates the node.
                    *slot =
                        current.intersection_count_limited(&self.tidsets[item.index()], node_total);
                }
                for (j, &(ap, bp)) in class.members.iter().enumerate() {
                    let n_a = item_counts[ap as usize];
                    let n_b = item_counts[bp as usize];
                    let n_ab = if n_a == 0 || n_b == 0 {
                        0
                    } else {
                        let (a, b) = (class.items[ap as usize], class.items[bp as usize]);
                        current.triple_intersection_count(
                            &self.tidsets[a.index()],
                            &self.tidsets[b.index()],
                        )
                    };
                    out[j][mask | a_bit | b_bit] = n_ab as u64;
                    out[j][mask | a_bit] = (n_a - n_ab) as u64;
                    out[j][mask | b_bit] = (n_b - n_ab) as u64;
                    out[j][mask] = (node_total + n_ab - n_a - n_b) as u64;
                }
            }
            Some((&first, rest)) => {
                // Prune: an empty cell tid-set stays empty down the whole
                // subtree, and the output rows are already zeroed.
                if current.is_empty() {
                    return;
                }
                let (mine, deeper) = scratch.split_at_mut(2);
                let (with, without) = mine.split_at_mut(1);
                current.split_into(&self.tidsets[first.index()], &mut with[0], &mut without[0]);
                // Bit j of the mask corresponds to items[j] of the original
                // set; items are consumed left to right, so the bit for
                // `first` is the current depth.
                let bit = 1usize << depth;
                self.prefix_recurse(
                    &with[0],
                    rest,
                    depth + 1,
                    mask | bit,
                    class,
                    item_counts,
                    deeper,
                    out,
                );
                self.prefix_recurse(
                    &without[0],
                    rest,
                    depth + 1,
                    mask,
                    class,
                    item_counts,
                    deeper,
                    out,
                );
            }
        }
    }

    /// Grows `scratch` to cover `depths` recursion levels (two slots
    /// each).
    fn ensure_scratch(&self, scratch: &mut Vec<TidSet>, depths: usize) {
        while scratch.len() < 2 * depths {
            scratch.push(TidSet::new(self.n_transactions));
        }
    }
}

/// Per-item tid-sets for a transaction database.
#[derive(Debug, Clone)]
pub struct VerticalIndex {
    pub(crate) core: Arc<VerticalCore>,
    /// Depth-indexed arena: slots `2d` / `2d+1` hold the with/without
    /// bitmaps of recursion depth `d`. Grown on demand, reused across
    /// tables. Cloning the index shares the (immutable) core but gives
    /// the clone a fresh arena.
    scratch: Vec<TidSet>,
}

impl VerticalIndex {
    /// Builds the index in a single pass over the database.
    pub fn build(db: &TransactionDb) -> Self {
        VerticalIndex {
            core: Arc::new(VerticalCore::build_range(db, 0, db.len())),
            scratch: Vec::new(),
        }
    }

    /// Wraps an existing shared core (same tid-sets, fresh arena).
    pub(crate) fn from_core(core: Arc<VerticalCore>) -> Self {
        VerticalIndex {
            core,
            scratch: Vec::new(),
        }
    }

    /// Number of transactions in the indexed database.
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.core.n_transactions()
    }

    /// The scratch-arena footprint, in bytes, that counting tables over
    /// `depths` shared-prefix recursion levels requires for a database of
    /// `n_transactions` rows: two bitmaps per depth, each padded to whole
    /// cache-line superblocks and carrying its per-superblock population
    /// hints (see [`TidSet`]'s module docs). A `k`-itemset needs `k - 2`
    /// depths. Used by memory-budget checks *before* the arena grows.
    /// The pooled engine multiplies each shard's arena by its jobs per
    /// shard — every job owns one arena sized to its shard.
    pub fn scratch_bytes(n_transactions: usize, depths: usize) -> usize {
        use crate::tidset::{SUPERBLOCK_BITS, SUPERBLOCK_WORDS};
        let supers = n_transactions.div_ceil(SUPERBLOCK_BITS);
        let per_bitmap = supers * SUPERBLOCK_WORDS * std::mem::size_of::<u64>()
            + supers * std::mem::size_of::<u32>();
        2 * depths * per_bitmap
    }

    /// Number of items in the universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.core.n_items()
    }

    /// The tid-set of a single item.
    #[inline]
    pub fn tidset(&self, item: Item) -> &TidSet {
        self.core.tidset(item)
    }
}

/// Eclat-style prefix sharing. Candidates are grouped into equivalence
/// classes by their `(k-2)`-item prefix (the class key of the sorted
/// item list minus its last two elements). Each class walks the
/// prefix's split tree **once**; at every one of its `2^(k-2)` leaves
/// the node total and the per-item intersection counts are computed once
/// for the whole class, so a member's marginal cost is a single
/// [`TidSet::triple_intersection_count`] pass per leaf — its four cells
/// follow by inclusion–exclusion. A level of `m` same-prefix candidates
/// thus costs one tree walk plus `m` fused popcount passes per leaf
/// instead of `m` full tree walks; a batch of one set is one class.
/// Sets of mixed sizes are allowed (each size/prefix combination forms
/// its own class).
///
/// The probe is consulted at prefix-class boundaries: `should_stop`
/// before each class is walked, and each completed class's cells are
/// charged against the work budget. On interruption the batch is
/// abandoned with a [`BatchInterrupted`] recording the tables and cells
/// that *did* fully complete (trivial 0-/1-item sets plus every finished
/// class), so at most the class in hand is counted past a work budget.
impl TieredEngine for VerticalIndex {
    fn n_transactions(&self) -> usize {
        VerticalIndex::n_transactions(self)
    }

    fn count_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let mut results = alloc_results(sets);
        let mut done = BatchInterrupted::default();
        let core = &self.core;
        let classes = plan_level(
            sets,
            core.n_transactions() as u64,
            |a| core.tidset(a).count() as u64,
            &mut results,
            &mut done,
        );
        if done.cells_completed > 0 && probe.charge(done.cells_completed) {
            return done.settle(true, results);
        }
        let interrupted = run_classes_sequential(
            std::slice::from_mut(self),
            &classes,
            probe,
            &mut results,
            &mut done,
        );
        done.settle(interrupted, results)
    }

    fn footprint_bytes(&self, _sets: &[Itemset], depths: usize) -> u64 {
        VerticalIndex::scratch_bytes(VerticalIndex::n_transactions(self), depths) as u64
    }
}

/// Allocates the zeroed `2^k` result vector for every candidate,
/// rejecting tables wider than [`MAX_TABLE_WIDTH`] items.
pub(crate) fn alloc_results(sets: &[Itemset]) -> Vec<Vec<u64>> {
    sets.iter()
        .map(|s| {
            assert!(
                s.len() <= MAX_TABLE_WIDTH,
                "refusing to build a 2^{}-cell table",
                s.len()
            );
            vec![0u64; 1usize << s.len()]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{MintermCounter, Tiered, VerticalCounter};

    fn db() -> TransactionDb {
        // 0: {a,b}  1: {a}  2: {b}  3: {}  4: {a,b}
        TransactionDb::from_ids(2, vec![vec![0, 1], vec![0], vec![1], vec![], vec![0, 1]])
    }

    #[test]
    fn pair_minterms_partition_the_database() {
        let d = db();
        let mut v = VerticalCounter::new(&d);
        let counts = v.minterm_counts(&Itemset::from_ids([0, 1]));
        // bit0 = item 0 present, bit1 = item 1 present.
        assert_eq!(counts[0b00], 1); // {}
        assert_eq!(counts[0b01], 1); // {a}
        assert_eq!(counts[0b10], 1); // {b}
        assert_eq!(counts[0b11], 2); // {a,b}
        assert_eq!(counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn singleton_minterms() {
        let d = db();
        let mut v = VerticalCounter::new(&d);
        let counts = v.minterm_counts(&Itemset::from_ids([0]));
        assert_eq!(counts, vec![2, 3]); // absent, present
    }

    #[test]
    fn empty_set_minterms_is_total_count() {
        let d = db();
        let mut v = VerticalCounter::new(&d);
        assert_eq!(v.minterm_counts(&Itemset::empty()), vec![5]);
    }

    #[test]
    fn triple_minterms_on_richer_db() {
        let d = TransactionDb::from_ids(
            3,
            vec![
                vec![0, 1, 2],
                vec![0, 1],
                vec![0, 2],
                vec![1, 2],
                vec![2],
                vec![],
            ],
        );
        let mut v = VerticalCounter::new(&d);
        let set = Itemset::from_ids([0, 1, 2]);
        let counts = v.minterm_counts(&set);
        assert_eq!(counts.iter().sum::<u64>(), 6);
        assert_eq!(counts[0b111], 1); // {0,1,2}
        assert_eq!(counts[0b011], 1); // {0,1}
        assert_eq!(counts[0b101], 1); // {0,2}
        assert_eq!(counts[0b110], 1); // {1,2}
        assert_eq!(counts[0b100], 1); // {2}
        assert_eq!(counts[0b000], 1); // {}
        assert_eq!(counts[0b001], 0);
        assert_eq!(counts[0b010], 0);
    }

    #[test]
    fn all_present_cell_equals_support() {
        let d = db();
        let mut v = VerticalCounter::new(&d);
        let set = Itemset::from_ids([0, 1]);
        let counts = v.minterm_counts(&set);
        assert_eq!(counts[counts.len() - 1] as usize, d.support(&set));
    }

    #[test]
    fn scratch_arena_is_reused_across_tables() {
        let d = TransactionDb::from_ids(
            4,
            vec![
                vec![0, 1, 2, 3],
                vec![0, 2],
                vec![1, 3],
                vec![0, 1, 2],
                vec![3],
            ],
        );
        let mut v = VerticalCounter::new(&d);
        let first = v.minterm_counts(&Itemset::from_ids([0, 1, 2, 3]));
        let arena_after_first = v.index().scratch.len();
        assert_eq!(arena_after_first, 2 * 2, "k=4 splits two prefix depths");
        // Same and smaller tables must not grow the arena, and a dirty
        // arena must not corrupt later counts.
        let again = v.minterm_counts(&Itemset::from_ids([0, 1, 2, 3]));
        let smaller = v.minterm_counts(&Itemset::from_ids([1, 3]));
        assert_eq!(v.index().scratch.len(), arena_after_first);
        assert_eq!(first, again);
        assert_eq!(smaller.iter().sum::<u64>(), 5);
    }

    #[test]
    fn clone_shares_the_core_but_not_the_arena() {
        let d = db();
        let mut v = VerticalCounter::new(&d);
        let _ = v.minterm_counts(&Itemset::from_ids([0, 1]));
        let mut clone = Tiered::from_engine(&d, v.index().clone());
        assert!(Arc::ptr_eq(&v.index().core, &clone.index().core));
        assert!(
            clone.index().scratch.is_empty(),
            "a clone starts a fresh arena"
        );
        assert_eq!(
            clone.minterm_counts(&Itemset::from_ids([0, 1])),
            v.minterm_counts(&Itemset::from_ids([0, 1]))
        );
    }

    #[test]
    fn batch_matches_single_per_candidate() {
        let d = TransactionDb::from_ids(
            5,
            vec![
                vec![0, 1, 2, 3, 4],
                vec![0, 1, 2],
                vec![0, 3],
                vec![1, 2, 4],
                vec![2, 3, 4],
                vec![],
                vec![0, 1, 4],
            ],
        );
        let mut v = VerticalCounter::new(&d);
        // A level with shared prefixes ({0,1},{0,2} share [0]; the triples
        // share [0,1]), a mixed size, and the empty set.
        let sets = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 2]),
            Itemset::from_ids([0, 1, 3]),
            Itemset::from_ids([0, 1, 4]),
            Itemset::from_ids([2]),
            Itemset::empty(),
        ];
        let batch = v.minterm_counts_batch(&sets);
        assert_eq!(batch.len(), sets.len());
        for (set, got) in sets.iter().zip(&batch) {
            assert_eq!(got, &v.minterm_counts(set), "batch diverged for {set}");
        }
    }

    #[test]
    fn batch_of_empty_slice_is_empty() {
        let d = db();
        let mut v = VerticalCounter::new(&d);
        assert!(v.minterm_counts_batch(&[]).is_empty());
    }
}
