//! [`VerticalIndex`]: a per-item tid-set index over a [`TransactionDb`].
//!
//! The vertical layout stores, for every item, the set of transaction ids
//! that contain it. A contingency table then follows from intersections
//! of those tid-sets, with no repeated database scans. This is the fast
//! counting path; the horizontal scan in [`crate::counting`] is the
//! paper-faithful one.
//!
//! # Tables from supports
//!
//! A `k`-set's `2^k` exact-minterm cells follow from its `2^k` subset
//! *supports* (how many transactions contain every item of a subset) by
//! a Möbius pass: `k · 2^(k-1)` subtractions in place. So the index
//! counts only supports, all of them by intersection:
//!
//! * **Prefix classes.** Candidates are grouped into equivalence classes
//!   by their `(k-2)`-item prefix (Eclat-style). Each class walks the
//!   prefix's subset lattice once. Its node for `Q ⊆ prefix` is
//!   `T_Q = ∩_{q∈Q} t_q`; at `|Q| = 1` that is the item's own tid-set,
//!   with no copy, and each deeper node is one
//!   [`TidSet::intersect_into`] of its parent into a one-bitmap-per-depth
//!   arena, reused across every class the index counts. An empty node
//!   leaves its subtree's supports zero.
//! * **Supports per node.** At each node the class records `|T_Q|`, the
//!   class-shared `|T_Q ∩ t_x|` of every suffix item `x`, and for each
//!   member `(a, b)` one fused [`TidSet::triple_intersection_count`]
//!   pass, `|T_Q ∩ t_a ∩ t_b|`.
//! * **Pair supports.** At `Q = ∅` and `|Q| = 1` those supports are
//!   item pairs: `|t_a ∩ t_b|` and `|t_q ∩ t_x|`. Pairs recur across the
//!   classes of a level, so a batch reads them from a pair-support table
//!   per core, for exactly the pairs its classes read, each counted once
//!   per batch on its first read. The classes carry indices into it, so
//!   counting hashes nothing. A class without a prefix is a set of distinct pairs; it
//!   counts each member's pair directly and reads no table.
//!
//! A 3-set thus costs one triple pass and a 2-set one pair pass. A single
//! set is a batch of one: one class of one member.
//!
//! # One class runner
//!
//! Internally the immutable state (the tid-sets) lives in a
//! `VerticalCore`, and a level batch is planned into `OwnedClass` work
//! units plus the batch's pair list. That split is what lets
//! [`crate::sharded::ShardedVerticalIndex`], the one pooled vertical
//! engine, hold one core per tid-range shard and drain the classes on
//! several threads, while this type stays the single-threaded fast
//! path. Every tid-set engine counts a batch through the one function
//! defined here, `count_batch`:
//!
//! * **One unit of work.** A prefix class counted on every shard (one
//!   for this type): the class body counts it on shard 0 into its
//!   member rows, then adds each other shard's tables in. The calling
//!   thread allocates every class's rows, empty, when it plans the
//!   batch; the body zeroes and fills them, and marks the class counted.
//! * **One drain loop.** It checks the probe, claims the next class
//!   from the batch's one cursor, counts it, and charges it once its
//!   tables are whole.
//! * **One schedule.** The calling thread is the first runner of the
//!   loop. Above a pooled engine's work floor, `min(workers, classes)
//!   − 1` more runners drain it on scoped threads. Every runner borrows
//!   the batch and the probe and owns one arena per shard, kept by the
//!   engine across batches. Once every runner has returned, the calling
//!   thread moves each marked class's tables into their rows. No runner
//!   allocates what the calling thread frees, which would make the peak
//!   resident set hang on how the runners were timed (see DESIGN.md
//!   §6.2).
//!
//! Nothing a batch computes outlives it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::counting::{
    add_tables, run_scoped, BatchInterrupted, CountProbe, TieredEngine, MAX_TABLE_WIDTH,
};
use crate::database::TransactionDb;
use crate::hash::ItemsetBuildHasher;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::tidset::TidSet;

/// The immutable heart of a vertical index: per-item tid-sets. Shared
/// (via `Arc`) between an engine and its degradation ladder's vertical
/// twin. Every method takes `&self`, so a batch's runners count against
/// one core concurrently, each with its own scratch arena.
#[derive(Debug)]
pub(crate) struct VerticalCore {
    n_transactions: usize,
    tidsets: Vec<TidSet>,
}

/// One prefix-equivalence class of a level batch: the shared
/// `(k-2)`-item prefix, the
/// distinct suffix items appearing in any member's final `(a, b)` pair,
/// the members as `(index of a, index of b)` into `items`, their pair
/// indices into the batch's pair-support table, and each member's
/// destination row in the batch's results. Member `j`'s counts are
/// written to local output row `j`; the caller scatters local rows to
/// `rows[j]`. Indexing (instead of hashing) lets every node fill a flat
/// per-item support buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OwnedClass {
    prefix: Vec<Item>,
    items: Vec<Item>,
    members: Vec<(u32, u32)>,
    /// Pair-table index of each member's `(a, b)`. Empty when the prefix
    /// is: such a class counts its pairs directly.
    member_pairs: Vec<u32>,
    /// Pair-table index of `(prefix[i], items[x])` at
    /// `i * items.len() + x`.
    prefix_pairs: Vec<u32>,
    rows: Vec<usize>,
}

impl OwnedClass {
    /// Cells per member table: all members share `k = prefix + 2` items.
    fn table_len(&self) -> usize {
        1usize << (self.prefix.len() + 2)
    }

    /// Total cells this class produces (its work-budget charge).
    fn cells(&self) -> u64 {
        (self.members.len() * self.table_len()) as u64
    }

    /// Rough cost estimate in 64-bit bitmap words touched. A class with
    /// an `m`-item prefix has `2^m − 1` non-empty lattice nodes, each
    /// with one triple pass per member; the `2^m − 1 − m` nodes below
    /// depth 1 also pay one intersection and one pass per suffix item. A
    /// class without a prefix pays one pair pass per member.
    fn estimated_word_ops(&self, n_transactions: usize) -> u64 {
        let words = n_transactions.div_ceil(64).max(1) as u64;
        let (m, members) = (self.prefix.len() as u64, self.members.len() as u64);
        let nodes = (1u64 << m) - 1;
        let passes = if m == 0 {
            members
        } else {
            nodes * members + (nodes - m) * (1 + self.items.len() as u64)
        };
        passes * words
    }
}

/// A level batch planned for vertical counting: its prefix classes, and
/// the distinct item pairs `(x, y)`, `x < y`, whose supports the classes
/// read, in the order of the classes' pair indices.
#[derive(Debug)]
struct LevelPlan {
    classes: Vec<OwnedClass>,
    pairs: Vec<(Item, Item)>,
}

impl LevelPlan {
    /// The batch's estimated bitmap traffic in 64-bit words: its
    /// classes' estimates and one pass per entry of its pair table. The
    /// pooled engine's work floor is measured against it.
    fn estimated_word_ops(&self, n_transactions: usize) -> u64 {
        let words = n_transactions.div_ceil(64) as u64;
        self.classes
            .iter()
            .map(|c| c.estimated_word_ops(n_transactions))
            .sum::<u64>()
            + self.pairs.len() as u64 * words
    }
}

/// One core's pair-support table for a batch: `|t_x ∩ t_y|` for each
/// pair of the plan's pair list, counted the first time a class reads
/// it, so no pass runs before the first class and none for a pair that
/// only unreached classes read. A batch's runners share it: two runners
/// that race on an unread entry both count it and store the same value.
#[derive(Debug)]
struct PairSupports<'a> {
    pairs: &'a [(Item, Item)],
    supports: Vec<AtomicUsize>,
}

impl<'a> PairSupports<'a> {
    /// An entry not yet counted; no support reaches it.
    const UNREAD: usize = usize::MAX;

    /// An unread table over `pairs`.
    fn new(pairs: &'a [(Item, Item)]) -> Self {
        PairSupports {
            pairs,
            supports: pairs
                .iter()
                .map(|_| AtomicUsize::new(Self::UNREAD))
                .collect(),
        }
    }

    /// The support of pair `p` over `core`'s tid-sets.
    fn get(&self, core: &VerticalCore, p: u32) -> usize {
        let slot = &self.supports[p as usize];
        match slot.load(Ordering::Relaxed) {
            Self::UNREAD => {
                let (x, y) = self.pairs[p as usize];
                let support = core.tidset(x).intersection_count(core.tidset(y));
                slot.store(support, Ordering::Relaxed);
                support
            }
            support => support,
        }
    }
}

/// Plans `sets` for vertical counting. Answers the trivial 0-/1-item
/// sets from the database-wide transaction count and `item_support`,
/// records those tables in `done`, and groups the rest into
/// prefix-equivalence classes, in ascending prefix order with each
/// class's members in input order. A stable sort of the members by
/// prefix gives that order; it is linear on the generators' sorted
/// levels. Every pair a class with a prefix reads gets its index in the
/// plan's pair list. Returns the plan and the batch's result rows: a
/// trivial set's row holds its table, a class member's row stays empty
/// until its class is counted. Trivial sets never walk a lattice, which
/// is what lets a sharded engine answer them from supports summed across
/// its shards.
///
/// # Panics
///
/// If a set is wider than [`MAX_TABLE_WIDTH`] items.
fn plan_level(
    sets: &[Itemset],
    n_transactions: u64,
    item_support: impl Fn(Item) -> u64,
    done: &mut BatchInterrupted,
) -> (LevelPlan, Vec<Vec<u64>>) {
    let mut results = Vec::with_capacity(sets.len());
    let mut grouped: Vec<usize> = Vec::new();
    // Every class member's items lie below this item id.
    let mut width = 0;
    for (i, set) in sets.iter().enumerate() {
        check_width(set);
        let row = match set.items() {
            [] => vec![n_transactions],
            [a] => {
                let with = item_support(*a);
                vec![n_transactions - with, with]
            }
            [.., last] => {
                width = width.max(last.index() + 1);
                grouped.push(i);
                results.push(Vec::new());
                continue;
            }
        };
        done.tables_completed += 1;
        done.cells_completed += row.len() as u64;
        results.push(row);
    }
    // Set `i`'s prefix and its final pair `(a, b)`; `grouped` holds only
    // sets of two or more items.
    let split = |i: usize| {
        let (prefix, pair) = sets[i].items().split_at(sets[i].len() - 2);
        (prefix, (pair[0], pair[1]))
    };
    grouped.sort_by(|&i, &j| split(i).0.cmp(split(j).0));
    let mut pairs: Vec<(Item, Item)> = Vec::new();
    let mut index: HashMap<u64, u32, ItemsetBuildHasher> = HashMap::default();
    let mut intern = |x: Item, y: Item| {
        let key = u64::from(x.id()) << 32 | u64::from(y.id());
        *index.entry(key).or_insert_with(|| {
            pairs.push((x, y));
            (pairs.len() - 1) as u32
        })
    };
    // Per item id: the last class that listed it among its suffix items,
    // and its position there. So a class lists its distinct suffix items
    // in one pass over its members and reads each member's positions
    // directly.
    let (mut seen_in, mut position) = (vec![usize::MAX; width], vec![0u32; width]);
    let classes = grouped
        .chunk_by(|&i, &j| split(i).0 == split(j).0)
        .enumerate()
        .map(|(c, class)| {
            let prefix = split(class[0]).0;
            let ab = || class.iter().map(|&i| split(i).1);
            let mut items = Vec::new();
            for x in ab().flat_map(|(a, b)| [a, b]) {
                if seen_in[x.index()] != c {
                    seen_in[x.index()] = c;
                    items.push(x);
                }
            }
            items.sort_unstable();
            for (at, x) in items.iter().enumerate() {
                position[x.index()] = at as u32;
            }
            let pos = |item: Item| position[item.index()];
            let members = ab().map(|(a, b)| (pos(a), pos(b))).collect();
            let (member_pairs, prefix_pairs) = if prefix.is_empty() {
                (Vec::new(), Vec::new())
            } else {
                let member_pairs = ab().map(|(a, b)| intern(a, b)).collect();
                let prefix_pairs = prefix
                    .iter()
                    .flat_map(|&q| items.iter().map(move |&x| (q, x)))
                    .map(|(q, x)| intern(q, x))
                    .collect();
                (member_pairs, prefix_pairs)
            };
            OwnedClass {
                prefix: prefix.to_vec(),
                items,
                members,
                member_pairs,
                prefix_pairs,
                rows: class.to_vec(),
            }
        })
        .collect();
    (LevelPlan { classes, pairs }, results)
}

/// What counting a class reuses across classes and batches: the
/// lattice arena (one bitmap per depth from 2 on), the per-item supports
/// of the node in hand, and the partial tables a shard after the first
/// counts a class into. A runner owns one per shard, never shared, and
/// the engine keeps them across batches until its counter degrades.
#[derive(Debug, Default)]
pub(crate) struct ClassScratch {
    arena: Vec<TidSet>,
    item_supports: Vec<usize>,
    part: Vec<Vec<u64>>,
}

/// A class's member rows, and whether a runner has counted them whole.
#[derive(Debug)]
struct ClassRows {
    rows: Vec<Vec<u64>>,
    counted: bool,
}

/// One batch's prefix classes over a database's tid-range shards (one
/// shard for a plain [`VerticalIndex`]): the classes, each class's
/// member rows, the one cursor the classes are claimed from, and each
/// shard's core with its pair-support table for the batch. The batch's
/// runners borrow it.
#[derive(Debug)]
struct ClassRun<'a> {
    classes: &'a [OwnedClass],
    /// Class `i`'s member rows: allocated empty by the planning thread,
    /// filled and marked counted by the runner that claims the class, and
    /// taken by the calling thread once every runner has returned. So no
    /// runner allocates what the calling thread frees.
    tables: Vec<Mutex<ClassRows>>,
    cursor: AtomicUsize,
    shards: Vec<(&'a VerticalCore, PairSupports<'a>)>,
}

impl<'a> ClassRun<'a> {
    fn new(plan: &'a LevelPlan, cores: &'a [Arc<VerticalCore>]) -> Self {
        ClassRun {
            classes: &plan.classes,
            tables: plan
                .classes
                .iter()
                .map(|class| {
                    let row = |_| Vec::with_capacity(class.table_len());
                    Mutex::new(ClassRows {
                        rows: class.members.iter().map(row).collect(),
                        counted: false,
                    })
                })
                .collect(),
            cursor: AtomicUsize::new(0),
            shards: cores
                .iter()
                .map(|core| (&**core, PairSupports::new(&plan.pairs)))
                .collect(),
        }
    }

    /// The class body: counts class `i` on shard 0 into its member rows,
    /// zeroed here, then adds in each other shard's tables, and marks the
    /// class counted. `scratch` holds one arena per shard.
    fn count(&self, i: usize, scratch: &mut [ClassScratch]) {
        let class = &self.classes[i];
        // A runner that panicked re-panics on the calling thread before
        // any row is read, so poisoning can be ignored.
        let mut tables = self.tables[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let ClassRows { rows, counted } = &mut *tables;
        for row in rows.iter_mut() {
            row.resize(class.table_len(), 0);
        }
        let mut shards = self.shards.iter().zip(scratch);
        if let Some(((core, pairs), scratch)) = shards.next() {
            core.count_class(class, pairs, scratch, rows);
        }
        for ((core, pairs), scratch) in shards {
            // Grown, never shrunk, so its rows are reused across classes
            // and batches.
            let mut part = std::mem::take(&mut scratch.part);
            if part.len() < rows.len() {
                part.resize_with(rows.len(), Vec::new);
            }
            let part_rows = &mut part[..rows.len()];
            for row in part_rows.iter_mut() {
                row.clear();
                row.resize(class.table_len(), 0);
            }
            core.count_class(class, pairs, scratch, part_rows);
            add_tables(rows, part_rows);
            scratch.part = part;
        }
        *counted = true;
    }

    /// One runner's drain loop: checks the probe, claims the next class
    /// from the cursor, counts it on every shard and charges it once its
    /// tables are whole, until the classes run out or the probe stops or
    /// trips on the charge. So a runner counts at most the class in hand
    /// past a trip.
    fn drain(&self, scratch: &mut [ClassScratch], probe: &dyn CountProbe) {
        while !probe.should_stop() {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(class) = self.classes.get(i) else {
                return;
            };
            self.count(i, scratch);
            if probe.charge(class.cells()) {
                return;
            }
        }
    }
}

/// The one tid-set batch (see the module docs): plans `sets`, answers
/// and charges its 0-/1-item sets from `n_transactions` and
/// `item_support`, drains its classes over the shard `cores`, and
/// settles the outcome. `scratch` holds one arena per shard for each of
/// the engine's workers. A batch of two or more classes whose estimated
/// bitmap traffic reaches `work_floor` is drained by
/// `min(workers, classes)` runners, the calling thread first; any other
/// batch by the calling thread alone. An interrupted batch's
/// [`BatchInterrupted`] records the trivial sets and every class counted
/// whole.
pub(crate) fn count_batch(
    sets: &[Itemset],
    n_transactions: usize,
    item_support: impl Fn(Item) -> u64,
    cores: &[Arc<VerticalCore>],
    scratch: &mut [ClassScratch],
    work_floor: u64,
    probe: &dyn CountProbe,
) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
    let mut done = BatchInterrupted::default();
    let (plan, mut results) = plan_level(sets, n_transactions as u64, item_support, &mut done);
    if done.cells_completed > 0 && probe.charge(done.cells_completed) {
        return done.settle(results);
    }
    let n_classes = plan.classes.len();
    let workers = scratch.len() / cores.len();
    let runners = if n_classes >= 2 && plan.estimated_word_ops(n_transactions) >= work_floor {
        workers.min(n_classes)
    } else {
        1
    };
    let run = ClassRun::new(&plan, cores);
    run_scoped(scratch.chunks_mut(cores.len()).take(runners), |scratch| {
        run.drain(scratch, probe)
    });
    for (class, tables) in plan.classes.iter().zip(run.tables) {
        let tables = tables.into_inner().unwrap_or_else(PoisonError::into_inner);
        if tables.counted {
            for (table, &row) in tables.rows.into_iter().zip(&class.rows) {
                results[row] = table;
            }
            done.tables_completed += class.members.len() as u64;
            done.cells_completed += class.cells();
        }
    }
    done.settle(results)
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
    ///
    /// Every tid is below `end - start` by construction, so the pass
    /// sets bitmap words directly and each set's population hints are
    /// computed once at the end.
    pub(crate) fn build_range(db: &TransactionDb, start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= db.len());
        let n = end - start;
        let mut words = vec![vec![0u64; TidSet::padded_words(n)]; db.n_items() as usize];
        for (tid, t) in db.transactions().skip(start).take(n).enumerate() {
            let (word, bit) = (tid / 64, 1u64 << (tid % 64));
            for item in t {
                words[item.index()][word] |= bit;
            }
        }
        VerticalCore {
            n_transactions: n,
            tidsets: words
                .into_iter()
                .map(|w| TidSet::from_words(n, w))
                .collect(),
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

    /// Counts one class into `out`, where `out[j]` is member `j`'s
    /// zeroed `2^k`-cell table and `pair_supports` is this core's table
    /// for the class's batch. Bit `i` of a cell index is the set's `i`-th
    /// item: the prefix items first, then `a`, then `b`. The walk writes
    /// each member's subset supports into its row, and one Möbius pass
    /// per row turns them into cells. Grows `scratch` on demand; it is
    /// reused across calls.
    fn count_class(
        &self,
        class: &OwnedClass,
        pair_supports: &PairSupports,
        scratch: &mut ClassScratch,
        out: &mut [Vec<u64>],
    ) {
        debug_assert_eq!(out.len(), class.members.len());
        let n = self.n_transactions;
        if n == 0 {
            return; // every support is zero, and so is every cell
        }
        let m = class.prefix.len();
        let ClassScratch {
            arena,
            item_supports,
            ..
        } = scratch;
        // Q = ∅: the transaction count, the suffix items' supports, and
        // the members' pair supports.
        item_supports.clear();
        item_supports.extend(class.items.iter().map(|&x| self.tidset(x).count()));
        let n_ab = |j: usize, (a, b): (Item, Item)| match class.member_pairs.get(j) {
            Some(&p) => pair_supports.get(self, p),
            None => self.tidset(a).intersection_count(self.tidset(b)),
        };
        self.record_node(0, None, n, class, item_supports, n_ab, out);
        // |Q| = 1: each prefix item's own tid-set, its pair supports
        // from the table, then the deeper nodes under it.
        while arena.len() + 1 < m {
            arena.push(TidSet::new(n));
        }
        let width = class.items.len();
        for (i, &q) in class.prefix.iter().enumerate() {
            let node = self.tidset(q);
            let total = node.count();
            if total == 0 {
                continue;
            }
            let pairs = &class.prefix_pairs[i * width..(i + 1) * width];
            for (s, &p) in item_supports.iter_mut().zip(pairs) {
                *s = pair_supports.get(self, p);
            }
            let triples = self.triples(node);
            self.record_node(1 << i, Some(0), total, class, item_supports, triples, out);
            self.descend(node, i + 1, 1 << i, class, item_supports, arena, out);
        }
        for row in out.iter_mut() {
            supports_to_cells(row);
        }
    }

    /// Visits the children of `parent` (the node for prefix subset
    /// `mask`) that add a prefix item at position `from` or later, each
    /// intersected into the arena's first slot, and their subtrees with
    /// the remaining slots. A node's bitmap stays live and untouched
    /// while its subtree runs.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        parent: &TidSet,
        from: usize,
        mask: usize,
        class: &OwnedClass,
        item_supports: &mut [usize],
        arena: &mut [TidSet],
        out: &mut [Vec<u64>],
    ) {
        let Some((node, deeper)) = arena.split_first_mut() else {
            return; // `parent` is a leaf of the lattice
        };
        for (i, &q) in class.prefix.iter().enumerate().skip(from) {
            let total = parent.intersect_into(self.tidset(q), node);
            if total == 0 {
                continue; // its supersets' supports stay zero
            }
            for (s, &x) in item_supports.iter_mut().zip(&class.items) {
                *s = node.intersection_count(self.tidset(x));
            }
            let (parent, mask) = (mask, mask | 1 << i);
            let triples = self.triples(node);
            self.record_node(
                mask,
                Some(parent),
                total,
                class,
                item_supports,
                triples,
                out,
            );
            self.descend(node, i + 1, mask, class, item_supports, deeper, out);
        }
    }

    /// The member supports `|node ∩ t_a ∩ t_b|` of a node below the
    /// lattice's root.
    fn triples<'a>(&'a self, node: &'a TidSet) -> impl Fn(usize, (Item, Item)) -> usize + 'a {
        move |_, (a, b)| node.triple_intersection_count(self.tidset(a), self.tidset(b))
    }

    /// Writes the supports of lattice node `mask` into every member row:
    /// `|T_Q|` at `mask`, the suffix items' supports at `mask | a` and
    /// `mask | b`, and `n_ab(j, (a, b))` at `mask | a | b`. That last
    /// support lies between `n_a + n_b − |T_Q|` and the least of `n_a`,
    /// `n_b` and the `parent` node's own `(a, b)` support, already in the
    /// row; where the two bounds meet (an item absent from the node, or
    /// present in all of it, as in correlated data) they give it with no
    /// pass.
    #[allow(clippy::too_many_arguments)]
    fn record_node(
        &self,
        mask: usize,
        parent: Option<usize>,
        total: usize,
        class: &OwnedClass,
        item_supports: &[usize],
        n_ab: impl Fn(usize, (Item, Item)) -> usize,
        out: &mut [Vec<u64>],
    ) {
        let m = class.prefix.len();
        let (a_bit, b_bit) = (1usize << m, 1usize << (m + 1));
        for (j, (row, &(ap, bp))) in out.iter_mut().zip(&class.members).enumerate() {
            let (n_a, n_b) = (item_supports[ap as usize], item_supports[bp as usize]);
            row[mask] = total as u64;
            row[mask | a_bit] = n_a as u64;
            row[mask | b_bit] = n_b as u64;
            let above = parent.map_or(usize::MAX, |p| row[p | a_bit | b_bit] as usize);
            let high = n_a.min(n_b).min(above);
            let low = (n_a + n_b).saturating_sub(total);
            row[mask | a_bit | b_bit] = if low >= high {
                high as u64
            } else {
                let pair = (class.items[ap as usize], class.items[bp as usize]);
                n_ab(j, pair) as u64
            };
        }
    }
}

/// Turns a table of subset supports (`row[S]` counts the transactions
/// holding every item of `S`) into exact-minterm cells in place: after
/// the pass for bit `i`, `row[S]` counts the transactions that match `S`
/// exactly on bits `0..=i` and hold `S`'s items above them. Every
/// intermediate value is such a count, so no subtraction underflows.
fn supports_to_cells(row: &mut [u64]) {
    let mut half = 1;
    while half < row.len() {
        for block in row.chunks_exact_mut(2 * half) {
            let (without, with) = block.split_at_mut(half);
            for (w, h) in without.iter_mut().zip(with.iter()) {
                *w -= *h;
            }
        }
        half *= 2;
    }
}

/// Per-item tid-sets for a transaction database.
#[derive(Debug)]
pub struct VerticalIndex {
    pub(crate) core: Arc<VerticalCore>,
    /// The lattice arena and per-item support buffer. Grown on demand,
    /// reused across tables. Cloning the index shares the (immutable)
    /// core but gives the clone a fresh arena.
    scratch: ClassScratch,
}

impl Clone for VerticalIndex {
    fn clone(&self) -> Self {
        Self::from_core(Arc::clone(&self.core))
    }
}

impl VerticalIndex {
    /// Builds the index in a single pass over the database.
    pub fn build(db: &TransactionDb) -> Self {
        VerticalIndex {
            core: Arc::new(VerticalCore::build_range(db, 0, db.len())),
            scratch: ClassScratch::default(),
        }
    }

    /// Wraps an existing shared core (same tid-sets, fresh arena).
    pub(crate) fn from_core(core: Arc<VerticalCore>) -> Self {
        VerticalIndex {
            core,
            scratch: ClassScratch::default(),
        }
    }

    /// Number of transactions in the indexed database.
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.core.n_transactions()
    }

    /// The scratch-arena footprint, in bytes, that counting tables with
    /// `depths` prefix items requires for a database of `n_transactions`
    /// rows: one bitmap per lattice depth from 2 to `depths`, each padded
    /// to whole cache-line superblocks and carrying its per-superblock
    /// population hints (see [`TidSet`]'s module docs). A `k`-itemset has
    /// `k - 2` prefix items; the depth-1 nodes are the items' own
    /// tid-sets, so sets of up to 3 items need no arena. Used by
    /// memory-budget checks *before* the arena grows. The pooled engine
    /// counts `workers ×` the sum of its shards' arenas — every runner
    /// owns one arena per shard, each sized to its shard.
    pub fn scratch_bytes(n_transactions: usize, depths: usize) -> usize {
        use crate::tidset::{SUPERBLOCK_BITS, SUPERBLOCK_WORDS};
        let supers = n_transactions.div_ceil(SUPERBLOCK_BITS);
        let per_bitmap = supers * SUPERBLOCK_WORDS * std::mem::size_of::<u64>()
            + supers * std::mem::size_of::<u32>();
        depths.saturating_sub(1) * per_bitmap
    }

    /// An upper bound, in bytes, of one core's pair-support table for a
    /// batch over `sets`: a `k`-set with a prefix (`k ≥ 3`) reads at most
    /// `2k − 3` pairs, its `(a, b)` and each prefix item with `a` and
    /// with `b`.
    pub(crate) fn pair_table_bytes(sets: &[Itemset]) -> usize {
        let pairs: usize = sets
            .iter()
            .filter(|s| s.len() >= 3)
            .map(|s| 2 * s.len() - 3)
            .sum();
        pairs * std::mem::size_of::<usize>()
    }

    /// The scratch bytes one single-threaded index needs for a batch
    /// over `sets` whose largest member has `depths` prefix items: its
    /// arena and its pair-support table.
    pub(crate) fn batch_bytes(n_transactions: usize, sets: &[Itemset], depths: usize) -> u64 {
        (Self::scratch_bytes(n_transactions, depths) + Self::pair_table_bytes(sets)) as u64
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

/// Eclat-style prefix sharing over supports (see the module docs).
/// Candidates are grouped into equivalence classes by their `(k-2)`-item
/// prefix. Each class walks the prefix's subset lattice **once**; at each
/// node the node total and the per-item supports are found once for the
/// whole class, so a member's marginal cost is one
/// [`TidSet::triple_intersection_count`] pass per non-empty node, and
/// none at the root, whose pair supports come from the batch's table. A
/// batch of one set is one class. Sets of mixed sizes are allowed (each
/// size/prefix combination forms its own class).
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
        let core = &self.core;
        count_batch(
            sets,
            core.n_transactions(),
            |a| core.tidset(a).count() as u64,
            std::slice::from_ref(core),
            std::slice::from_mut(&mut self.scratch),
            u64::MAX,
            probe,
        )
    }

    fn footprint_bytes(&self, sets: &[Itemset], depths: usize) -> u64 {
        VerticalIndex::batch_bytes(VerticalIndex::n_transactions(self), sets, depths)
    }
}

/// Rejects a table wider than [`MAX_TABLE_WIDTH`] items.
fn check_width(set: &Itemset) {
    assert!(
        set.len() <= MAX_TABLE_WIDTH,
        "refusing to build a 2^{}-cell table",
        set.len()
    );
}

/// Allocates the zeroed `2^k` result vector for every candidate,
/// rejecting tables wider than [`MAX_TABLE_WIDTH`] items.
pub(crate) fn alloc_results(sets: &[Itemset]) -> Vec<Vec<u64>> {
    sets.iter()
        .map(|s| {
            check_width(s);
            vec![0u64; 1usize << s.len()]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{MintermCounter, Tiered, VerticalCounter};

    impl ClassScratch {
        /// The lattice arena, for tests of its reuse.
        pub(crate) fn arena(&self) -> &[TidSet] {
            &self.arena
        }

        /// Whether the scratch holds no buffer at all.
        pub(crate) fn is_released(&self) -> bool {
            self.arena.capacity() == 0
                && self.item_supports.capacity() == 0
                && self.part.capacity() == 0
        }
    }

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
        let arena_after_first = v.index().scratch.arena.len();
        assert_eq!(arena_after_first, 1, "k=4 materialises one lattice depth");
        // Same and smaller tables must not grow the arena, and a dirty
        // arena must not corrupt later counts.
        let again = v.minterm_counts(&Itemset::from_ids([0, 1, 2, 3]));
        let smaller = v.minterm_counts(&Itemset::from_ids([1, 3]));
        assert_eq!(v.index().scratch.arena.len(), arena_after_first);
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
            clone.index().scratch.arena.is_empty(),
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

    /// The split-tree class kernel, kept as the differential reference:
    /// it walks the prefix's split tree from the universe and finishes
    /// every member at each leaf `L` by inclusion–exclusion from `|L|`,
    /// `|L ∩ a|`, `|L ∩ b|` and `|L ∩ a ∩ b|`. Splits and counts go
    /// through tid iteration, so it shares no bitmap kernel with the
    /// code under test.
    fn split_tree_tables(core: &VerticalCore, class: &OwnedClass) -> Vec<Vec<u64>> {
        fn recurse(
            core: &VerticalCore,
            current: &TidSet,
            prefix: &[Item],
            depth: usize,
            mask: usize,
            class: &OwnedClass,
            out: &mut [Vec<u64>],
        ) {
            let count = |sets: &[&TidSet]| {
                current
                    .iter()
                    .filter(|&t| sets.iter().all(|s| s.contains(t)))
                    .count() as u64
            };
            match prefix.split_first() {
                None => {
                    let (a_bit, b_bit) = (1usize << depth, 1usize << (depth + 1));
                    for (j, &(ap, bp)) in class.members.iter().enumerate() {
                        let a = core.tidset(class.items[ap as usize]);
                        let b = core.tidset(class.items[bp as usize]);
                        let (n, n_a, n_b, n_ab) =
                            (count(&[]), count(&[a]), count(&[b]), count(&[a, b]));
                        out[j][mask | a_bit | b_bit] = n_ab;
                        out[j][mask | a_bit] = n_a - n_ab;
                        out[j][mask | b_bit] = n_b - n_ab;
                        out[j][mask] = n + n_ab - n_a - n_b;
                    }
                }
                Some((&first, rest)) => {
                    let t = core.tidset(first);
                    let cap = current.capacity();
                    let with = TidSet::from_ids(cap, current.iter().filter(|&x| t.contains(x)));
                    let without = TidSet::from_ids(cap, current.iter().filter(|&x| !t.contains(x)));
                    let bit = 1usize << depth;
                    recurse(core, &with, rest, depth + 1, mask | bit, class, out);
                    recurse(core, &without, rest, depth + 1, mask, class, out);
                }
            }
        }
        let mut out = vec![vec![0u64; class.table_len()]; class.members.len()];
        let universe = TidSet::full(core.n_transactions());
        recurse(core, &universe, &class.prefix, 0, 0, class, &mut out);
        out
    }

    /// One class's member tables.
    type Tables = Vec<Vec<u64>>;

    /// Every class of `sets`, counted over `shards` contiguous tid ranges
    /// through the class body, next to the reference kernel's tables
    /// over the whole database.
    fn lattice_and_reference(
        db: &TransactionDb,
        sets: &[Itemset],
        shards: usize,
    ) -> Vec<(Tables, Tables)> {
        let n = db.len();
        let s = shards.clamp(1, n.max(1));
        let cores: Vec<Arc<VerticalCore>> = (0..s)
            .map(|i| Arc::new(VerticalCore::build_range(db, i * n / s, (i + 1) * n / s)))
            .collect();
        let whole = VerticalCore::build_range(db, 0, n);
        let (plan, _) = plan_level(
            sets,
            n as u64,
            |a| db.item_supports()[a.index()] as u64,
            &mut BatchInterrupted::default(),
        );
        // One arena per shard, reused across classes, as every runner
        // keeps them.
        let run = ClassRun::new(&plan, &cores);
        let mut scratch: Vec<ClassScratch> =
            cores.iter().map(|_| ClassScratch::default()).collect();
        run.classes
            .iter()
            .enumerate()
            .map(|(i, class)| {
                run.count(i, &mut scratch);
                let tables = std::mem::take(&mut run.tables[i].lock().unwrap().rows);
                (tables, split_tree_tables(&whole, class))
            })
            .collect()
    }

    /// The reference grouping: a `BTreeMap` from prefix to its members
    /// in input order, the classes in map order. The sorted plan must
    /// reproduce it class for class.
    fn btree_plan(
        sets: &[Itemset],
        n_transactions: u64,
        item_support: impl Fn(Item) -> u64,
        done: &mut BatchInterrupted,
    ) -> (LevelPlan, Vec<Vec<u64>>) {
        use std::collections::BTreeMap;
        let mut results = Vec::with_capacity(sets.len());
        let mut grouped: BTreeMap<&[Item], Vec<(usize, Item, Item)>> = BTreeMap::new();
        for (i, set) in sets.iter().enumerate() {
            let row = match set.items() {
                [] => vec![n_transactions],
                [a] => {
                    let with = item_support(*a);
                    vec![n_transactions - with, with]
                }
                [prefix @ .., a, b] => {
                    grouped.entry(prefix).or_default().push((i, *a, *b));
                    results.push(Vec::new());
                    continue;
                }
            };
            done.tables_completed += 1;
            done.cells_completed += row.len() as u64;
            results.push(row);
        }
        let mut pairs: Vec<(Item, Item)> = Vec::new();
        let mut index: HashMap<u64, u32> = HashMap::new();
        let mut intern = |x: Item, y: Item| {
            let key = u64::from(x.id()) << 32 | u64::from(y.id());
            *index.entry(key).or_insert_with(|| {
                pairs.push((x, y));
                (pairs.len() - 1) as u32
            })
        };
        let classes = grouped
            .into_iter()
            .map(|(prefix, raw)| {
                let mut items: Vec<Item> = raw.iter().flat_map(|&(_, a, b)| [a, b]).collect();
                items.sort_unstable();
                items.dedup();
                let pos = |item: Item| items.binary_search(&item).unwrap() as u32;
                let members = raw.iter().map(|&(_, a, b)| (pos(a), pos(b))).collect();
                let (member_pairs, prefix_pairs) = if prefix.is_empty() {
                    (Vec::new(), Vec::new())
                } else {
                    let member_pairs = raw.iter().map(|&(_, a, b)| intern(a, b)).collect();
                    let prefix_pairs = prefix
                        .iter()
                        .flat_map(|&q| items.iter().map(move |&x| (q, x)))
                        .map(|(q, x)| intern(q, x))
                        .collect();
                    (member_pairs, prefix_pairs)
                };
                OwnedClass {
                    prefix: prefix.to_vec(),
                    items,
                    members,
                    member_pairs,
                    prefix_pairs,
                    rows: raw.iter().map(|&(ci, _, _)| ci).collect(),
                }
            })
            .collect();
        (LevelPlan { classes, pairs }, results)
    }

    /// A probe whose only limit is a cell budget.
    #[derive(Clone, Default)]
    struct Budget {
        cells: u64,
        spent: Arc<std::sync::atomic::AtomicU64>,
    }

    impl CountProbe for Budget {
        fn should_stop(&self) -> bool {
            self.spent.load(Ordering::Relaxed) >= self.cells
        }
        fn charge(&self, cells: u64) -> bool {
            self.spent.fetch_add(cells, Ordering::Relaxed) + cells >= self.cells
        }
    }

    /// What a batch planned as `plan`, with trivial work `trivial`, has
    /// completed when a `budget`-cell probe stops it on the calling
    /// thread: the trivial sets, charged first, then whole classes in
    /// plan order up to the one whose charge reaches the budget.
    fn completed_under(
        plan: &LevelPlan,
        trivial: BatchInterrupted,
        budget: u64,
    ) -> BatchInterrupted {
        let mut done = trivial;
        if done.cells_completed > 0 && done.cells_completed >= budget {
            return done;
        }
        for class in &plan.classes {
            if done.cells_completed >= budget {
                break;
            }
            done.tables_completed += class.members.len() as u64;
            done.cells_completed += class.cells();
            if done.cells_completed >= budget {
                break;
            }
        }
        done
    }

    /// Pins the sorted plan to the `BTreeMap` grouping: the same classes
    /// in the same order, members in the same order, the same pair list
    /// and trivial rows, and, under every budget that trips the batch
    /// between two classes or inside one, the same completed work.
    fn plan_matches_the_btree_grouping(db: &TransactionDb, sets: &[Itemset]) {
        let n = db.len() as u64;
        let support = |a: Item| db.item_supports()[a.index()] as u64;
        let (mut done, mut want_done) = Default::default();
        let (plan, results) = plan_level(sets, n, support, &mut done);
        let (want, want_results) = btree_plan(sets, n, support, &mut want_done);
        assert_eq!(plan.classes, want.classes);
        assert_eq!(plan.pairs, want.pairs);
        assert_eq!(results, want_results);
        assert_eq!(done, want_done);
        // Budgets at, just below and just above every class boundary.
        let mut budgets = vec![0, 1];
        let mut boundary = want_done.cells_completed;
        for class in &want.classes {
            budgets.extend([boundary, boundary + 1]);
            boundary += class.cells();
            budgets.push(boundary - 1);
        }
        budgets.extend([boundary, boundary + 1]);
        let cores = [Arc::new(VerticalCore::build_range(db, 0, db.len()))];
        for budget in budgets {
            let expect = completed_under(&want, want_done, budget);
            let probe = Budget {
                cells: budget,
                ..Budget::default()
            };
            let mut scratch = vec![ClassScratch::default()];
            let got = count_batch(sets, db.len(), support, &cores, &mut scratch, 0, &probe);
            let whole = expect.tables_completed == sets.len() as u64;
            assert_eq!(got.err(), (!whole).then_some(expect), "budget {budget}");
        }
    }

    #[test]
    fn sorted_plan_matches_the_btree_grouping_on_a_mixed_batch() {
        let db = TransactionDb::from_ids(
            6,
            vec![
                vec![0, 1, 2, 3, 4],
                vec![0, 1, 2],
                vec![0, 3, 5],
                vec![1, 2, 4, 5],
                vec![2, 3, 4],
                vec![],
                vec![0, 1, 4, 5],
            ],
        );
        // Unsorted, mixed sizes, trivial sets in between, and one prefix
        // split by sets of another.
        let ids: [&[u32]; 12] = [
            &[1, 2, 4],
            &[0, 3],
            &[2],
            &[0, 1, 3, 5],
            &[1, 2, 3],
            &[],
            &[0, 1],
            &[0, 1, 3, 4],
            &[1, 3, 5],
            &[0, 1, 2],
            &[4, 5],
            &[1, 2, 5],
        ];
        let sets: Vec<Itemset> = ids
            .iter()
            .map(|s| Itemset::from_ids(s.iter().copied()))
            .collect();
        plan_matches_the_btree_grouping(&db, &sets);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        const N_ITEMS: u32 = 8;
        /// Present in every basket when the case asks for a full-support
        /// item; item 7 never occurs.
        const FULL: u32 = 6;

        fn db_strategy() -> impl Strategy<Value = TransactionDb> {
            (
                proptest::collection::vec(proptest::collection::vec(0u32..FULL, 0..6), 0..90),
                any::<bool>(),
            )
                .prop_map(|(mut txns, full)| {
                    if full {
                        for t in &mut txns {
                            t.push(FULL);
                        }
                    }
                    TransactionDb::from_ids(N_ITEMS, txns)
                })
        }

        /// Mixed-size batches: sets of 2 to 7 items (prefixes of 0 to
        /// 5), with trivial 0- and 1-item sets mixed in. Eight items make
        /// shared prefixes and shared suffix items common.
        fn sets_strategy() -> impl Strategy<Value = Vec<Itemset>> {
            proptest::collection::vec(
                proptest::collection::btree_set(0u32..N_ITEMS, 0..=7usize),
                1..24,
            )
            .prop_map(|sets| sets.into_iter().map(Itemset::from_ids).collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

            #[test]
            fn sorted_plan_matches_the_btree_grouping(
                (db, sets) in (db_strategy(), sets_strategy())
            ) {
                plan_matches_the_btree_grouping(&db, &sets);
            }

            #[test]
            fn class_kernel_matches_the_split_tree_reference(
                (db, sets, shards) in (db_strategy(), sets_strategy(), 1usize..=3)
            ) {
                for (got, want) in lattice_and_reference(&db, &sets, shards) {
                    prop_assert_eq!(got, want, "{} shards", shards);
                }
            }
        }
    }

    #[test]
    fn class_kernel_matches_the_reference_at_every_prefix_length() {
        // One class per prefix length 0..=5, over a database with an
        // empty basket, a zero-support item (7) and a full-support item
        // (6), a second database made only of empty baskets, and the
        // empty database.
        let baskets: Vec<Vec<u32>> = (0..700u32)
            .map(|i| {
                let mut t: Vec<u32> = (0..6).filter(|b| (i * 7 + i / 3) >> b & 1 == 1).collect();
                if i % 11 != 0 {
                    t.push(6);
                }
                t
            })
            .collect();
        let dbs = [
            TransactionDb::from_ids(8, baskets),
            TransactionDb::from_ids(8, vec![Vec::<u32>::new(); 5]),
            TransactionDb::from_ids(8, Vec::<Vec<u32>>::new()),
        ];
        for db in &dbs {
            for prefix_len in 0..=5u32 {
                let prefix = 0..prefix_len;
                let sets: Vec<Itemset> = [(5, 6), (5, 7), (6, 7)]
                    .iter()
                    .map(|&(a, b)| Itemset::from_ids(prefix.clone().chain([a, b])))
                    .filter(|s| s.len() == prefix_len as usize + 2)
                    .collect();
                for shards in 1..=3 {
                    for (got, want) in lattice_and_reference(db, &sets, shards) {
                        assert_eq!(got, want, "prefix {prefix_len}, {shards} shards");
                    }
                }
            }
        }
    }
}
