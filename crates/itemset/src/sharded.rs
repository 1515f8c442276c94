//! [`ShardedVerticalIndex`]: vertical minterm counting over a
//! horizontally sharded transaction database.
//!
//! Where [`crate::vertical_par::ParallelVerticalIndex`] parallelises
//! *across prefix classes* (each worker counts whole classes against the
//! full-range core), this engine parallelises *across the tid range*:
//! the database's transactions are split into `S` contiguous, disjoint
//! shards, each shard gets its own `VerticalCore` whose bitmaps cover
//! only its slice (`capacity = shard length`, tids rebased to the shard
//! start), and every prefix class is counted once per shard. Because a
//! transaction lives in exactly one shard, the elementwise sum of the
//! per-shard contingency tables equals the whole-database table —
//! bit-identically, cell by cell (`kernel_equivalence` and the sharded
//! proptests pin this for 1/2/3/7 shards).
//!
//! Sharding is the substrate the ROADMAP's multi-host fan-out needs: a
//! shard's core + scratch arena is self-contained, so a "worker" can as
//! easily be a remote host as a pool thread. On one box it also keeps
//! each worker's bitmap slice `1/S`-th the size — per-shard arenas sum
//! to roughly *one* full arena instead of the `workers ×` multiple the
//! class-parallel engine needs.
//!
//! # Interruption protocol
//!
//! Identical contract to the class-parallel engine, through the same
//! pooled class merge (`vertical::count_classes_pooled`) and drain loop.
//! Workers never see the [`CountProbe`]; the submitting thread owns it.
//! Each pool job owns one shard and streams `(class, partial tables)`
//! back over a channel; the submitting thread merges partials and
//! considers a class *complete* only when all `S` shards have delivered
//! it. Completed classes are scattered into the results, recorded, and
//! charged (first trip wins — on a trip the stop flag is raised, workers
//! finish the class in hand and drain). Classes with only some shards
//! delivered when the batch ends are discarded wholesale — a partially
//! merged table never escapes, so a `Truncated` result and its
//! `ResumeState` stay exact.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use crate::counting::{
    add_tables, unguarded, BatchInterrupted, CountProbe, NoProbe, Tiered, TieredEngine,
};
use crate::database::TransactionDb;
use crate::item::Item;
use crate::itemset::Itemset;
use crate::pool::WorkerPool;
use crate::tidset::TidSet;
use crate::vertical::{
    alloc_results, answer_trivial, count_classes_pooled, group_classes, ClassTables, OwnedClass,
    VerticalCore, VerticalIndex,
};
use crate::vertical_par::POOL_WORK_FLOOR;

/// A vertical index split into contiguous, disjoint tid-range shards,
/// each with its own core and scratch arena.
#[derive(Debug)]
pub struct ShardedVerticalIndex {
    cores: Vec<Arc<VerticalCore>>,
    /// `bounds[i]` is shard `i`'s `(start, end)` tid range.
    bounds: Vec<(usize, usize)>,
    n_transactions: usize,
    n_items: usize,
    /// Whole-database per-item supports (summed across shards), so
    /// trivial 0-/1-item candidates are answered without touching any
    /// single shard's bitmaps.
    item_supports: Vec<u64>,
    pool: Arc<WorkerPool>,
    /// One arena per shard for the sequential path (shards have
    /// different bitmap capacities, so arenas cannot be shared). Pool
    /// jobs own their arenas per batch.
    scratch: Vec<Vec<TidSet>>,
    item_counts: Vec<usize>,
    work_floor: u64,
}

/// Splits `n` transactions into `shards` contiguous ranges differing in
/// length by at most one. Requested shard counts are clamped to
/// `1..=max(n, 1)` — more shards than transactions would only mint
/// empty cores.
fn shard_bounds(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let s = shards.clamp(1, n.max(1));
    (0..s).map(|i| (i * n / s, (i + 1) * n / s)).collect()
}

impl ShardedVerticalIndex {
    /// Builds on the process-wide pool with one shard per pool worker.
    pub fn build(db: &TransactionDb) -> Self {
        let pool = Arc::clone(WorkerPool::global());
        let shards = pool.n_workers();
        Self::with_pool(db, shards, pool)
    }

    /// Builds with an explicit shard count on the process-wide pool.
    pub fn build_with_shards(db: &TransactionDb, shards: usize) -> Self {
        Self::with_pool(db, shards, Arc::clone(WorkerPool::global()))
    }

    /// Builds with an explicit shard count on a private pool of
    /// `n_workers` threads.
    pub fn build_with_shards_and_workers(
        db: &TransactionDb,
        shards: usize,
        n_workers: usize,
    ) -> Self {
        Self::with_pool(db, shards, Arc::new(WorkerPool::new(n_workers)))
    }

    /// Builds `shards` range cores (one database pass in total) on an
    /// existing pool.
    pub fn with_pool(db: &TransactionDb, shards: usize, pool: Arc<WorkerPool>) -> Self {
        let bounds = shard_bounds(db.len(), shards);
        let cores: Vec<Arc<VerticalCore>> = bounds
            .iter()
            .map(|&(start, end)| Arc::new(VerticalCore::build_range(db, start, end)))
            .collect();
        let n_items = db.n_items() as usize;
        let item_supports = (0..n_items)
            .map(|i| {
                cores
                    .iter()
                    .map(|c| c.tidset(Item::new(i as u32)).count() as u64)
                    .sum()
            })
            .collect();
        let scratch = cores.iter().map(|_| Vec::new()).collect();
        ShardedVerticalIndex {
            cores,
            bounds,
            n_transactions: db.len(),
            n_items,
            item_supports,
            pool,
            scratch,
            item_counts: Vec::new(),
            work_floor: POOL_WORK_FLOOR,
        }
    }

    /// Number of tid-range shards.
    pub fn n_shards(&self) -> usize {
        self.cores.len()
    }

    /// Number of pool workers available to a batch.
    pub fn n_workers(&self) -> usize {
        self.pool.n_workers()
    }

    /// Number of transactions in the indexed database (all shards).
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Number of items in the universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Absolute support of an itemset: the sum of its per-shard supports
    /// (each shard intersects only its own slice of the tid range).
    pub fn support(&self, set: &Itemset) -> usize {
        self.cores.iter().map(|c| c.support(set)).sum()
    }

    /// The total scratch-arena footprint of the sharded engine for
    /// `depths` recursion levels: the sum of the per-shard arenas. The
    /// shards partition the tid range, so this is roughly *one*
    /// full-range arena (plus per-shard superblock padding), not the
    /// `workers ×` multiple of the class-parallel engine.
    pub fn scratch_bytes(&self, depths: usize) -> usize {
        self.bounds
            .iter()
            .map(|&(start, end)| VerticalIndex::scratch_bytes(end - start, depths))
            .sum()
    }

    /// Overrides the sequential-fallback work floor. Tests and
    /// benchmarks set `0` to force pool dispatch on small batches (the
    /// default floor would — correctly — route them sequentially).
    pub fn set_work_floor(&mut self, floor: u64) {
        self.work_floor = floor;
    }

    /// Counts one set; see [`VerticalIndex::minterm_counts`] for cell
    /// indexing.
    pub fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        unguarded(self.minterm_counts_batch_guarded(std::slice::from_ref(set), &NoProbe))
            .swap_remove(0)
    }

    /// Batch minterm counting across shards. Results are bit-identical
    /// to [`VerticalIndex::minterm_counts_batch`] in input order.
    pub fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        unguarded(self.minterm_counts_batch_guarded(sets, &NoProbe))
    }

    /// Guarded batch counting; see the module docs for the interruption
    /// protocol. A class counts as completed only once every shard's
    /// partial table has been merged; partially merged classes never
    /// escape.
    pub fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let mut results = alloc_results(sets);
        let mut done = BatchInterrupted::default();
        let (trivial, plan) = group_classes(sets);
        for t in &trivial {
            let support = t.item.map_or(0, |a| self.item_supports[a.index()]);
            answer_trivial(
                t,
                self.n_transactions as u64,
                support,
                &mut results,
                &mut done,
            );
        }
        if done.cells_completed > 0 && probe.charge(done.cells_completed) {
            return done.settle(true, results);
        }
        if plan.classes.is_empty() {
            return Ok(results);
        }
        let estimated: u64 = plan
            .classes
            .iter()
            .map(|c| c.estimated_word_ops(self.n_transactions))
            .sum();
        let workers = self.pool.n_workers();
        let interrupted = if workers <= 1 || self.cores.len() < 2 || estimated < self.work_floor {
            self.run_classes_sequential(&plan.classes, probe, &mut results, &mut done)
        } else {
            // Pool path: one job per shard, each walking *every* class
            // against its own core with its own arena.
            let classes = Arc::new(plan.classes);
            let jobs = self.cores.iter().map(|core| {
                let (core, classes) = (Arc::clone(core), Arc::clone(&classes));
                move |stop: &AtomicBool, tx: &Sender<ClassTables>| {
                    // Shard-local state, reused across every class of the
                    // batch: one arena sized to this shard's slice, one
                    // flat item-count buffer.
                    let (mut scratch, mut item_counts) = (Vec::new(), Vec::new());
                    for (ci, class) in classes.iter().enumerate() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let part = core.class_tables(class, &mut item_counts, &mut scratch);
                        if tx.send((ci, part)).is_err() {
                            break; // receiver gone: the batch is over
                        }
                    }
                }
            });
            let parts = self.cores.len();
            count_classes_pooled(
                &self.pool,
                jobs,
                &classes,
                parts,
                probe,
                &mut results,
                &mut done,
            )
        };
        done.settle(interrupted, results)
    }

    /// Class-major sequential path: for each class, count every shard on
    /// the calling thread and merge; charge the probe once per class.
    fn run_classes_sequential(
        &mut self,
        classes: &[OwnedClass],
        probe: &dyn CountProbe,
        results: &mut [Vec<u64>],
        done: &mut BatchInterrupted,
    ) -> bool {
        let max_prefix = classes.iter().map(|c| c.prefix.len()).max().unwrap_or(0);
        for (core, scratch) in self.cores.iter().zip(self.scratch.iter_mut()) {
            core.ensure_scratch(scratch, max_prefix);
        }
        let mut acc: Vec<Vec<u64>> = Vec::new();
        for class in classes {
            if probe.should_stop() {
                return true;
            }
            // Accumulate directly into the members' (zeroed) result rows,
            // moved out to satisfy the borrow checker and moved back after.
            acc.clear();
            acc.extend(class.rows.iter().map(|&r| std::mem::take(&mut results[r])));
            for (core, scratch) in self.cores.iter().zip(self.scratch.iter_mut()) {
                let part = core.class_tables(class, &mut self.item_counts, scratch);
                add_tables(&mut acc, &part);
            }
            for (local, &r) in acc.iter_mut().zip(&class.rows) {
                results[r] = std::mem::take(local);
            }
            if class.complete(probe, done) {
                return true;
            }
        }
        false
    }
}

/// Tid-set counter over a horizontally sharded database. Its footprint is
/// the *sum* of the per-shard arenas, roughly one full-range arena; below
/// that it drops to a full-range vertical twin, built on first use (one
/// extra database scan, recorded in [`crate::CountingStats::db_scans`]),
/// then to horizontal scans.
pub type ShardedVerticalCounter<'a> = Tiered<'a, ShardedVerticalIndex>;

impl<'a> ShardedVerticalCounter<'a> {
    /// Builds with one shard per worker of the process-wide pool.
    pub fn new(db: &'a TransactionDb) -> Self {
        Tiered::from_engine(db, ShardedVerticalIndex::build(db))
    }

    /// Builds with an explicit shard count on the process-wide pool.
    pub fn with_shards(db: &'a TransactionDb, shards: usize) -> Self {
        Tiered::from_engine(db, ShardedVerticalIndex::build_with_shards(db, shards))
    }

    /// Builds with explicit shard and private-pool worker counts.
    pub fn with_shards_and_workers(db: &'a TransactionDb, shards: usize, workers: usize) -> Self {
        Tiered::from_engine(
            db,
            ShardedVerticalIndex::build_with_shards_and_workers(db, shards, workers),
        )
    }
}

impl TieredEngine for ShardedVerticalIndex {
    fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    fn count(&mut self, set: &Itemset) -> Vec<u64> {
        self.minterm_counts(set)
    }

    fn count_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        self.minterm_counts_batch_guarded(sets, probe)
    }

    fn footprint_bytes(&self, _sets: &[Itemset], depths: usize) -> u64 {
        self.scratch_bytes(depths) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{DegradationRung, HorizontalCounter, MintermCounter};

    fn db(n: usize) -> TransactionDb {
        TransactionDb::from_ids(
            8,
            (0..n).map(|i| {
                let mut t = Vec::new();
                if i % 2 == 0 {
                    t.extend([0, 1]);
                }
                if i % 3 == 0 {
                    t.push(2);
                }
                if i % 5 == 0 {
                    t.extend([3, 4]);
                }
                if i % 7 == 0 {
                    t.extend([5, 6, 7]);
                }
                t
            }),
        )
    }

    fn level() -> Vec<Itemset> {
        vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 2]),
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([0, 1, 3]),
            Itemset::from_ids([2, 3, 4]),
            Itemset::from_ids([0, 1, 2, 3]),
            Itemset::from_ids([3, 4, 5, 6]),
            Itemset::from_ids([5]),
            Itemset::empty(),
        ]
    }

    #[test]
    fn shard_bounds_partition_the_range() {
        for (n, s) in [(10, 3), (7, 7), (100, 1), (5, 9), (0, 4), (64, 2)] {
            let b = shard_bounds(n, s);
            assert_eq!(b.first().map(|&(lo, _)| lo), Some(0));
            assert_eq!(b.last().map(|&(_, hi)| hi), Some(n));
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                assert!(w[0].1 > w[0].0 || n == 0, "no empty shard for n={n} s={s}");
            }
        }
    }

    #[test]
    fn sharded_batch_matches_sequential_vertical_exactly() {
        let d = db(600);
        let sets = level();
        let mut seq = VerticalIndex::build(&d);
        let expected = seq.minterm_counts_batch(&sets);
        for shards in [1usize, 2, 3, 7] {
            for workers in [1usize, 2, 4] {
                let mut idx =
                    ShardedVerticalIndex::build_with_shards_and_workers(&d, shards, workers);
                idx.set_work_floor(0); // force pool dispatch
                assert_eq!(
                    idx.minterm_counts_batch(&sets),
                    expected,
                    "shards={shards} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn sharded_supports_match_full_range() {
        let d = db(313);
        let idx = ShardedVerticalIndex::build_with_shards_and_workers(&d, 3, 2);
        let v = VerticalIndex::build(&d);
        for set in level() {
            assert_eq!(idx.support(&set), v.support(&set), "{set}");
        }
    }

    #[test]
    fn counter_matches_horizontal_counter() {
        let d = db(400);
        let sets = level();
        let mut h = HorizontalCounter::new(&d);
        let expected = h.minterm_counts_batch(&sets);
        let mut c = ShardedVerticalCounter::with_shards_and_workers(&d, 3, 2);
        c.index_mut().set_work_floor(0);
        assert_eq!(c.minterm_counts_batch(&sets), expected);
        assert_eq!(c.stats().tables_built, sets.len() as u64);
        assert_eq!(c.stats().db_scans, 1, "the sharded build is one scan");
        for set in &sets {
            assert_eq!(c.minterm_counts(set), h.minterm_counts(set), "{set}");
        }
    }

    #[test]
    fn stopped_probe_interrupts_before_any_class() {
        struct Stopped;
        impl CountProbe for Stopped {
            fn should_stop(&self) -> bool {
                true
            }
            fn charge(&self, _cells: u64) -> bool {
                true
            }
        }
        let d = db(500);
        let sets = vec![Itemset::from_ids([0, 1, 2]), Itemset::from_ids([3, 4, 5])];
        let mut idx = ShardedVerticalIndex::build_with_shards_and_workers(&d, 2, 2);
        idx.set_work_floor(0);
        let err = idx
            .minterm_counts_batch_guarded(&sets, &Stopped)
            .unwrap_err();
        assert_eq!(err.tables_completed, 0);
    }

    #[test]
    fn ladder_degrades_sharded_to_vertical_to_horizontal() {
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
        }
        let d = db(1000);
        let triples = vec![Itemset::from_ids([0, 1, 2]), Itemset::from_ids([3, 4, 5])];
        let mut h = HorizontalCounter::new(&d);
        let expected = h.minterm_counts_batch(&triples);

        let mut c = ShardedVerticalCounter::with_shards_and_workers(&d, 3, 2);
        c.index_mut().set_work_floor(0);
        assert_eq!(c.rung(), DegradationRung::Preferred);
        // Per-shard padding makes the sharded sum strictly larger than
        // one full-range arena here (3 shards of ~334 pad to 1 superblock
        // each vs 2 superblocks full-range), so a budget of exactly one
        // full-range arena drops to Vertical but stays off Horizontal.
        let full = VerticalIndex::scratch_bytes(d.len(), 1);
        assert!(c.index().scratch_bytes(1) > full);
        let got = c
            .minterm_counts_batch_guarded(&triples, &Arena(full))
            .unwrap();
        assert_eq!(got, expected);
        assert_eq!(c.rung(), DegradationRung::Vertical);
        assert_eq!(c.stats().degraded_batches, 1);
        assert_eq!(
            c.stats().db_scans,
            2,
            "the lazy full-range twin is a second scan"
        );

        // Budget fits no arena at all: drop to Horizontal, stay there.
        let got = c.minterm_counts_batch_guarded(&triples, &Arena(1)).unwrap();
        assert_eq!(got, expected);
        assert_eq!(c.rung(), DegradationRung::Horizontal);
        assert_eq!(c.stats().degraded_batches, 2);

        // Degradation is sticky even with a generous later budget.
        let got = c
            .minterm_counts_batch_guarded(&triples, &Arena(usize::MAX))
            .unwrap();
        assert_eq!(got, expected);
        assert_eq!(c.rung(), DegradationRung::Horizontal);
        assert_eq!(c.stats().degraded_batches, 3);
    }

    #[test]
    fn budget_trip_keeps_completed_classes_and_reports_exact_stats() {
        use std::sync::atomic::AtomicU64;
        /// Trips once `budget` cells have been charged.
        struct Budget {
            budget: u64,
            spent: AtomicU64,
        }
        impl CountProbe for Budget {
            fn should_stop(&self) -> bool {
                self.spent.load(Ordering::Relaxed) >= self.budget
            }
            fn charge(&self, cells: u64) -> bool {
                self.spent.fetch_add(cells, Ordering::Relaxed) + cells >= self.budget
            }
        }
        let d = db(500);
        let sets: Vec<Itemset> = (0..6)
            .map(|i| Itemset::from_ids([i, i + 1, i + 2]))
            .collect();
        let mut c = ShardedVerticalCounter::with_shards_and_workers(&d, 3, 2);
        c.index_mut().set_work_floor(0);
        let probe = Budget {
            budget: 9,
            spent: AtomicU64::new(0),
        };
        // The trip races the drain: workers may legitimately finish every
        // class before the stop flag lands, in which case the batch
        // completed and `Ok` is the correct answer. Both outcomes must
        // keep the stats exact.
        match c.minterm_counts_batch_guarded(&sets, &probe) {
            Err(err) => {
                assert!(err.tables_completed >= 1, "first class kept");
                assert!(err.tables_completed < sets.len() as u64, "batch truncated");
                assert_eq!(c.stats().tables_built, err.tables_completed);
                assert_eq!(c.stats().cells_counted, err.cells_completed);
            }
            Ok(tables) => {
                assert_eq!(tables.len(), sets.len());
                assert_eq!(c.stats().tables_built, sets.len() as u64);
            }
        }
        assert!(
            probe.spent.load(Ordering::Relaxed) >= probe.budget,
            "the budget did trip"
        );
    }

    #[test]
    fn empty_database_answers_trivially() {
        let d = TransactionDb::from_ids(3, Vec::<Vec<u32>>::new());
        let mut idx = ShardedVerticalIndex::build_with_shards_and_workers(&d, 4, 2);
        assert_eq!(idx.n_shards(), 1, "no empty shards are minted");
        let sets = vec![
            Itemset::empty(),
            Itemset::from_ids([0]),
            Itemset::from_ids([0, 1]),
        ];
        let got = idx.minterm_counts_batch(&sets);
        assert_eq!(got[0], vec![0]);
        assert_eq!(got[1], vec![0, 0]);
        assert_eq!(got[2], vec![0, 0, 0, 0]);
    }
}
