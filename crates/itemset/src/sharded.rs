//! [`ShardedVerticalIndex`]: the one pooled vertical counting engine.
//!
//! The database's transactions are split into `S` contiguous, disjoint
//! tid-range shards. Each shard is a [`VerticalIndex`] whose bitmaps
//! cover only its slice (`capacity = shard length`, tids rebased to the
//! shard start), and every prefix class of a level batch is counted once
//! per shard. Because a transaction lives in exactly one shard, the
//! elementwise sum of the per-shard contingency tables equals the
//! whole-database table — bit-identically, cell by cell
//! (`kernel_equivalence` and the sharded proptests pin this for 1/2/3/7
//! shards). One shard is class-parallel counting over the full range:
//! [`ParallelVerticalIndex`], the `VerticalPar` strategy, is that case.
//!
//! # Schedule
//!
//! One rule serves every shard count. A batch goes to the pool when the
//! pool has more than one worker, the batch has at least two
//! (shard, class) work units, and its estimated bitmap traffic reaches
//! the work floor. On the pool, each shard gets `max(1, workers / S)`
//! jobs (never more than there are classes), which pull classes from
//! that shard's own atomic cursor — cheap dynamic load balancing, since
//! class costs vary by `2^(k-2)`. One shard thus runs
//! `min(workers, classes)` jobs over one cursor, and `S ≥ workers`
//! shards run one job per shard that walks every class. Each job owns
//! one scratch arena sized to its shard, reused across every class it
//! pulls, so the footprint the degradation ladder checks is
//! `max(1, workers / S) × Σ arena(shard)`: `workers ×` one full arena
//! for one shard, roughly one full arena once `S ≥ workers`.
//!
//! Below the floor, the batch runs on the calling thread through the one
//! sequential class runner it shares with [`VerticalIndex`]: shard 0
//! counts each class in place and the other shards are added in. A
//! single set sums the shards' direct counts, and 0-/1-item sets are
//! answered from whole-database item supports.
//!
//! # Interruption protocol
//!
//! Workers never see the [`CountProbe`] — a probe is borrowed and jobs
//! are `'static`. Jobs stream `(class, shard tables)` back through the
//! pool's drain loop (see [`crate::pool`]), and the submitting thread
//! merges them in `vertical::count_classes_pooled`: a class is
//! *complete* only once all `S` shards have delivered it, and only then
//! is it scattered into the results, recorded, and charged. On a trip
//! the stop flag is raised (first trip wins); jobs check it before
//! pulling another class, finish the class in hand, and drain away.
//! Classes with only some shards delivered when the batch ends are
//! discarded wholesale — a partially merged table never escapes, so a
//! `Truncated` result and its `ResumeState` stay exact.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use crate::counting::{unguarded, BatchInterrupted, CountProbe, NoProbe, Tiered, TieredEngine};
use crate::database::TransactionDb;
use crate::itemset::Itemset;
use crate::pool::WorkerPool;
use crate::vertical::{
    alloc_results, count_classes_pooled, plan_level, run_classes_sequential, ClassTables,
    VerticalCore, VerticalIndex,
};

/// Minimum estimated 64-bit bitmap words a batch must touch before the
/// pool is engaged; smaller batches run sequentially on the caller.
/// `1 << 17` words ≈ 1 MiB of bitmap traffic — far above the cost of a
/// handful of job dispatches, far below one mining level on a database
/// large enough to benefit from threads.
pub const POOL_WORK_FLOOR: u64 = 1 << 17;

/// A vertical index split into contiguous, disjoint tid-range shards,
/// counted on a persistent worker pool.
#[derive(Debug)]
pub struct ShardedVerticalIndex {
    /// One index per shard: its core over the shard's tid slice, and the
    /// arena the calling thread counts with. Pool jobs own their arenas.
    shards: Vec<VerticalIndex>,
    n_transactions: usize,
    /// Whole-database per-item supports (the database's own), so
    /// trivial 0-/1-item candidates are answered without touching any
    /// single shard's bitmaps.
    item_supports: Vec<u64>,
    pool: Arc<WorkerPool>,
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
        let shards: Vec<VerticalIndex> = shard_bounds(db.len(), shards)
            .into_iter()
            .map(|(start, end)| {
                VerticalIndex::from_core(Arc::new(VerticalCore::build_range(db, start, end)))
            })
            .collect();
        ShardedVerticalIndex {
            shards,
            n_transactions: db.len(),
            item_supports: db.item_supports().iter().map(|&s| s as u64).collect(),
            pool,
            work_floor: POOL_WORK_FLOOR,
        }
    }

    /// Number of tid-range shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of transactions in the indexed database (all shards).
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Overrides the sequential-fallback work floor. Tests and
    /// benchmarks set `0` to force pool dispatch on small batches (the
    /// default floor would — correctly — route them sequentially).
    pub fn set_work_floor(&mut self, floor: u64) {
        self.work_floor = floor;
    }

    /// Pool jobs each shard gets before clipping to the class count.
    fn jobs_per_shard(&self) -> usize {
        (self.pool.n_workers() / self.shards.len()).max(1)
    }

    /// Counts one set on the calling thread, summing the shards' tables;
    /// see [`VerticalIndex::minterm_counts`] for cell indexing.
    pub fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        let (first, rest) = self.shards.split_at_mut(1);
        let mut counts = first[0].minterm_counts(set);
        for shard in rest {
            for (cell, add) in counts.iter_mut().zip(shard.minterm_counts(set)) {
                *cell += add;
            }
        }
        counts
    }

    /// Batch minterm counting across shards. Results are bit-identical
    /// to [`VerticalIndex::minterm_counts_batch`] in input order.
    pub fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        unguarded(self.minterm_counts_batch_guarded(sets, &NoProbe))
    }

    /// Guarded batch counting; see the module docs for the schedule and
    /// the interruption protocol. A class counts as completed only once
    /// every shard's table has been merged; partially merged classes
    /// never escape.
    pub fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let mut results = alloc_results(sets);
        let mut done = BatchInterrupted::default();
        let supports = &self.item_supports;
        let classes = plan_level(
            sets,
            self.n_transactions as u64,
            |a| supports[a.index()],
            &mut results,
            &mut done,
        );
        if done.cells_completed > 0 && probe.charge(done.cells_completed) {
            return done.settle(true, results);
        }
        let estimated: u64 = classes
            .iter()
            .map(|c| c.estimated_word_ops(self.n_transactions))
            .sum();
        let n_shards = self.shards.len();
        let pooled = self.pool.n_workers() > 1
            && n_shards * classes.len() >= 2
            && estimated >= self.work_floor;
        let interrupted = if pooled {
            let classes = Arc::new(classes);
            let per_shard = self.jobs_per_shard().min(classes.len());
            let jobs = self.shards.iter().flat_map(|shard| {
                let (core, classes) = (Arc::clone(&shard.core), Arc::clone(&classes));
                let cursor = Arc::new(AtomicUsize::new(0));
                (0..per_shard).map(move |_| {
                    let (core, classes, cursor) =
                        (Arc::clone(&core), Arc::clone(&classes), Arc::clone(&cursor));
                    move |stop: &AtomicBool, tx: &Sender<ClassTables>| {
                        // Job-local state, reused across every class this
                        // job pulls: one arena sized to its shard, one
                        // flat item-count buffer.
                        let (mut scratch, mut item_counts) = (Vec::new(), Vec::new());
                        while !stop.load(Ordering::Acquire) {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(class) = classes.get(i) else { break };
                            let part = core.class_tables(class, &mut item_counts, &mut scratch);
                            if tx.send((i, part)).is_err() {
                                break; // receiver gone: the batch is over
                            }
                        }
                    }
                })
            });
            count_classes_pooled(
                &self.pool,
                jobs,
                &classes,
                n_shards,
                probe,
                &mut results,
                &mut done,
            )
        } else {
            run_classes_sequential(&mut self.shards, &classes, probe, &mut results, &mut done)
        };
        done.settle(interrupted, results)
    }
}

/// Tid-set counter over a horizontally sharded database. Below its
/// footprint it drops to a full-range vertical twin — built on first use
/// (one extra database scan, recorded in
/// [`crate::CountingStats::db_scans`]) unless there is only one shard,
/// whose core the twin shares — then to horizontal scans.
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
        let arenas: usize = self
            .shards
            .iter()
            .map(|s| VerticalIndex::scratch_bytes(s.n_transactions(), depths))
            .sum();
        (arenas as u64).saturating_mul(self.jobs_per_shard() as u64)
    }

    fn shared_twin(&self) -> Option<VerticalIndex> {
        match self.shards.as_slice() {
            [only] => Some(VerticalIndex::from_core(Arc::clone(&only.core))),
            _ => None,
        }
    }
}

/// The one-shard [`ShardedVerticalIndex`]: class-parallel vertical
/// counting over one full-range core, the `VerticalPar` strategy. It
/// dereferences to the engine for every method.
#[derive(Debug)]
pub struct ParallelVerticalIndex(ShardedVerticalIndex);

impl ParallelVerticalIndex {
    /// Builds the index (one database pass) on the process-wide pool.
    pub fn build(db: &TransactionDb) -> Self {
        ParallelVerticalIndex(ShardedVerticalIndex::build_with_shards(db, 1))
    }

    /// Builds the index on a private pool of `n_workers` threads.
    pub fn build_with_workers(db: &TransactionDb, n_workers: usize) -> Self {
        ParallelVerticalIndex(ShardedVerticalIndex::build_with_shards_and_workers(
            db, 1, n_workers,
        ))
    }
}

impl Deref for ParallelVerticalIndex {
    type Target = ShardedVerticalIndex;

    fn deref(&self) -> &ShardedVerticalIndex {
        &self.0
    }
}

impl DerefMut for ParallelVerticalIndex {
    fn deref_mut(&mut self) -> &mut ShardedVerticalIndex {
        &mut self.0
    }
}

/// Tid-set counter that fans level batches' prefix classes over a worker
/// pool: the one-shard [`ShardedVerticalCounter`]. Its footprint is one
/// scratch arena *per worker*; when that no longer fits the budget it
/// drops to a sequential twin sharing the same tid-sets (no second index
/// build), then to horizontal scans.
pub type ParallelVerticalCounter<'a> = Tiered<'a, ParallelVerticalIndex>;

impl<'a> ParallelVerticalCounter<'a> {
    /// Builds the index over `db` (one scan) on the process-wide pool.
    pub fn new(db: &'a TransactionDb) -> Self {
        Tiered::from_engine(db, ParallelVerticalIndex::build(db))
    }

    /// Builds on a private pool of `n_workers` threads.
    pub fn with_workers(db: &'a TransactionDb, n_workers: usize) -> Self {
        Tiered::from_engine(db, ParallelVerticalIndex::build_with_workers(db, n_workers))
    }
}

impl TieredEngine for ParallelVerticalIndex {
    fn n_transactions(&self) -> usize {
        self.0.n_transactions
    }

    fn count(&mut self, set: &Itemset) -> Vec<u64> {
        self.0.count(set)
    }

    fn count_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        self.0.count_batch_guarded(sets, probe)
    }

    fn footprint_bytes(&self, sets: &[Itemset], depths: usize) -> u64 {
        self.0.footprint_bytes(sets, depths)
    }

    fn shared_twin(&self) -> Option<VerticalIndex> {
        self.0.shared_twin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{DegradationRung, HorizontalCounter, MintermCounter};
    use std::sync::atomic::AtomicU64;

    /// Every `(shards, workers)` shape the engine tests run: one shard
    /// (class-parallel), as many shards as workers, more shards than
    /// workers, and two jobs draining each shard's cursor.
    const SHAPES: [(usize, usize); 4] = [(1, 2), (2, 2), (3, 2), (2, 4)];

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

    /// An engine of the given shape with its work floor zeroed, so every
    /// batch of two or more work units takes the pool.
    fn pooled(d: &TransactionDb, shards: usize, workers: usize) -> ShardedVerticalIndex {
        let mut idx = ShardedVerticalIndex::build_with_shards_and_workers(d, shards, workers);
        idx.set_work_floor(0);
        idx
    }

    /// The counter over [`pooled`]'s engine.
    fn counter(d: &TransactionDb, shards: usize, workers: usize) -> ShardedVerticalCounter<'_> {
        let mut c = ShardedVerticalCounter::with_shards_and_workers(d, shards, workers);
        c.index_mut().set_work_floor(0);
        c
    }

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

    /// A probe whose only limit is a scratch-memory budget.
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
    fn batches_and_single_sets_match_sequential_vertical() {
        let d = db(600);
        let sets = level();
        let mut seq = VerticalIndex::build(&d);
        let expected = seq.minterm_counts_batch(&sets);
        for (shards, workers) in SHAPES {
            let mut idx = pooled(&d, shards, workers);
            let shape = format!("shards={shards} workers={workers}");
            assert_eq!(idx.minterm_counts_batch(&sets), expected, "{shape}");
            for (set, want) in sets.iter().zip(&expected) {
                assert_eq!(&idx.minterm_counts(set), want, "{shape} {set}");
            }
        }
    }

    #[test]
    fn counter_matches_horizontal_counter() {
        let d = db(400);
        let sets = level();
        let mut h = HorizontalCounter::new(&d);
        let expected = h.minterm_counts_batch(&sets);
        for (shards, workers) in SHAPES {
            let mut c = counter(&d, shards, workers);
            assert_eq!(c.minterm_counts_batch(&sets), expected);
            assert_eq!(c.stats().tables_built, sets.len() as u64);
            assert_eq!(c.stats().db_scans, 1, "the sharded build is one scan");
            for set in &sets {
                assert_eq!(c.minterm_counts(set), h.minterm_counts(set), "{set}");
            }
        }
    }

    #[test]
    fn work_floor_routes_small_batches_sequentially() {
        let d = db(60);
        let sets = level();
        let expected = VerticalIndex::build(&d).minterm_counts_batch(&sets);
        for (shards, workers) in SHAPES {
            let mut idx = ShardedVerticalIndex::build_with_shards_and_workers(&d, shards, workers);
            let before = idx.pool.jobs_run();
            assert_eq!(idx.minterm_counts_batch(&sets), expected);
            assert_eq!(
                idx.pool.jobs_run(),
                before,
                "shards={shards} workers={workers}: a tiny batch must not dispatch pool jobs"
            );
        }
    }

    #[test]
    fn pooled_jobs_follow_the_schedule_rule() {
        let d = db(600);
        // Three classes: prefixes [0], [2] and [3].
        let sets = vec![
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([2, 3, 4]),
            Itemset::from_ids([3, 4, 5]),
        ];
        // (shards, workers, jobs): `min(workers, classes)` for one shard,
        // one per shard once shards ≥ workers, and `workers / shards`
        // per shard in between.
        for (shards, workers, jobs) in [(1, 2, 2), (1, 4, 3), (2, 2, 2), (3, 2, 3), (2, 4, 4)] {
            let mut idx = pooled(&d, shards, workers);
            let before = idx.pool.jobs_run();
            idx.minterm_counts_batch(&sets);
            assert_eq!(
                idx.pool.jobs_run() - before,
                jobs,
                "shards={shards} workers={workers}"
            );
        }
    }

    #[test]
    fn stopped_probe_interrupts_before_any_class() {
        let d = db(500);
        let sets = vec![Itemset::from_ids([0, 1, 2]), Itemset::from_ids([3, 4, 5])];
        let stopped = Budget {
            budget: 0,
            spent: AtomicU64::new(0),
        };
        for (shards, workers) in SHAPES {
            let err = pooled(&d, shards, workers)
                .minterm_counts_batch_guarded(&sets, &stopped)
                .unwrap_err();
            assert_eq!(err.tables_completed, 0, "shards={shards} workers={workers}");
        }
    }

    #[test]
    fn budget_trip_keeps_completed_classes_and_reports_exact_stats() {
        let d = db(500);
        // Many distinct prefixes => many classes, so a small budget trips
        // mid-batch.
        let sets: Vec<Itemset> = (0..6)
            .map(|i| Itemset::from_ids([i, i + 1, i + 2]))
            .collect();
        for (shards, workers) in SHAPES {
            let mut c = counter(&d, shards, workers);
            let probe = Budget {
                budget: 9,
                spent: AtomicU64::new(0),
            };
            // The trip races the drain: jobs may legitimately finish every
            // class before the stop flag lands, in which case the batch
            // completed and `Ok` is the correct answer. Both outcomes
            // must keep the stats exact.
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
                "shards={shards} workers={workers}: the budget did trip"
            );
        }
    }

    #[test]
    fn ladder_degrades_to_vertical_then_horizontal() {
        // 2100 rows: five superblocks full-range, six summed over two or
        // three shards, so every shape's footprint exceeds one arena.
        let d = db(2100);
        let triples = vec![Itemset::from_ids([0, 1, 2]), Itemset::from_ids([3, 4, 5])];
        let expected = HorizontalCounter::new(&d).minterm_counts_batch(&triples);
        let one_arena = VerticalIndex::scratch_bytes(d.len(), 1);
        for (shards, workers) in SHAPES {
            let shape = format!("shards={shards} workers={workers}");
            let mut c = counter(&d, shards, workers);
            assert_eq!(c.rung(), DegradationRung::Preferred);
            assert!(
                c.index().footprint_bytes(&triples, 1) > one_arena as u64,
                "{shape}"
            );

            // Budget fits one full-range arena only: drop to Vertical.
            let got = c.minterm_counts_batch_guarded(&triples, &Arena(one_arena));
            assert_eq!(got.unwrap(), expected, "{shape}");
            assert_eq!(c.rung(), DegradationRung::Vertical, "{shape}");
            assert_eq!(c.stats().degraded_batches, 1);
            // One shard shares its core with the twin; more build it.
            let twin_scans = u64::from(shards > 1);
            assert_eq!(c.stats().db_scans, 1 + twin_scans, "{shape}");

            // Budget fits no arena at all: drop to Horizontal, stay there.
            let got = c.minterm_counts_batch_guarded(&triples, &Arena(1));
            assert_eq!(got.unwrap(), expected, "{shape}");
            assert_eq!(c.rung(), DegradationRung::Horizontal);
            let got = c.minterm_counts_batch_guarded(&triples, &Arena(usize::MAX));
            assert_eq!(got.unwrap(), expected, "{shape}");
            assert_eq!(c.rung(), DegradationRung::Horizontal, "sticky");
            assert_eq!(c.stats().degraded_batches, 3);
        }
    }

    #[test]
    fn pair_only_batches_never_degrade() {
        let d = db(100);
        // Pairs need zero scratch depths: even a 1-byte budget keeps the
        // preferred rung.
        let pairs = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([2, 3])];
        for (shards, workers) in SHAPES {
            let mut c = counter(&d, shards, workers);
            c.minterm_counts_batch_guarded(&pairs, &Arena(1)).unwrap();
            assert_eq!(c.rung(), DegradationRung::Preferred);
            assert_eq!(c.stats().degraded_batches, 0);
        }
    }

    #[test]
    fn empty_database_answers_trivially() {
        let d = TransactionDb::from_ids(3, Vec::<Vec<u32>>::new());
        let sets = vec![
            Itemset::empty(),
            Itemset::from_ids([0]),
            Itemset::from_ids([0, 1]),
        ];
        for (shards, workers) in SHAPES {
            let mut idx = pooled(&d, shards, workers);
            assert_eq!(idx.n_shards(), 1, "no empty shards are minted");
            let got = idx.minterm_counts_batch(&sets);
            assert_eq!(got, vec![vec![0], vec![0, 0], vec![0, 0, 0, 0]]);
        }
    }
}
