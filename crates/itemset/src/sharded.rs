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
//! The engine counts through the one class runner of the tid-set
//! engines, [`crate::vertical`]'s `count_batch`, whose module docs give
//! the unit of work, the drain loop and the interruption protocol: a
//! runner counts at most the class in hand past a trip, and a class
//! still in flight when the batch stops is never recorded, so a
//! `Truncated` result and its `ResumeState` stay exact. A batch of two
//! or more classes whose estimated bitmap traffic reaches the work floor
//! is drained by `min(workers, classes)` runners, the calling thread
//! and scoped threads, whatever the shard count; any other batch by the
//! calling thread alone. Each runner owns one lattice arena per shard,
//! which the engine keeps across batches and frees when the degradation
//! ladder leaves it. The runners share each shard's pair-support table
//! for the batch, so the footprint the ladder checks is
//! `workers × Σ arena(shard) + S × pair table`: about `workers ×` one
//! full-range arena for any `S`.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::counting::{available_workers, BatchInterrupted, CountProbe, Tiered, TieredEngine};
use crate::database::TransactionDb;
use crate::itemset::Itemset;
use crate::vertical::{count_batch, ClassScratch, VerticalCore, VerticalIndex};

/// Minimum estimated 64-bit bitmap words a batch must touch before
/// runners beyond the calling thread start; smaller batches run on the
/// caller alone. `1 << 17` words ≈ 1 MiB of bitmap traffic — far above
/// the cost of starting a few threads, far below one mining level on a
/// database large enough to benefit from them.
pub const POOL_WORK_FLOOR: u64 = 1 << 17;

/// A vertical index split into contiguous, disjoint tid-range shards,
/// counted by up to `workers` threads.
#[derive(Debug)]
pub struct ShardedVerticalIndex {
    /// One core per shard, over the shard's tid slice.
    cores: Vec<Arc<VerticalCore>>,
    /// One arena per shard for each worker, `workers × shards` in all,
    /// kept across batches. The calling thread counts with the first
    /// shards' worth.
    scratch: Vec<ClassScratch>,
    n_transactions: usize,
    /// Whole-database per-item supports (the database's own), so
    /// trivial 0-/1-item candidates are answered without touching any
    /// single shard's bitmaps.
    item_supports: Vec<u64>,
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
    /// Builds with one shard and one worker per available CPU
    /// ([`available_workers`]).
    pub fn build(db: &TransactionDb) -> Self {
        Self::with_shards(db, available_workers(), available_workers())
    }

    /// Builds `shards` range cores (one database pass in total), counted
    /// by up to `workers` threads (at least one).
    pub fn with_shards(db: &TransactionDb, shards: usize, workers: usize) -> Self {
        let cores: Vec<Arc<VerticalCore>> = shard_bounds(db.len(), shards)
            .into_iter()
            .map(|(start, end)| Arc::new(VerticalCore::build_range(db, start, end)))
            .collect();
        ShardedVerticalIndex {
            scratch: (0..workers.max(1) * cores.len())
                .map(|_| ClassScratch::default())
                .collect(),
            cores,
            n_transactions: db.len(),
            item_supports: db.item_supports().iter().map(|&s| s as u64).collect(),
            work_floor: POOL_WORK_FLOOR,
        }
    }

    /// Number of tid-range shards.
    pub fn n_shards(&self) -> usize {
        self.cores.len()
    }

    /// Number of transactions in the indexed database (all shards).
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Overrides the work floor. Tests and benchmarks set `0` to run
    /// every batch of two or more classes on all workers (the default
    /// floor would — correctly — leave small ones to the calling
    /// thread).
    pub fn set_work_floor(&mut self, floor: u64) {
        self.work_floor = floor;
    }
}

/// Tid-set counter over a horizontally sharded database. Below its
/// footprint it drops to a full-range vertical twin — built on first use
/// (one extra database scan, recorded in
/// [`crate::CountingStats::db_scans`]) unless there is only one shard,
/// whose core the twin shares — then to horizontal scans.
pub type ShardedVerticalCounter<'a> = Tiered<'a, ShardedVerticalIndex>;

impl<'a> ShardedVerticalCounter<'a> {
    /// Builds with one shard and one worker per available CPU.
    pub fn new(db: &'a TransactionDb) -> Self {
        Tiered::from_engine(db, ShardedVerticalIndex::build(db))
    }

    /// Builds `shards` range cores, counted by up to `workers` threads.
    pub fn with_shards(db: &'a TransactionDb, shards: usize, workers: usize) -> Self {
        Tiered::from_engine(db, ShardedVerticalIndex::with_shards(db, shards, workers))
    }
}

impl TieredEngine for ShardedVerticalIndex {
    fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Bit-identical to the full-range [`VerticalIndex`]'s batch, and
    /// counted by the same runner. See the module docs for the schedule
    /// and the interruption protocol.
    fn count_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let supports = &self.item_supports;
        count_batch(
            sets,
            self.n_transactions,
            |a| supports[a.index()],
            &self.cores,
            &mut self.scratch,
            self.work_floor,
            probe,
        )
    }

    /// Every worker's arenas, one per shard, and one pair-support table
    /// per shard.
    fn footprint_bytes(&self, sets: &[Itemset], depths: usize) -> u64 {
        let arenas: usize = self
            .cores
            .iter()
            .map(|core| VerticalIndex::scratch_bytes(core.n_transactions(), depths))
            .sum();
        let tables = self.cores.len() * VerticalIndex::pair_table_bytes(sets);
        (arenas as u64)
            .saturating_mul((self.scratch.len() / self.cores.len()) as u64)
            .saturating_add(tables as u64)
    }

    fn release_scratch(&mut self) {
        self.scratch.fill_with(ClassScratch::default);
    }

    fn shared_twin(&self) -> Option<VerticalIndex> {
        match self.cores.as_slice() {
            [only] => Some(VerticalIndex::from_core(Arc::clone(only))),
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
    /// Builds the index (one database pass), counted by one worker per
    /// available CPU.
    pub fn build(db: &TransactionDb) -> Self {
        Self::with_workers(db, available_workers())
    }

    /// Builds the index (one database pass), counted by up to `workers`
    /// threads.
    pub fn with_workers(db: &TransactionDb, workers: usize) -> Self {
        ParallelVerticalIndex(ShardedVerticalIndex::with_shards(db, 1, workers))
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

/// Tid-set counter that drains level batches' prefix classes on several
/// threads: the one-shard [`ShardedVerticalCounter`]. Its footprint is
/// one lattice arena *per worker* and one pair table; when that no
/// longer fits the budget it drops to a sequential twin sharing the same
/// tid-sets (no second index build), then to horizontal scans.
pub type ParallelVerticalCounter<'a> = Tiered<'a, ParallelVerticalIndex>;

impl<'a> ParallelVerticalCounter<'a> {
    /// Builds the index over `db` (one scan), counted by one worker per
    /// available CPU.
    pub fn new(db: &'a TransactionDb) -> Self {
        Tiered::from_engine(db, ParallelVerticalIndex::build(db))
    }

    /// Builds the index over `db` (one scan), counted by up to `workers`
    /// threads.
    pub fn with_workers(db: &'a TransactionDb, workers: usize) -> Self {
        Tiered::from_engine(db, ParallelVerticalIndex::with_workers(db, workers))
    }
}

impl TieredEngine for ParallelVerticalIndex {
    fn n_transactions(&self) -> usize {
        self.0.n_transactions
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

    fn release_scratch(&mut self) {
        self.0.release_scratch();
    }

    fn shared_twin(&self) -> Option<VerticalIndex> {
        self.0.shared_twin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::{DegradationRung, HorizontalCounter, MintermCounter, VerticalCounter};
    use crate::tidset::TidSet;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Every `(shards, workers)` shape the engine tests run: one shard
    /// (class-parallel), as many shards as workers, more shards than
    /// workers, and more workers than shards.
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

    /// A counter of the given shape with its work floor zeroed, so every
    /// batch of two or more work units runs on all its workers.
    fn counter(d: &TransactionDb, shards: usize, workers: usize) -> ShardedVerticalCounter<'_> {
        let mut c = ShardedVerticalCounter::with_shards(d, shards, workers);
        c.index_mut().set_work_floor(0);
        c
    }

    /// Never stops; records each thread that checks it, so it sees one
    /// thread per runner of a batch (every runner checks before its
    /// first claim).
    #[derive(Default)]
    struct Runners(Mutex<HashSet<ThreadId>>);

    impl Runners {
        fn count(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    impl CountProbe for Runners {
        fn should_stop(&self) -> bool {
            self.0.lock().unwrap().insert(std::thread::current().id());
            false
        }
        fn charge(&self, _cells: u64) -> bool {
            false
        }
    }

    /// Panics on every thread but `0`: a runner that fails outside the
    /// interruption protocol.
    struct FailsOffCaller(ThreadId);

    impl CountProbe for FailsOffCaller {
        fn should_stop(&self) -> bool {
            assert_eq!(std::thread::current().id(), self.0, "a runner fails");
            false
        }
        fn charge(&self, _cells: u64) -> bool {
            false
        }
    }

    /// Trips once `budget` cells have been charged.
    struct Budget {
        budget: u64,
        spent: Arc<AtomicU64>,
    }

    impl Budget {
        fn cells(budget: u64) -> Self {
            Budget {
                budget,
                spent: Arc::default(),
            }
        }
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
        let mut seq = VerticalCounter::new(&d);
        let expected = seq.minterm_counts_batch(&sets);
        for (shards, workers) in SHAPES {
            let mut idx = counter(&d, shards, workers);
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
        let expected = VerticalCounter::new(&d).minterm_counts_batch(&sets);
        for (shards, workers) in SHAPES {
            let mut idx = ShardedVerticalCounter::with_shards(&d, shards, workers);
            let probe = Runners::default();
            let got = idx.minterm_counts_batch_guarded(&sets, &probe);
            assert_eq!(got.unwrap(), expected);
            assert_eq!(
                probe.count(),
                1,
                "shards={shards} workers={workers}: a tiny batch must not start runners"
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
        // (shards, workers, jobs): `min(workers, classes)` runners over
        // one cursor, whatever the shard count.
        for (shards, workers, jobs) in [(1, 2, 2), (1, 4, 3), (2, 2, 2), (3, 2, 2), (2, 4, 3)] {
            let mut idx = counter(&d, shards, workers);
            let probe = Runners::default();
            idx.minterm_counts_batch_guarded(&sets, &probe).unwrap();
            assert_eq!(probe.count(), jobs, "shards={shards} workers={workers}");
        }
    }

    #[test]
    fn a_panicking_runner_fails_the_batch() {
        let d = db(600);
        let sets = vec![
            Itemset::from_ids([0, 1, 2]),
            Itemset::from_ids([2, 3, 4]),
            Itemset::from_ids([3, 4, 5]),
        ];
        for (shards, workers) in SHAPES {
            let mut c = counter(&d, shards, workers);
            let probe = FailsOffCaller(std::thread::current().id());
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                c.minterm_counts_batch_guarded(&sets, &probe)
            }));
            assert!(
                outcome.is_err(),
                "shards={shards} workers={workers}: the runner's panic must reach the caller"
            );
        }
    }

    #[test]
    fn runner_arenas_are_reused_across_batches() {
        let d = db(600);
        // Two classes of 4-sets, prefixes [0, 1] and [3, 4]: each needs
        // one arena bitmap.
        let quads = vec![
            Itemset::from_ids([0, 1, 2, 3]),
            Itemset::from_ids([0, 1, 2, 4]),
            Itemset::from_ids([3, 4, 5, 6]),
            Itemset::from_ids([3, 4, 5, 7]),
        ];
        let expected = VerticalCounter::new(&d).minterm_counts_batch(&quads);
        let mut c = ParallelVerticalCounter::with_workers(&d, 2);
        c.index_mut().set_work_floor(0);
        let arenas = |c: &ParallelVerticalCounter| -> Vec<(usize, *const TidSet)> {
            let scratch = &c.index().scratch;
            scratch
                .iter()
                .map(|s| (s.arena().len(), s.arena().as_ptr()))
                .collect()
        };
        assert_eq!(c.minterm_counts_batch(&quads), expected);
        let after_first = arenas(&c);
        assert_eq!(after_first.len(), 2, "one arena per worker");
        assert!(
            after_first.iter().any(|&(len, _)| len == 1),
            "k=4 materialises one lattice depth"
        );
        // A second batch must not rebuild an arena, and a dirty arena
        // must not corrupt its counts.
        assert_eq!(c.minterm_counts_batch(&quads), expected);
        for (before, after) in after_first.iter().zip(arenas(&c)) {
            assert!(after.0 <= 1, "no runner grows past one depth");
            if before.0 == 1 {
                assert_eq!(*before, after, "a runner's arena is reused, not rebuilt");
            }
        }
    }

    #[test]
    fn stopped_probe_interrupts_before_any_class() {
        let d = db(500);
        let sets = vec![Itemset::from_ids([0, 1, 2]), Itemset::from_ids([3, 4, 5])];
        let stopped = Budget::cells(0);
        for (shards, workers) in SHAPES {
            let err = counter(&d, shards, workers)
                .minterm_counts_batch_guarded(&sets, &stopped)
                .unwrap_err();
            assert_eq!(err.tables_completed, 0, "shards={shards} workers={workers}");
        }
    }

    #[test]
    fn budget_trip_keeps_completed_classes_and_reports_exact_stats() {
        let d = db(500);
        // Six one-member classes of 8 cells: a 9-cell budget trips on the
        // second completed class.
        let sets: Vec<Itemset> = (0..6)
            .map(|i| Itemset::from_ids([i, i + 1, i + 2]))
            .collect();
        for (shards, workers) in SHAPES {
            let shape = format!("shards={shards} workers={workers}");
            let mut c = counter(&d, shards, workers);
            let jobs = workers.min(sets.len()) as u64;
            let probe = Budget::cells(9);
            // Runners see the trip through the borrowed probe, so each
            // finishes at most the class in hand: one class per runner
            // past the tripping one, never the whole batch.
            let err = c
                .minterm_counts_batch_guarded(&sets, &probe)
                .expect_err(&shape);
            assert!(
                (2..=1 + jobs).contains(&err.tables_completed),
                "{shape}: {} classes",
                err.tables_completed
            );
            assert_eq!(c.stats().tables_built, err.tables_completed);
            assert_eq!(c.stats().cells_counted, err.cells_completed);
            assert_eq!(
                probe.spent.load(Ordering::Relaxed),
                err.cells_completed,
                "{shape}: every completed class is charged once, and only those"
            );
        }
    }

    #[test]
    fn ladder_degrades_to_vertical_then_horizontal() {
        // 2100 rows: five superblocks full-range, six summed over two or
        // three shards, so every shape's footprint exceeds one arena.
        // 4-sets: two prefix items, so one arena bitmap per runner (a
        // 3-set needs none).
        let d = db(2100);
        let quads = vec![
            Itemset::from_ids([0, 1, 2, 3]),
            Itemset::from_ids([3, 4, 5, 6]),
        ];
        let expected = HorizontalCounter::new(&d).minterm_counts_batch(&quads);
        let one_arena = VerticalIndex::batch_bytes(d.len(), &quads, 2) as usize;
        for (shards, workers) in SHAPES {
            let shape = format!("shards={shards} workers={workers}");
            let mut c = counter(&d, shards, workers);
            assert_eq!(c.rung(), DegradationRung::Preferred);
            assert!(
                c.index().footprint_bytes(&quads, 2) > one_arena as u64,
                "{shape}"
            );

            // Budget fits one full-range arena only: drop to Vertical.
            let got = c.minterm_counts_batch_guarded(&quads, &Arena(one_arena));
            assert_eq!(got.unwrap(), expected, "{shape}");
            assert_eq!(c.rung(), DegradationRung::Vertical, "{shape}");
            assert_eq!(c.stats().degraded_batches, 1);
            // One shard shares its core with the twin; more build it.
            let twin_scans = u64::from(shards > 1);
            assert_eq!(c.stats().db_scans, 1 + twin_scans, "{shape}");

            // Budget fits no arena at all: drop to Horizontal, stay there.
            let got = c.minterm_counts_batch_guarded(&quads, &Arena(1));
            assert_eq!(got.unwrap(), expected, "{shape}");
            assert_eq!(c.rung(), DegradationRung::Horizontal);
            let got = c.minterm_counts_batch_guarded(&quads, &Arena(usize::MAX));
            assert_eq!(got.unwrap(), expected, "{shape}");
            assert_eq!(c.rung(), DegradationRung::Horizontal, "sticky");
            assert_eq!(c.stats().degraded_batches, 3);
        }
    }

    #[test]
    fn leaving_the_preferred_rung_releases_the_runner_arenas() {
        let d = db(2100);
        let quads = vec![
            Itemset::from_ids([0, 1, 2, 3]),
            Itemset::from_ids([3, 4, 5, 6]),
        ];
        let expected = HorizontalCounter::new(&d).minterm_counts_batch(&quads);
        let one_arena = VerticalIndex::batch_bytes(d.len(), &quads, 2) as usize;
        for (shards, workers) in SHAPES {
            let shape = format!("shards={shards} workers={workers}");
            let mut c = counter(&d, shards, workers);
            let got = c.minterm_counts_batch_guarded(&quads, &Arena(usize::MAX));
            assert_eq!(got.unwrap(), expected, "{shape}");
            assert!(
                c.index().scratch.iter().any(|s| !s.arena().is_empty()),
                "{shape}: a preferred batch of 4-sets grows its runners' arenas"
            );
            let got = c.minterm_counts_batch_guarded(&quads, &Arena(one_arena));
            assert_eq!(got.unwrap(), expected, "{shape}");
            assert_eq!(c.rung(), DegradationRung::Vertical, "{shape}");
            assert!(
                c.index().scratch.iter().all(ClassScratch::is_released),
                "{shape}: the degraded engine keeps no arena"
            );
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
            let mut idx = counter(&d, shards, workers);
            assert_eq!(idx.index().n_shards(), 1, "no empty shards are minted");
            let got = idx.minterm_counts_batch(&sets);
            assert_eq!(got, vec![vec![0], vec![0, 0], vec![0, 0, 0, 0]]);
        }
    }
}
