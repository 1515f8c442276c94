//! [`ParallelVerticalIndex`]: vertical minterm counting fanned out over
//! prefix-equivalence classes on a persistent [`WorkerPool`].
//!
//! Eclat-style vertical counting is embarrassingly parallel across
//! prefix classes: each class walks its own split tree and writes to
//! disjoint result rows. This engine plans a level batch exactly like
//! [`VerticalIndex`] (same classes, same kernel, same counts — the
//! counting-equivalence property tests pin this), then hands the classes
//! to pool workers. Per worker:
//!
//! * one **depth-indexed scratch arena** plus one flat per-item count
//!   buffer, allocated lazily and reused across every class the worker
//!   pulls, so arena memory is `workers × scratch_bytes`, not
//!   `classes × scratch_bytes`;
//! * classes are pulled from a shared atomic cursor (cheap dynamic load
//!   balancing — class costs vary by `2^(k-2)`), counted into local
//!   rows, and streamed back over a channel.
//!
//! # Interruption protocol
//!
//! Workers never see the [`CountProbe`] — a probe is borrowed and jobs
//! are `'static`. The submitting thread drains the workers through the
//! pool's shared drain loop (see [`crate::pool`]): it charges each class
//! as its results arrive and polls `should_stop` while waiting. On a
//! trip it raises a shared stop flag (first trip wins); workers observe
//! it before pulling another class, finish the class in hand, and drain
//! away. Every class that completes — before or during the drain — is
//! kept and recorded, so a `Truncated` partial result and its
//! `ResumeState` stay exact, matching the sequential engines' contract.
//!
//! # Small batches
//!
//! Dispatch costs real work (job boxing, channel traffic, per-worker
//! arenas), so batches whose estimated bitmap traffic falls under a work
//! floor run sequentially on the calling thread — identical results,
//! none of the overhead.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use crate::counting::{unguarded, BatchInterrupted, CountProbe, NoProbe, Tiered, TieredEngine};
use crate::database::TransactionDb;
use crate::itemset::Itemset;
use crate::pool::WorkerPool;
use crate::tidset::TidSet;
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

/// A vertical index whose batch counting fans prefix-equivalence
/// classes out across a persistent worker pool.
#[derive(Debug)]
pub struct ParallelVerticalIndex {
    core: Arc<VerticalCore>,
    pool: Arc<WorkerPool>,
    /// Arena for the sequential paths (single sets, small batches,
    /// one-worker pools); pool workers own their arenas per batch.
    scratch: Vec<TidSet>,
    work_floor: u64,
}

impl ParallelVerticalIndex {
    /// Builds the index (one database pass) on the process-wide pool.
    pub fn build(db: &TransactionDb) -> Self {
        Self::with_pool(db, Arc::clone(WorkerPool::global()))
    }

    /// Builds the index on a private pool of `n_workers` threads.
    pub fn build_with_workers(db: &TransactionDb, n_workers: usize) -> Self {
        Self::with_pool(db, Arc::new(WorkerPool::new(n_workers)))
    }

    /// Builds the index on an existing pool.
    pub fn with_pool(db: &TransactionDb, pool: Arc<WorkerPool>) -> Self {
        ParallelVerticalIndex {
            core: Arc::new(VerticalCore::build(db)),
            pool,
            scratch: Vec::new(),
            work_floor: POOL_WORK_FLOOR,
        }
    }

    /// Number of pool workers available to a batch.
    pub fn n_workers(&self) -> usize {
        self.pool.n_workers()
    }

    /// Number of transactions in the indexed database.
    #[inline]
    pub fn n_transactions(&self) -> usize {
        self.core.n_transactions()
    }

    /// Number of items in the universe.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.core.n_items()
    }

    /// Absolute support via tid-set intersection (sequential — a single
    /// set never benefits from the pool).
    pub fn support(&self, set: &Itemset) -> usize {
        self.core.support(set)
    }

    /// Overrides the sequential-fallback work floor. Tests and
    /// benchmarks set `0` to force pool dispatch on small batches (the
    /// default floor would — correctly — route them sequentially).
    pub fn set_work_floor(&mut self, floor: u64) {
        self.work_floor = floor;
    }

    /// Counts one set sequentially; see
    /// [`VerticalIndex::minterm_counts`] for cell indexing.
    pub fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        self.core.minterm_counts(set, &mut self.scratch)
    }

    /// Batch minterm counting, parallel across prefix classes. Results
    /// are identical to [`VerticalIndex::minterm_counts_batch`] in input
    /// order.
    pub fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        unguarded(self.minterm_counts_batch_guarded(sets, &NoProbe))
    }

    /// Guarded batch counting; see the module docs for the interruption
    /// protocol. Completed classes (including those draining when the
    /// probe trips) are kept and recorded in the returned
    /// [`BatchInterrupted`]; partially-counted classes never escape.
    pub fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let mut results = alloc_results(sets);
        let mut done = BatchInterrupted::default();
        let plan = plan_level(&self.core, sets, &mut results, &mut done);
        if done.cells_completed > 0 && probe.charge(done.cells_completed) {
            return done.settle(true, results);
        }
        let estimated: u64 = plan
            .classes
            .iter()
            .map(|c| c.estimated_word_ops(self.core.n_transactions()))
            .sum();
        let workers = self.pool.n_workers();
        let interrupted = if workers <= 1 || plan.classes.len() < 2 || estimated < self.work_floor {
            run_classes_sequential(
                &self.core,
                &plan.classes,
                probe,
                &mut self.scratch,
                &mut results,
                &mut done,
            )
        } else {
            let classes = Arc::new(plan.classes);
            let cursor = Arc::new(AtomicUsize::new(0));
            let jobs = (0..workers.min(classes.len())).map(|_| {
                let (core, classes, cursor) = (
                    Arc::clone(&self.core),
                    Arc::clone(&classes),
                    Arc::clone(&cursor),
                );
                move |stop: &AtomicBool, tx: &Sender<ClassTables>| {
                    // Worker-local state, reused across every class this
                    // worker pulls: one arena, one item-count buffer.
                    let (mut scratch, mut item_counts) = (Vec::new(), Vec::new());
                    while !stop.load(Ordering::Acquire) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(class) = classes.get(i) else { break };
                        let tables = core.class_tables(class, &mut item_counts, &mut scratch);
                        if tx.send((i, tables)).is_err() {
                            break; // receiver gone: the batch is over
                        }
                    }
                }
            });
            count_classes_pooled(
                &self.pool,
                jobs,
                &classes,
                1,
                probe,
                &mut results,
                &mut done,
            )
        };
        done.settle(interrupted, results)
    }
}

/// Tid-set counter that fans level batches over a worker pool. Its
/// footprint is one scratch arena *per worker*; when that no longer fits
/// the budget it drops to a sequential twin sharing the same tid-sets
/// (no second index build), then to horizontal scans.
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
        self.core.n_transactions()
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
        let per_arena = VerticalIndex::scratch_bytes(self.core.n_transactions(), depths) as u64;
        per_arena.saturating_mul(self.pool.n_workers().max(1) as u64)
    }

    fn shared_twin(&self) -> Option<VerticalIndex> {
        Some(VerticalIndex::from_core(Arc::clone(&self.core)))
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
    fn pooled_batch_matches_sequential_vertical_exactly() {
        let d = db(600);
        let sets = level();
        let mut seq = VerticalIndex::build(&d);
        let expected = seq.minterm_counts_batch(&sets);
        for workers in [1usize, 2, 4] {
            let mut par = ParallelVerticalIndex::build_with_workers(&d, workers);
            par.set_work_floor(0); // force pool dispatch
            assert_eq!(
                par.minterm_counts_batch(&sets),
                expected,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn work_floor_routes_small_batches_sequentially() {
        let d = db(60);
        let sets = level();
        let mut par = ParallelVerticalIndex::build_with_workers(&d, 4);
        let before = par.pool.jobs_run();
        let got = par.minterm_counts_batch(&sets);
        assert_eq!(
            par.pool.jobs_run(),
            before,
            "a tiny batch must not dispatch pool jobs"
        );
        let mut seq = VerticalIndex::build(&d);
        assert_eq!(got, seq.minterm_counts_batch(&sets));
    }

    #[test]
    fn counter_matches_horizontal_counter() {
        let d = db(400);
        let sets = level();
        let mut h = HorizontalCounter::new(&d);
        let expected = h.minterm_counts_batch(&sets);
        let mut c = ParallelVerticalCounter::with_workers(&d, 3);
        c.index_mut().set_work_floor(0);
        assert_eq!(c.minterm_counts_batch(&sets), expected);
        assert_eq!(c.stats().tables_built, sets.len() as u64);
        assert_eq!(c.stats().db_scans, 1, "index build is the only scan");
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
        let mut par = ParallelVerticalIndex::build_with_workers(&d, 2);
        par.set_work_floor(0);
        let err = par
            .minterm_counts_batch_guarded(&sets, &Stopped)
            .unwrap_err();
        assert_eq!(err.tables_completed, 0);
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
        // Many distinct prefixes => many classes, so a small budget trips
        // mid-batch.
        let sets: Vec<Itemset> = (0..6)
            .map(|i| Itemset::from_ids([i, i + 1, i + 2]))
            .collect();
        let mut c = ParallelVerticalCounter::with_workers(&d, 2);
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
    fn ladder_degrades_parallel_to_vertical_to_horizontal() {
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
        let d = db(640); // 10 blocks => one arena depth = 160 bytes
        let triples = vec![Itemset::from_ids([0, 1, 2]), Itemset::from_ids([3, 4, 5])];
        let per_arena = VerticalIndex::scratch_bytes(d.len(), 1);
        assert!(per_arena > 0);
        let workers = 4;
        let mut h = HorizontalCounter::new(&d);
        let expected = h.minterm_counts_batch(&triples);

        // Budget fits one arena but not four: drop to Vertical.
        let mut c = ParallelVerticalCounter::with_workers(&d, workers);
        c.index_mut().set_work_floor(0);
        assert_eq!(c.rung(), DegradationRung::Preferred);
        let got = c
            .minterm_counts_batch_guarded(&triples, &Arena(per_arena))
            .unwrap();
        assert_eq!(got, expected);
        assert_eq!(c.rung(), DegradationRung::Vertical);
        assert_eq!(c.stats().degraded_batches, 1);

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
    fn pair_only_batches_never_degrade() {
        struct Arena;
        impl CountProbe for Arena {
            fn should_stop(&self) -> bool {
                false
            }
            fn charge(&self, _cells: u64) -> bool {
                false
            }
            fn arena_budget_bytes(&self) -> Option<usize> {
                Some(1)
            }
        }
        let d = db(100);
        // Pairs need zero scratch depths: even a 1-byte budget keeps the
        // parallel rung.
        let pairs = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([2, 3])];
        let mut c = ParallelVerticalCounter::with_workers(&d, 4);
        c.minterm_counts_batch_guarded(&pairs, &Arena).unwrap();
        assert_eq!(c.rung(), DegradationRung::Preferred);
        assert_eq!(c.stats().degraded_batches, 0);
    }
}
