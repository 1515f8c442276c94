//! [`ParallelCounter`]: data-parallel horizontal minterm counting.
//!
//! Splits the transaction database into contiguous chunks, counts each
//! chunk's contingency cells on a persistent [`WorkerPool`], and merges
//! the per-chunk tables. Semantics are identical to
//! [`HorizontalCounter`](crate::counting::HorizontalCounter) — same
//! scan-per-table cost model, same statistics — divided across cores.
//! An extension beyond the paper (its testbed was a single-core Pentium),
//! used by the `Parallel` counting strategy of `ccs-core`.
//!
//! Two lessons from the original scoped-thread implementation are baked
//! in:
//!
//! * **No per-scan spawn.** Spawning threads for every scan made the
//!   parallel counter *slower* than its sequential twin on the benchmark
//!   shape. Scans now dispatch onto a pool created once and reused for
//!   the life of the counter.
//! * **A sequential work floor.** When `candidates × transactions` is
//!   small, dispatch overhead dominates; such scans run the horizontal
//!   counter's own scan (`counting::horizontal_batch_guarded`) inline on
//!   the calling thread. A single set is a batch of one, so it takes the
//!   same choice and charges what a horizontal scan charges.
//!
//! Pool jobs are `'static`, so the first pooled scan snapshots the
//! database into an `Arc` (one full copy, kept for the counter's life).
//! Scans below the work floor never pay that copy.
//!
//! Under a guard, each job checks its [`CountProbe::share`]d handle on
//! the run's probe once per `PROBE_CHUNK` transactions (see
//! [`crate::pool`]), and the calling thread charges a completed scan
//! once, as a horizontal scan does. An interrupted scan completes *no*
//! tables (a level is merged all-or-nothing), but the transactions
//! actually visited are still recorded in the statistics.

use std::sync::mpsc::Sender;
use std::sync::Arc;

use crate::counting::{
    add_tables, cell_index, horizontal_batch_guarded, scan_completed, sole_table, BatchInterrupted,
    CountProbe, CountingStats, MintermCounter, NoProbe, PROBE_CHUNK,
};
use crate::database::TransactionDb;
use crate::itemset::Itemset;
use crate::pool::WorkerPool;

/// Minimum `candidates × transactions` before a scan is fanned out;
/// below it, pool dispatch costs more than the scan itself.
pub const PARALLEL_WORK_FLOOR: u64 = 1 << 16;

/// A horizontal scan counter that fans each scan out over database
/// chunks on a persistent worker pool.
#[derive(Debug)]
pub struct ParallelCounter<'a> {
    db: &'a TransactionDb,
    /// Owned snapshot shared with pool jobs, created on the first scan
    /// that actually engages the pool.
    shared_db: Option<Arc<TransactionDb>>,
    pool: Arc<WorkerPool>,
    work_floor: u64,
    stats: CountingStats,
}

impl<'a> ParallelCounter<'a> {
    /// Creates a counter on the process-wide pool (sized to the
    /// machine's available parallelism).
    pub fn with_available_parallelism(db: &'a TransactionDb) -> Self {
        Self::with_pool(db, Arc::clone(WorkerPool::global()))
    }

    /// Creates a counter on `pool`.
    pub fn with_pool(db: &'a TransactionDb, pool: Arc<WorkerPool>) -> Self {
        ParallelCounter {
            db,
            shared_db: None,
            pool,
            work_floor: PARALLEL_WORK_FLOOR,
            stats: CountingStats::default(),
        }
    }

    /// The number of pool workers a scan can use.
    pub fn n_threads(&self) -> usize {
        self.pool.n_workers().max(1)
    }

    /// Overrides the sequential work floor (tests and benchmarks set `0`
    /// to force pool dispatch on shapes the default floor would —
    /// correctly — run inline).
    pub fn set_work_floor(&mut self, floor: u64) {
        self.work_floor = floor;
    }

    /// The `Arc` snapshot of the database, created on first use.
    fn shared_db(&mut self) -> Arc<TransactionDb> {
        let db = self.db;
        Arc::clone(self.shared_db.get_or_insert_with(|| Arc::new(db.clone())))
    }

    /// Pooled guarded scan: one job per contiguous chunk, results merged
    /// all-or-nothing on the calling thread.
    fn scan_pooled(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let mut tables: Vec<Vec<u64>> =
            sets.iter().map(|s| vec![0u64; 1usize << s.len()]).collect();
        self.stats.db_scans += 1;
        let n = self.db.len();
        let shared_db = self.shared_db();
        let shared_sets: Arc<Vec<Itemset>> = Arc::new(sets.to_vec());
        let threads = self.pool.n_workers().min(n.div_ceil(PROBE_CHUNK)).max(1);
        let chunk = n.div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..threads)
            .map(|t| (t * chunk, ((t + 1) * chunk).min(n)))
            .filter(|&(lo, hi)| lo < hi)
            .collect();
        // Each job reports the transactions it visited, plus its tables
        // if it scanned its whole chunk.
        let shared = probe.share();
        let jobs = ranges.iter().map(|&(lo, hi)| {
            let (db, sets, probe) = (
                Arc::clone(&shared_db),
                Arc::clone(&shared_sets),
                Arc::clone(&shared),
            );
            move |tx: &Sender<(u64, Option<Vec<Vec<u64>>>)>| {
                let mut counts: Vec<Vec<u64>> =
                    sets.iter().map(|s| vec![0u64; 1usize << s.len()]).collect();
                for (steps, tid) in (lo..hi).enumerate() {
                    if steps % PROBE_CHUNK == 0 && steps > 0 && probe.should_stop() {
                        let _ = tx.send((steps as u64, None));
                        return;
                    }
                    let txn = db.transaction(tid);
                    for (set, table) in sets.iter().zip(counts.iter_mut()) {
                        table[cell_index(txn, set)] += 1;
                    }
                }
                let _ = tx.send(((hi - lo) as u64, Some(counts)));
            }
        });
        let mut merged = 0usize;
        self.pool
            .fan_out(jobs, ranges.len(), probe, |(visited, partial)| {
                self.stats.transactions_visited += visited;
                if let Some(counts) = partial {
                    add_tables(&mut tables, &counts);
                    merged += 1;
                }
            });
        if merged < ranges.len() {
            Err(BatchInterrupted::default())
        } else {
            Ok(tables)
        }
    }
}

impl MintermCounter for ParallelCounter<'_> {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        sole_table(self.minterm_counts_batch_guarded(std::slice::from_ref(set), &NoProbe))
    }

    /// Counts a whole level in one logical scan, fanned out across
    /// candidates × chunks: each worker scans its chunk once, updating a
    /// private table per candidate, and the per-chunk tables are merged.
    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        if sets.is_empty() {
            return Ok(Vec::new());
        }
        // Checked before any scan starts, so a stopped probe charges no
        // scan at all.
        if probe.should_stop() {
            return Err(BatchInterrupted::default());
        }
        let work = (sets.len() as u64).saturating_mul(self.db.len() as u64);
        if self.pool.n_workers() <= 1 || work < self.work_floor {
            return horizontal_batch_guarded(self.db, sets, probe, &mut self.stats);
        }
        let tables = self.scan_pooled(sets, probe)?;
        Ok(scan_completed(tables, probe, &mut self.stats))
    }

    fn n_transactions(&self) -> usize {
        self.db.len()
    }

    fn stats(&self) -> CountingStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::HorizontalCounter;

    /// A counter on a private pool of `threads` workers.
    fn on_workers(db: &TransactionDb, threads: usize) -> ParallelCounter<'_> {
        ParallelCounter::with_pool(db, Arc::new(WorkerPool::new(threads)))
    }

    fn db(n: usize) -> TransactionDb {
        TransactionDb::from_ids(
            6,
            (0..n).map(|i| {
                let mut t = Vec::new();
                if i % 2 == 0 {
                    t.extend([0, 1]);
                }
                if i % 3 == 0 {
                    t.push(2);
                }
                if i % 7 == 0 {
                    t.extend([3, 4, 5]);
                }
                t
            }),
        )
    }

    /// At the default work floor the counter is the horizontal counter
    /// divided across a pool: the same tables and the same
    /// `CountingStats`, for single sets and for batches, below the floor
    /// and above it.
    #[test]
    fn default_floor_matches_horizontal_tables_and_stats() {
        let sets = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 2]),
            Itemset::from_ids([2, 3, 4]),
            Itemset::from_ids([5]),
        ];
        // 20k rows × 4 sets is above `PARALLEL_WORK_FLOOR`.
        for n in [0usize, 1, 100, 5000, 20_000] {
            let d = db(n);
            for threads in [1usize, 2, 4, 16] {
                let shape = format!("n={n} threads={threads}");
                let mut par = on_workers(&d, threads);
                let mut seq = HorizontalCounter::new(&d);
                assert_eq!(
                    par.minterm_counts_batch(&sets),
                    seq.minterm_counts_batch(&sets),
                    "{shape}"
                );
                assert_eq!(par.stats(), seq.stats(), "{shape}: batch stats");
                for set in &sets {
                    assert_eq!(par.minterm_counts(set), seq.minterm_counts(set), "{shape}");
                }
                assert_eq!(par.stats(), seq.stats(), "{shape}: single-set stats");
            }
        }
    }

    #[test]
    fn pooled_path_matches_sequential_when_forced() {
        let d = db(5000);
        let sets = vec![
            Itemset::from_ids([0, 1]),
            Itemset::from_ids([0, 2]),
            Itemset::from_ids([2, 3, 4]),
            Itemset::from_ids([5]),
        ];
        let mut seq = HorizontalCounter::new(&d);
        let expected = seq.minterm_counts_batch(&sets);
        for threads in [2usize, 4] {
            let mut par = on_workers(&d, threads);
            par.set_work_floor(0); // force pool dispatch
            assert_eq!(
                par.minterm_counts_batch(&sets),
                expected,
                "threads={threads}"
            );
            let s = par.stats();
            assert_eq!(s.db_scans, 1);
            assert_eq!(s.tables_built, sets.len() as u64);
            assert_eq!(s.transactions_visited, 5000);
        }
    }

    #[test]
    fn pool_is_reused_across_scans() {
        let d = db(5000);
        let mut par = on_workers(&d, 2);
        par.set_work_floor(0);
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([0, 2])];
        let mut first = par.minterm_counts_batch(&sets);
        for _ in 0..5 {
            let again = par.minterm_counts_batch(&sets);
            assert_eq!(first, again);
            first = again;
        }
        assert_eq!(par.stats().db_scans, 6);
        // All scans ran on the same two resident workers.
        assert_eq!(par.n_threads(), 2);
    }

    #[test]
    fn stats_count_logical_scans() {
        let d = db(5000);
        let mut par = on_workers(&d, 4);
        par.minterm_counts(&Itemset::from_ids([0, 1]));
        par.minterm_counts(&Itemset::from_ids([0, 2]));
        let s = par.stats();
        assert_eq!(s.tables_built, 2);
        assert_eq!(s.db_scans, 2);
        assert_eq!(s.transactions_visited, 10_000);
    }

    #[test]
    fn small_scans_never_snapshot_the_database() {
        let d = db(100);
        let mut par = on_workers(&d, 4);
        par.minterm_counts_batch(&[Itemset::from_ids([0, 1])]);
        assert!(
            par.shared_db.is_none(),
            "a below-floor scan must not pay the Arc snapshot"
        );
    }

    /// A probe that is already stopped interrupts a batch before its
    /// scan starts, below the floor and above it: no scan, no visit, no
    /// table is charged.
    #[test]
    fn pre_stopped_probe_interrupts_immediately() {
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
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([2, 3, 4])];
        for (n, floor) in [
            (100, PARALLEL_WORK_FLOOR),
            (20_000, PARALLEL_WORK_FLOOR),
            (2000, 0),
        ] {
            let d = db(n);
            let mut par = on_workers(&d, 4);
            par.set_work_floor(floor);
            par.minterm_counts(&Itemset::from_ids([0]));
            let before = par.stats();
            let err = par
                .minterm_counts_batch_guarded(&sets, &Stopped)
                .unwrap_err();
            assert_eq!(err, BatchInterrupted::default(), "n={n} floor={floor}");
            assert_eq!(
                par.stats(),
                before,
                "n={n} floor={floor}: db_scans unchanged"
            );
        }
    }

    #[test]
    fn thread_count_is_clamped() {
        let d = db(10);
        assert_eq!(on_workers(&d, 0).n_threads(), 1);
        assert!(ParallelCounter::with_available_parallelism(&d).n_threads() >= 1);
    }
}
