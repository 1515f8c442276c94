//! [`ParallelCounter`]: data-parallel horizontal minterm counting.
//!
//! Splits the transaction database into contiguous chunks, counts each
//! chunk's contingency cells on scoped threads, and merges the
//! per-runner tables. Semantics are identical to
//! [`HorizontalCounter`](crate::counting::HorizontalCounter) — same
//! scan-per-table cost model, same statistics — divided across cores.
//! An extension beyond the paper (its testbed was a single-core Pentium),
//! used by the `Parallel` counting strategy of `ccs-core`.
//!
//! When `candidates × transactions` is small, starting threads costs
//! more than the scan; such scans run the horizontal counter's own scan
//! (`counting::horizontal_batch_guarded`) inline on the calling thread.
//! A single set is a batch of one, so it takes the same choice and
//! charges what a horizontal scan charges.
//!
//! A pooled scan's runners borrow the database, the batch and the probe.
//! The calling thread is the first runner; before any runner starts it
//! allocates each runner's partial tables as one buffer, so no two
//! runners' cells share a cache line but at a buffer's edge. Runners
//! claim chunks from one cursor, so a runner the OS refuses to start
//! leaves its chunk to the others. Each runner checks the probe once per
//! `PROBE_CHUNK` transactions, and the calling thread charges a completed
//! scan once, as a horizontal scan does. An interrupted scan completes
//! *no* tables (a level is merged all-or-nothing), but the transactions
//! actually visited are still recorded in the statistics.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::counting::{
    available_workers, cell_index, horizontal_batch_guarded, run_scoped, scan_completed,
    sole_table, BatchInterrupted, CountProbe, CountingStats, MintermCounter, NoProbe, PROBE_CHUNK,
};
use crate::database::TransactionDb;
use crate::itemset::Itemset;

/// Minimum `candidates × transactions` before a scan is fanned out;
/// below it, starting threads costs more than the scan itself.
pub const PARALLEL_WORK_FLOOR: u64 = 1 << 16;

/// A horizontal scan counter that fans each scan out over database
/// chunks on scoped threads.
#[derive(Debug)]
pub struct ParallelCounter<'a> {
    db: &'a TransactionDb,
    workers: usize,
    work_floor: u64,
    stats: CountingStats,
}

/// One runner's share of a pooled scan: its partial tables, back to back
/// in batch order, the transactions it visited, and whether the probe
/// stopped it inside a chunk.
struct ScanPart {
    cells: Vec<u64>,
    visited: u64,
    stopped: bool,
}

impl ScanPart {
    /// Adds the transactions in `tids` into the tables, set `i`'s table
    /// starting at `starts[i]`, checking the probe once per
    /// `PROBE_CHUNK` of them.
    fn scan(
        &mut self,
        db: &TransactionDb,
        sets: &[Itemset],
        starts: &[usize],
        tids: Range<usize>,
        probe: &dyn CountProbe,
    ) {
        let len = tids.len();
        for (steps, tid) in tids.enumerate() {
            if steps % PROBE_CHUNK == 0 && steps > 0 && probe.should_stop() {
                self.visited += steps as u64;
                self.stopped = true;
                return;
            }
            let txn = db.transaction(tid);
            for (set, &start) in sets.iter().zip(starts) {
                self.cells[start + cell_index(txn, set)] += 1;
            }
        }
        self.visited += len as u64;
    }
}

impl<'a> ParallelCounter<'a> {
    /// Creates a counter with one worker per available CPU.
    pub fn with_available_parallelism(db: &'a TransactionDb) -> Self {
        Self::with_workers(db, available_workers())
    }

    /// Creates a counter whose scans use up to `workers` threads (at
    /// least one).
    pub fn with_workers(db: &'a TransactionDb, workers: usize) -> Self {
        ParallelCounter {
            db,
            workers: workers.max(1),
            work_floor: PARALLEL_WORK_FLOOR,
            stats: CountingStats::default(),
        }
    }

    /// The number of threads a scan can use.
    pub fn n_threads(&self) -> usize {
        self.workers
    }

    /// Overrides the sequential work floor (tests and benchmarks set `0`
    /// to fan out scans the default floor would — correctly — run
    /// inline).
    pub fn set_work_floor(&mut self, floor: u64) {
        self.work_floor = floor;
    }

    /// Pooled guarded scan: runners claim contiguous chunks from one
    /// cursor, and their tables are merged all-or-nothing on the calling
    /// thread.
    fn scan_pooled(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        self.stats.db_scans += 1;
        let (db, n) = (self.db, self.db.len());
        let threads = self.workers.min(n.div_ceil(PROBE_CHUNK)).max(1);
        let chunk = n.div_ceil(threads);
        let mut total = 0;
        let starts: Vec<usize> = sets
            .iter()
            .map(|s| {
                let start = total;
                total += 1usize << s.len();
                start
            })
            .collect();
        let mut parts: Vec<ScanPart> = (0..threads)
            .map(|_| ScanPart {
                cells: vec![0u64; total],
                visited: 0,
                stopped: false,
            })
            .collect();
        let cursor = AtomicUsize::new(0);
        run_scoped(parts.iter_mut(), |part| {
            while !part.stopped {
                let lo = cursor.fetch_add(1, Ordering::Relaxed) * chunk;
                if lo >= n {
                    return;
                }
                part.scan(db, sets, &starts, lo..(lo + chunk).min(n), probe);
            }
        });
        self.stats.transactions_visited += parts.iter().map(|p| p.visited).sum::<u64>();
        if parts.iter().any(|p| p.stopped) {
            return Err(BatchInterrupted::default());
        }
        let (whole, others) = parts.split_at_mut(1);
        let whole = &mut whole[0].cells;
        for part in others {
            for (acc, &c) in whole.iter_mut().zip(&part.cells) {
                *acc += c;
            }
        }
        Ok(sets
            .iter()
            .zip(&starts)
            .map(|(set, &start)| whole[start..start + (1usize << set.len())].to_vec())
            .collect())
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
        if self.workers <= 1 || work < self.work_floor {
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
    /// divided across threads: the same tables and the same
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
                let mut par = ParallelCounter::with_workers(&d, threads);
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
            let mut par = ParallelCounter::with_workers(&d, threads);
            par.set_work_floor(0); // force the fan-out
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
    fn repeated_scans_agree() {
        let d = db(5000);
        let mut par = ParallelCounter::with_workers(&d, 2);
        par.set_work_floor(0);
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([0, 2])];
        let mut first = par.minterm_counts_batch(&sets);
        for _ in 0..5 {
            let again = par.minterm_counts_batch(&sets);
            assert_eq!(first, again);
            first = again;
        }
        assert_eq!(par.stats().db_scans, 6);
        assert_eq!(par.n_threads(), 2);
    }

    #[test]
    fn stats_count_logical_scans() {
        let d = db(5000);
        let mut par = ParallelCounter::with_workers(&d, 4);
        par.minterm_counts(&Itemset::from_ids([0, 1]));
        par.minterm_counts(&Itemset::from_ids([0, 2]));
        let s = par.stats();
        assert_eq!(s.tables_built, 2);
        assert_eq!(s.db_scans, 2);
        assert_eq!(s.transactions_visited, 10_000);
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
        }
        let sets = vec![Itemset::from_ids([0, 1]), Itemset::from_ids([2, 3, 4])];
        for (n, floor) in [
            (100, PARALLEL_WORK_FLOOR),
            (20_000, PARALLEL_WORK_FLOOR),
            (2000, 0),
        ] {
            let d = db(n);
            let mut par = ParallelCounter::with_workers(&d, 4);
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
        assert_eq!(ParallelCounter::with_workers(&d, 0).n_threads(), 1);
        assert!(ParallelCounter::with_available_parallelism(&d).n_threads() >= 1);
    }
}
