//! Shared candidate evaluation machinery for the level-wise miners.
//!
//! The engine counts and judges, and keeps nothing between calls:
//!
//! * [`Engine::count`] hands a batch of sets — a whole level, the BMS++
//!   residues, the causal triples — to the counting layer in one guarded
//!   [`MintermCounter::minterm_counts_batch_guarded`] call, so a
//!   horizontal strategy pays one scan per *batch* rather than per
//!   *set*, the vertical strategy shares prefix intersections across the
//!   batch, and the pooled strategies fan its prefix-equivalence classes
//!   out over their workers.
//! * [`Engine::evaluate_level`] judges each counted row where the
//!   counter left it, through a borrowed [`TableView`]: the CT-support
//!   test first, and the run's measure only on a supported row. It builds
//!   no [`ContingencyTable`]; only [`Engine::count`], for callers that
//!   read the cells themselves, does.
//!
//! The one algorithm that reads a verdict twice, BMS**, records its
//! phase-1 verdicts itself (see [`crate::bms_star_star`]).

use std::collections::HashSet;

use ccs_itemset::hash::ItemsetBuildHasher;
use ccs_itemset::{CountingStats, Itemset, MintermCounter};
use ccs_stats::{ContingencyTable, MeasureContext, TableView, Verdict};

use crate::guard::{RunGuard, TruncationReason};
use crate::params::MiningParams;

/// Wraps a counting strategy with the query's statistical tests and the
/// precomputed measure criterion.
///
/// The counter is held as a trait object so one concrete `Engine` type
/// serves every strategy — which in turn lets the levelwise kernel and
/// the policy trait stay non-generic.
pub(crate) struct Engine<'a> {
    counter: &'a mut dyn MintermCounter,
    /// The counter's transaction count: every counted row sums to it.
    n: u64,
    /// Absolute cell-support threshold.
    s_abs: u64,
    /// CT-support cell fraction.
    p: f64,
    /// The run's validated measure criterion. For χ² the critical value
    /// is the df = 1 quantile at *every* level, following Brin et al.
    /// (and §2.1 of the paper: "a degree of freedom, which is always 1
    /// for boolean variables") — the fixed cutoff that makes being
    /// correlated upward closed; see the fidelity notes in DESIGN.md.
    ctx: MeasureContext,
    /// The run's resource governor, consulted at batch boundaries and
    /// passed into the counting layer as its interruption probe.
    guard: RunGuard,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(counter: &'a mut dyn MintermCounter, params: &MiningParams) -> Self {
        Self::with_guard(counter, params, RunGuard::unlimited())
    }

    pub(crate) fn with_guard(
        counter: &'a mut dyn MintermCounter,
        params: &MiningParams,
        guard: RunGuard,
    ) -> Self {
        let n = counter.n_transactions();
        let ctx = match params.measure_context() {
            Ok(ctx) => ctx,
            // Every mining entry point validates params first, which
            // performs this same construction; re-surfacing the message
            // keeps the engine usable on its own.
            Err(e) => panic!("confidence: {e}"),
        };
        Engine {
            counter,
            n: n as u64,
            s_abs: params.support_abs(n),
            p: params.ct_fraction,
            ctx,
            guard,
        }
    }

    /// The guard governing this engine's run.
    pub(crate) fn guard(&self) -> &RunGuard {
        &self.guard
    }

    /// Swaps the guard for the inert unlimited one: later batches on
    /// this engine take no snapshots, stamp no checkpoints and never
    /// trip. BMS** phase 2 runs so after a phase-1 trip, and the BMS++
    /// verification epilogue always does.
    pub(crate) fn disarm(&mut self) {
        self.guard = RunGuard::unlimited();
    }

    /// The run's validated measure criterion.
    pub(crate) fn measure_context(&self) -> &MeasureContext {
        &self.ctx
    }

    /// Counts `sets` — distinct sets of two or more items — in one
    /// guarded counting batch ([`Engine::rows`]) and returns their
    /// contingency tables in input order.
    pub(crate) fn count(
        &mut self,
        sets: &[Itemset],
    ) -> Result<Vec<ContingencyTable>, TruncationReason> {
        let rows = self.rows(sets)?;
        Ok(sets
            .iter()
            .zip(rows)
            .map(|(set, cells)| ContingencyTable::from_counts(set.clone(), cells))
            .collect())
    }

    /// Counts `sets` — distinct sets of two or more items — in one
    /// guarded counting batch and returns their `2^k`-cell rows in input
    /// order. An empty batch never reaches the counter.
    ///
    /// This is also a guard checkpoint — one at entry (the level
    /// boundary) and, via the probe, inside the counting loops. On a
    /// trip, the batch's partial counts are discarded (its completed work
    /// is still in the statistics) and the truncation reason is returned;
    /// the caller abandons the batch and reports a truncated result. With
    /// an unarmed guard this never fails.
    fn rows(&mut self, sets: &[Itemset]) -> Result<Vec<Vec<u64>>, TruncationReason> {
        self.guard.checkpoint()?;
        debug_assert!(
            {
                let mut seen = HashSet::with_hasher(ItemsetBuildHasher::default());
                sets.iter().all(|set| set.len() >= 2 && seen.insert(set))
            },
            "a batch holds distinct sets of two or more items"
        );
        if sets.is_empty() {
            return Ok(Vec::new());
        }
        // A counter only abandons a batch when the probe asks it to.
        // Re-running the checkpoint classifies the cause — including a
        // cancellation flag that was raised but not yet converted into a
        // trip; the fallback covers misbehaving counters that interrupt
        // unprompted.
        self.counter
            .minterm_counts_batch_guarded(sets, &self.guard)
            .map_err(|_| match self.guard.checkpoint() {
                Err(reason) => reason,
                Ok(()) => TruncationReason::WorkBudget,
            })
    }

    /// Counts a whole level of candidates in one batch ([`Engine::rows`])
    /// and judges each row in place ([`MeasureContext::judge`]): the
    /// CT-support test first, then, on a supported row only, the run's
    /// measure. Verdicts come back in input order.
    pub(crate) fn evaluate_level(
        &mut self,
        sets: &[Itemset],
    ) -> Result<Vec<Verdict>, TruncationReason> {
        let rows = self.rows(sets)?;
        Ok(sets
            .iter()
            .zip(&rows)
            .map(|(set, cells)| {
                let row = TableView::new(set.len(), cells, self.n);
                self.ctx.judge(row, self.s_abs, self.p)
            })
            .collect())
    }

    /// The counting layer's cumulative statistics, to be absorbed into
    /// metrics once at the end of a run.
    pub(crate) fn counting_stats(&self) -> CountingStats {
        self.counter.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardLimits;
    use ccs_itemset::{HorizontalCounter, TransactionDb};

    /// A counter on the trait's per-set default batch path, so a cell
    /// budget trips between two sets of one batch.
    struct PerSet<'d>(HorizontalCounter<'d>);

    impl MintermCounter for PerSet<'_> {
        fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
            self.0.minterm_counts(set)
        }

        fn n_transactions(&self) -> usize {
            self.0.n_transactions()
        }

        fn stats(&self) -> CountingStats {
            self.0.stats()
        }
    }

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    #[test]
    fn level_batches_answer_by_position_and_a_trip_abandons_the_batch() {
        let db = TransactionDb::from_ids(
            5,
            vec![
                vec![0, 1],
                vec![0, 1, 2],
                vec![0, 2],
                vec![1, 3],
                vec![0, 1, 3, 4],
                vec![2, 4],
                vec![],
                vec![0, 1, 2, 3],
            ],
        );
        let params = MiningParams::paper();
        // The verdicts one set at a time, from the tables themselves.
        let ctx = params.measure_context().unwrap();
        let mut solo = HorizontalCounter::new(&db);
        let mut expect = |sets: &[Itemset]| -> Vec<Verdict> {
            sets.iter()
                .map(|s| {
                    let table = ContingencyTable::build(&mut solo, s);
                    if table.is_ct_supported(params.support_abs(db.len()), params.ct_fraction) {
                        Verdict::Supported {
                            correlated: ctx.verdict(&table),
                        }
                    } else {
                        Verdict::Unsupported
                    }
                })
                .collect()
        };

        // Batches 1 and 2 charge 4 cells per pair table: 20 in all, so
        // the first table of batch 3 crosses the budget.
        let limits = GuardLimits {
            work_budget_cells: Some(21),
            ..GuardLimits::default()
        };
        let mut counter = PerSet(HorizontalCounter::new(&db));
        let mut engine = Engine::with_guard(&mut counter, &params, RunGuard::new(limits));

        let first = [set(&[0, 1]), set(&[0, 2])];
        assert_eq!(engine.evaluate_level(&first), Ok(expect(&first)));
        assert_eq!(engine.counting_stats().tables_built, 2);

        let second = [set(&[1, 2]), set(&[0, 3]), set(&[1, 3])];
        assert_eq!(engine.evaluate_level(&second), Ok(expect(&second)));
        assert_eq!(engine.counting_stats().tables_built, 5);

        // The first table of the tripped batch is counted and charged;
        // the batch itself is abandoned, and so is every later one.
        let tripped = [set(&[2, 3]), set(&[2, 4]), set(&[1, 4])];
        assert_eq!(
            engine.evaluate_level(&tripped),
            Err(TruncationReason::WorkBudget)
        );
        assert_eq!(engine.counting_stats().tables_built, 6);
        assert_eq!(
            engine.count(&[set(&[3, 4])]).map(|t| t.len()),
            Err(TruncationReason::WorkBudget)
        );
        assert_eq!(engine.counting_stats().tables_built, 6);

        // The empty batch is still a checkpoint.
        assert_eq!(
            engine.evaluate_level(&[]),
            Err(TruncationReason::WorkBudget)
        );
    }
}
