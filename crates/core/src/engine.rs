//! Shared candidate evaluation machinery for the level-wise miners.
//!
//! Two batching layers live here:
//!
//! * [`Engine::evaluate_level`] hands a whole level of candidates to the
//!   counting layer at once ([`MintermCounter::minterm_counts_batch`]),
//!   so a horizontal strategy pays one scan per *level* rather than per
//!   *candidate*, the vertical strategy can share prefix intersections
//!   across candidates, and the parallel-vertical strategy can fan the
//!   level's prefix-equivalence classes out over its worker pool.
//! * A verdict memo-cache keyed by [`Itemset`]: once a set has been
//!   judged, any later evaluation — typically a BMS*/BMS** border sweep
//!   revisiting sets the BMS phase already classified — is answered from
//!   the cache without rebuilding the contingency table. Hits are
//!   reported via [`CountingStats::cache_hits`]. A level probes it once
//!   per input set; a fresh set is moved through its table into the
//!   cache, never cloned twice.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ccs_itemset::hash::ItemsetBuildHasher;
use ccs_itemset::{CountingStats, Itemset, ItemsetMap, MintermCounter};
use ccs_stats::{ContingencyTable, MeasureContext};

use crate::guard::{RunGuard, TruncationReason};
use crate::params::MiningParams;

/// The verdict on one candidate set after building its contingency table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Verdict {
    /// CT-support test outcome.
    pub ct_supported: bool,
    /// Correlation test outcome under the run's measure.
    pub correlated: bool,
    /// The raw measure statistic (the chi-squared statistic under the
    /// paper's measure).
    pub statistic: f64,
}

impl Verdict {
    /// The stand-in [`Engine::evaluate_level`] holds a fresh set's place
    /// with until its batch is judged; it never leaves the engine.
    const PENDING: Verdict = Verdict {
        ct_supported: false,
        correlated: false,
        statistic: f64::NAN,
    };
}

/// Wraps a counting strategy with the query's statistical tests and the
/// precomputed measure criterion.
///
/// The counter is held as a trait object so one concrete `Engine` type
/// serves every strategy — which in turn lets the levelwise kernel and
/// the policy trait stay non-generic.
pub(crate) struct Engine<'a> {
    counter: &'a mut dyn MintermCounter,
    /// Absolute cell-support threshold.
    pub s_abs: u64,
    /// CT-support cell fraction.
    pub p: f64,
    /// The run's validated measure criterion. For χ² the critical value
    /// is the df = 1 quantile at *every* level, following Brin et al.
    /// (and §2.1 of the paper: "a degree of freedom, which is always 1
    /// for boolean variables") — the fixed cutoff that makes being
    /// correlated upward closed; see the fidelity notes in DESIGN.md.
    ctx: MeasureContext,
    /// Memoised verdicts: a set is counted at most once per engine.
    cache: ItemsetMap<Verdict>,
    /// Evaluations answered from `cache` without building a table.
    cache_hits: u64,
    /// The run's resource governor, consulted at level boundaries and
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
            s_abs: params.support_abs(n),
            p: params.ct_fraction,
            ctx,
            cache: ItemsetMap::default(),
            cache_hits: 0,
            guard,
        }
    }

    /// The guard governing this engine's run.
    pub(crate) fn guard(&self) -> &RunGuard {
        &self.guard
    }

    /// Swaps the guard for the inert unlimited one: later sweeps on this
    /// engine take no snapshots, stamp no checkpoints and never trip.
    /// BMS** phase 2 runs so after a phase-1 trip; its sweep over the
    /// completed SUPP levels is pure cache work.
    pub(crate) fn disarm(&mut self) {
        self.guard = RunGuard::unlimited();
    }

    /// The run's validated measure criterion.
    pub(crate) fn measure_context(&self) -> &MeasureContext {
        &self.ctx
    }

    /// Applies both tests to an already-built contingency table.
    fn judge(&mut self, table: &ContingencyTable) -> Verdict {
        let ct_supported = table.is_ct_supported(self.s_abs, self.p);
        let statistic = self.ctx.statistic(table);
        let correlated = statistic >= self.ctx.critical_value();
        Verdict {
            ct_supported,
            correlated,
            statistic,
        }
    }

    /// Evaluates one candidate: answers from the memo-cache if the set
    /// was judged before, otherwise builds its contingency table (one
    /// accounted table) and caches the verdict. Absorb
    /// [`Engine::counting_stats`] into the run's metrics once at the end.
    pub(crate) fn evaluate(&mut self, set: &Itemset) -> Verdict {
        debug_assert!(set.len() >= 2, "tests are degenerate below pairs");
        if let Some(&v) = self.cache.get(set) {
            self.cache_hits += 1;
            return v;
        }
        let table = ContingencyTable::build(&mut *self.counter, set);
        let v = self.judge(&table);
        self.cache.insert(table.into_itemset(), v);
        v
    }

    /// Evaluates a whole level of candidates in one counting batch.
    ///
    /// Sets with cached verdicts (and in-batch duplicates) are answered
    /// from the memo-cache; the rest go to the counting layer as a single
    /// guarded [`MintermCounter::minterm_counts_batch_guarded`] call, so
    /// horizontal strategies pay one scan per level and the vertical
    /// strategy shares prefix work across candidates. Verdicts come back
    /// in input order.
    ///
    /// This is also a guard checkpoint — one at entry (the level
    /// boundary) and, via the probe, inside the counting loops. On a
    /// trip, the batch's partial counts are discarded (its completed work
    /// is still in the statistics) and the truncation reason is returned;
    /// the caller abandons the level and reports a truncated result. With
    /// an unarmed guard this never fails.
    pub(crate) fn evaluate_level(
        &mut self,
        sets: &[Itemset],
    ) -> Result<Vec<Verdict>, TruncationReason> {
        self.guard.checkpoint()?;
        // Verdicts by input position: cached ones now, the rest once the
        // batch is judged. A fresh set is counted at its first position;
        // a repeat copies the verdict from there.
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(sets.len());
        let mut fresh: Vec<Itemset> = Vec::new();
        let mut fresh_at: Vec<usize> = Vec::new();
        let mut repeats: Vec<(usize, usize)> = Vec::new();
        let mut first_at: HashMap<&Itemset, usize, ItemsetBuildHasher> = HashMap::default();
        for (pos, set) in sets.iter().enumerate() {
            debug_assert!(set.len() >= 2, "tests are degenerate below pairs");
            if let Some(&v) = self.cache.get(set) {
                self.cache_hits += 1;
                verdicts.push(v);
                continue;
            }
            match first_at.entry(set) {
                Entry::Occupied(first) => {
                    self.cache_hits += 1;
                    repeats.push((pos, *first.get()));
                }
                Entry::Vacant(first) => {
                    first.insert(pos);
                    fresh.push(set.clone());
                    fresh_at.push(pos);
                }
            }
            verdicts.push(Verdict::PENDING);
        }
        // Free the index before the batch allocates its tables.
        drop(first_at);
        if !fresh.is_empty() {
            let batch = self
                .counter
                .minterm_counts_batch_guarded(&fresh, &self.guard);
            let counts = match batch {
                Ok(counts) => counts,
                // A counter only abandons a batch when the probe asks it
                // to. Re-running the checkpoint classifies the cause —
                // including a cancellation flag that was raised but not
                // yet converted into a trip; the fallback covers
                // misbehaving counters that interrupt unprompted.
                Err(_) => {
                    return Err(match self.guard.checkpoint() {
                        Err(reason) => reason,
                        Ok(()) => TruncationReason::WorkBudget,
                    })
                }
            };
            for ((set, cells), pos) in fresh.into_iter().zip(counts).zip(fresh_at) {
                let table = ContingencyTable::from_counts(set, cells);
                let v = self.judge(&table);
                self.cache.insert(table.into_itemset(), v);
                verdicts[pos] = v;
            }
        }
        for (pos, first) in repeats {
            verdicts[pos] = verdicts[first];
        }
        Ok(verdicts)
    }

    /// Raw minterm counts for `set` (one accounted table), for callers
    /// that need the cells themselves (conditional-independence tests).
    pub(crate) fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        self.counter.minterm_counts(set)
    }

    /// Final counting statistics — the counting layer's numbers plus this
    /// engine's cache hits — to be absorbed into metrics once at the end
    /// of a run.
    pub(crate) fn counting_stats(&self) -> CountingStats {
        let mut stats = self.counter.stats();
        // ccs-lint: allow(counting-stats-merge-via-addassign, reason = "folds the engine's own hit counter into one field; not a stats-to-stats merge")
        stats.cache_hits += self.cache_hits;
        stats
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
    fn level_batches_answer_by_position_and_trips_leave_the_cache_clean() {
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
        // The verdicts one set at a time, on an engine of its own.
        let mut solo = HorizontalCounter::new(&db);
        let mut reference = Engine::new(&mut solo, &params);
        let mut expect = |sets: &[Itemset]| -> Vec<Verdict> {
            sets.iter().map(|s| reference.evaluate(s)).collect()
        };

        // Batches 1 and 2 charge 4 cells per pair table: 16 in all, so
        // the first table of batch 3 crosses the budget.
        let limits = GuardLimits {
            work_budget_cells: Some(17),
            ..GuardLimits::default()
        };
        let mut counter = PerSet(HorizontalCounter::new(&db));
        let mut engine = Engine::with_guard(&mut counter, &params, RunGuard::new(limits));

        let first = [set(&[0, 1]), set(&[0, 2])];
        assert_eq!(engine.evaluate_level(&first), Ok(expect(&first)));
        let stats = engine.counting_stats();
        assert_eq!((stats.tables_built, stats.cache_hits), (2, 0));

        // Cached, fresh, cached, in-batch duplicate, fresh, cached.
        let mixed = [
            set(&[0, 2]),
            set(&[1, 2]),
            set(&[0, 1]),
            set(&[1, 2]),
            set(&[0, 3]),
            set(&[0, 2]),
        ];
        assert_eq!(engine.evaluate_level(&mixed), Ok(expect(&mixed)));
        let stats = engine.counting_stats();
        assert_eq!(stats.tables_built, 4, "one table per distinct fresh set");
        assert_eq!(
            stats.cache_hits, 4,
            "three cached inputs plus one duplicate"
        );

        let tripped = [set(&[2, 3]), set(&[2, 4]), set(&[1, 3])];
        assert_eq!(
            engine.evaluate_level(&tripped),
            Err(TruncationReason::WorkBudget)
        );
        for s in &tripped {
            assert!(!engine.cache.contains_key(s), "{s} outlived its batch");
        }
        for s in first.iter().chain(&mixed) {
            assert!(engine.cache.contains_key(s), "{s} left the cache");
        }
    }
}
