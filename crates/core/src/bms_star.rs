//! Algorithm BMS* — the naive miner for `MIN_VALID` answers.
//!
//! Two phases, per Figure F of the paper (DESIGN.md §11 maps them onto
//! the kernel's policy hooks):
//!
//! 1. Run Algorithm BMS unmodified, producing `SIG'` (all minimal
//!    correlated + CT-supported sets) and `NOTSIG'`. Partition `SIG'`:
//!    sets failing an anti-monotone constraint are dead (every superset
//!    fails too); sets satisfying everything are answers already; sets
//!    satisfying the anti-monotone but failing a monotone constraint seed
//!    the upward sweep.
//! 2. Sweep the lattice upward from those seeds. Supersets of correlated
//!    sets are correlated, so no chi-squared test is needed — only
//!    CT-support, the anti-monotone constraints (which a superset *can*
//!    lose: think `sum ≤ c`), and the monotone constraints (which it can
//!    gain).
//!
//! Two amendments to the pseudo-code make the sweep exact (DESIGN.md
//! "Fidelity notes"): candidates are generated by single-item *extension*
//! of frontier sets, and a set is only reported after checking that it
//! contains no already-reported answer.
//!
//! Both phases run on the levelwise kernel over one engine. Phase 2
//! never meets a set phase 1 counted: its candidates contain a correlated
//! `SIG'` set, so none of them was a phase-1 candidate.

use std::collections::HashMap;

use ccs_constraints::AttributeTable;
use ccs_itemset::{candidate, Item, Itemset, ItemsetSet, MintermCounter, TransactionDb};
use ccs_stats::MonotonicityClass;

use crate::bms::run_bms_with_engine;
use crate::engine::{Engine, Verdict};
use crate::guard::{freeze_levels, thaw_levels, ResumeInner, RunGuard};
use crate::kernel::{
    conclude, prune_non_minimal, run_levelwise, AlgorithmPolicy, KernelConfig, LevelMark,
    LevelSeed, MinerScope,
};
use crate::metrics::MiningMetrics;
use crate::miner::Algorithm;
use crate::prep::good1_items;
use crate::query::{CorrelationQuery, MiningError, MiningResult, Semantics};

/// The phase-2 upward sweep as a kernel policy. A level `k` seeds from
/// the frontier at `k − 1` (skipping gap levels); candidates are
/// single-item extensions into the anti-monotone-clean universe;
/// minimality prefilters against already-reported answers; acceptance
/// needs CT-support plus both constraint classes (correlation is free —
/// supersets of correlated sets are correlated).
struct StarPhase2Policy<'a> {
    query: &'a CorrelationQuery,
    attrs: &'a AttributeTable,
    universe: Vec<Item>,
    sig: Vec<Itemset>,
    frontier: HashMap<usize, ItemsetSet>,
    /// The measure's closure direction. The "correlation is free"
    /// shortcut of the sweep only holds for an upward-closed measure;
    /// under a downward-closed one every verdict's correlation bit is
    /// consulted, and an uncorrelated set is dead (its supersets are
    /// uncorrelated too).
    class: MonotonicityClass,
}

impl AlgorithmPolicy for StarPhase2Policy<'_> {
    fn candidates(&mut self, k: usize) -> LevelSeed {
        let Some(base) = self.frontier.get(&(k - 1)) else {
            return LevelSeed::Skip;
        };
        if base.is_empty() {
            return LevelSeed::Skip;
        }
        // Every candidate has size `k`, one more than any set an earlier
        // level judged, so no candidate repeats across levels.
        LevelSeed::Cands(candidate::extend_once(base, &self.universe, |_| true))
    }

    fn snapshot(&self, k: usize, _cands: &[Itemset]) -> ResumeInner {
        ResumeInner::StarPhase2 {
            k,
            sig: self.sig.clone(),
            frontier: freeze_levels(&self.frontier),
        }
    }

    fn prefilter(
        &mut self,
        _k: usize,
        cands: Vec<Itemset>,
        _metrics: &mut MiningMetrics,
    ) -> Vec<Itemset> {
        prune_non_minimal(&self.sig, cands)
    }

    fn absorb(&mut self, k: usize, survivors: Vec<Itemset>, verdicts: Vec<Verdict>, _: bool) {
        let mut next_level = ItemsetSet::default();
        for (set, v) in survivors.into_iter().zip(verdicts) {
            if !v.ct_supported {
                continue;
            }
            // Under the upward-closed χ² measure, supersets of correlated
            // sets are correlated — no re-check. A downward-closed
            // measure can *lose* correlation going up, so the verdict's
            // correlation bit gates both answering and extension.
            if self.class.is_downward() && !v.correlated {
                continue; // dead: supersets are uncorrelated too
            }
            if !self
                .query
                .constraints
                .anti_monotone_satisfied(&set, self.attrs)
            {
                continue; // dead upward as well
            }
            if self.query.constraints.monotone_satisfied(&set, self.attrs) {
                self.sig.push(set);
            } else {
                next_level.insert(set);
            }
        }
        self.frontier.entry(k).or_default().extend(next_level);
    }
}

/// Runs Algorithm BMS* under a resource guard and returns `MIN_VALID(Q)`,
/// optionally re-entering a truncated run's snapshot (either phase). The
/// query has passed the preamble.
///
/// A phase-1 trip reports the valid members of the partial `SIG'` — each
/// is a genuine `MIN_VALID` answer, since no proper subset of a BMS SIG
/// member is correlated and CT-supported. A phase-2 trip reports the
/// answers accumulated through the last completed sweep level.
pub(crate) fn run_bms_star_guarded(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    counter: &mut dyn MintermCounter,
    guard: &RunGuard,
    resume: Option<ResumeInner>,
) -> Result<MiningResult, MiningError> {
    // Split the snapshot by the phase it re-enters.
    let (phase1_resume, phase2_resume) = match resume {
        None => (None, None),
        Some(ResumeInner::StarPhase1(s)) => (Some(s), None),
        Some(ResumeInner::StarPhase2 { k, sig, frontier }) => {
            (None, Some((k, sig, thaw_levels(frontier))))
        }
        Some(_) => return Err(MiningError::foreign_snapshot(Algorithm::BmsStar.name())),
    };
    let scope = MinerScope::begin(counter.stats());
    let mut engine = Engine::with_guard(counter, &query.params, guard.clone());

    // Phase 1 (skipped when resuming into phase 2): plain BMS, on the
    // engine phase 2 then runs on.
    let (mut metrics, sig, frontier, start_k) = match phase2_resume {
        Some((k, sig, frontier)) => (MiningMetrics::default(), sig, frontier, Some(k)),
        None => {
            let run = run_bms_with_engine(
                db,
                &query.params,
                &mut engine,
                phase1_resume,
                Algorithm::BmsStar,
                ResumeInner::StarPhase1,
            );
            let mut metrics = run.output.metrics;

            // Partition SIG'.
            let mut sig: Vec<Itemset> = Vec::new();
            let mut frontier: HashMap<usize, ItemsetSet> = HashMap::new();
            for set in run.output.sig {
                if !query.constraints.anti_monotone_satisfied(&set, attrs) {
                    continue; // dead: supersets fail the anti-monotone constraint too
                }
                if query.constraints.monotone_satisfied(&set, attrs) {
                    sig.push(set);
                } else {
                    frontier.entry(set.len()).or_default().insert(set);
                }
            }

            if let Some(trip) = run.trip {
                // Phase 1 was cut short: the valid partition of the
                // partial SIG' is already sound; resume re-enters BMS.
                scope.seal(&engine, &mut metrics, sig.len());
                return Ok(conclude(sig, Semantics::MinValid, metrics, Some(trip)));
            }
            (metrics, sig, frontier, None)
        }
    };

    // Phase 2: upward sweep. The extension universe is GOOD₁: an item
    // whose singleton fails an anti-monotone constraint poisons every
    // superset.
    let mut policy = StarPhase2Policy {
        query,
        attrs,
        universe: good1_items(db, attrs, query),
        sig,
        frontier,
        class: query.params.measure.monotonicity(),
    };
    let trip = match policy.frontier.keys().min().copied() {
        None => None,
        Some(kmin) => run_levelwise(
            &mut engine,
            &mut policy,
            KernelConfig::new(Algorithm::BmsStar, LevelMark::Survivors),
            start_k.unwrap_or(kmin + 1),
            query.params.max_level,
            &mut metrics,
        ),
    };
    scope.seal(&engine, &mut metrics, policy.sig.len());
    Ok(conclude(policy.sig, Semantics::MinValid, metrics, trip))
}
