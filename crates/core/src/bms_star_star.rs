//! Algorithm BMS** — constraint-pushing miner for `MIN_VALID` answers.
//!
//! Per Figure G of the paper, the work splits into two phases (DESIGN.md
//! §11 maps them onto the kernel's policy hooks):
//!
//! 1. **SUPP enumeration.** A level-wise sweep that applies only the
//!    *anti-monotone* machinery — the `L1⁺`/`L1⁻` preprocessing and
//!    candidate formation of BMS++, the pre-count residual anti-monotone
//!    checks, and the CT-support test — but *no* chi-squared test. Each
//!    level is counted as one batch, and each SUPP set keeps the
//!    correlation bit of its verdict beside it in its SUPP level.
//!
//! 2. **Upward SIG sweep.** Starting from `SUPP₂`, sets that are
//!    correlated and satisfy the monotone constraints become answers
//!    (after a minimality check against already-found answers); the rest
//!    seed single-item extensions *within SUPP* for the next level. Every
//!    phase-2 set is a SUPP set, so its correlation bit was recorded when
//!    phase 1 counted it: phase 2 answers it without a table (a cache
//!    hit), which is exactly why the §3.3 analysis charges BMS** only
//!    `Σᵢ vᵢ` tables. Only SUPP levels thawed from a resume snapshot carry
//!    no bits; their sets are counted again.
//!
//! The candidate-generation and minimality amendments of
//! [`crate::bms_star`] apply here too (DESIGN.md "Fidelity notes");
//! unlike BMS++ no extra verification tables are needed, because every
//! minimality violation goes through witness-touching subsets phase 2
//! has already classified.
//!
//! Both phases are kernel policies over one shared engine; after a
//! phase-1 trip the engine's guard is disarmed, so the phase-2 sweep over
//! the completed SUPP levels survives the already-tripped guard.

use std::collections::HashMap;

use ccs_constraints::{AttributeTable, ConstraintAnalysis};
use ccs_itemset::{
    candidate, Item, Itemset, ItemsetMap, ItemsetSet, MintermCounter, TransactionDb,
};
use ccs_stats::MonotonicityClass;

use crate::engine::{Engine, Verdict};
use crate::guard::{freeze_levels, sorted_sets, ResumeInner, RunGuard};
use crate::kernel::{
    conclude, prune_am_residual, prune_non_minimal, run_levelwise, staged, AlgorithmPolicy,
    KernelConfig, KernelTrip, LevelMark, LevelSeed, MinerScope,
};
use crate::metrics::MiningMetrics;
use crate::miner::Algorithm;
use crate::prep::{preprocess, WitnessMask};
use crate::query::{CorrelationQuery, MiningError, MiningResult, Semantics};

/// The SUPP levels by size. Each set maps to its correlation bit when
/// this run's phase 1 counted it, and to `None` when its level was thawed
/// from a resume snapshot.
type Supp = HashMap<usize, ItemsetMap<Option<bool>>>;

/// SUPP levels restored from a snapshot: none of them carries a bit.
fn thaw_supp(levels: Vec<(usize, Vec<Itemset>)>) -> Supp {
    levels
        .into_iter()
        .map(|(k, sets)| (k, sets.into_iter().map(|set| (set, None)).collect()))
        .collect()
}

/// Phase 1 (SUPP enumeration) as a kernel policy: BMS++ candidate
/// formation and pre-count pruning, CT-support-only acceptance.
struct StarStarPhase1Policy<'a> {
    analysis: &'a ConstraintAnalysis,
    attrs: &'a AttributeTable,
    good1: &'a [Item],
    witness: &'a WitnessMask,
    supp: Supp,
    cands: Vec<Itemset>,
}

impl AlgorithmPolicy for StarStarPhase1Policy<'_> {
    fn candidates(&mut self, _level: usize) -> LevelSeed {
        staged(&mut self.cands)
    }

    fn snapshot(&self, level: usize, cands: &[Itemset]) -> ResumeInner {
        ResumeInner::StarStarPhase1 {
            level,
            cands: cands.to_vec(),
            supp: freeze_supp(&self.supp),
        }
    }

    fn prefilter(
        &mut self,
        _level: usize,
        cands: Vec<Itemset>,
        metrics: &mut MiningMetrics,
    ) -> Vec<Itemset> {
        prune_am_residual(self.analysis, self.attrs, cands, metrics)
    }

    fn absorb(
        &mut self,
        level: usize,
        survivors: Vec<Itemset>,
        verdicts: Vec<Verdict>,
        last: bool,
    ) {
        let supp_level: ItemsetMap<Option<bool>> = survivors
            .into_iter()
            .zip(verdicts)
            .filter(|(_, v)| v.ct_supported)
            .map(|(set, v)| (set, Some(v.correlated)))
            .collect();
        if !last {
            self.cands = self.witness.extend(supp_level.keys(), self.good1, |s| {
                supp_level.contains_key(s)
            });
        }
        self.supp.insert(level, supp_level);
    }
}

/// The snapshot form of the SUPP levels: the sets, without their bits.
fn freeze_supp(supp: &Supp) -> Vec<(usize, Vec<Itemset>)> {
    freeze_levels(supp.iter().map(|(k, level)| (k, level.keys())))
}

/// Phase 2 (upward SIG sweep within SUPP) as a kernel policy:
/// minimality prefilters against already-reported answers, a set whose
/// correlation bit phase 1 recorded is answered without a table, and
/// residual monotone constraints gate SIG entry.
struct StarStarPhase2Policy<'a> {
    analysis: &'a ConstraintAnalysis,
    attrs: &'a AttributeTable,
    good1: &'a [Item],
    supp: Supp,
    sig: Vec<Itemset>,
    current: Vec<Itemset>,
    /// The current level's sets that `prefilter` answered from their
    /// recorded bits, with those bits; `absorb` merges them with the
    /// counted rest.
    recorded: Vec<(Itemset, bool)>,
    /// The measure's closure direction; under a downward-closed measure
    /// an uncorrelated set never seeds extensions (its supersets are
    /// uncorrelated too), so only correlated-but-monotone-failing sets
    /// stay on the frontier.
    class: MonotonicityClass,
}

impl AlgorithmPolicy for StarStarPhase2Policy<'_> {
    fn candidates(&mut self, _k: usize) -> LevelSeed {
        staged(&mut self.current)
    }

    fn snapshot(&self, k: usize, cands: &[Itemset]) -> ResumeInner {
        ResumeInner::StarStarPhase2 {
            k,
            current: sorted_sets(cands.iter().cloned()),
            sig: self.sig.clone(),
            supp: freeze_supp(&self.supp),
        }
    }

    /// After the minimality prune, answers every set whose bit phase 1
    /// recorded (one cache hit each) and passes on only the sets of a
    /// thawed level, to be counted.
    fn prefilter(
        &mut self,
        k: usize,
        cands: Vec<Itemset>,
        metrics: &mut MiningMetrics,
    ) -> Vec<Itemset> {
        let level = self.supp.get(&k);
        let mut to_count = Vec::new();
        for set in prune_non_minimal(&self.sig, cands) {
            match level.and_then(|l| l.get(&set)).copied().flatten() {
                Some(correlated) => {
                    metrics.cache_hits += 1;
                    self.recorded.push((set, correlated));
                }
                None => to_count.push(set),
            }
        }
        to_count
    }

    fn absorb(&mut self, k: usize, survivors: Vec<Itemset>, verdicts: Vec<Verdict>, last: bool) {
        let counted = survivors
            .into_iter()
            .zip(verdicts.into_iter().map(|v| v.correlated));
        let mut notsig_level = ItemsetSet::default();
        for (set, correlated) in std::mem::take(&mut self.recorded)
            .into_iter()
            .chain(counted)
        {
            if self.class.is_downward() && !correlated {
                continue; // dead: supersets within SUPP are uncorrelated too
            }
            if correlated && self.analysis.m_residual_satisfied(&set, self.attrs) {
                self.sig.push(set);
            } else {
                notsig_level.insert(set);
            }
        }
        self.current = match self.supp.get(&(k + 1)) {
            // Extending the frontier, not scanning `SUPP(k+1)`, which can
            // be far larger than the frontier that reaches into it.
            Some(next_supp) if !last => candidate::extend_once(&notsig_level, self.good1, |cand| {
                next_supp.contains_key(cand)
            }),
            _ => Vec::new(),
        };
    }
}

/// Runs Algorithm BMS** under a resource guard and returns
/// `MIN_VALID(Q)`, optionally re-entering a truncated run's snapshot
/// (either phase). The query has passed the preamble, which produced its
/// push `plan`.
///
/// A phase-1 (SUPP enumeration) trip still runs the full phase-2 sweep
/// over the *completed* SUPP levels (recorded bits: no new tables unless
/// a level was thawed); it yields the complete run's answers up to the
/// truncated level. Phase 2 checkpoints the guard once per level.
pub(crate) fn run_bms_star_star_guarded(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    plan: &ConstraintAnalysis,
    counter: &mut dyn MintermCounter,
    guard: &RunGuard,
    resume: Option<ResumeInner>,
) -> Result<MiningResult, MiningError> {
    // Split the snapshot by the phase it re-enters.
    let (phase1_resume, phase2_resume) = match resume {
        None => (None, None),
        Some(ResumeInner::StarStarPhase1 { level, cands, supp }) => {
            (Some((level, cands, thaw_supp(supp))), None)
        }
        Some(ResumeInner::StarStarPhase2 {
            k,
            current,
            sig,
            supp,
        }) => (None, Some((k, current, sig, thaw_supp(supp)))),
        Some(_) => return Err(MiningError::foreign_snapshot(Algorithm::BmsStarStar.name())),
    };
    let scope = MinerScope::begin(counter.stats());
    let mut metrics = MiningMetrics::default();
    let mut engine = Engine::with_guard(counter, &query.params, guard.clone());

    // Preprocessing, identical to BMS++.
    let prep = preprocess(db, attrs, query, plan);

    // Phase 1: SUPP levels, one counting batch per level, each SUPP set
    // with its correlation bit (skipped on a phase-2 resume).
    let mut trip: Option<KernelTrip> = None;
    let (supp, phase2_start) = match phase2_resume {
        Some((k, current, sig, supp)) => (supp, Some((k, current, sig))),
        None => {
            let (level, cands, supp) = phase1_resume.unwrap_or_else(|| {
                (
                    2usize,
                    candidate::pairs_from(&prep.l1_plus, &prep.l1_minus),
                    HashMap::new(),
                )
            });
            let mut policy = StarStarPhase1Policy {
                analysis: plan,
                attrs,
                good1: &prep.good1,
                witness: &prep.witness,
                supp,
                cands,
            };
            trip = run_levelwise(
                &mut engine,
                &mut policy,
                KernelConfig::new(Algorithm::BmsStarStar, LevelMark::Eager),
                level,
                query.params.max_level,
                &mut metrics,
            );
            (policy.supp, None)
        }
    };

    // Phase 2: upward SIG sweep over SUPP — recorded bits, no new tables
    // outside thawed levels. After a phase-1 trip it still completes over
    // the finished SUPP levels; disarming keeps the tripped guard out of
    // it.
    let (k, current, sig) = phase2_start.unwrap_or_else(|| {
        let current = sorted_sets(supp.get(&2).into_iter().flat_map(|l| l.keys().cloned()));
        (2usize, current, Vec::new())
    });
    let mut policy = StarStarPhase2Policy {
        analysis: plan,
        attrs,
        good1: &prep.good1,
        supp,
        sig,
        current,
        recorded: Vec::new(),
        class: query.params.measure.monotonicity(),
    };
    if trip.is_some() {
        engine.disarm();
    }
    let phase2_trip = run_levelwise(
        &mut engine,
        &mut policy,
        KernelConfig::new(Algorithm::BmsStarStar, LevelMark::Untouched).uncounted(),
        k,
        query.params.max_level,
        &mut metrics,
    );
    scope.seal(&engine, &mut metrics, policy.sig.len());
    Ok(conclude(
        policy.sig,
        Semantics::MinValid,
        metrics,
        trip.or(phase2_trip),
    ))
}
