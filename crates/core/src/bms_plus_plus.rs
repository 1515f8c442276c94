//! Algorithm BMS++ — constraint-pushing miner for `VALID_MIN` answers.
//!
//! Modifies Algorithm BMS in the three ways of §3.1 of the paper
//! (DESIGN.md §11 maps them onto the kernel's policy hooks):
//!
//! I. **Preprocessing.** `GOOD₁`, `L1⁺`, `L1⁻` — see the crate-private
//!    `prep` module.
//!
//! II. **Candidate formation.** `CAND₂ = {{i₁,i₂} | i₁ ∈ L1⁺, i₂ ∈ L1⁺ ∪
//!     L1⁻}`. For `k > 2`, a `k`-set is a candidate when every
//!     `(k−1)`-subset that intersects `L1⁺` is in the previous level's
//!     `NOTSIG`. Candidates are produced by single-item extension of
//!     `NOTSIG` sets (the symmetric Apriori join is incomplete here: a
//!     candidate may legitimately have subsets that were never candidates
//!     because they miss `L1⁺`).
//!
//! III. **SIG/NOTSIG.** Residual (non-succinct) anti-monotone constraints
//!      are checked *before* the contingency table is built; residual
//!      monotone constraints are checked at SIG-entry, like correlation.
//!
//! One soundness amendment beyond the paper's pseudo-code (see DESIGN.md
//! "Fidelity notes"): when a SIG candidate `S` contains exactly one
//! witness `w`, the subset `S \ {w}` was never examined (it misses
//! `L1⁺`), yet if it is correlated then `S` is not a *minimal* correlated
//! set and must not be reported. One extra contingency table per such SIG
//! candidate closes the hole exactly.

use ccs_constraints::{AttributeTable, ConstraintAnalysis};
use ccs_itemset::{candidate, Item, Itemset, ItemsetSet, MintermCounter, TransactionDb};
use ccs_stats::MonotonicityClass;

use crate::engine::{Engine, Verdict};
use crate::guard::{ResumeInner, RunGuard};
use crate::kernel::{
    conclude, prune_am_residual, run_levelwise, staged, AlgorithmPolicy, KernelConfig, LevelMark,
    LevelSeed, MinerScope,
};
use crate::metrics::MiningMetrics;
use crate::miner::Algorithm;
use crate::prep::{preprocess, WitnessMask};
use crate::query::{CorrelationQuery, MiningError, MiningResult, Semantics};

/// The §3.1 sweep as a kernel policy: residual anti-monotone constraints
/// prune in `prefilter` (before any counting); residual monotone
/// constraints gate SIG entry in `absorb`; `NOTSIG` extension respects
/// the witness-subset candidate rule (modification II).
pub(crate) struct PlusPlusPolicy<'a> {
    pub(crate) analysis: &'a ConstraintAnalysis,
    pub(crate) attrs: &'a AttributeTable,
    pub(crate) good1: Vec<Item>,
    pub(crate) witness: WitnessMask,
    pub(crate) sig_candidates: Vec<Itemset>,
    pub(crate) cands: Vec<Itemset>,
    /// The measure's closure direction; under a downward-closed measure
    /// `VALID_MIN` answers are all pairs (see [`crate::bms`]), so
    /// `NOTSIG` extension is futile and the sweep stops after level 2.
    pub(crate) class: MonotonicityClass,
}

impl AlgorithmPolicy for PlusPlusPolicy<'_> {
    fn candidates(&mut self, _level: usize) -> LevelSeed {
        staged(&mut self.cands)
    }

    fn snapshot(&self, level: usize, cands: &[Itemset]) -> ResumeInner {
        ResumeInner::PlusPlus {
            level,
            cands: cands.to_vec(),
            sig_candidates: self.sig_candidates.clone(),
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

    fn absorb(&mut self, _level: usize, survivors: Vec<Itemset>, verdicts: Vec<Verdict>) {
        let mut notsig_level = ItemsetSet::default();
        for (set, v) in survivors.into_iter().zip(verdicts) {
            if !v.ct_supported {
                continue;
            }
            if v.correlated {
                if self.analysis.m_residual_satisfied(&set, self.attrs) {
                    self.sig_candidates.push(set);
                }
            } else {
                notsig_level.insert(set);
            }
        }
        if self.class.is_downward() {
            // Supersets of uncorrelated sets stay uncorrelated and
            // supersets of correlated sets are non-minimal: no answer
            // exists above this level.
            self.cands = Vec::new();
            return;
        }
        let mut subset = Vec::new();
        self.cands = candidate::extend_gen(&notsig_level, &self.good1, |cand| {
            self.witness.subsets_in(cand, &notsig_level, &mut subset)
        });
    }
}

/// The single-witness minimality verification epilogue (shared between
/// complete and truncated runs; see the module docs).
pub(crate) fn verify_single_witness(
    engine: &mut Engine<'_>,
    analysis: &ConstraintAnalysis,
    witness: &WitnessMask,
    sig_candidates: Vec<Itemset>,
) -> Vec<Itemset> {
    if !analysis.has_witness_class() {
        return sig_candidates;
    }
    let mut answers = Vec::with_capacity(sig_candidates.len());
    for set in sig_candidates {
        let witnesses: Vec<Item> = set.iter().filter(|&i| witness.contains(i)).collect();
        if witnesses.len() == 1 && set.len() >= 3 {
            let residue = set.without_item(witnesses[0]);
            let v = engine.evaluate(&residue);
            if v.correlated && v.ct_supported {
                continue; // `set` is not a minimal correlated set.
            }
        }
        answers.push(set);
    }
    answers
}

/// Runs Algorithm BMS++ under a resource guard and returns
/// `VALID_MIN(Q)`, optionally re-entering a truncated run's level
/// frontier. The query has passed the preamble, which produced its push
/// `plan`.
///
/// When the guard trips mid-sweep the accumulated SIG candidates still go
/// through the single-witness verification epilogue (a bounded number of
/// extra tables), so truncated answers get the same minimality guarantee
/// as complete ones.
pub(crate) fn run_bms_plus_plus_guarded(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    plan: &ConstraintAnalysis,
    counter: &mut dyn MintermCounter,
    guard: &RunGuard,
    resume: Option<ResumeInner>,
) -> Result<MiningResult, MiningError> {
    let restart = match resume {
        None => None,
        Some(ResumeInner::PlusPlus {
            level,
            cands,
            sig_candidates,
        }) => Some((level, cands, sig_candidates)),
        Some(_) => return Err(MiningError::foreign_snapshot(Algorithm::BmsPlusPlus.name())),
    };
    let scope = MinerScope::begin(counter.stats());
    let mut metrics = MiningMetrics::default();
    let mut engine = Engine::with_guard(counter, &query.params, guard.clone());

    // I. Preprocessing: GOOD₁ and the L1⁺ / L1⁻ split.
    let prep = preprocess(db, attrs, query, plan);

    // II + III. The level-wise sweep — or its resumed frontier.
    let (level, cands, sig_candidates) = match restart {
        Some(state) => state,
        None => (
            2usize,
            candidate::pairs_from(&prep.l1_plus, &prep.l1_minus),
            Vec::new(),
        ),
    };
    let mut policy = PlusPlusPolicy {
        analysis: plan,
        attrs,
        good1: prep.good1,
        witness: prep.witness,
        sig_candidates,
        cands,
        class: query.params.measure.monotonicity(),
    };
    let trip = run_levelwise(
        &mut engine,
        &mut policy,
        KernelConfig::new(Algorithm::BmsPlusPlus, LevelMark::Eager),
        level,
        query.params.max_level,
        &mut metrics,
    );

    // Soundness verification: for a SIG candidate with a single witness,
    // check that removing the witness does not leave a correlated set.
    let answers = verify_single_witness(&mut engine, plan, &policy.witness, policy.sig_candidates);
    scope.seal(&engine, &mut metrics, answers.len());
    Ok(conclude(answers, Semantics::ValidMin, metrics, trip))
}
