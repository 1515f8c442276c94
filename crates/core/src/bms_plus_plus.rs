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
//!     `NOTSIG` sets, each from its one canonical parent
//!     (`candidate::witness_gen`); the symmetric Apriori join is
//!     incomplete here: a candidate may legitimately have subsets that
//!     were never candidates because they miss `L1⁺`.
//!
//! III. **SIG/NOTSIG.** Residual (non-succinct) anti-monotone constraints
//!      are checked *before* the contingency table is built; residual
//!      monotone constraints are checked at SIG-entry, like correlation.
//!
//! One soundness amendment beyond the paper's pseudo-code (see DESIGN.md
//! "Fidelity notes"): when a SIG candidate `S` contains exactly one
//! witness `w`, the subset `S \ {w}` was never examined (it misses
//! `L1⁺`), yet if it is correlated then `S` is not a *minimal* correlated
//! set and must not be reported. One extra contingency table per distinct
//! such residue closes the hole exactly: after the sweep, the residues are
//! counted in one batch on the disarmed engine, and a residue shared by
//! several SIG candidates is a cache hit for each repeat.

use ccs_constraints::{AttributeTable, ConstraintAnalysis};
use ccs_itemset::{candidate, Item, Itemset, ItemsetSet, MintermCounter, TransactionDb};
use ccs_stats::{MonotonicityClass, Verdict};

use crate::engine::Engine;
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
struct PlusPlusPolicy<'a> {
    analysis: &'a ConstraintAnalysis,
    attrs: &'a AttributeTable,
    good1: Vec<Item>,
    witness: WitnessMask,
    sig_candidates: Vec<Itemset>,
    cands: Vec<Itemset>,
    /// The measure's closure direction; under a downward-closed measure
    /// `VALID_MIN` answers are all pairs (see [`crate::bms`]), so
    /// `NOTSIG` extension is futile and the sweep stops after level 2.
    class: MonotonicityClass,
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

    fn absorb(
        &mut self,
        _level: usize,
        survivors: Vec<Itemset>,
        verdicts: Vec<Verdict>,
        last: bool,
    ) {
        let mut notsig_level = ItemsetSet::default();
        for (set, v) in survivors.into_iter().zip(verdicts) {
            let Verdict::Supported { correlated } = v else {
                continue;
            };
            if correlated {
                if self.analysis.m_residual_satisfied(&set, self.attrs) {
                    self.sig_candidates.push(set);
                }
            } else {
                notsig_level.insert(set);
            }
        }
        if last || self.class.is_downward() {
            // At the cap no level follows. Under a downward-closed
            // measure supersets of uncorrelated sets stay uncorrelated
            // and supersets of correlated sets are non-minimal: no answer
            // exists above this level.
            self.cands = Vec::new();
            return;
        }
        self.cands = self
            .witness
            .extend(&notsig_level, &self.good1, |s| notsig_level.contains(s));
    }
}

/// The single-witness minimality verification epilogue (shared between
/// complete and truncated runs; see the module docs). It disarms the
/// engine: the residues are counted even after a trip.
fn verify_single_witness(
    engine: &mut Engine<'_>,
    analysis: &ConstraintAnalysis,
    witness: &WitnessMask,
    sig_candidates: Vec<Itemset>,
    metrics: &mut MiningMetrics,
) -> Vec<Itemset> {
    if !analysis.has_witness_class() {
        return sig_candidates;
    }
    // `S \ {w}` for each SIG candidate `S` of three or more items with a
    // single witness `w`. A residue carries no witness, so the sweep
    // never counted it.
    let residues: Vec<Option<Itemset>> = sig_candidates
        .iter()
        .map(|set| {
            let mut witnesses = set.iter().filter(|&i| witness.contains(i));
            match (witnesses.next(), witnesses.next()) {
                (Some(w), None) if set.len() >= 3 => Some(set.without_item(w)),
                _ => None,
            }
        })
        .collect();
    let mut batch: Vec<Itemset> = residues.iter().flatten().cloned().collect();
    let n_residues = batch.len();
    batch.sort_unstable();
    batch.dedup();
    metrics.cache_hits += (n_residues - batch.len()) as u64;
    engine.disarm();
    #[allow(clippy::expect_used)] // invariant: the engine is disarmed
    let verdicts = engine
        .evaluate_level(&batch)
        .expect("a disarmed engine never trips");
    // A candidate whose residue is correlated is not minimal.
    let not_minimal = |residue: &Itemset| {
        batch
            .binary_search(residue)
            .is_ok_and(|i| verdicts[i] == Verdict::Supported { correlated: true })
    };
    sig_candidates
        .into_iter()
        .zip(residues)
        .filter(|(_, residue)| !residue.as_ref().is_some_and(not_minimal))
        .map(|(set, _)| set)
        .collect()
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
    let answers = verify_single_witness(
        &mut engine,
        plan,
        &policy.witness,
        policy.sig_candidates,
        &mut metrics,
    );
    scope.seal(&engine, &mut metrics, answers.len());
    Ok(conclude(answers, Semantics::ValidMin, metrics, trip))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::admit;
    use crate::params::MiningParams;
    use ccs_constraints::ConstraintSet;
    use ccs_itemset::VerticalCounter;

    /// `n_baskets` baskets over `n_items` items, each item present with
    /// probability 1/2 independently (a fixed multiply-xorshift stream):
    /// only chance correlates, so every level is wide.
    fn independent_db(n_items: u32, n_baskets: usize) -> TransactionDb {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let baskets: Vec<Vec<u32>> = (0..n_baskets)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (0..n_items).filter(|i| state >> i & 1 == 1).collect()
            })
            .collect();
        TransactionDb::from_ids(n_items, baskets)
    }

    /// The capped BMS++ sweep over `db`; returns the policy as the sweep
    /// left it and the run's metrics.
    fn capped_sweep(
        db: &TransactionDb,
        attrs: &AttributeTable,
        max_level: usize,
    ) -> (Vec<Itemset>, MiningMetrics) {
        let query = CorrelationQuery {
            params: MiningParams {
                support_fraction: 0.05,
                max_level,
                ..MiningParams::paper()
            },
            constraints: ConstraintSet::new(),
        };
        let (query, plan) = admit(&query, attrs, true).unwrap().unwrap();
        let prep = preprocess(db, attrs, &query, &plan);
        let mut counter = VerticalCounter::new(db);
        let mut engine = Engine::new(&mut counter, &query.params);
        let mut policy = PlusPlusPolicy {
            analysis: &plan,
            attrs,
            cands: candidate::pairs_from(&prep.l1_plus, &prep.l1_minus),
            good1: prep.good1,
            witness: prep.witness,
            sig_candidates: Vec::new(),
            class: query.params.measure.monotonicity(),
        };
        let mut metrics = MiningMetrics::default();
        let config = KernelConfig::new(Algorithm::BmsPlusPlus, LevelMark::Eager);
        let trip = run_levelwise(&mut engine, &mut policy, config, 2, max_level, &mut metrics);
        assert!(trip.is_none());
        (policy.cands, metrics)
    }

    #[test]
    fn a_capped_sweep_stages_no_candidates_past_its_last_level() {
        let db = independent_db(24, 400);
        let attrs = AttributeTable::with_identity_prices(24);
        let (staged, capped) = capped_sweep(&db, &attrs, 3);
        assert_eq!(capped.max_level_reached, 3);
        assert!(
            staged.is_empty(),
            "{} candidates staged past the cap",
            staged.len()
        );
        // Not vacuous: one level higher, the sweep does have level-4
        // candidates, which the capped sweep used to build and discard.
        let (_, uncapped) = capped_sweep(&db, &attrs, 4);
        assert_eq!(uncapped.max_level_reached, 4);
        assert!(uncapped.candidates_generated > capped.candidates_generated);
    }
}
