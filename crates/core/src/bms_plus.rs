//! Algorithm BMS+ — the naive miner for `VALID_MIN` answers.
//!
//! Runs Algorithm BMS unmodified (ignoring the constraints' pruning
//! power entirely) and filters the resulting `SIG` by the query
//! constraints. Its cost is therefore exactly `|BMS|` — the §3.3 analysis
//! gives `|BMS+| = Σ_{i=1}^{k} c_i`, independent of constraint
//! selectivity, which is what Figures 2, 6 and 8 of the paper show as the
//! flat curves.

use ccs_constraints::AttributeTable;
use ccs_itemset::{MintermCounter, TransactionDb};

use crate::bms::run_bms_with_engine;
use crate::engine::Engine;
use crate::guard::{ResumeInner, RunGuard};
use crate::kernel::{conclude, MinerScope};
use crate::miner::Algorithm;
use crate::query::{CorrelationQuery, MiningError, MiningResult, Semantics};

/// Runs Algorithm BMS+ under a resource guard and returns
/// `VALID_MIN(Q)`, optionally re-entering a truncated run's level
/// frontier. The query has passed the preamble.
///
/// On truncation the partial `SIG` is still filtered by the constraints:
/// level-wise growth means every set in it belongs to the complete
/// `VALID_MIN(Q)` too.
pub(crate) fn run_bms_plus_guarded(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    counter: &mut dyn MintermCounter,
    guard: &RunGuard,
    resume: Option<ResumeInner>,
) -> Result<MiningResult, MiningError> {
    let start = match resume {
        None => None,
        Some(ResumeInner::Bms(s)) => Some(s),
        Some(_) => return Err(MiningError::foreign_snapshot(Algorithm::BmsPlus.name())),
    };
    let scope = MinerScope::begin(counter.stats());
    let mut engine = Engine::with_guard(counter, &query.params, guard.clone());
    let run = run_bms_with_engine(
        db,
        &query.params,
        &mut engine,
        start,
        Algorithm::BmsPlus,
        ResumeInner::Bms,
    );
    let mut metrics = run.output.metrics;
    let answers: Vec<_> = run
        .output
        .sig
        .into_iter()
        .filter(|s| query.constraints.satisfied(s, attrs))
        .collect();
    scope.seal(&engine, &mut metrics, answers.len());
    Ok(conclude(answers, Semantics::ValidMin, metrics, run.trip))
}
