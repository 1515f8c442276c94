//! Constrained correlation queries and their answer-set semantics.

use std::fmt;

use ccs_constraints::{ConstraintError, ConstraintSet};
use ccs_itemset::Itemset;
use thiserror::Error;

use crate::guard::{Completion, ResumeState, TruncationReason};
use crate::metrics::MiningMetrics;
use crate::params::{MiningParams, ParamError};

/// A constrained correlation query:
/// `{ S | S is CT-supported and correlated & S satisfies C }`,
/// with the statistical parameters `(α, s, p%)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorrelationQuery {
    /// Statistical parameters.
    pub params: MiningParams,
    /// The constraint conjunction `C`.
    pub constraints: ConstraintSet,
}

impl CorrelationQuery {
    /// An unconstrained query with the given parameters (plain Brin et
    /// al. mining).
    pub fn unconstrained(params: MiningParams) -> Self {
        CorrelationQuery {
            params,
            constraints: ConstraintSet::new(),
        }
    }
}

/// Which answer set a mining run computes (Definitions 1 and 2 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// `VALID_MIN(Q)`: minimal correlated + CT-supported sets that are
    /// also valid. Computed by BMS+ and BMS++.
    ValidMin,
    /// `MIN_VALID(Q)`: minimal sets among the correlated + CT-supported +
    /// valid ones. Computed by BMS* and BMS**. Always a superset of
    /// `VALID_MIN(Q)`; equal when all constraints are anti-monotone
    /// (Theorem 1).
    MinValid,
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Semantics::ValidMin => write!(f, "VALID_MIN"),
            Semantics::MinValid => write!(f, "MIN_VALID"),
        }
    }
}

/// The outcome of a mining run: the answer set and the work performed.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningResult {
    /// The answer itemsets, sorted for determinism.
    pub answers: Vec<Itemset>,
    /// Which semantics `answers` follows.
    pub semantics: Semantics,
    /// Work accounting.
    pub metrics: MiningMetrics,
    /// Whether the run covered the whole search space or stopped at a
    /// guard checkpoint. Truncated runs still carry a *sound* answer set:
    /// every reported set is an answer of the complete run.
    pub completion: Completion,
    /// For truncated runs, the frontier from which
    /// [`crate::session::MiningSession::resume`] continues the sweep.
    pub resume: Option<ResumeState>,
}

impl MiningResult {
    /// Builds a complete result, sorting the answers.
    pub fn new(mut answers: Vec<Itemset>, semantics: Semantics, metrics: MiningMetrics) -> Self {
        answers.sort_unstable();
        answers.dedup();
        MiningResult {
            answers,
            semantics,
            metrics,
            completion: Completion::Complete,
            resume: None,
        }
    }

    /// Builds a truncated result: a sound partial answer set, the level
    /// frontier it is complete up to, and the resume snapshot.
    pub(crate) fn truncated(
        answers: Vec<Itemset>,
        semantics: Semantics,
        metrics: MiningMetrics,
        reason: TruncationReason,
        frontier_level: usize,
        resume: ResumeState,
    ) -> Self {
        let completion = Completion::Truncated {
            reason,
            frontier_level,
            sets_evaluated: metrics.tables_built,
        };
        let mut result = MiningResult::new(answers, semantics, metrics);
        result.completion = completion;
        result.resume = Some(resume);
        result
    }

    /// `true` iff `set` is among the answers.
    pub fn contains(&self, set: &Itemset) -> bool {
        self.answers.binary_search(set).is_ok()
    }
}

/// Errors a mining run can report.
#[derive(Debug, Clone, PartialEq, Error)]
pub enum MiningError {
    /// A statistical parameter is out of range.
    #[error("invalid parameters: {0}")]
    Params(#[from] ParamError),
    /// A constraint references a missing or ill-typed attribute.
    #[error("constraint error: {0}")]
    Constraint(#[from] ConstraintError),
    /// The query contains a constraint that is neither monotone nor
    /// anti-monotone (`avg`): the level-wise algorithms cannot handle it
    /// (§6 of the paper); use the naive miner.
    #[error("query contains a constraint that is neither monotone nor anti-monotone (e.g. avg); only the naive miner supports such queries")]
    NonMonotoneConstraint,
    /// The exhaustive reference miner was asked to enumerate a basis
    /// larger than it can handle.
    #[error("the exhaustive miner is limited to {limit} items, but the basis has {basis}; use a level-wise algorithm or add pruning constraints")]
    UniverseTooLarge {
        /// Items in the (filtered) basis.
        basis: usize,
        /// The miner's hard cap.
        limit: usize,
    },
    /// A resume snapshot was handed to a different algorithm (or phase)
    /// than the one that produced it.
    #[error("resume state was produced by {expected}, not {requested}")]
    ResumeMismatch {
        /// The algorithm the snapshot belongs to.
        expected: &'static str,
        /// The algorithm that was asked to consume it.
        requested: &'static str,
    },
}

impl MiningError {
    /// The [`MiningError::ResumeMismatch`] a miner reports when handed a
    /// snapshot whose loop state belongs to some other algorithm.
    pub(crate) fn foreign_snapshot(requested: &'static str) -> MiningError {
        MiningError::ResumeMismatch {
            expected: "another algorithm",
            requested,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_sorts_and_dedups() {
        let r = MiningResult::new(
            vec![
                Itemset::from_ids([2, 3]),
                Itemset::from_ids([0, 1]),
                Itemset::from_ids([2, 3]),
            ],
            Semantics::ValidMin,
            MiningMetrics::default(),
        );
        assert_eq!(r.answers.len(), 2);
        assert!(r.contains(&Itemset::from_ids([0, 1])));
        assert!(!r.contains(&Itemset::from_ids([0, 2])));
    }

    #[test]
    fn semantics_display() {
        assert_eq!(Semantics::ValidMin.to_string(), "VALID_MIN");
        assert_eq!(Semantics::MinValid.to_string(), "MIN_VALID");
    }
}
