//! # ccs-constraints — the constraint framework of the paper
//!
//! Constrained correlation queries attach a conjunction of constraints to
//! the correlation/CT-support conditions. This crate provides:
//!
//! * [`attr`] — per-item attribute columns (`S.price`, `S.type`, …),
//! * [`ast`] — the constraint language of Lemma 1 (+ the `avg` and
//!   count-distinct extensions) and its evaluation semantics,
//! * [`classify`] — monotone / anti-monotone / succinct classification,
//! * [`succinct`] — the member-generating-function machinery: pruned item
//!   universes for anti-monotone succinct constraints and witness classes
//!   for monotone succinct ones,
//! * [`constraint_set`] — conjunctions and the [`ConstraintAnalysis`]
//!   consumed by the constraint-pushing miners,
//! * [`selectivity`] — selectivity measurement and threshold calibration
//!   for the experiment sweeps,
//! * [`interval`] — per-attribute interval reasoning over aggregate
//!   bounds,
//! * [`analyze`](mod@analyze) — the static query analyzer: satisfiability verdicts
//!   with minimal conflicting cores, conjunction normalization, and
//!   push-plan diagnostics, all before any counting.

#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod attr;
pub mod classify;
pub mod constraint_set;
pub mod interval;
pub mod selectivity;
pub mod succinct;

pub use analyze::{
    analyze, analyze_for_measure, analyze_spanned, ConstraintReport, Diagnostic, PushRole,
    QueryAnalysis, QueryVerdict, Severity, Span,
};
pub use ast::{AggFn, Cmp, Constraint, ConstraintError};
pub use attr::{AttributeTable, CategoricalColumn};
pub use classify::Monotonicity;
pub use constraint_set::{ConstraintAnalysis, ConstraintSet};
