//! Static analysis of constraint conjunctions: the "compile-time" half of
//! an interactive mining loop.
//!
//! [`analyze`] takes a parsed conjunction plus the attribute table and,
//! *before any counting*, produces:
//!
//! * a **verdict** — [`QueryVerdict::Unsatisfiable`] (with a minimal
//!   conflicting core), [`QueryVerdict::Trivial`] (tautologous given the
//!   attribute-table bounds), or [`QueryVerdict::Satisfiable`],
//! * a **normalized conjunction** — constants folded against the table,
//!   duplicates removed, subsumed constraints collapsed, mergeable set
//!   constraints unioned,
//! * a **push-plan report** — per-constraint monotonicity/succinctness
//!   (Lemma 1, via [`crate::classify`]), where each surviving constraint
//!   is exploited in BMS++/BMS** (allowed universe, witness class,
//!   residual check, post-filter), measured selectivity, and whether
//!   Theorem 1.2 makes `VALID_MIN` and `MIN_VALID` coincide.
//!
//! # Soundness contract
//!
//! The answer space of every miner is sets of **at least two items** drawn
//! from the table's universe (correlation needs a pair). All reasoning
//! here is grounded in that domain:
//!
//! * `Unsatisfiable` is reported only when *provably* no such set
//!   satisfies the conjunction — so miners may short-circuit to an empty
//!   `Complete` answer. "Satisfiable" merely means "not disproven".
//! * Every normalization step preserves the value of
//!   [`ConstraintSet::satisfied`] on every set of ≥ 2 items over the
//!   *full* universe, so mining the normalized conjunction returns
//!   exactly the answers of the raw one — for post-filtering and
//!   constraint-pushing algorithms alike.
//!
//! Diagnostics carry byte [`Span`]s from the query parser when available,
//! and render both human-readably ([`QueryAnalysis::render`]) and as JSON
//! ([`QueryAnalysis::to_json`]).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

use ccs_stats::MonotonicityClass;
use serde::{Deserialize, Serialize};

use crate::ast::{AggFn, Cmp, Constraint, ConstraintError};
use crate::attr::AttributeTable;
use crate::classify::Monotonicity;
use crate::constraint_set::{ConstraintAnalysis, ConstraintSet};
use crate::interval::{ColumnProfile, Interval};
use crate::selectivity::item_selectivity;
use crate::succinct::{am_allowed_items, ms_witness_classes};

/// A byte range in the query source text, as produced by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// A span covering `start..end`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The conjunction cannot be satisfied.
    Error,
    /// A constraint is vacuous and was dropped.
    Warning,
    /// Informational (duplicate/subsumption/merge bookkeeping).
    Note,
}

impl Severity {
    /// Lower-case label (`"error"` / `"warning"` / `"note"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// One finding, anchored to the constraints it concerns.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Indices (into the original conjunction) of involved constraints.
    pub constraints: Vec<usize>,
}

/// The analyzer's overall judgement of the conjunction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryVerdict {
    /// No set of ≥ 2 universe items satisfies the conjunction.
    Unsatisfiable {
        /// A minimal subset of constraint indices that already conflicts.
        core: Vec<usize>,
    },
    /// Every set of ≥ 2 universe items satisfies the conjunction (it
    /// normalizes to the empty conjunction despite being non-empty).
    Trivial,
    /// Not disproven: mining may find answers.
    Satisfiable,
}

impl QueryVerdict {
    /// `true` for [`QueryVerdict::Unsatisfiable`].
    pub fn is_unsatisfiable(&self) -> bool {
        matches!(self, QueryVerdict::Unsatisfiable { .. })
    }
}

/// Where a surviving constraint is exploited in the BMS++/BMS** plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRole {
    /// Anti-monotone succinct: folded into the allowed item universe,
    /// enforced at candidate *generation* (never re-checked).
    AllowedUniverse,
    /// Anti-monotone, not succinct: checked per candidate set before its
    /// contingency table is counted.
    ResidualAntiMonotone,
    /// Monotone succinct: its witness class seeds `L1⁺`. `captured` means
    /// touching the class already implies the constraint (single-class);
    /// multi-class sources are re-checked at SIG-entry time (footnote 5).
    WitnessClass {
        /// Whether the constraint is fully captured by the class.
        captured: bool,
    },
    /// Monotone, not chosen/capturable: checked at SIG-entry time.
    ResidualMonotone,
    /// Neither monotone (`avg`): only exhaustive post-filtering miners
    /// can honor it.
    PostFilter,
}

/// Per-constraint row of the push-plan report.
#[derive(Debug, Clone)]
pub struct ConstraintReport {
    /// Index in the original conjunction.
    pub index: usize,
    /// Rendered original constraint.
    pub text: String,
    /// Source span, when the conjunction came from the parser.
    pub span: Option<Span>,
    /// Lemma 1 classification.
    pub monotonicity: Monotonicity,
    /// Whether the constraint is succinct.
    pub succinct: bool,
    /// Measured item selectivity, when the constraint has an item-level
    /// footprint.
    pub selectivity: Option<f64>,
    /// Whether the constraint survives into the normalized conjunction.
    pub kept: bool,
    /// Why it was dropped, when it was.
    pub dropped_because: Option<String>,
    /// Rendered merged form, when normalization unioned other
    /// constraints into this one.
    pub merged_text: Option<String>,
    /// Plan role of the surviving (possibly merged) constraint.
    pub role: Option<PushRole>,
}

/// The complete result of analyzing one conjunction.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// Overall judgement.
    pub verdict: QueryVerdict,
    /// The normalized conjunction miners should run (meaningful for
    /// `Satisfiable`/`Trivial`; echoes the input when `Unsatisfiable`).
    pub normalized: ConstraintSet,
    /// One report row per original constraint.
    pub reports: Vec<ConstraintReport>,
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Theorem 1.2: `true` iff every surviving constraint is
    /// anti-monotone, making `VALID_MIN(Q) = MIN_VALID(Q)` (vacuously
    /// `true` for unsatisfiable queries — both answer sets are empty).
    pub valid_min_eq_min_valid: bool,
    /// The correlation measure's closure direction the push plan was
    /// built for — [`MonotonicityClass::UpwardClosed`] (the paper's χ²)
    /// unless the analysis came from [`analyze_for_measure`]. Constraint
    /// *roles* are measure-independent (universe carving, residual
    /// checks, and witness seeding all happen before any correlation
    /// test), but a downward-closed measure changes the sweep geometry
    /// the plan feeds: minimal correlated sets are pairs, so `VALID_MIN`
    /// miners close at level 2 and `MIN_VALID` sweeps re-check
    /// correlation at every level instead of inheriting it upward.
    pub measure_class: MonotonicityClass,
    /// The push plan of `normalized`, built to assign the report roles;
    /// `None` for an unsatisfiable conjunction. Read it via
    /// [`QueryAnalysis::plan`].
    plan: Option<ConstraintAnalysis>,
}

/// Analyzes `cs` against `attrs` without source spans.
///
/// # Errors
///
/// Returns the first [`ConstraintError`] if validation against the table
/// fails (unknown attribute, negative `sum` domain, out-of-universe item).
pub fn analyze(
    cs: &ConstraintSet,
    attrs: &AttributeTable,
) -> Result<QueryAnalysis, ConstraintError> {
    analyze_spanned(cs, &[], attrs)
}

/// Analyzes `cs` with per-constraint source spans (parallel to
/// `cs.constraints()`; missing entries are treated as span-less).
///
/// # Errors
///
/// As [`analyze`].
pub fn analyze_spanned(
    cs: &ConstraintSet,
    spans: &[Span],
    attrs: &AttributeTable,
) -> Result<QueryAnalysis, ConstraintError> {
    analyze_for_measure(cs, spans, attrs, MonotonicityClass::UpwardClosed)
}

/// Analyzes `cs` for a run whose correlation measure has the given
/// closure direction.
///
/// Constraint classification and role assignment are measure-independent;
/// what the class changes is the *sweep geometry* the plan describes.
/// Under a downward-closed (anti-monotone) measure the correlated region
/// itself prunes like an anti-monotone constraint: minimal correlated
/// sets are pairs, `VALID_MIN` miners (BMS/BMS++) close at level 2, and
/// the `MIN_VALID` upward sweeps (BMS*/BMS**) must re-check correlation
/// at every level because it is no longer inherited by supersets. The
/// rendered plan and JSON record the class.
///
/// # Errors
///
/// As [`analyze`].
pub fn analyze_for_measure(
    cs: &ConstraintSet,
    spans: &[Span],
    attrs: &AttributeTable,
    measure_class: MonotonicityClass,
) -> Result<QueryAnalysis, ConstraintError> {
    cs.validate(attrs)?;
    let constraints = cs.constraints();
    let n = constraints.len();

    let grounds: Vec<Grounding> = constraints.iter().map(|c| ground(c, attrs)).collect();
    let open: Vec<usize> = (0..n)
        .filter(|&i| matches!(grounds[i], Grounding::Open))
        .collect();

    // Conflict detection: single-constraint grounding first, then
    // pairwise interval algebra, cardinality counting, and the
    // universe/witness geometry of the succinct constraints.
    let mut conflicts: Vec<Conflict> = grounds
        .iter()
        .enumerate()
        .filter_map(|(i, g)| match g {
            Grounding::Unsat(msg) => Some(Conflict {
                core: vec![i],
                message: msg.clone(),
            }),
            _ => None,
        })
        .collect();
    conflicts.extend(interval_conflicts(constraints, &open, attrs));
    conflicts.extend(cardinality_conflicts(constraints, &open));
    conflicts.extend(universe_conflicts(constraints, &open, attrs));

    let mut diagnostics: Vec<Diagnostic> = conflicts
        .iter()
        .map(|c| Diagnostic {
            severity: Severity::Error,
            message: c.message.clone(),
            constraints: c.core.clone(),
        })
        .collect();
    for (i, g) in grounds.iter().enumerate() {
        if let Grounding::Trivial(msg) = g {
            diagnostics.push(Diagnostic {
                severity: Severity::Warning,
                message: format!("trivially true: {msg}"),
                constraints: vec![i],
            });
        }
    }

    if !conflicts.is_empty() {
        let core = conflicts
            .iter()
            .min_by_key(|c| c.core.len())
            .map(|c| c.core.clone())
            .unwrap_or_default();
        return Ok(QueryAnalysis {
            verdict: QueryVerdict::Unsatisfiable { core },
            normalized: cs.clone(),
            reports: base_reports(constraints, spans, attrs),
            diagnostics,
            valid_min_eq_min_valid: true,
            measure_class,
            plan: None,
        });
    }

    let (entries, dropped) = normalize(constraints, &grounds);
    for (i, reason) in dropped.iter().enumerate() {
        if let Some(r) = reason {
            if !matches!(grounds[i], Grounding::Trivial(_)) {
                diagnostics.push(Diagnostic {
                    severity: Severity::Note,
                    message: r.clone(),
                    constraints: vec![i],
                });
            }
        }
    }

    let normalized =
        ConstraintSet::from_vec(entries.iter().map(|e| e.constraint.clone()).collect());
    let analysis = normalized.analyze(attrs);

    let mut reports = base_reports(constraints, spans, attrs);
    for (j, e) in entries.iter().enumerate() {
        let r = &mut reports[e.keeper];
        r.kept = true;
        r.role = Some(role_of(j, &analysis));
        if e.constraint != constraints[e.keeper] {
            r.merged_text = Some(e.constraint.to_string());
        }
    }
    for (i, reason) in dropped.into_iter().enumerate() {
        reports[i].dropped_because = reason;
    }

    let verdict = if n > 0 && normalized.is_empty() {
        diagnostics.push(Diagnostic {
            severity: Severity::Note,
            message: "the conjunction is tautologous over this attribute table: every set of >= 2 \
                      items satisfies it"
                .into(),
            constraints: (0..n).collect(),
        });
        QueryVerdict::Trivial
    } else {
        QueryVerdict::Satisfiable
    };
    if attrs.n_items() < 2 {
        diagnostics.push(Diagnostic {
            severity: Severity::Note,
            message: format!(
                "the universe has only {} item(s): every query answer is empty regardless of \
                 constraints",
                attrs.n_items()
            ),
            constraints: Vec::new(),
        });
    }

    if measure_class.is_downward() {
        diagnostics.push(Diagnostic {
            severity: Severity::Note,
            message: "the correlation measure is downward-closed (anti-monotone): minimal \
                      correlated sets are pairs, so VALID_MIN miners close at level 2 and \
                      MIN_VALID sweeps re-check correlation at every level"
                .into(),
            constraints: Vec::new(),
        });
    }

    Ok(QueryAnalysis {
        verdict,
        valid_min_eq_min_valid: normalized.all_anti_monotone(),
        normalized,
        reports,
        diagnostics,
        measure_class,
        plan: Some(analysis),
    })
}

// ---------------------------------------------------------------------
// Single-constraint grounding against the attribute table.
// ---------------------------------------------------------------------

enum Grounding {
    Open,
    Trivial(String),
    Unsat(String),
}

fn ground(c: &Constraint, attrs: &AttributeTable) -> Grounding {
    use Grounding::{Open, Trivial, Unsat};
    let n = attrs.n_items();
    match c {
        Constraint::Agg {
            agg: AggFn::Count,
            cmp,
            value,
            ..
        } => match cmp {
            Cmp::Le if *value < 2.0 => Unsat(format!(
                "count(S) <= {value} excludes every answer: answers contain at least 2 items"
            )),
            Cmp::Le if *value >= f64::from(n) => Trivial(format!(
                "count(S) <= {value} holds for every subset of the {n}-item universe"
            )),
            Cmp::Ge if *value > f64::from(n) => Unsat(format!(
                "count(S) >= {value} is impossible: the universe has only {n} items"
            )),
            Cmp::Ge if *value <= 2.0 => Trivial(format!(
                "count(S) >= {value} holds for every answer: answers contain at least 2 items"
            )),
            _ => Open,
        },
        Constraint::Agg {
            agg,
            attr,
            cmp,
            value,
        } => {
            let Some(p) = attrs.numeric(attr).and_then(ColumnProfile::of) else {
                return Open;
            };
            match (agg, cmp) {
                (AggFn::Min, Cmp::Le) => {
                    if *value < p.lo {
                        Unsat(format!(
                            "min(S.{attr}) <= {value} is impossible: every {attr} is at least {}",
                            p.lo
                        ))
                    } else if p.hi2.is_some_and(|h2| *value >= h2) {
                        Trivial(format!(
                            "any set of >= 2 items has min(S.{attr}) at most {} <= {value}",
                            p.hi2.unwrap_or(p.hi)
                        ))
                    } else {
                        Open
                    }
                }
                (AggFn::Min, Cmp::Ge) => {
                    if p.hi2.is_some_and(|h2| *value > h2) {
                        Unsat(format!(
                            "min(S.{attr}) >= {value} is impossible: any set of >= 2 items has \
                             min at most {}",
                            p.hi2.unwrap_or(p.hi)
                        ))
                    } else if *value <= p.lo {
                        Trivial(format!("every {attr} is at least {} >= {value}", p.lo))
                    } else {
                        Open
                    }
                }
                (AggFn::Max, Cmp::Le) => {
                    if p.lo2.is_some_and(|l2| *value < l2) {
                        Unsat(format!(
                            "max(S.{attr}) <= {value} is impossible: any set of >= 2 items has \
                             max at least {}",
                            p.lo2.unwrap_or(p.lo)
                        ))
                    } else if *value >= p.hi {
                        Trivial(format!("every {attr} is at most {} <= {value}", p.hi))
                    } else {
                        Open
                    }
                }
                (AggFn::Max, Cmp::Ge) => {
                    if *value > p.hi {
                        Unsat(format!(
                            "max(S.{attr}) >= {value} is impossible: every {attr} is at most {}",
                            p.hi
                        ))
                    } else if p.lo2.is_some_and(|l2| *value <= l2) {
                        Trivial(format!(
                            "any set of >= 2 items has max(S.{attr}) at least {} >= {value}",
                            p.lo2.unwrap_or(p.lo)
                        ))
                    } else {
                        Open
                    }
                }
                // validate() guarantees a non-negative domain for sum.
                (AggFn::Sum, Cmp::Le) => {
                    if p.lo2.is_some_and(|l2| *value < p.lo + l2) {
                        Unsat(format!(
                            "sum(S.{attr}) <= {value} is impossible: the two smallest {attr} \
                             values already sum to {}",
                            p.lo + p.lo2.unwrap_or(0.0)
                        ))
                    } else if *value >= p.total {
                        Trivial(format!("the whole universe sums to {} <= {value}", p.total))
                    } else {
                        Open
                    }
                }
                (AggFn::Sum, Cmp::Ge) => {
                    if *value > p.total {
                        Unsat(format!(
                            "sum(S.{attr}) >= {value} is impossible: the whole universe sums to \
                             only {}",
                            p.total
                        ))
                    } else if p.lo2.is_some_and(|l2| *value <= p.lo + l2) {
                        Trivial(format!(
                            "any set of >= 2 items has sum(S.{attr}) at least {} >= {value}",
                            p.lo + p.lo2.unwrap_or(0.0)
                        ))
                    } else {
                        Open
                    }
                }
                (AggFn::Count, _) => Open, // handled above
            }
        }
        Constraint::Avg { attr, cmp, value } => {
            let Some(p) = attrs.numeric(attr).and_then(ColumnProfile::of) else {
                return Open;
            };
            match cmp {
                Cmp::Le if *value < p.lo => Unsat(format!(
                    "avg(S.{attr}) <= {value} is impossible: every {attr} is at least {}",
                    p.lo
                )),
                Cmp::Le if *value >= p.hi => Trivial(format!(
                    "every {attr} is at most {}, so any average is <= {value}",
                    p.hi
                )),
                Cmp::Ge if *value > p.hi => Unsat(format!(
                    "avg(S.{attr}) >= {value} is impossible: every {attr} is at most {}",
                    p.hi
                )),
                Cmp::Ge if *value <= p.lo => Trivial(format!(
                    "every {attr} is at least {}, so any average is >= {value}",
                    p.lo
                )),
                _ => Open,
            }
        }
        Constraint::CountDistinct { attr, cmp, value } => {
            let Some(col) = attrs.categorical(attr) else {
                return Open;
            };
            let ncat = col.n_categories() as u64;
            match cmp {
                Cmp::Le if *value < 1 => Unsat(format!(
                    "|S.{attr}| <= {value} is impossible: a non-empty set has at least one \
                     distinct category"
                )),
                Cmp::Le if *value >= ncat => Trivial(format!(
                    "the table has only {ncat} distinct {attr} categories"
                )),
                Cmp::Ge if *value > ncat => Unsat(format!(
                    "|S.{attr}| >= {value} is impossible: the table has only {ncat} distinct \
                     {attr} categories"
                )),
                Cmp::Ge if *value <= 1 => Trivial(format!(
                    "a non-empty set has at least 1 distinct {attr} category"
                )),
                _ => Open,
            }
        }
        Constraint::ConstSubset {
            attr,
            categories,
            negated,
        } => {
            let Some(col) = attrs.categorical(attr) else {
                return Open;
            };
            // Interning guarantees every dictionary id occurs for some
            // item, so only out-of-dictionary ids can never be covered.
            let missing = categories
                .iter()
                .find(|&&c| c as usize >= col.n_categories());
            match (negated, categories.is_empty(), missing) {
                (false, true, _) => Trivial("the empty category set is covered by every S".into()),
                (false, false, Some(&m)) => Unsat(format!(
                    "category id {m} never occurs in {attr}: no S can cover the set"
                )),
                (true, true, _) => Unsat(
                    "the empty category set is covered by every S, so 'not subset' never holds"
                        .into(),
                ),
                (true, false, Some(&m)) => Trivial(format!(
                    "category id {m} never occurs in {attr}: no S can cover the set"
                )),
                _ => Open,
            }
        }
        Constraint::Disjoint {
            attr,
            categories,
            negated,
        } => {
            let Some(col) = attrs.categorical(attr) else {
                return Open;
            };
            let any_present = categories
                .iter()
                .any(|&c| (c as usize) < col.n_categories());
            let covers_all =
                n > 0 && (0..col.n_categories() as u32).all(|c| categories.contains(&c));
            match (negated, categories.is_empty() || !any_present, covers_all) {
                // CS ∩ S.A = ∅
                (false, true, _) => {
                    Trivial(format!("no item's {attr} category is in the constant set"))
                }
                (false, false, true) => Unsat(format!(
                    "every item's {attr} category is in the constant set: no non-empty S avoids it"
                )),
                // CS ∩ S.A ≠ ∅
                (true, true, _) => Unsat(format!(
                    "no item's {attr} category is in the constant set: S can never intersect it"
                )),
                (true, false, true) => Trivial(format!(
                    "every item's {attr} category is in the constant set"
                )),
                _ => Open,
            }
        }
        Constraint::ItemSubset { items, negated } => match (negated, items.is_empty()) {
            (false, true) => Trivial("the empty item set is contained in every S".into()),
            (true, true) => Unsat(
                "the empty item set is contained in every S, so 'not subset' never holds".into(),
            ),
            _ => Open,
        },
        Constraint::ItemDisjoint { items, negated } => {
            // validate() guarantees items ⊆ 0..n, so |items| = n means the
            // whole universe.
            let whole = n > 0 && items.len() as u32 == n;
            match (negated, items.is_empty(), whole) {
                (false, true, _) => Trivial("S is always disjoint from the empty set".into()),
                (false, false, true) => {
                    Unsat("the constant set is the whole universe: no non-empty S avoids it".into())
                }
                (true, true, _) => Unsat("S can never intersect the empty set".into()),
                (true, false, true) => Trivial(
                    "the constant set is the whole universe: every non-empty S intersects it"
                        .into(),
                ),
                _ => Open,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Conflict detection across constraints.
// ---------------------------------------------------------------------

struct Conflict {
    core: Vec<usize>,
    message: String,
}

fn conflict(core: Vec<usize>, message: String) -> Conflict {
    let mut core = core;
    core.sort_unstable();
    core.dedup();
    Conflict { core, message }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Qty {
    Min,
    Max,
    Sum,
    Avg,
}

/// Interval algebra across aggregates of the same attribute:
/// `min ≤ avg ≤ max`, `sum ≥ max` and `sum ≥ 2·min` on non-negative
/// domains (which a `sum` constraint implies via validation), and
/// count/sum/distinct couplings.
fn interval_conflicts(
    constraints: &[Constraint],
    open: &[usize],
    attrs: &AttributeTable,
) -> Vec<Conflict> {
    let mut per: BTreeMap<(&str, Qty), Interval> = BTreeMap::new();
    let mut count = Interval::default();
    let mut distinct: BTreeMap<&str, Interval> = BTreeMap::new();
    for &i in open {
        match &constraints[i] {
            Constraint::Agg {
                agg: AggFn::Count,
                cmp,
                value,
                ..
            } => count.tighten(*cmp, *value, i),
            Constraint::Agg {
                agg,
                attr,
                cmp,
                value,
            } => {
                let q = match agg {
                    AggFn::Min => Qty::Min,
                    AggFn::Max => Qty::Max,
                    AggFn::Sum => Qty::Sum,
                    AggFn::Count => continue,
                };
                per.entry((attr.as_str(), q))
                    .or_default()
                    .tighten(*cmp, *value, i);
            }
            Constraint::Avg { attr, cmp, value } => per
                .entry((attr.as_str(), Qty::Avg))
                .or_default()
                .tighten(*cmp, *value, i),
            Constraint::CountDistinct { attr, cmp, value } => distinct
                .entry(attr.as_str())
                .or_default()
                .tighten(*cmp, *value as f64, i),
            _ => {}
        }
    }

    let mut out = Vec::new();

    for ((attr, q), iv) in &per {
        if let Some((lo, hi)) = iv.conflict() {
            let name = match q {
                Qty::Min => "min",
                Qty::Max => "max",
                Qty::Sum => "sum",
                Qty::Avg => "avg",
            };
            out.push(conflict(
                vec![lo.source, hi.source],
                format!(
                    "{name}(S.{attr}) must be at least {} and at most {}: the interval is empty",
                    lo.value, hi.value
                ),
            ));
        }
    }
    if let Some((lo, hi)) = count.conflict() {
        out.push(conflict(
            vec![lo.source, hi.source],
            format!(
                "count(S) must be at least {} and at most {}: the interval is empty",
                lo.value, hi.value
            ),
        ));
    }
    for (attr, iv) in &distinct {
        if let Some((lo, hi)) = iv.conflict() {
            out.push(conflict(
                vec![lo.source, hi.source],
                format!(
                    "|S.{attr}| must be at least {} and at most {}: the interval is empty",
                    lo.value, hi.value
                ),
            ));
        }
    }

    let attrs_used: BTreeSet<&str> = per.keys().map(|&(a, _)| a).collect();
    for a in attrs_used {
        let get = |q: Qty| per.get(&(a, q)).copied().unwrap_or_default();
        let (min_iv, max_iv, sum_iv, avg_iv) =
            (get(Qty::Min), get(Qty::Max), get(Qty::Sum), get(Qty::Avg));
        let profile = attrs.numeric(a).and_then(ColumnProfile::of);

        if let (Some(lo), Some(hi)) = (min_iv.lo, max_iv.hi) {
            if lo.value > hi.value {
                out.push(conflict(
                    vec![lo.source, hi.source],
                    format!(
                        "min(S.{a}) >= {} forces max(S.{a}) >= {}, contradicting max(S.{a}) <= {}",
                        lo.value, lo.value, hi.value
                    ),
                ));
            }
        }
        if let (Some(lo), Some(hi)) = (min_iv.lo, avg_iv.hi) {
            if lo.value > hi.value {
                out.push(conflict(
                    vec![lo.source, hi.source],
                    format!(
                        "avg(S.{a}) is at least min(S.{a}) >= {}, contradicting avg(S.{a}) <= {}",
                        lo.value, hi.value
                    ),
                ));
            }
        }
        if let (Some(lo), Some(hi)) = (avg_iv.lo, max_iv.hi) {
            if lo.value > hi.value {
                out.push(conflict(
                    vec![lo.source, hi.source],
                    format!(
                        "avg(S.{a}) is at most max(S.{a}) <= {}, contradicting avg(S.{a}) >= {}",
                        hi.value, lo.value
                    ),
                ));
            }
        }
        // The presence of a sum bound implies a validated non-negative
        // domain for `a`, grounding the relations below.
        if let (Some(lo), Some(hi)) = (max_iv.lo, sum_iv.hi) {
            if lo.value > hi.value {
                out.push(conflict(
                    vec![lo.source, hi.source],
                    format!(
                        "on the non-negative domain {a}, sum(S.{a}) >= max(S.{a}) >= {}, \
                         contradicting sum(S.{a}) <= {}",
                        lo.value, hi.value
                    ),
                ));
            }
        }
        if let (Some(lo), Some(hi)) = (min_iv.lo, sum_iv.hi) {
            if lo.value > 0.0 && 2.0 * lo.value > hi.value {
                out.push(conflict(
                    vec![lo.source, hi.source],
                    format!(
                        "a set of >= 2 items each with {a} >= {} has sum(S.{a}) >= {}, \
                         contradicting sum(S.{a}) <= {}",
                        lo.value,
                        2.0 * lo.value,
                        hi.value
                    ),
                ));
            }
        }
        if let (Some(p), Some(cl), Some(sh)) = (profile, count.lo, sum_iv.hi) {
            if p.lo > 0.0 && cl.value * p.lo > sh.value {
                out.push(conflict(
                    vec![cl.source, sh.source],
                    format!(
                        "count(S) >= {} items each with {a} >= {} force sum(S.{a}) >= {}, \
                         contradicting sum(S.{a}) <= {}",
                        cl.value,
                        p.lo,
                        cl.value * p.lo,
                        sh.value
                    ),
                ));
            }
        }
        if let (Some(p), Some(sl), Some(ch)) = (profile, sum_iv.lo, count.hi) {
            if sl.value > ch.value * p.hi {
                out.push(conflict(
                    vec![sl.source, ch.source],
                    format!(
                        "at most {} items each with {a} <= {} cap sum(S.{a}) at {}, \
                         contradicting sum(S.{a}) >= {}",
                        ch.value,
                        p.hi,
                        ch.value * p.hi,
                        sl.value
                    ),
                ));
            }
        }
    }

    for (attr, iv) in &distinct {
        if let (Some(dl), Some(ch)) = (iv.lo, count.hi) {
            if dl.value > ch.value {
                out.push(conflict(
                    vec![dl.source, ch.source],
                    format!(
                        "|S.{attr}| >= {} needs more than {} items, contradicting count(S) <= {}",
                        dl.value, ch.value, ch.value
                    ),
                ));
            }
        }
    }
    out
}

/// Counting conflicts that interval algebra cannot see: unions of
/// required items (`CS ⊆ S`) and required categories (`CS ⊆ S.A`) against
/// `count`/`|S.A|` upper bounds.
fn cardinality_conflicts(constraints: &[Constraint], open: &[usize]) -> Vec<Conflict> {
    let mut count_hi: Option<(usize, f64)> = None;
    let mut distinct_hi: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
    let mut item_sets: Vec<(usize, &BTreeSet<u32>)> = Vec::new();
    let mut cat_sets: BTreeMap<&str, Vec<(usize, &BTreeSet<u32>)>> = BTreeMap::new();
    for &i in open {
        match &constraints[i] {
            Constraint::Agg {
                agg: AggFn::Count,
                cmp: Cmp::Le,
                value,
                ..
            } if count_hi.is_none_or(|(_, v)| *value < v) => {
                count_hi = Some((i, *value));
            }
            Constraint::CountDistinct {
                attr,
                cmp: Cmp::Le,
                value,
            } => {
                let v = *value as f64;
                let e = distinct_hi.entry(attr.as_str());
                e.and_modify(|b| {
                    if v < b.1 {
                        *b = (i, v);
                    }
                })
                .or_insert((i, v));
            }
            Constraint::ItemSubset {
                items,
                negated: false,
            } => item_sets.push((i, items)),
            Constraint::ConstSubset {
                attr,
                categories,
                negated: false,
            } => cat_sets
                .entry(attr.as_str())
                .or_default()
                .push((i, categories)),
            _ => {}
        }
    }

    let mut out = Vec::new();
    if let Some((ci, limit)) = count_hi {
        if let Some((core, size)) = union_exceeds(&item_sets, limit) {
            let mut core = core;
            core.push(ci);
            out.push(conflict(
                core,
                format!(
                    "the item-subset constraints force {size} distinct items into S, \
                     contradicting count(S) <= {limit}"
                ),
            ));
        }
        for (attr, sets) in &cat_sets {
            if let Some((core, size)) = union_exceeds(sets, limit) {
                let mut core = core;
                core.push(ci);
                out.push(conflict(
                    core,
                    format!(
                        "covering {size} distinct {attr} categories needs {size} items, \
                         contradicting count(S) <= {limit}"
                    ),
                ));
            }
        }
    }
    for (attr, sets) in &cat_sets {
        if let Some(&(di, limit)) = distinct_hi.get(attr) {
            if let Some((core, size)) = union_exceeds(sets, limit) {
                let mut core = core;
                core.push(di);
                out.push(conflict(
                    core,
                    format!(
                        "the subset constraints force {size} distinct {attr} categories, \
                         contradicting |S.{attr}| <= {limit}"
                    ),
                ));
            }
        }
    }
    out
}

/// If the union of `sets` exceeds `limit`, a greedily minimized core of
/// contributor indices whose union still exceeds it, plus that union's
/// size.
fn union_exceeds(sets: &[(usize, &BTreeSet<u32>)], limit: f64) -> Option<(Vec<usize>, usize)> {
    let union_of = |positions: &[usize]| -> usize {
        let u: BTreeSet<u32> = positions
            .iter()
            .flat_map(|&p| sets[p].1.iter().copied())
            .collect();
        u.len()
    };
    let all: Vec<usize> = (0..sets.len()).collect();
    if union_of(&all) as f64 <= limit {
        return None;
    }
    let kept = shrink_core(sets.len(), |trial| union_of(trial) as f64 > limit);
    let size = union_of(&kept);
    Some((kept.iter().map(|&p| sets[p].0).collect(), size))
}

/// Greedily shrinks the conflicting contributor positions `0..n` to a
/// core: tries dropping each position in turn and keeps the drop when
/// `still_conflicts` holds for what is left.
fn shrink_core(n: usize, still_conflicts: impl Fn(&[usize]) -> bool) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..n).collect();
    for pos in 0..n {
        let trial: Vec<usize> = kept.iter().copied().filter(|&p| p != pos).collect();
        if still_conflicts(&trial) {
            kept = trial;
        }
    }
    kept
}

/// Geometry of the succinct constraints: the allowed-universe
/// intersection must keep ≥ 2 items, and every witness class of a
/// monotone succinct constraint must intersect it.
fn universe_conflicts(
    constraints: &[Constraint],
    open: &[usize],
    attrs: &AttributeTable,
) -> Vec<Conflict> {
    let n = attrs.n_items() as usize;
    if n < 2 {
        return Vec::new(); // mining over < 2 items is vacuous regardless
    }
    let contribs: Vec<(usize, Vec<bool>)> = open
        .iter()
        .filter_map(|&i| {
            am_allowed_items(&constraints[i], attrs).map(|items| {
                let mut mask = vec![false; n];
                for it in items {
                    mask[it.index()] = true;
                }
                (i, mask)
            })
        })
        .collect();
    if contribs.is_empty() {
        return Vec::new();
    }

    let intersect = |positions: &[usize]| -> Vec<bool> {
        let mut m = vec![true; n];
        for &p in positions {
            for (a, b) in m.iter_mut().zip(&contribs[p].1) {
                *a &= *b;
            }
        }
        m
    };
    let live = |m: &[bool]| m.iter().filter(|&&b| b).count();

    let all: Vec<usize> = (0..contribs.len()).collect();
    let full = intersect(&all);
    if live(&full) < 2 {
        let kept = shrink_core(contribs.len(), |trial| live(&intersect(trial)) < 2);
        let survivors = live(&intersect(&kept));
        return vec![conflict(
            kept.iter().map(|&p| contribs[p].0).collect(),
            format!(
                "the allowed universes of these succinct constraints intersect in {survivors} \
                 item(s); answers need at least 2"
            ),
        )];
    }

    let mut out = Vec::new();
    for &i in open {
        let Some(classes) = ms_witness_classes(&constraints[i], attrs) else {
            continue;
        };
        for class in classes {
            if class.is_empty() {
                continue; // caught by single-constraint grounding
            }
            if class.iter().all(|it| !full[it.index()]) {
                let kept = shrink_core(contribs.len(), |trial| {
                    let m = intersect(trial);
                    class.iter().all(|it| !m[it.index()])
                });
                let mut core: Vec<usize> = kept.iter().map(|&p| contribs[p].0).collect();
                core.push(i);
                out.push(conflict(
                    core,
                    format!(
                        "'{}' needs a witness item, but every witness is outside the allowed \
                         universe carved by the anti-monotone succinct constraints",
                        constraints[i]
                    ),
                ));
                break; // one conflict per constraint suffices
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Normalization: duplicates, subsumption, merging.
// ---------------------------------------------------------------------

struct Entry {
    keeper: usize,
    constraint: Constraint,
}

enum Fold {
    Unrelated,
    /// The candidate is implied by the existing entry.
    DropNew(&'static str),
    /// The candidate is strictly tighter: it replaces the entry.
    Replace,
    /// Same mergeable family: union the candidate into the entry.
    Merge,
}

fn normalize(
    constraints: &[Constraint],
    grounds: &[Grounding],
) -> (Vec<Entry>, Vec<Option<String>>) {
    let mut entries: Vec<Entry> = Vec::new();
    let mut dropped: Vec<Option<String>> = vec![None; constraints.len()];

    for (i, g) in grounds.iter().enumerate() {
        match g {
            Grounding::Trivial(msg) => {
                dropped[i] = Some(format!("trivially true: {msg}"));
                continue;
            }
            Grounding::Unsat(_) => continue, // unreachable on this path
            Grounding::Open => {}
        }
        let c = &constraints[i];
        let mut placed = false;
        for e in entries.iter_mut() {
            match fold(&e.constraint, c) {
                Fold::Unrelated => continue,
                Fold::DropNew(why) => {
                    dropped[i] = Some(format!("{why} #{}", e.keeper + 1));
                    placed = true;
                }
                Fold::Replace => {
                    dropped[e.keeper] = Some(format!("subsumed by #{}", i + 1));
                    e.keeper = i;
                    e.constraint = c.clone();
                    placed = true;
                }
                Fold::Merge => {
                    merge_union(&mut e.constraint, c);
                    dropped[i] = Some(format!("merged into #{}", e.keeper + 1));
                    placed = true;
                }
            }
            break;
        }
        if !placed && dropped[i].is_none() {
            entries.push(Entry {
                keeper: i,
                constraint: c.clone(),
            });
        }
    }

    // Replacements and merges can unlock further subsumptions between
    // entries that were incomparable on first contact; run to fixpoint.
    loop {
        let mut victim: Option<(usize, usize, &'static str)> = None;
        'scan: for x in 0..entries.len() {
            for y in 0..entries.len() {
                if x == y {
                    continue;
                }
                if let Fold::DropNew(why) = fold(&entries[x].constraint, &entries[y].constraint) {
                    victim = Some((x, y, why));
                    break 'scan;
                }
            }
        }
        match victim {
            Some((x, y, why)) => {
                dropped[entries[y].keeper] = Some(format!("{why} #{}", entries[x].keeper + 1));
                entries.remove(y);
            }
            None => break,
        }
    }

    (entries, dropped)
}

fn fold(existing: &Constraint, candidate: &Constraint) -> Fold {
    if existing == candidate {
        return Fold::DropNew("duplicate of");
    }
    match (existing, candidate) {
        (
            Constraint::Agg {
                agg: a1,
                attr: t1,
                cmp: m1,
                value: v1,
            },
            Constraint::Agg {
                agg: a2,
                attr: t2,
                cmp: m2,
                value: v2,
            },
        ) if a1 == a2 && m1 == m2 && (*a1 == AggFn::Count || t1 == t2) => tighter(*m1, *v1, *v2),
        (
            Constraint::Avg {
                attr: t1,
                cmp: m1,
                value: v1,
            },
            Constraint::Avg {
                attr: t2,
                cmp: m2,
                value: v2,
            },
        ) if t1 == t2 && m1 == m2 => tighter(*m1, *v1, *v2),
        (
            Constraint::CountDistinct {
                attr: t1,
                cmp: m1,
                value: v1,
            },
            Constraint::CountDistinct {
                attr: t2,
                cmp: m2,
                value: v2,
            },
        ) if t1 == t2 && m1 == m2 => tighter(*m1, *v1 as f64, *v2 as f64),
        (
            Constraint::ConstSubset {
                attr: t1,
                categories: s1,
                negated: n1,
            },
            Constraint::ConstSubset {
                attr: t2,
                categories: s2,
                negated: n2,
            },
        ) if t1 == t2 && n1 == n2 => set_fold(*n1, s1, s2),
        (
            Constraint::Disjoint {
                attr: t1,
                categories: s1,
                negated: n1,
            },
            Constraint::Disjoint {
                attr: t2,
                categories: s2,
                negated: n2,
            },
        ) if t1 == t2 && n1 == n2 => set_fold(*n1, s1, s2),
        (
            Constraint::ItemSubset {
                items: s1,
                negated: n1,
            },
            Constraint::ItemSubset {
                items: s2,
                negated: n2,
            },
        ) if n1 == n2 => set_fold(*n1, s1, s2),
        (
            Constraint::ItemDisjoint {
                items: s1,
                negated: n1,
            },
            Constraint::ItemDisjoint {
                items: s2,
                negated: n2,
            },
        ) if n1 == n2 => set_fold(*n1, s1, s2),
        _ => Fold::Unrelated,
    }
}

/// `≤` keeps the smaller bound, `≥` the larger; the loser is subsumed.
fn tighter(cmp: Cmp, existing: f64, candidate: f64) -> Fold {
    let candidate_tighter = match cmp {
        Cmp::Le => candidate < existing,
        Cmp::Ge => candidate > existing,
    };
    if candidate_tighter {
        Fold::Replace
    } else {
        Fold::DropNew("subsumed by")
    }
}

/// Positive (un-negated) subset/disjoint families conjoin to the union;
/// negated (`⊄` / intersects) families keep the smaller — stronger — set.
fn set_fold(negated: bool, existing: &BTreeSet<u32>, candidate: &BTreeSet<u32>) -> Fold {
    if !negated {
        Fold::Merge
    } else if existing.is_subset(candidate) {
        Fold::DropNew("subsumed by")
    } else if candidate.is_subset(existing) {
        Fold::Replace
    } else {
        Fold::Unrelated
    }
}

fn merge_union(into: &mut Constraint, from: &Constraint) {
    match (into, from) {
        (
            Constraint::ConstSubset { categories: a, .. },
            Constraint::ConstSubset { categories: b, .. },
        )
        | (
            Constraint::Disjoint { categories: a, .. },
            Constraint::Disjoint { categories: b, .. },
        ) => a.extend(b.iter().copied()),
        (Constraint::ItemSubset { items: a, .. }, Constraint::ItemSubset { items: b, .. })
        | (Constraint::ItemDisjoint { items: a, .. }, Constraint::ItemDisjoint { items: b, .. }) => {
            a.extend(b.iter().copied())
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Push-plan roles and reports.
// ---------------------------------------------------------------------

fn role_of(j: usize, analysis: &ConstraintAnalysis) -> PushRole {
    if analysis.universe_contributors().contains(&j) {
        PushRole::AllowedUniverse
    } else if analysis.am_residual_indices().contains(&j) {
        PushRole::ResidualAntiMonotone
    } else if analysis.witness_source() == Some(j) {
        PushRole::WitnessClass {
            captured: analysis.captured_monotone() == Some(j),
        }
    } else if analysis.m_residual_indices().contains(&j) {
        PushRole::ResidualMonotone
    } else {
        PushRole::PostFilter
    }
}

fn base_reports(
    constraints: &[Constraint],
    spans: &[Span],
    attrs: &AttributeTable,
) -> Vec<ConstraintReport> {
    constraints
        .iter()
        .enumerate()
        .map(|(i, c)| ConstraintReport {
            index: i,
            text: c.to_string(),
            span: spans.get(i).copied(),
            monotonicity: c.monotonicity(),
            succinct: c.is_succinct(),
            selectivity: item_selectivity(c, attrs),
            kept: false,
            dropped_because: None,
            merged_text: None,
            role: None,
        })
        .collect()
}

fn mono_str(m: Monotonicity) -> &'static str {
    match m {
        Monotonicity::AntiMonotone => "anti-monotone",
        Monotonicity::Monotone => "monotone",
        Monotonicity::Neither => "neither",
    }
}

fn role_str(role: PushRole) -> &'static str {
    match role {
        PushRole::AllowedUniverse => "allowed universe (pruned at candidate generation)",
        PushRole::ResidualAntiMonotone => "residual anti-monotone check (before counting)",
        PushRole::WitnessClass { captured: true } => "witness class seeding L1+ (fully captured)",
        PushRole::WitnessClass { captured: false } => {
            "witness class seeding L1+ (re-checked at SIG entry)"
        }
        PushRole::ResidualMonotone => "residual monotone check (at SIG entry)",
        PushRole::PostFilter => "post-filter (neither monotone: exhaustive miners only)",
    }
}

fn role_slug(role: PushRole) -> &'static str {
    match role {
        PushRole::AllowedUniverse => "allowed-universe",
        PushRole::ResidualAntiMonotone => "residual-anti-monotone",
        PushRole::WitnessClass { captured: true } => "witness-class-captured",
        PushRole::WitnessClass { captured: false } => "witness-class-residual",
        PushRole::ResidualMonotone => "residual-monotone",
        PushRole::PostFilter => "post-filter",
    }
}

impl QueryAnalysis {
    /// The push plan the constraint-pushing miners run from: the
    /// [`ConstraintSet::analyze`] of [`QueryAnalysis::normalized`].
    /// `None` iff the verdict is unsatisfiable.
    pub fn plan(&self) -> Option<&ConstraintAnalysis> {
        self.plan.as_ref()
    }

    /// Lower-case verdict label.
    pub fn verdict_str(&self) -> &'static str {
        match self.verdict {
            QueryVerdict::Unsatisfiable { .. } => "unsatisfiable",
            QueryVerdict::Trivial => "trivial",
            QueryVerdict::Satisfiable => "satisfiable",
        }
    }

    /// Human-readable report. When `source` is the original query text,
    /// diagnostics underline the spans they concern (byte-aligned; exact
    /// for ASCII queries).
    pub fn render(&self, source: Option<&str>) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "verdict: {}", self.verdict_str().to_uppercase());
        if let QueryVerdict::Unsatisfiable { core } = &self.verdict {
            let labels: Vec<String> = core.iter().map(|&i| format!("#{}", i + 1)).collect();
            let _ = writeln!(s, "minimal conflicting core: {}", labels.join(", "));
        }

        for d in &self.diagnostics {
            let _ = writeln!(s, "{}: {}", d.severity.as_str(), d.message);
            let spans: Vec<Span> = d
                .constraints
                .iter()
                .filter_map(|&i| self.reports.get(i).and_then(|r| r.span))
                .collect();
            if let (Some(src), false) = (source, spans.is_empty()) {
                let _ = writeln!(s, "  {src}");
                let _ = writeln!(s, "  {}", underline(src, &spans));
            } else {
                for &i in &d.constraints {
                    if let Some(r) = self.reports.get(i) {
                        let _ = writeln!(s, "  #{} {}", i + 1, r.text);
                    }
                }
            }
        }

        if !self.reports.is_empty() {
            let _ = writeln!(s, "constraints:");
            let width = self.reports.iter().map(|r| r.text.len()).max().unwrap_or(0);
            for r in &self.reports {
                let mut line = format!(
                    "  #{} {:width$}  {}{}",
                    r.index + 1,
                    r.text,
                    mono_str(r.monotonicity),
                    if r.succinct { ", succinct" } else { "" },
                );
                if let Some(sel) = r.selectivity {
                    let _ = write!(line, "  selectivity {sel:.2}");
                }
                match (&self.verdict, r.kept, &r.dropped_because, r.role) {
                    (QueryVerdict::Unsatisfiable { .. }, ..) => {}
                    (_, true, _, Some(role)) => {
                        let _ = write!(line, "  -> {}", role_str(role));
                        if let Some(m) = &r.merged_text {
                            let _ = write!(line, " [merged: {m}]");
                        }
                    }
                    (_, false, Some(why), _) => {
                        let _ = write!(line, "  -> dropped: {why}");
                    }
                    _ => {}
                }
                let _ = writeln!(s, "{line}");
            }
        }

        if !self.verdict.is_unsatisfiable() {
            let _ = writeln!(s, "normalized: {}", self.normalized);
        }
        let thm = match (&self.verdict, self.valid_min_eq_min_valid) {
            (QueryVerdict::Unsatisfiable { .. }, _) => "yes (both answer sets are empty)",
            (_, true) => "yes (all surviving constraints are anti-monotone)",
            (_, false) => "no (a non-anti-monotone constraint survives)",
        };
        let _ = writeln!(s, "VALID_MIN == MIN_VALID (Theorem 1.2): {thm}");
        s
    }

    /// The analysis as a single-line JSON object (hand-rolled: the
    /// workspace intentionally carries no JSON dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"verdict\":\"{}\"", self.verdict_str());
        if let QueryVerdict::Unsatisfiable { core } = &self.verdict {
            let items: Vec<String> = core.iter().map(usize::to_string).collect();
            let _ = write!(s, ",\"core\":[{}]", items.join(","));
        }
        let _ = write!(
            s,
            ",\"normalized\":\"{}\"",
            json_escape(&self.normalized.to_string())
        );
        let _ = write!(
            s,
            ",\"valid_min_eq_min_valid\":{}",
            self.valid_min_eq_min_valid
        );
        let _ = write!(
            s,
            ",\"measure_class\":\"{}\"",
            if self.measure_class.is_downward() {
                "downward-closed"
            } else {
                "upward-closed"
            }
        );
        s.push_str(",\"constraints\":[");
        for (k, r) in self.reports.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"index\":{},\"text\":\"{}\",\"span\":{},\"monotonicity\":\"{}\",\
                 \"succinct\":{},\"selectivity\":{},\"kept\":{},\"dropped\":{},\
                 \"merged\":{},\"role\":{}}}",
                r.index,
                json_escape(&r.text),
                match r.span {
                    Some(sp) => format!("[{},{}]", sp.start, sp.end),
                    None => "null".into(),
                },
                mono_str(r.monotonicity),
                r.succinct,
                match r.selectivity {
                    Some(v) => format!("{v}"),
                    None => "null".into(),
                },
                r.kept,
                match &r.dropped_because {
                    Some(d) => format!("\"{}\"", json_escape(d)),
                    None => "null".into(),
                },
                match &r.merged_text {
                    Some(m) => format!("\"{}\"", json_escape(m)),
                    None => "null".into(),
                },
                match r.role {
                    Some(role) => format!("\"{}\"", role_slug(role)),
                    None => "null".into(),
                },
            );
        }
        s.push_str("],\"diagnostics\":[");
        for (k, d) in self.diagnostics.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let spans: Vec<String> = d
                .constraints
                .iter()
                .filter_map(|&i| self.reports.get(i).and_then(|r| r.span))
                .map(|sp| format!("[{},{}]", sp.start, sp.end))
                .collect();
            let cons: Vec<String> = d.constraints.iter().map(usize::to_string).collect();
            let _ = write!(
                s,
                "{{\"severity\":\"{}\",\"message\":\"{}\",\"constraints\":[{}],\"spans\":[{}]}}",
                d.severity.as_str(),
                json_escape(&d.message),
                cons.join(","),
                spans.join(","),
            );
        }
        s.push_str("]}");
        s
    }
}

/// Caret line marking every span (byte-column aligned).
fn underline(source: &str, spans: &[Span]) -> String {
    let mut line = vec![b' '; source.len()];
    for sp in spans {
        for cell in line
            .iter_mut()
            .take(sp.end.min(source.len()))
            .skip(sp.start)
        {
            *cell = b'^';
        }
    }
    let mut out = String::from_utf8(line).unwrap_or_default();
    out.truncate(out.trim_end().len());
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_itemset::Itemset;

    fn attrs() -> AttributeTable {
        let mut t = AttributeTable::new(6);
        t.add_numeric("price", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        t.add_categorical("type", &["soda", "soda", "snack", "dairy", "dairy", "beer"]);
        t
    }

    fn cat(a: &AttributeTable, labels: &[&str]) -> BTreeSet<u32> {
        let col = a.categorical("type").unwrap();
        labels.iter().map(|l| col.id_of(l).unwrap()).collect()
    }

    fn core_of(qa: &QueryAnalysis) -> Vec<usize> {
        match &qa.verdict {
            QueryVerdict::Unsatisfiable { core } => core.clone(),
            v => panic!("expected unsatisfiable, got {v:?}"),
        }
    }

    /// Normalization must preserve `satisfied()` on every set of >= 2
    /// items over the full universe.
    fn assert_equivalent(cs: &ConstraintSet, qa: &QueryAnalysis, a: &AttributeTable) {
        let n = a.n_items();
        for bits in 0u32..(1 << n) {
            if bits.count_ones() < 2 {
                continue;
            }
            let set = Itemset::from_ids((0..n).filter(|i| bits & (1 << i) != 0));
            assert_eq!(
                cs.satisfied(&set, a),
                qa.normalized.satisfied(&set, a),
                "normalization changed satisfied() for {set}"
            );
        }
    }

    #[test]
    fn min_max_contradiction_yields_minimal_core() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::sum_ge("price", 3.0)) // irrelevant bystander
            .and(Constraint::max_le("price", 2.0))
            .and(Constraint::min_ge("price", 4.0));
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(core_of(&qa), vec![1, 2]);
        assert!(qa.valid_min_eq_min_valid); // vacuously
        assert!(qa.diagnostics.iter().any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn single_constraint_impossibilities() {
        let a = attrs();
        for c in [
            Constraint::agg(AggFn::Count, "price", Cmp::Le, 1.0),
            Constraint::agg(AggFn::Count, "price", Cmp::Ge, 7.0),
            Constraint::sum_ge("price", 22.0), // total is 21
            Constraint::sum_le("price", 2.0),  // two smallest sum to 3
            Constraint::min_ge("price", 5.5),  // min of any pair <= 5
            Constraint::max_le("price", 1.5),  // max of any pair >= 2
            Constraint::max_ge("price", 7.0),
            Constraint::Avg {
                attr: "price".into(),
                cmp: Cmp::Ge,
                value: 6.5,
            },
            Constraint::CountDistinct {
                attr: "type".into(),
                cmp: Cmp::Ge,
                value: 5,
            },
            Constraint::ItemSubset {
                items: BTreeSet::new(),
                negated: true,
            },
            Constraint::ItemDisjoint {
                items: (0..6).collect(),
                negated: false,
            },
        ] {
            let cs = ConstraintSet::new().and(c.clone());
            let qa = analyze(&cs, &a).unwrap();
            assert_eq!(core_of(&qa), vec![0], "expected unsat for {c}");
        }
    }

    #[test]
    fn downward_measure_class_is_recorded_without_moving_roles() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 4.0))
            .and(Constraint::sum_ge("price", 5.0));
        let up = analyze(&cs, &a).unwrap();
        assert!(up.measure_class.is_upward());
        assert!(up.to_json().contains("\"measure_class\":\"upward-closed\""));
        assert!(!up.render(None).contains("downward-closed"));

        let down = analyze_for_measure(&cs, &[], &a, MonotonicityClass::DownwardClosed).unwrap();
        assert!(down.measure_class.is_downward());
        assert!(down
            .to_json()
            .contains("\"measure_class\":\"downward-closed\""));
        // The note about the flipped sweep geometry reaches the render.
        assert!(down.render(None).contains("close at level 2"));
        // Role assignment itself is measure-independent.
        let roles = |qa: &QueryAnalysis| qa.reports.iter().map(|r| r.role).collect::<Vec<_>>();
        assert_eq!(roles(&up), roles(&down));
        assert_eq!(up.valid_min_eq_min_valid, down.valid_min_eq_min_valid);
    }

    #[test]
    fn trivial_verdict_when_everything_folds_away() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 100.0))
            .and(Constraint::agg(AggFn::Count, "price", Cmp::Ge, 2.0))
            .and(Constraint::min_le("price", 5.0)); // any pair has min <= 5
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(qa.verdict, QueryVerdict::Trivial);
        assert!(qa.normalized.is_empty());
        assert_equivalent(&cs, &qa, &a);
        assert!(qa.reports.iter().all(|r| !r.kept));
    }

    #[test]
    fn duplicates_and_subsumption_keep_tightest() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 5.0))
            .and(Constraint::max_le("price", 5.0)) // duplicate
            .and(Constraint::max_le("price", 4.0)) // tighter: replaces
            .and(Constraint::sum_le("price", 9.0))
            .and(Constraint::sum_le("price", 12.0)); // looser: dropped
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(qa.verdict, QueryVerdict::Satisfiable);
        assert_eq!(qa.normalized.len(), 2);
        assert_eq!(
            qa.normalized.to_string(),
            "max(S.price) <= 4 & sum(S.price) <= 9"
        );
        assert!(qa.reports[0]
            .dropped_because
            .as_deref()
            .unwrap()
            .contains("#3"));
        assert!(qa.reports[1].dropped_because.is_some());
        assert!(qa.reports[2].kept);
        assert!(qa.reports[4]
            .dropped_because
            .as_deref()
            .unwrap()
            .contains("#4"));
        assert_equivalent(&cs, &qa, &a);
        assert!(qa.valid_min_eq_min_valid); // both survivors anti-monotone
    }

    #[test]
    fn disjoint_constraints_merge_to_union() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::Disjoint {
                attr: "type".into(),
                categories: cat(&a, &["snack"]),
                negated: false,
            })
            .and(Constraint::Disjoint {
                attr: "type".into(),
                categories: cat(&a, &["beer"]),
                negated: false,
            });
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(qa.normalized.len(), 1);
        assert!(qa.reports[0].merged_text.is_some());
        assert!(qa.reports[1]
            .dropped_because
            .as_deref()
            .unwrap()
            .contains("merged into #1"));
        assert_equivalent(&cs, &qa, &a);
    }

    #[test]
    fn negated_subset_chain_keeps_smallest() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::ItemSubset {
                items: [0, 1, 2].into(),
                negated: true,
            })
            .and(Constraint::ItemSubset {
                items: [0, 1].into(),
                negated: true,
            });
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(qa.normalized.len(), 1);
        assert!(qa.reports[1].kept);
        assert!(qa.reports[0].dropped_because.is_some());
        assert_equivalent(&cs, &qa, &a);
    }

    #[test]
    fn universe_intersection_too_small_is_unsat() {
        let a = attrs();
        // price in [3, 3] leaves a single item; answers need two.
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 3.0))
            .and(Constraint::min_ge("price", 3.0));
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(core_of(&qa), vec![0, 1]);
    }

    #[test]
    fn witness_class_outside_universe_is_unsat() {
        let a = attrs();
        // Universe excludes snacks; a snack witness is still required.
        let cs = ConstraintSet::new()
            .and(Constraint::Disjoint {
                attr: "type".into(),
                categories: cat(&a, &["snack"]),
                negated: false,
            })
            .and(Constraint::Disjoint {
                attr: "type".into(),
                categories: cat(&a, &["snack"]),
                negated: true,
            });
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(core_of(&qa), vec![0, 1]);
    }

    #[test]
    fn required_items_exceed_count_bound() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::ItemSubset {
                items: [0, 1].into(),
                negated: false,
            })
            .and(Constraint::ItemSubset {
                items: [2, 3].into(),
                negated: false,
            })
            .and(Constraint::agg(AggFn::Count, "price", Cmp::Le, 3.0));
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(core_of(&qa), vec![0, 1, 2]);
    }

    #[test]
    fn sum_and_count_couple_through_the_column() {
        let a = attrs();
        // 5 items each priced >= 1 force sum >= 5... but tighter: the
        // count lower bound times the column minimum exceeds the cap.
        let cs = ConstraintSet::new()
            .and(Constraint::agg(AggFn::Count, "price", Cmp::Ge, 5.0))
            .and(Constraint::sum_le("price", 4.0));
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(core_of(&qa), vec![0, 1]);
    }

    #[test]
    fn avg_bridges_min_and_max() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::min_ge("price", 4.0))
            .and(Constraint::Avg {
                attr: "price".into(),
                cmp: Cmp::Le,
                value: 3.0,
            });
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(core_of(&qa), vec![0, 1]);
    }

    #[test]
    fn push_plan_roles_cover_all_shapes() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 5.0)) // am succinct
            .and(Constraint::sum_le("price", 9.0)) // am residual
            .and(Constraint::min_le("price", 2.0)) // ms single-class
            .and(Constraint::Avg {
                attr: "price".into(),
                cmp: Cmp::Le,
                value: 4.0,
            }); // neither
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(qa.verdict, QueryVerdict::Satisfiable);
        assert_eq!(qa.reports[0].role, Some(PushRole::AllowedUniverse));
        assert_eq!(qa.reports[1].role, Some(PushRole::ResidualAntiMonotone));
        assert_eq!(
            qa.reports[2].role,
            Some(PushRole::WitnessClass { captured: true })
        );
        assert_eq!(qa.reports[3].role, Some(PushRole::PostFilter));
        assert!(!qa.valid_min_eq_min_valid);
        assert_eq!(qa.reports[0].selectivity, Some(5.0 / 6.0));
    }

    #[test]
    fn multi_class_witness_source_is_not_captured() {
        let a = attrs();
        let cs = ConstraintSet::new().and(Constraint::ConstSubset {
            attr: "type".into(),
            categories: cat(&a, &["soda", "beer"]),
            negated: false,
        });
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(
            qa.reports[0].role,
            Some(PushRole::WitnessClass { captured: false })
        );
    }

    #[test]
    fn render_and_json_smoke() {
        let a = attrs();
        let source = "max(S.price) <= 2 & min(S.price) >= 4";
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 2.0))
            .and(Constraint::min_ge("price", 4.0));
        let spans = vec![Span::new(0, 17), Span::new(20, 38)];
        let qa = analyze_spanned(&cs, &spans, &a).unwrap();
        let text = qa.render(Some(source));
        assert!(text.contains("UNSATISFIABLE"), "{text}");
        assert!(text.contains("minimal conflicting core: #1, #2"), "{text}");
        assert!(text.contains('^'), "{text}");
        let json = qa.to_json();
        assert!(json.contains("\"verdict\":\"unsatisfiable\""), "{json}");
        assert!(json.contains("\"core\":[0,1]"), "{json}");
        assert!(json.contains("\"span\":[0,17]"), "{json}");

        let sat = analyze(
            &ConstraintSet::new().and(Constraint::max_le("price", 4.0)),
            &a,
        )
        .unwrap();
        let text = sat.render(None);
        assert!(text.contains("SATISFIABLE"), "{text}");
        assert!(text.contains("allowed universe"), "{text}");
        assert!(text.contains("normalized: max(S.price) <= 4"), "{text}");
        assert!(sat.to_json().contains("\"role\":\"allowed-universe\""));
    }

    #[test]
    fn validation_errors_propagate() {
        let a = attrs();
        let cs = ConstraintSet::new().and(Constraint::max_le("weight", 1.0));
        assert!(analyze(&cs, &a).is_err());
    }

    #[test]
    fn empty_conjunction_is_satisfiable_not_trivial() {
        let a = attrs();
        let qa = analyze(&ConstraintSet::new(), &a).unwrap();
        assert_eq!(qa.verdict, QueryVerdict::Satisfiable);
        assert!(qa.normalized.is_empty());
    }

    #[test]
    fn equivalence_over_mixed_normalizing_conjunction() {
        let a = attrs();
        let cs = ConstraintSet::new()
            .and(Constraint::max_le("price", 5.0))
            .and(Constraint::max_le("price", 6.0)) // trivial (hi = 6)
            .and(Constraint::min_le("price", 2.0))
            .and(Constraint::min_le("price", 2.0)) // duplicate
            .and(Constraint::agg(AggFn::Count, "price", Cmp::Ge, 2.0)) // trivial
            .and(Constraint::Disjoint {
                attr: "type".into(),
                categories: cat(&a, &["beer"]),
                negated: false,
            });
        let qa = analyze(&cs, &a).unwrap();
        assert_eq!(qa.verdict, QueryVerdict::Satisfiable);
        assert_equivalent(&cs, &qa, &a);
    }
}
