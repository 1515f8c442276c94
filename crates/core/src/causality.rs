//! Constrained causal discovery — the paper's §6 "how can constraints
//! help in mining causations?" made concrete.
//!
//! Implements the two local causal-inference rules of Silverstein, Brin,
//! Motwani & Ullman ("Scalable Techniques for Mining Causal Structures",
//! VLDB 1998), which the paper cites as the natural next step beyond
//! correlations:
//!
//! * **CCU rule** — for a triple where `A–B` and `A–C` are correlated
//!   but `B–C` is *not*: under the no-hidden-variables assumption `A`
//!   cannot cause both `B` and `C` (that would correlate them through
//!   `A`), so the only consistent structure is the collider
//!   `B → A ← C`: two fully *directed* causal edges.
//! * **CCC rule** — for a pairwise-correlated triple where additionally
//!   `A ⊥ C | B` (conditional independence given `B`, tested on the
//!   two `B`-slices of the triple's contingency table): `B` mediates
//!   between `A` and `C` (`A–B–C` is a chain or fork through `B`; the
//!   direct `A–C` edge is spurious). Orientation stays unknown.
//!
//! Constraints enter exactly as in the miners: the anti-monotone ones
//! prune the item universe and the candidate triples before any
//! counting, and only *valid* triples are examined — user focus, pushed
//! into causal discovery.

use std::fmt;

use ccs_constraints::AttributeTable;
use ccs_itemset::{candidate, Item, Itemset, MintermCounter, TransactionDb};
use ccs_stats::Verdict;

use crate::engine::Engine;
use crate::kernel::{admit, prune_am_residual, MinerScope};
use crate::metrics::MiningMetrics;
use crate::prep::good1_items;
use crate::query::{CorrelationQuery, MiningError};

/// A causal conclusion about a valid triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalFinding {
    /// CCU: `cause_1 → effect ← cause_2`, with `cause_1 ⊥ cause_2`.
    Collider {
        /// First (independent) cause.
        cause_1: Item,
        /// Second (independent) cause.
        cause_2: Item,
        /// The common effect.
        effect: Item,
    },
    /// CCC + conditional independence: `mediator` sits between `a` and
    /// `c`; the `a–c` correlation is explained away.
    Mediator {
        /// One endpoint.
        a: Item,
        /// The mediating item.
        mediator: Item,
        /// The other endpoint.
        c: Item,
    },
}

impl fmt::Display for CausalFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalFinding::Collider {
                cause_1,
                cause_2,
                effect,
            } => {
                write!(f, "{cause_1} -> {effect} <- {cause_2}")
            }
            CausalFinding::Mediator { a, mediator, c } => {
                write!(f, "{a} - {mediator} - {c} (mediated)")
            }
        }
    }
}

/// The outcome of a constrained causal-discovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalAnalysis {
    /// Correlated, CT-supported item pairs over the pruned universe.
    pub correlated_pairs: Vec<Itemset>,
    /// Causal findings, sorted for determinism.
    pub findings: Vec<CausalFinding>,
    /// Work accounting.
    pub metrics: MiningMetrics,
}

/// Runs constrained causal discovery.
///
/// The query's statistical parameters drive the correlation,
/// CT-support, and conditional-independence tests; its constraints
/// restrict the universe (anti-monotone, as singletons) and the
/// examined triples (full validity).
///
/// Cost: one contingency table per surviving pair, plus one per
/// candidate triple — quadratic/cubic in the pruned universe, which is
/// precisely why pushing constraints matters here too. The query passes
/// the miners' preamble first: a provably unsatisfiable conjunction
/// examines no triple and counts nothing, and a satisfiable one runs in
/// its normalized form.
///
/// # Errors
///
/// Returns [`MiningError`] on invalid parameters or constraints, or a
/// neither-monotone constraint.
pub fn discover_causality<C: MintermCounter>(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    counter: &mut C,
) -> Result<CausalAnalysis, MiningError> {
    let Some((query, plan)) = admit(query, attrs, true)? else {
        return Ok(CausalAnalysis {
            correlated_pairs: Vec::new(),
            findings: Vec::new(),
            metrics: MiningMetrics::default(),
        });
    };
    let query = &query;
    let scope = MinerScope::begin(counter.stats());
    let mut metrics = MiningMetrics::default();
    let mut engine = Engine::new(counter, &query.params);

    // Universe pruning, exactly as in BMS++ preprocessing.
    let universe = good1_items(db, attrs, query);

    // Pairwise screen, one counting batch: which pairs are correlated
    // (and CT-supported)?
    let n = universe.len();
    let pairs = candidate::all_pairs(&universe);
    metrics.candidates_generated += pairs.len() as u64;
    let pairs = prune_am_residual(&plan, attrs, pairs, &mut metrics);
    #[allow(clippy::expect_used)] // invariant: the engine's guard is unarmed
    let verdicts = engine
        .evaluate_level(&pairs)
        .expect("an unarmed guard never trips");
    // Positions in the sorted universe; every pair is drawn from it.
    #[allow(clippy::expect_used)]
    let at = |item: Item| {
        universe
            .binary_search(&item)
            .expect("pair items come from the universe")
    };
    let mut correlated = vec![false; n * n];
    let mut correlated_pairs = Vec::new();
    for (pair, v) in pairs.into_iter().zip(verdicts) {
        if v == (Verdict::Supported { correlated: true }) {
            let (i, j) = (at(pair.items()[0]), at(pair.items()[1]));
            correlated[i * n + j] = true;
            correlated[j * n + i] = true;
            correlated_pairs.push(pair);
        }
    }

    // Conditional-independence critical value: two pooled 2×2 slices ⇒
    // df = 2. Validated and precomputed at `MeasureContext` construction
    // (this used to call `chi2_quantile` directly, which panics on an
    // out-of-range confidence); under a non-χ² measure the CI test stays
    // χ²-based at the context's standard fallback confidence.
    let ci_crit = engine.measure_context().ci_critical_value();

    let mut findings = Vec::new();
    let mut ccc = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                let (ab, ac, bc) = (
                    correlated[a * n + b],
                    correlated[a * n + c],
                    correlated[b * n + c],
                );
                let n_corr = usize::from(ab) + usize::from(ac) + usize::from(bc);
                if n_corr < 2 {
                    continue;
                }
                let triple = Itemset::from_items([universe[a], universe[b], universe[c]]);
                // The user's focus: only valid triples are examined.
                if !query.constraints.satisfied(&triple, attrs) {
                    metrics.pruned_before_count += 1;
                    continue;
                }
                if n_corr == 2 {
                    // CCU: the endpoint shared by the two correlated
                    // pairs is the effect.
                    let (effect, cause_1, cause_2) = if !bc {
                        (a, b, c)
                    } else if !ac {
                        (b, a, c)
                    } else {
                        (c, a, b)
                    };
                    findings.push(CausalFinding::Collider {
                        cause_1: universe[cause_1.min(cause_2)],
                        cause_2: universe[cause_1.max(cause_2)],
                        effect: universe[effect],
                    });
                    continue;
                }
                // CCC: all three correlated; counted below, in one batch.
                metrics.candidates_generated += 1;
                metrics.max_level_reached = metrics.max_level_reached.max(3);
                ccc.push(triple);
            }
        }
    }
    #[allow(clippy::expect_used)] // invariant: the engine's guard is unarmed
    let tables = engine.count(&ccc).expect("an unarmed guard never trips");
    for table in &tables {
        // Try each item as mediator; `x`, `m`, `z` are bit positions in
        // the sorted triple.
        let items = table.itemset().items();
        for (x, m, z) in [(0, 1, 2), (1, 0, 2), (0, 2, 1)] {
            if conditional_chi2(table.counts(), x, m, z) < ci_crit {
                findings.push(CausalFinding::Mediator {
                    a: items[x.min(z)],
                    mediator: items[m],
                    c: items[x.max(z)],
                });
            }
        }
    }

    findings.sort_by_key(|f| format!("{f}"));
    findings.dedup();
    correlated_pairs.sort_unstable();

    scope.seal(&engine, &mut metrics, findings.len());
    Ok(CausalAnalysis {
        correlated_pairs,
        findings,
        metrics,
    })
}

/// Pooled chi-squared of the `x`–`z` dependence within both slices of
/// the mediator `m`, from a triple's 8 minterm counts. `x_bit`, `m_bit`,
/// `z_bit` are the items' bit positions in the cell index.
fn conditional_chi2(counts: &[u64], x_bit: usize, m_bit: usize, z_bit: usize) -> f64 {
    let mut total = 0.0;
    for m_val in [0usize, 1] {
        // 2×2 table of (x, z) within this m-slice.
        let mut cell = [[0f64; 2]; 2];
        for (idx, &count) in counts.iter().enumerate() {
            if (idx >> m_bit) & 1 != m_val {
                continue;
            }
            let xv = (idx >> x_bit) & 1;
            let zv = (idx >> z_bit) & 1;
            cell[xv][zv] += count as f64;
        }
        let slice_n: f64 = cell.iter().flatten().sum();
        if slice_n == 0.0 {
            continue;
        }
        let px = (cell[1][0] + cell[1][1]) / slice_n;
        let pz = (cell[0][1] + cell[1][1]) / slice_n;
        for (xv, row) in cell.iter().enumerate() {
            for (zv, &observed) in row.iter().enumerate() {
                let e = slice_n
                    * (if xv == 1 { px } else { 1.0 - px })
                    * (if zv == 1 { pz } else { 1.0 - pz });
                if e > 0.0 {
                    let d = observed - e;
                    total += d * d / e;
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MiningParams;
    use ccs_constraints::{Constraint, ConstraintSet};
    use ccs_itemset::HorizontalCounter;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params() -> MiningParams {
        MiningParams {
            confidence: 0.95,
            support_fraction: 0.05,
            ct_fraction: 0.25,
            min_item_support: 0.0,
            max_level: 4,
            ..MiningParams::paper()
        }
    }

    /// Collider data: B and C independent coins, A ≈ B OR C.
    fn collider_db(n: usize, seed: u64) -> TransactionDb {
        let mut rng = StdRng::seed_from_u64(seed);
        let txns: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let b = rng.gen_bool(0.4);
                let c = rng.gen_bool(0.4);
                let a = (b || c) && rng.gen_bool(0.9);
                let mut t = Vec::new();
                if a {
                    t.push(0);
                }
                if b {
                    t.push(1);
                }
                if c {
                    t.push(2);
                }
                t
            })
            .collect();
        TransactionDb::from_ids(3, txns)
    }

    /// Chain data: A coin, B ≈ A, C ≈ B — so A ⊥ C | B.
    fn chain_db(n: usize, seed: u64) -> TransactionDb {
        let mut rng = StdRng::seed_from_u64(seed);
        let txns: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let a = rng.gen_bool(0.5);
                let b = if a {
                    rng.gen_bool(0.85)
                } else {
                    rng.gen_bool(0.15)
                };
                let c = if b {
                    rng.gen_bool(0.85)
                } else {
                    rng.gen_bool(0.15)
                };
                let mut t = Vec::new();
                if a {
                    t.push(0);
                }
                if b {
                    t.push(1);
                }
                if c {
                    t.push(2);
                }
                t
            })
            .collect();
        TransactionDb::from_ids(3, txns)
    }

    #[test]
    fn ccu_rule_finds_the_collider() {
        let db = collider_db(4000, 7);
        let attrs = AttributeTable::with_identity_prices(3);
        let q = CorrelationQuery {
            params: params(),
            constraints: ConstraintSet::new(),
        };
        let mut c = HorizontalCounter::new(&db);
        let out = discover_causality(&db, &attrs, &q, &mut c).unwrap();
        assert!(
            out.findings.contains(&CausalFinding::Collider {
                cause_1: Item(1),
                cause_2: Item(2),
                effect: Item(0),
            }),
            "collider not found: {:?}",
            out.findings
        );
    }

    #[test]
    fn ccc_rule_finds_the_mediator() {
        let db = chain_db(6000, 9);
        let attrs = AttributeTable::with_identity_prices(3);
        let q = CorrelationQuery {
            params: params(),
            constraints: ConstraintSet::new(),
        };
        let mut c = HorizontalCounter::new(&db);
        let out = discover_causality(&db, &attrs, &q, &mut c).unwrap();
        // All three pairs correlate (A–C through B), but B explains the
        // A–C dependence away.
        assert!(
            out.findings.contains(&CausalFinding::Mediator {
                a: Item(0),
                mediator: Item(1),
                c: Item(2),
            }),
            "mediator not found: {:?}",
            out.findings
        );
        // And neither endpoint is reported as a mediator.
        assert!(!out.findings.iter().any(
            |f| matches!(f, CausalFinding::Mediator { mediator, .. } if *mediator != Item(1))
        ));
    }

    #[test]
    fn constraints_prune_causal_search() {
        // The same collider, but a constraint excluding item 2 means the
        // triple is never examined.
        let db = collider_db(4000, 7);
        let attrs = AttributeTable::with_identity_prices(3); // prices 1,2,3
        let q = CorrelationQuery {
            params: params(),
            constraints: ConstraintSet::new().and(Constraint::max_le("price", 2.0)),
        };
        let mut c = HorizontalCounter::new(&db);
        let out = discover_causality(&db, &attrs, &q, &mut c).unwrap();
        assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
        // And the pruning happened before counting: only the {0,1} pair
        // was ever counted.
        assert_eq!(out.metrics.tables_built, 1);
    }

    #[test]
    fn avg_constraints_are_rejected() {
        let db = collider_db(200, 1);
        let attrs = AttributeTable::with_identity_prices(3);
        let q = CorrelationQuery {
            params: params(),
            constraints: ConstraintSet::new().and(Constraint::Avg {
                attr: "price".into(),
                cmp: ccs_constraints::Cmp::Le,
                value: 2.0,
            }),
        };
        let mut c = HorizontalCounter::new(&db);
        assert!(matches!(
            discover_causality(&db, &attrs, &q, &mut c),
            Err(MiningError::NonMonotoneConstraint)
        ));
    }

    #[test]
    fn ci_cutoff_survives_thresholds_invalid_as_confidences() {
        // A bond threshold of 1.0 is valid for the measure but out of
        // range for `chi2_quantile`; before the `MeasureContext` fix the
        // df = 2 call at the CI test site would have panicked on it.
        let db = chain_db(2000, 3);
        let attrs = AttributeTable::with_identity_prices(3);
        let q = CorrelationQuery {
            params: MiningParams {
                measure: ccs_stats::Measure::Bond,
                confidence: 1.0,
                ..params()
            },
            constraints: ConstraintSet::new(),
        };
        let mut c = HorizontalCounter::new(&db);
        let out = discover_causality(&db, &attrs, &q, &mut c).unwrap();
        // Nothing co-occurs perfectly in noisy chain data; the point is
        // the run completes rather than panicking in the quantile.
        assert!(out.findings.is_empty(), "findings: {:?}", out.findings);
    }

    #[test]
    fn conditional_chi2_detects_dependence_within_slices() {
        // x = z always, regardless of m: strongly dependent given m.
        // Cells: index bits (0: x, 1: m, 2: z).
        let mut counts = vec![0u64; 8];
        counts[0b000] = 100; // x=0,m=0,z=0
        counts[0b101] = 100; // x=1,m=0,z=1
        counts[0b010] = 100; // x=0,m=1,z=0
        counts[0b111] = 100; // x=1,m=1,z=1
        assert!(conditional_chi2(&counts, 0, 1, 2) > 100.0);
        // x and z independent in both slices: chi2 ≈ 0.
        let uniform = vec![50u64; 8];
        assert!(conditional_chi2(&uniform, 0, 1, 2) < 1e-9);
    }

    #[test]
    fn unsatisfiable_queries_find_nothing_and_count_nothing() {
        let db = collider_db(400, 3);
        let attrs = AttributeTable::with_identity_prices(3);
        // `max ≤ 1 ∧ min ≥ 2` over prices 1, 2, 3: no pair satisfies it.
        let q = CorrelationQuery {
            params: params(),
            constraints: ConstraintSet::new()
                .and(Constraint::max_le("price", 1.0))
                .and(Constraint::min_ge("price", 2.0)),
        };
        let mut c = HorizontalCounter::new(&db);
        let out = discover_causality(&db, &attrs, &q, &mut c).unwrap();
        assert!(out.correlated_pairs.is_empty() && out.findings.is_empty());
        assert_eq!(out.metrics.tables_built, 0);
        assert_eq!(c.stats().tables_built, 0);
        // Parameters are validated before the short-circuit.
        let bad = CorrelationQuery {
            params: MiningParams {
                max_level: 1,
                ..params()
            },
            ..q
        };
        assert!(matches!(
            discover_causality(&db, &attrs, &bad, &mut c),
            Err(MiningError::Params(_))
        ));
    }
}
