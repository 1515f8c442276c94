//! Solution-space borders: the complete characterization of §5.
//!
//! The paper's related-work discussion points out that minimal answers
//! alone do *not* characterize the solution space — "technically, this
//! is true only when one also returns, as part of the answer, some
//! description of the upper border". This module computes both borders
//! of the space
//!
//! ```text
//! SPACE(Q) = { S | S correlated ∧ CT-supported ∧ S ⊨ C }
//! ```
//!
//! * the **lower border**: minimal members (= `MIN_VALID(Q)`), and
//! * the **upper border**: maximal members (bounded above by the
//!   CT-support and anti-monotone-constraint borders).
//!
//! Because correlation and the monotone constraints are upward closed
//! while CT-support and the anti-monotone constraints are downward
//! closed, the space is *order-convex*: `A ⊆ S ⊆ B` with `A, B ∈ SPACE`
//! implies `S ∈ SPACE`. Membership is therefore exactly the sandwich
//! test implemented by [`SolutionSpace::contains`] — the two borders
//! really are a complete description.

use std::collections::HashMap;

use ccs_constraints::{AttributeTable, ConstraintAnalysis, ConstraintSet};
use ccs_itemset::{candidate, Itemset, ItemsetSet, MintermCounter, TransactionDb};
use ccs_stats::Verdict;

use crate::engine::Engine;
use crate::guard::ResumeInner;
use crate::kernel::{
    admit, prune_am_residual, run_levelwise, staged, AlgorithmPolicy, KernelConfig, LevelMark,
    LevelSeed, MinerScope,
};
use crate::metrics::MiningMetrics;
use crate::miner::Algorithm;
use crate::prep::good1_items;
use crate::query::{CorrelationQuery, MiningError};

/// Both borders of a constrained correlation query's solution space.
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionSpace {
    /// Minimal members of the space, sorted (= `MIN_VALID(Q)`).
    pub minimal: Vec<Itemset>,
    /// Maximal members of the space, sorted.
    ///
    /// Complete up to `max_level`; if the sweep was truncated by the
    /// level cap (see [`SolutionSpace::truncated`]) there may be larger
    /// members above it.
    pub maximal: Vec<Itemset>,
    /// `true` when the level cap stopped a still-expanding sweep, in
    /// which case `maximal` describes the border only up to that level.
    pub truncated: bool,
    /// Work accounting.
    pub metrics: MiningMetrics,
}

impl SolutionSpace {
    /// Exact membership test via the sandwich property: `set` is in the
    /// space iff it contains some minimal member and is contained in
    /// some maximal member.
    pub fn contains(&self, set: &Itemset) -> bool {
        self.minimal.iter().any(|lo| lo.is_subset_of(set))
            && self.maximal.iter().any(|hi| set.is_subset_of(hi))
    }
}

/// The sweep of the CT-supported, anti-monotone-valid region as a kernel
/// policy: Apriori candidates over the level's CT-supported sets, the
/// residual anti-monotone prune before counting, and space membership
/// (correlated and monotone-valid) recorded per level.
struct BorderPolicy<'a> {
    plan: &'a ConstraintAnalysis,
    constraints: &'a ConstraintSet,
    attrs: &'a AttributeTable,
    /// Candidates staged for the next level.
    cands: Vec<Itemset>,
    /// Set at the level cap: the level above would have had candidates.
    truncated: bool,
    in_space: HashMap<usize, ItemsetSet>,
}

impl AlgorithmPolicy for BorderPolicy<'_> {
    fn candidates(&mut self, _level: usize) -> LevelSeed {
        staged(&mut self.cands)
    }

    fn snapshot(&self, _level: usize, _cands: &[Itemset]) -> ResumeInner {
        unreachable!("the border sweep runs under the inert guard, which takes no snapshots")
    }

    fn prefilter(
        &mut self,
        _level: usize,
        cands: Vec<Itemset>,
        metrics: &mut MiningMetrics,
    ) -> Vec<Itemset> {
        prune_am_residual(self.plan, self.attrs, cands, metrics)
    }

    fn absorb(
        &mut self,
        level: usize,
        survivors: Vec<Itemset>,
        verdicts: Vec<Verdict>,
        last: bool,
    ) {
        let mut supported = ItemsetSet::default();
        let mut members = ItemsetSet::default();
        for (set, v) in survivors.into_iter().zip(verdicts) {
            let Verdict::Supported { correlated } = v else {
                continue;
            };
            if correlated && self.constraints.monotone_satisfied(&set, self.attrs) {
                members.insert(set.clone());
            }
            supported.insert(set);
        }
        if last {
            self.truncated = !candidate::apriori_gen_is_empty(&supported);
        } else {
            self.cands = candidate::apriori_gen(&supported);
        }
        self.in_space.insert(level, members);
    }
}

/// Computes both borders of `SPACE(Q)` by a level-wise sweep of the
/// CT-supported, anti-monotone-valid region (which contains the space
/// and is downward closed, so Apriori candidate generation is exact).
///
/// The query passes the miners' preamble first: a provably
/// unsatisfiable conjunction has an empty space, returned without
/// counting anything, and a satisfiable one is swept in its normalized
/// form.
///
/// # Errors
///
/// Returns [`MiningError`] if the parameters or constraints fail
/// validation, or the constraints contain a neither-monotone (`avg`)
/// constraint (whose space may have holes and is not
/// sandwich-characterizable).
pub fn solution_space<C: MintermCounter>(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    counter: &mut C,
) -> Result<SolutionSpace, MiningError> {
    let Some((query, plan)) = admit(query, attrs, true)? else {
        return Ok(SolutionSpace {
            minimal: Vec::new(),
            maximal: Vec::new(),
            truncated: false,
            metrics: MiningMetrics::default(),
        });
    };
    let query = &query;
    let scope = MinerScope::begin(counter.stats());
    let mut metrics = MiningMetrics::default();
    let mut engine = Engine::new(counter, &query.params);
    let mut policy = BorderPolicy {
        plan: &plan,
        constraints: &query.constraints,
        attrs,
        cands: candidate::all_pairs(&good1_items(db, attrs, query)),
        truncated: false,
        in_space: HashMap::new(),
    };
    // The algorithm is never stamped: the inert guard takes no snapshots.
    run_levelwise(
        &mut engine,
        &mut policy,
        KernelConfig::new(Algorithm::BmsStarStar, LevelMark::Eager),
        2,
        query.params.max_level,
        &mut metrics,
    );
    let truncated = policy.truncated;
    let in_space = policy.in_space;

    // Borders. Convexity makes one-level checks exact: a member is
    // minimal iff no (k−1)-subset is a member, maximal iff no
    // (k+1)-superset is.
    let empty = ItemsetSet::default();
    let mut minimal = Vec::new();
    let mut maximal = Vec::new();
    for (&k, members) in &in_space {
        let below = in_space.get(&(k - 1)).unwrap_or(&empty);
        let above = in_space.get(&(k + 1)).unwrap_or(&empty);
        for set in members {
            if set.subsets_dropping_one().all(|s| !below.contains(&s)) {
                minimal.push(set.clone());
            }
            let dominated = above.iter().any(|sup| set.is_subset_of(sup));
            if !dominated {
                maximal.push(set.clone());
            }
        }
    }
    minimal.sort_unstable();
    maximal.sort_unstable();

    scope.seal(&engine, &mut metrics, minimal.len());
    Ok(SolutionSpace {
        minimal,
        maximal,
        truncated,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MiningParams;
    use crate::session::{mine_on, MineRequest};
    use ccs_constraints::{Constraint, ConstraintSet};
    use ccs_itemset::HorizontalCounter;

    fn db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..80u32 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.extend([0, 1]);
            }
            if i % 4 == 0 {
                t.extend([2, 3]);
            }
            if i % 5 == 0 {
                t.push(4);
            }
            txns.push(t);
        }
        TransactionDb::from_ids(5, txns)
    }

    fn query(constraints: ConstraintSet) -> CorrelationQuery {
        CorrelationQuery {
            params: MiningParams {
                confidence: 0.9,
                support_fraction: 0.1,
                max_level: 5,
                ..MiningParams::paper()
            },
            constraints,
        }
    }

    fn space_for(cs: ConstraintSet) -> SolutionSpace {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let mut c = HorizontalCounter::new(&db);
        solution_space(&db, &attrs, &query(cs), &mut c).unwrap()
    }

    #[test]
    fn lower_border_equals_min_valid() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        for cs in [
            ConstraintSet::new(),
            ConstraintSet::new().and(Constraint::max_le("price", 4.0)),
            ConstraintSet::new().and(Constraint::sum_ge("price", 5.0)),
            ConstraintSet::new().and(Constraint::min_le("price", 2.0)),
        ] {
            let q = query(cs);
            let space = {
                let mut c = HorizontalCounter::new(&db);
                solution_space(&db, &attrs, &q, &mut c).unwrap()
            };
            let mut c2 = HorizontalCounter::new(&db);
            let request = MineRequest::new(Algorithm::BmsStarStar);
            let mv = mine_on(&db, &attrs, &q, &request, &mut c2).unwrap();
            assert_eq!(
                space.minimal, mv.answers,
                "lower border vs MIN_VALID on {}",
                q.constraints
            );
        }
    }

    #[test]
    fn the_level_cap_truncates_exactly_when_the_level_above_has_candidates() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let capped_at = |max_level| {
            let mut q = query(ConstraintSet::new());
            q.params.max_level = max_level;
            let mut c = HorizontalCounter::new(&db);
            solution_space(&db, &attrs, &q, &mut c).unwrap()
        };
        let full = capped_at(5);
        assert!(!full.truncated);
        let deepest = full.metrics.max_level_reached;
        assert!(
            deepest > 2,
            "the sweep must pass its pairs for the check to bite"
        );
        for cap in 2..=deepest {
            let capped = capped_at(cap);
            // Level `cap + 1` had candidates iff the full sweep got there.
            assert_eq!(capped.truncated, cap < deepest, "cap {cap}");
            assert_eq!(capped.metrics.max_level_reached, cap);
        }
    }

    #[test]
    fn borders_are_antichains() {
        let space = space_for(ConstraintSet::new());
        for border in [&space.minimal, &space.maximal] {
            for (i, a) in border.iter().enumerate() {
                for b in &border[i + 1..] {
                    assert!(!a.is_subset_of(b) && !b.is_subset_of(a), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn every_minimal_member_is_below_some_maximal_member() {
        let space = space_for(ConstraintSet::new().and(Constraint::max_le("price", 5.0)));
        assert!(!space.truncated);
        for lo in &space.minimal {
            assert!(
                space.maximal.iter().any(|hi| lo.is_subset_of(hi)),
                "{lo} has no dominating maximal member"
            );
        }
    }

    #[test]
    fn sandwich_membership_matches_direct_evaluation() {
        use ccs_stats::ContingencyTable;
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let cs = ConstraintSet::new().and(Constraint::sum_ge("price", 4.0));
        let q = query(cs);
        let space = {
            let mut c = HorizontalCounter::new(&db);
            solution_space(&db, &attrs, &q, &mut c).unwrap()
        };
        assert!(!space.truncated);
        let s_abs = q.params.support_abs(db.len());
        // Every set over the universe, levels 2..=4: direct definition vs
        // sandwich.
        let mut all = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                all.push(Itemset::from_ids([a, b]));
                for c in (b + 1)..5 {
                    all.push(Itemset::from_ids([a, b, c]));
                    for d in (c + 1)..5 {
                        all.push(Itemset::from_ids([a, b, c, d]));
                    }
                }
            }
        }
        for set in all {
            let mut counter = HorizontalCounter::new(&db);
            let table = ContingencyTable::build(&mut counter, &set);
            let direct = table.is_ct_supported(s_abs, q.params.ct_fraction)
                && table.is_correlated(q.params.confidence)
                && q.constraints.satisfied(&set, &attrs);
            assert_eq!(space.contains(&set), direct, "sandwich mismatch for {set}");
        }
    }

    #[test]
    fn avg_constraints_are_rejected() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new().and(Constraint::Avg {
            attr: "price".into(),
            cmp: ccs_constraints::Cmp::Le,
            value: 3.0,
        }));
        let mut c = HorizontalCounter::new(&db);
        assert!(matches!(
            solution_space(&db, &attrs, &q, &mut c),
            Err(MiningError::NonMonotoneConstraint)
        ));
    }

    /// `max ≤ 1 ∧ min ≥ 3` over prices 1..=5: no pair satisfies it.
    fn unsatisfiable() -> ConstraintSet {
        ConstraintSet::new()
            .and(Constraint::max_le("price", 1.0))
            .and(Constraint::min_ge("price", 3.0))
    }

    #[test]
    fn unsatisfiable_queries_have_an_empty_space_and_count_nothing() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let mut c = HorizontalCounter::new(&db);
        let space = solution_space(&db, &attrs, &query(unsatisfiable()), &mut c).unwrap();
        assert!(space.minimal.is_empty() && space.maximal.is_empty());
        assert!(!space.truncated);
        assert_eq!(space.metrics.tables_built, 0);
        assert_eq!(c.stats().tables_built, 0);
    }

    #[test]
    fn out_of_range_params_are_errors_even_when_unsatisfiable() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        for constraints in [ConstraintSet::new(), unsatisfiable()] {
            let mut q = query(constraints);
            q.params.support_fraction = 1.5;
            let mut c = HorizontalCounter::new(&db);
            let got = solution_space(&db, &attrs, &q, &mut c);
            assert!(
                matches!(got, Err(MiningError::Params(_))),
                "{}: {got:?}",
                q.constraints
            );
        }
    }
}
