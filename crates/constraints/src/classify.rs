//! Monotonicity and succinctness classification (Lemma 1 of the paper).
//!
//! A constraint `C` is **anti-monotone** when every subset of a satisfying
//! set satisfies `C` (like CT-support), **monotone** when every superset
//! does (like being correlated). Lemma 1 shows every constraint form of the
//! language is one or the other — except `avg`, which is neither (§6).
//!
//! A constraint is **succinct** when its solution space can be written as a
//! powerset expression over selections of `Item`, which lets an algorithm
//! *generate* exactly the satisfying sets instead of generate-and-test.
//! This module reports the taxonomy; the machinery that actually exploits
//! succinctness (pruned item universes and witness classes) lives in
//! [`crate::succinct`].

use serde::{Deserialize, Serialize};

use crate::ast::{AggFn, Cmp, Constraint};

/// The direction in which a constraint is closed over the itemset lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Monotonicity {
    /// Downward closed: subsets of satisfying sets satisfy.
    AntiMonotone,
    /// Upward closed: supersets of satisfying sets satisfy.
    Monotone,
    /// Neither direction (e.g. `avg`): the solution space may have holes.
    Neither,
}

impl Constraint {
    /// The constraint's closure direction per Lemma 1.
    pub fn monotonicity(&self) -> Monotonicity {
        match self {
            Constraint::Agg { agg, cmp, .. } => match (agg, cmp) {
                // Adding items can only raise max / count / sum (non-negative
                // domain) and lower min.
                (AggFn::Max, Cmp::Le) => Monotonicity::AntiMonotone,
                (AggFn::Max, Cmp::Ge) => Monotonicity::Monotone,
                (AggFn::Min, Cmp::Ge) => Monotonicity::AntiMonotone,
                (AggFn::Min, Cmp::Le) => Monotonicity::Monotone,
                (AggFn::Sum, Cmp::Le) => Monotonicity::AntiMonotone,
                (AggFn::Sum, Cmp::Ge) => Monotonicity::Monotone,
                (AggFn::Count, Cmp::Le) => Monotonicity::AntiMonotone,
                (AggFn::Count, Cmp::Ge) => Monotonicity::Monotone,
            },
            // Covering a constant set survives adding items; not covering it
            // survives removing them.
            Constraint::ConstSubset { negated: false, .. } => Monotonicity::Monotone,
            Constraint::ConstSubset { negated: true, .. } => Monotonicity::AntiMonotone,
            // Disjointness survives removing items; intersection survives
            // adding them.
            Constraint::Disjoint { negated: false, .. } => Monotonicity::AntiMonotone,
            Constraint::Disjoint { negated: true, .. } => Monotonicity::Monotone,
            // The number of distinct categories only grows with the set.
            Constraint::CountDistinct { cmp: Cmp::Le, .. } => Monotonicity::AntiMonotone,
            Constraint::CountDistinct { cmp: Cmp::Ge, .. } => Monotonicity::Monotone,
            Constraint::Avg { .. } => Monotonicity::Neither,
            // Same logic as the categorical forms, over raw item ids.
            Constraint::ItemSubset { negated: false, .. } => Monotonicity::Monotone,
            Constraint::ItemSubset { negated: true, .. } => Monotonicity::AntiMonotone,
            Constraint::ItemDisjoint { negated: false, .. } => Monotonicity::AntiMonotone,
            Constraint::ItemDisjoint { negated: true, .. } => Monotonicity::Monotone,
        }
    }

    /// `true` iff the constraint is succinct (its solution space is a
    /// powerset expression over selections of `Item`).
    ///
    /// `min`/`max` bounds, set-containment, and disjointness constraints
    /// are succinct; `sum`, `count`, count-distinct, and `avg` are not
    /// (their satisfaction depends on the combination of items, not on a
    /// per-item selection).
    pub fn is_succinct(&self) -> bool {
        match self {
            Constraint::Agg {
                agg: AggFn::Min | AggFn::Max,
                ..
            } => true,
            Constraint::Agg {
                agg: AggFn::Sum | AggFn::Count,
                ..
            } => false,
            Constraint::ConstSubset { .. } | Constraint::Disjoint { .. } => true,
            Constraint::ItemSubset { .. } | Constraint::ItemDisjoint { .. } => true,
            Constraint::CountDistinct { .. } | Constraint::Avg { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Constraint;
    use std::collections::BTreeSet;

    fn cs(ids: &[u32]) -> BTreeSet<u32> {
        ids.iter().copied().collect()
    }

    #[test]
    fn lemma_1_aggregate_classification() {
        use Monotonicity::*;
        let cases = [
            (Constraint::max_le("p", 1.0), AntiMonotone, true),
            (Constraint::max_ge("p", 1.0), Monotone, true),
            (Constraint::min_ge("p", 1.0), AntiMonotone, true),
            (Constraint::min_le("p", 1.0), Monotone, true),
            (Constraint::sum_le("p", 1.0), AntiMonotone, false),
            (Constraint::sum_ge("p", 1.0), Monotone, false),
            (
                Constraint::agg(AggFn::Count, "p", Cmp::Le, 3.0),
                AntiMonotone,
                false,
            ),
            (
                Constraint::agg(AggFn::Count, "p", Cmp::Ge, 3.0),
                Monotone,
                false,
            ),
        ];
        for (c, mono, succ) in cases {
            assert_eq!(c.monotonicity(), mono, "monotonicity of {c}");
            assert_eq!(c.is_succinct(), succ, "succinctness of {c}");
        }
    }

    #[test]
    fn set_constraint_classification() {
        let sub = Constraint::ConstSubset {
            attr: "t".into(),
            categories: cs(&[1]),
            negated: false,
        };
        assert_eq!(sub.monotonicity(), Monotonicity::Monotone);
        assert!(sub.is_succinct());

        let nsub = Constraint::ConstSubset {
            attr: "t".into(),
            categories: cs(&[1]),
            negated: true,
        };
        assert_eq!(nsub.monotonicity(), Monotonicity::AntiMonotone);
        assert!(nsub.is_succinct());

        let disj = Constraint::Disjoint {
            attr: "t".into(),
            categories: cs(&[1]),
            negated: false,
        };
        assert_eq!(disj.monotonicity(), Monotonicity::AntiMonotone);
        assert!(disj.is_succinct());

        let inter = Constraint::Disjoint {
            attr: "t".into(),
            categories: cs(&[1]),
            negated: true,
        };
        assert_eq!(inter.monotonicity(), Monotonicity::Monotone);
        assert!(inter.is_succinct());
    }

    #[test]
    fn item_level_classification() {
        use Monotonicity::*;
        let cases = [
            (
                Constraint::ItemSubset {
                    items: cs(&[1, 2]),
                    negated: false,
                },
                Monotone,
            ),
            (
                Constraint::ItemSubset {
                    items: cs(&[1]),
                    negated: true,
                },
                AntiMonotone,
            ),
            (
                Constraint::ItemDisjoint {
                    items: cs(&[1]),
                    negated: false,
                },
                AntiMonotone,
            ),
            (
                Constraint::ItemDisjoint {
                    items: cs(&[1]),
                    negated: true,
                },
                Monotone,
            ),
        ];
        for (c, mono) in cases {
            assert_eq!(c.monotonicity(), mono, "monotonicity of {c}");
            assert!(c.is_succinct(), "succinctness of {c}");
        }
    }

    #[test]
    fn extensions_classification() {
        let single = Constraint::CountDistinct {
            attr: "t".into(),
            cmp: Cmp::Le,
            value: 1,
        };
        assert_eq!(single.monotonicity(), Monotonicity::AntiMonotone);
        assert!(!single.is_succinct());

        let multi = Constraint::CountDistinct {
            attr: "t".into(),
            cmp: Cmp::Ge,
            value: 2,
        };
        assert_eq!(multi.monotonicity(), Monotonicity::Monotone);

        let avg = Constraint::Avg {
            attr: "p".into(),
            cmp: Cmp::Le,
            value: 3.0,
        };
        assert_eq!(avg.monotonicity(), Monotonicity::Neither);
        assert!(!avg.is_succinct());
    }
}
