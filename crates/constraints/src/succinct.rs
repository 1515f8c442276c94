//! Exploiting succinctness: pruned item universes and witness classes.
//!
//! For a *succinct* constraint the solution space is a powerset expression
//! over selections of `Item` (§2.2 of the paper). The two exploitable
//! shapes are:
//!
//! * **Anti-monotone + succinct** (`max(S.A) ≤ c`, `min(S.A) ≥ c`,
//!   `CS ∩ S.A = ∅`, singleton `CS ⊄ S.A`): the solution space is
//!   `2^I₁` for a selection `I₁ = σ_p(Item)`. [`am_allowed_items`] returns
//!   `I₁`; restricting candidate generation to it makes every generated
//!   set satisfy the constraint *by construction*, so no per-set check is
//!   ever needed — this is the "pushed deeper than anti-monotonicity"
//!   pruning of Algorithm BMS++.
//!
//! * **Monotone + succinct** (`min(S.A) ≤ c`, `max(S.A) ≥ c`,
//!   `CS ∩ S.A ≠ ∅`, `CS ⊆ S.A`): the MGF is
//!   `{X₁ ∪ … ∪ Xₘ ∪ Y | Xⱼ ⊆ σ_{pⱼ}(Item), Xⱼ ≠ ∅}` — every satisfying
//!   set must contain at least one *witness* from each required class
//!   `σ_{pⱼ}(Item)`. [`ms_witness_classes`] returns those classes. A
//!   single-class constraint can seed `L1⁺` directly (the paper's
//!   `CAND₁⁺`); a multi-class one (`CS ⊆ S.A` with `|CS| > 1`, footnote 5)
//!   needs more than one witness and must be enforced at SIG-entry time
//!   instead.
//!
//! Constraints whose succinct structure this module cannot exploit return
//! `None` and are handled by their monotonicity class alone — always
//! correct, merely less pruned.

use ccs_itemset::Item;

use crate::ast::{AggFn, Cmp, Constraint};
use crate::attr::AttributeTable;

/// `true` iff `c` is anti-monotone succinct in the shape
/// [`am_allowed_items`] exploits, which is exactly when that function
/// returns `Some`. It reads only the constraint's shape and allocates
/// nothing.
pub fn is_am_succinct(c: &Constraint) -> bool {
    match c {
        Constraint::Agg {
            agg: AggFn::Max,
            cmp: Cmp::Le,
            ..
        }
        | Constraint::Agg {
            agg: AggFn::Min,
            cmp: Cmp::Ge,
            ..
        }
        | Constraint::Disjoint { negated: false, .. }
        | Constraint::ItemDisjoint { negated: false, .. } => true,
        Constraint::ConstSubset {
            categories,
            negated: true,
            ..
        } => categories.len() == 1,
        Constraint::ItemSubset {
            items,
            negated: true,
        } => items.len() == 1,
        _ => false,
    }
}

/// For an anti-monotone succinct constraint of shape `SAT = 2^I₁`, the
/// items of `I₁` — the only items that may appear in any satisfying set.
///
/// Returns `None` when the constraint is not anti-monotone-succinct in an
/// exploitable way.
pub fn am_allowed_items(c: &Constraint, attrs: &AttributeTable) -> Option<Vec<Item>> {
    match c {
        Constraint::Agg {
            agg: AggFn::Max,
            attr,
            cmp: Cmp::Le,
            value,
        } => Some(select_numeric(attrs, attr, |v| v <= *value)),
        Constraint::Agg {
            agg: AggFn::Min,
            attr,
            cmp: Cmp::Ge,
            value,
        } => Some(select_numeric(attrs, attr, |v| v >= *value)),
        Constraint::Disjoint {
            attr,
            categories,
            negated: false,
        } => Some(select_categorical(attrs, attr, |cat| {
            !categories.contains(&cat)
        })),
        // `CS ⊄ S.A` is only a plain powerset for |CS| = 1: sets avoiding
        // that single category. For larger CS the space is a union of
        // powersets ("miss at least one of CS"), which universe pruning
        // cannot capture.
        Constraint::ConstSubset {
            attr,
            categories,
            negated: true,
        } if categories.len() == 1 => {
            #[allow(clippy::expect_used)] // guard: len() == 1
            let only = *categories.iter().next().expect("len checked");
            Some(select_categorical(attrs, attr, |cat| cat != only))
        }
        Constraint::ItemDisjoint {
            items,
            negated: false,
        } => Some(
            (0..attrs.n_items())
                .filter(|i| !items.contains(i))
                .map(Item::new)
                .collect(),
        ),
        Constraint::ItemSubset {
            items,
            negated: true,
        } if items.len() == 1 => {
            #[allow(clippy::expect_used)] // guard: len() == 1
            let only = *items.iter().next().expect("len checked");
            Some(
                (0..attrs.n_items())
                    .filter(|&i| i != only)
                    .map(Item::new)
                    .collect(),
            )
        }
        _ => None,
    }
}

/// For a monotone succinct constraint, the required witness classes: every
/// satisfying set must contain at least one item from *each* returned
/// class.
///
/// Returns `None` when the constraint is not monotone-succinct in an
/// exploitable way. A returned empty class means the constraint is
/// unsatisfiable over this item universe.
pub fn ms_witness_classes(c: &Constraint, attrs: &AttributeTable) -> Option<Vec<Vec<Item>>> {
    match c {
        Constraint::Agg {
            agg: AggFn::Min,
            attr,
            cmp: Cmp::Le,
            value,
        } => Some(vec![select_numeric(attrs, attr, |v| v <= *value)]),
        Constraint::Agg {
            agg: AggFn::Max,
            attr,
            cmp: Cmp::Ge,
            value,
        } => Some(vec![select_numeric(attrs, attr, |v| v >= *value)]),
        Constraint::Disjoint {
            attr,
            categories,
            negated: true,
        } => Some(vec![select_categorical(attrs, attr, |cat| {
            categories.contains(&cat)
        })]),
        // `CS ⊆ S.A` requires one witness per category of CS.
        Constraint::ConstSubset {
            attr,
            categories,
            negated: false,
        } => Some(
            categories
                .iter()
                .map(|&c| select_categorical(attrs, attr, |cat| cat == c))
                .collect(),
        ),
        Constraint::ItemDisjoint {
            items,
            negated: true,
        } => Some(vec![items.iter().copied().map(Item::new).collect()]),
        // `CS ⊆ S`: each required item is its own (singleton) witness
        // class.
        Constraint::ItemSubset {
            items,
            negated: false,
        } => Some(items.iter().map(|&i| vec![Item::new(i)]).collect()),
        _ => None,
    }
}

fn select_numeric(attrs: &AttributeTable, attr: &str, pred: impl Fn(f64) -> bool) -> Vec<Item> {
    let col = attrs
        .numeric(attr)
        .unwrap_or_else(|| panic!("unknown numeric attribute '{attr}'"));
    col.iter()
        .enumerate()
        .filter(|(_, &v)| pred(v))
        .map(|(i, _)| Item::new(i as u32))
        .collect()
}

fn select_categorical(attrs: &AttributeTable, attr: &str, pred: impl Fn(u32) -> bool) -> Vec<Item> {
    let col = attrs
        .categorical(attr)
        .unwrap_or_else(|| panic!("unknown categorical attribute '{attr}'"));
    col.values()
        .iter()
        .enumerate()
        .filter(|(_, &v)| pred(v))
        .map(|(i, _)| Item::new(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_itemset::Itemset;
    use std::collections::BTreeSet;

    fn attrs() -> AttributeTable {
        let mut t = AttributeTable::new(6);
        t.add_numeric("price", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        t.add_categorical("type", &["soda", "soda", "snack", "dairy", "dairy", "beer"]);
        t
    }

    fn ids(items: &[Item]) -> Vec<u32> {
        items.iter().map(|i| i.id()).collect()
    }

    fn cat(attrs: &AttributeTable, labels: &[&str]) -> BTreeSet<u32> {
        let col = attrs.categorical("type").unwrap();
        labels.iter().map(|l| col.id_of(l).unwrap()).collect()
    }

    #[test]
    fn max_le_allowed_items() {
        let a = attrs();
        let allowed = am_allowed_items(&Constraint::max_le("price", 3.0), &a).unwrap();
        assert_eq!(ids(&allowed), vec![0, 1, 2]);
    }

    #[test]
    fn min_ge_allowed_items() {
        let a = attrs();
        let allowed = am_allowed_items(&Constraint::min_ge("price", 5.0), &a).unwrap();
        assert_eq!(ids(&allowed), vec![4, 5]);
    }

    #[test]
    fn disjoint_allowed_items() {
        let a = attrs();
        let c = Constraint::Disjoint {
            attr: "type".into(),
            categories: cat(&a, &["snack"]),
            negated: false,
        };
        let allowed = am_allowed_items(&c, &a).unwrap();
        assert_eq!(ids(&allowed), vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn singleton_not_subset_allowed_items() {
        let a = attrs();
        let c = Constraint::ConstSubset {
            attr: "type".into(),
            categories: cat(&a, &["beer"]),
            negated: true,
        };
        let allowed = am_allowed_items(&c, &a).unwrap();
        assert_eq!(ids(&allowed), vec![0, 1, 2, 3, 4]);
        // Multi-category ⊄ is not exploitable as a single universe.
        let c2 = Constraint::ConstSubset {
            attr: "type".into(),
            categories: cat(&a, &["beer", "snack"]),
            negated: true,
        };
        assert!(am_allowed_items(&c2, &a).is_none());
    }

    #[test]
    fn non_succinct_constraints_yield_no_universe() {
        let a = attrs();
        assert!(am_allowed_items(&Constraint::sum_le("price", 10.0), &a).is_none());
        // Monotone constraints have no allowed-universe either.
        assert!(am_allowed_items(&Constraint::min_le("price", 3.0), &a).is_none());
    }

    #[test]
    fn is_am_succinct_agrees_with_the_allowed_items() {
        let a = attrs();
        let categorical = |categories: &[&str], negated, subset| {
            let (attr, categories) = ("type".into(), cat(&a, categories));
            if subset {
                Constraint::ConstSubset {
                    attr,
                    categories,
                    negated,
                }
            } else {
                Constraint::Disjoint {
                    attr,
                    categories,
                    negated,
                }
            }
        };
        let by_id = |ids: &[u32], negated, subset| {
            let items = ids.iter().copied().collect();
            if subset {
                Constraint::ItemSubset { items, negated }
            } else {
                Constraint::ItemDisjoint { items, negated }
            }
        };
        // Every shape this module's tests draw, both polarities of the
        // set shapes, and one- and two-element sets.
        let mut shapes = vec![
            Constraint::max_le("price", 3.0),
            Constraint::max_le("price", 4.0),
            Constraint::min_ge("price", 5.0),
            Constraint::sum_le("price", 10.0),
            Constraint::min_le("price", 3.0),
            Constraint::min_le("price", 2.0),
            Constraint::max_ge("price", 6.0),
        ];
        for negated in [false, true] {
            for subset in [false, true] {
                for labels in [&["snack"][..], &["beer"], &["dairy"], &["soda", "beer"]] {
                    shapes.push(categorical(labels, negated, subset));
                }
                for ids in [&[2u32][..], &[0, 5]] {
                    shapes.push(by_id(ids, negated, subset));
                }
            }
        }
        for c in &shapes {
            assert_eq!(
                is_am_succinct(c),
                am_allowed_items(c, &a).is_some(),
                "{c:?}"
            );
        }
        assert!(shapes.iter().any(is_am_succinct));
        assert!(!shapes.iter().all(is_am_succinct));
    }

    #[test]
    fn min_le_witness_class() {
        let a = attrs();
        let classes = ms_witness_classes(&Constraint::min_le("price", 2.0), &a).unwrap();
        assert_eq!(classes.len(), 1);
        assert_eq!(ids(&classes[0]), vec![0, 1]);
    }

    #[test]
    fn max_ge_witness_class() {
        let a = attrs();
        let classes = ms_witness_classes(&Constraint::max_ge("price", 6.0), &a).unwrap();
        assert_eq!(ids(&classes[0]), vec![5]);
    }

    #[test]
    fn intersects_witness_class() {
        let a = attrs();
        let c = Constraint::Disjoint {
            attr: "type".into(),
            categories: cat(&a, &["dairy"]),
            negated: true,
        };
        let classes = ms_witness_classes(&c, &a).unwrap();
        assert_eq!(ids(&classes[0]), vec![3, 4]);
    }

    #[test]
    fn const_subset_multi_witness_classes() {
        let a = attrs();
        let c = Constraint::ConstSubset {
            attr: "type".into(),
            categories: cat(&a, &["soda", "beer"]),
            negated: false,
        };
        let mut classes = ms_witness_classes(&c, &a).unwrap();
        classes.sort_by_key(|c| c.len());
        assert_eq!(classes.len(), 2);
        assert_eq!(ids(&classes[0]), vec![5]); // beer
        assert_eq!(ids(&classes[1]), vec![0, 1]); // soda
    }

    #[test]
    fn witness_semantics_match_evaluation() {
        // A set satisfies a single-class ms constraint iff it intersects
        // the witness class.
        let a = attrs();
        let c = Constraint::min_le("price", 2.0);
        let class = &ms_witness_classes(&c, &a).unwrap()[0];
        for set in [
            Itemset::from_ids([0, 5]),
            Itemset::from_ids([2, 3]),
            Itemset::from_ids([1]),
            Itemset::from_ids([4, 5]),
        ] {
            let witnessed = set.iter().any(|i| class.contains(&i));
            assert_eq!(witnessed, c.satisfied(&set, &a), "mismatch for {set}");
        }
    }

    #[test]
    fn universe_semantics_match_evaluation() {
        // A set satisfies an am-succinct constraint iff all its items are
        // in the allowed universe.
        let a = attrs();
        let c = Constraint::max_le("price", 4.0);
        let allowed = am_allowed_items(&c, &a).unwrap();
        for set in [
            Itemset::from_ids([0, 3]),
            Itemset::from_ids([0, 5]),
            Itemset::from_ids([4]),
            Itemset::from_ids([1, 2, 3]),
        ] {
            let inside = set.iter().all(|i| allowed.contains(&i));
            assert_eq!(inside, c.satisfied(&set, &a), "mismatch for {set}");
        }
    }
}
