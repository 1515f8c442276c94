//! Differential test for the one query preamble: the static analyzer's
//! verdict and normalization must never change an answer. Every
//! algorithm, run through `mine_on` on the **raw** conjunction (which
//! the preamble analyzes, normalizes, or short-circuits as provably
//! unsatisfiable), must return exactly the from-definitions oracle's
//! answers on that raw conjunction (`common::oracle`). Checking against
//! the definitions rather than against the same algorithm on the
//! normalized conjunction means a wrong normalization, a wrong
//! `Unsatisfiable` verdict and a wrong algorithm all show.
//!
//! The §5 border sweep takes the same preamble, so it rides along: its
//! lower border must be the oracle's `MIN_VALID`, and its sandwich test
//! must match from-definitions membership for every set the oracle
//! enumerates. When the verdict is `Unsatisfiable` the oracle itself
//! must find nothing, which checks the verdict's soundness directly.

// Helper fns outside `#[test]` bodies still trip `unwrap_used`; in a
// test binary a panic is the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use proptest::prelude::*;

use ccs::itemset::HorizontalCounter;
use ccs::prelude::*;

mod common;

use common::oracle::{answers_from_flags, reference_flags};
use common::ALL_ALGORITHMS;

const N_ITEMS: u32 = 6;

fn attrs() -> AttributeTable {
    let mut t = AttributeTable::with_identity_prices(N_ITEMS);
    t.add_categorical("type", &["a", "a", "b", "b", "c", "c"]);
    t
}

fn db_strategy() -> impl Strategy<Value = TransactionDb> {
    (
        proptest::collection::vec(proptest::collection::vec(0u32..N_ITEMS, 0..5), 20..50),
        0u32..3,
        2u32..5,
    )
        .prop_map(|(mut txns, p, every)| {
            for (i, t) in txns.iter_mut().enumerate() {
                if (i as u32).is_multiple_of(every) {
                    t.push(p);
                    t.push(p + 1);
                    t.push((p + 2) % N_ITEMS);
                }
            }
            TransactionDb::from_ids(N_ITEMS, txns)
        })
}

/// Constraints biased toward overlap: same attribute, close thresholds,
/// so duplicate/subsumption/interval rules actually fire.
fn constraint_strategy() -> impl Strategy<Value = Constraint> {
    (
        0usize..12,
        1.0f64..8.0,
        proptest::collection::btree_set(0u32..3, 1..3),
    )
        .prop_map(|(kind, v, ids)| {
            let cats: BTreeSet<u32> = ids.clone();
            match kind {
                0 => Constraint::max_le("price", v),
                1 => Constraint::max_le("price", v + 2.0), // frequent subsumption pairs
                2 => Constraint::min_ge("price", v / 2.0),
                3 => Constraint::sum_le("price", v * 2.0),
                4 => Constraint::sum_ge("price", v),
                5 => Constraint::min_le("price", v),
                6 => Constraint::max_ge("price", v),
                7 => Constraint::ConstSubset {
                    attr: "type".into(),
                    categories: cats,
                    negated: false,
                },
                8 => Constraint::Disjoint {
                    attr: "type".into(),
                    categories: cats,
                    negated: false,
                },
                9 => Constraint::ItemSubset {
                    items: ids,
                    negated: false,
                },
                10 => Constraint::ItemDisjoint {
                    items: ids,
                    negated: true,
                },
                _ => Constraint::CountDistinct {
                    attr: "type".into(),
                    cmp: if v < 4.0 { Cmp::Le } else { Cmp::Ge },
                    value: (v as u64 % 3) + 1,
                },
            }
        })
}

fn params() -> MiningParams {
    MiningParams {
        confidence: 0.9,
        support_fraction: 0.1,
        ct_fraction: 0.2,
        max_level: 5,
        ..MiningParams::paper()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn raw_conjunction_mines_as_the_definitions_say(
        db in db_strategy(),
        c1 in constraint_strategy(),
        c2 in constraint_strategy(),
        c3 in constraint_strategy(),
    ) {
        let attrs = attrs();
        let q = CorrelationQuery {
            params: params(),
            constraints: ConstraintSet::new().and(c1).and(c2).and(c3),
        };
        let flags = reference_flags(&db, &attrs, &q);
        let valid_min = answers_from_flags(&flags, Semantics::ValidMin);
        let min_valid = answers_from_flags(&flags, Semantics::MinValid);
        if analyze(&q.constraints, &attrs).unwrap().verdict.is_unsatisfiable() {
            prop_assert!(
                valid_min.is_empty() && min_valid.is_empty(),
                "analyzer called {} unsatisfiable, but the definitions give {} answers",
                q.constraints, min_valid.len()
            );
        }

        for algorithm in ALL_ALGORITHMS {
            let mut counter = HorizontalCounter::new(&db);
            let got = mine_on(&db, &attrs, &q, &MineRequest::new(algorithm), &mut counter)
                .unwrap()
                .answers;
            let expected = match algorithm.semantics() {
                Semantics::ValidMin => &valid_min,
                Semantics::MinValid => &min_valid,
            };
            prop_assert_eq!(
                &got, expected,
                "{} disagrees with the definitions on [{}]",
                algorithm, &q.constraints
            );
        }

        let mut counter = HorizontalCounter::new(&db);
        let space = solution_space(&db, &attrs, &q, &mut counter).unwrap();
        prop_assert_eq!(&space.minimal, &min_valid, "lower border on [{}]", &q.constraints);
        for (items, f) in &flags {
            let set = Itemset::from_ids(items.iter().copied());
            prop_assert_eq!(
                space.contains(&set),
                f.in_space && f.valid,
                "sandwich membership of {} on [{}]", set, &q.constraints
            );
        }
    }
}
