//! Method 2's stated purpose in the paper: "to verify that our
//! algorithms do really correctly mine out all the correlation rules,
//! which are known in advance." These tests generate rule-planted data
//! and check the miners recover the ground truth.

use ccs::prelude::*;

/// Session-API stand-in for the deprecated free `mine` — same shape, so
/// the assertions below stay byte-identical to the original API's.
fn mine(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    algorithm: Algorithm,
) -> Result<MiningResult, MiningError> {
    MiningSession::new(db, attrs)
        .mine(q, &MineRequest::new(algorithm))
        .map(|o| o.result)
}

fn setup(seed: u64) -> (ccs::datagen::RulePlantedData, AttributeTable) {
    let params = RuleParams {
        n_transactions: 4_000,
        n_items: 40,
        avg_transaction_len: 8.0,
        n_rules: 5,
        rule_len: (2, 3),
        support_range: (0.7, 0.9),
        seed,
    };
    let data = generate_rules(&params);
    let attrs = AttributeTable::with_identity_prices(40);
    (data, attrs)
}

fn paper_query() -> CorrelationQuery {
    CorrelationQuery::unconstrained(MiningParams::paper())
}

/// Every within-rule pair is strongly correlated by construction (the
/// whole rule is planted atomically at 70–90 % support), so each must
/// show up in the unconstrained answer set — the minimal correlated
/// sets.
#[test]
fn unconstrained_mining_recovers_every_planted_rule() {
    for seed in [3u64, 17, 99] {
        let (data, attrs) = setup(seed);
        let result = mine(&data.db, &attrs, &paper_query(), Algorithm::BmsPlus).unwrap();
        for rule in &data.rules {
            let items: Vec<Item> = rule.items.iter().collect();
            for (i, &a) in items.iter().enumerate() {
                for &b in &items[i + 1..] {
                    let pair = Itemset::from_items([a, b]);
                    assert!(
                        result.contains(&pair),
                        "seed {seed}: planted pair {pair} of rule {} not mined",
                        rule.items
                    );
                }
            }
        }
    }
}

/// A constraint excluding a rule's items must remove exactly that
/// rule's pairs from the answers, leaving the other rules intact —
/// focus without loss.
#[test]
fn constraints_remove_only_the_targeted_rules() {
    let (data, attrs) = setup(7);
    // Forbid the items of the first rule, via an item-level domain
    // constraint (anti-monotone + succinct).
    let first = &data.rules[0];
    let constraints = ConstraintSet::new().and(Constraint::ItemDisjoint {
        items: first.items.iter().map(|i| i.id()).collect(),
        negated: false,
    });
    let q = CorrelationQuery {
        params: MiningParams::paper(),
        constraints,
    };
    let constrained = mine(&data.db, &attrs, &q, Algorithm::BmsPlusPlus).unwrap();
    // The first rule's pairs are gone…
    let items: Vec<Item> = first.items.iter().collect();
    for (i, &a) in items.iter().enumerate() {
        for &b in &items[i + 1..] {
            assert!(!constrained.contains(&Itemset::from_items([a, b])));
        }
    }
    // …while every other rule's pairs survive.
    for rule in &data.rules[1..] {
        let items: Vec<Item> = rule.items.iter().collect();
        for (i, &a) in items.iter().enumerate() {
            for &b in &items[i + 1..] {
                let pair = Itemset::from_items([a, b]);
                assert!(
                    constrained.contains(&pair),
                    "pair {pair} of untargeted rule {} lost",
                    rule.items
                );
            }
        }
    }
}

/// The level-batched engine recovers the same ground truth through
/// every counting substrate on realistic data, and batches for real:
/// one database scan per level, not one per contingency table.
#[test]
fn batched_engine_recovers_the_same_rules() {
    use ccs::core::run_bms;
    use ccs::itemset::{HorizontalCounter, VerticalCounter};
    let (data, _) = setup(23);
    let params = MiningParams::paper();
    let mut horizontal = HorizontalCounter::new(&data.db);
    let h = run_bms(&data.db, &params, &mut horizontal).unwrap();
    let mut vertical = VerticalCounter::new(&data.db);
    let v = run_bms(&data.db, &params, &mut vertical).unwrap();
    assert_eq!(h.sig, v.sig);
    assert_eq!(h.notsig, v.notsig);
    // Level batching: levels 2..=max each cost one scan.
    assert_eq!(h.metrics.db_scans as usize, h.metrics.max_level_reached - 1);
    assert!(h.metrics.db_scans < h.metrics.tables_built);
}
