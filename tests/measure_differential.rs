//! Differential acceptance for the non-χ² measures: every algorithm ×
//! every counting strategy must agree with the from-definitions oracle
//! (`common::oracle`), which recomputes all-confidence and bond *from
//! scratch* — raw transaction scans, no `ContingencyTable`, no `Engine`
//! — and derives both answer semantics literally from the definitions.
//!
//! The χ² path is covered by the pinned goldens (`kernel_equivalence`),
//! by `fuzz_differential` and by `normalization_differential`; this
//! suite is the downward-closed counterpart.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::collections::HashMap;

use ccs::prelude::*;
use common::oracle::reference_answers;
use common::{sorted, ALL_ALGORITHMS};

const STRATEGIES: [CountingStrategy; 6] = [
    CountingStrategy::Horizontal,
    CountingStrategy::Vertical,
    CountingStrategy::Parallel,
    CountingStrategy::VerticalPar,
    CountingStrategy::Sharded,
    CountingStrategy::FpTree,
];

/// A skewed database with planted modules of different tightness: a
/// perfectly bonded pair, a high-but-imperfect triple, and a pair that
/// co-occurs too rarely to pass — so thresholds separate real verdicts,
/// not just all-or-nothing ones.
fn graded_db() -> TransactionDb {
    let mut txns = Vec::new();
    for i in 0..120u32 {
        let mut t = Vec::new();
        if i % 2 == 0 {
            t.extend([0, 1]); // bond 1.0, all-confidence 1.0
        }
        if i % 3 == 0 {
            t.extend([2, 3, 4]); // tight triple…
        }
        if i % 12 == 0 {
            t.push(2); // …with item 2 also occurring alone
        }
        if i % 4 == 0 {
            t.push(5);
        }
        if i % 6 == 0 {
            t.push(6); // {5,6} overlap on every 12th basket only
        }
        if i % 5 == 0 {
            t.push(7);
        }
        txns.push(t);
    }
    TransactionDb::from_ids(8, txns)
}

fn semantics_of(algorithm: Algorithm) -> Semantics {
    match algorithm {
        Algorithm::BmsPlus | Algorithm::BmsPlusPlus | Algorithm::Naive => Semantics::ValidMin,
        Algorithm::BmsStar | Algorithm::BmsStarStar | Algorithm::NaiveMinValid => {
            Semantics::MinValid
        }
    }
}

fn check_matrix(db: &TransactionDb, attrs: &AttributeTable, q: &CorrelationQuery) {
    let reference: HashMap<Semantics, Vec<Itemset>> = [Semantics::ValidMin, Semantics::MinValid]
        .into_iter()
        .map(|s| (s, reference_answers(db, attrs, q, s)))
        .collect();
    assert!(
        !reference[&Semantics::MinValid].is_empty() || !reference[&Semantics::ValidMin].is_empty(),
        "vacuous fixture: {} threshold {} found nothing",
        q.params.measure,
        q.params.confidence
    );
    for algorithm in ALL_ALGORITHMS {
        for strategy in STRATEGIES {
            let outcome = MiningSession::new(db, attrs)
                .mine(q, &MineRequest::new(algorithm).strategy(strategy))
                .unwrap();
            assert_eq!(
                sorted(&outcome.result.answers),
                reference[&semantics_of(algorithm)],
                "{algorithm:?} × {strategy} disagrees with the from-scratch \
                 reference under {} threshold {}",
                q.params.measure,
                q.params.confidence
            );
        }
    }
}

fn query(measure: Measure, threshold: f64, constraints: ConstraintSet) -> CorrelationQuery {
    CorrelationQuery {
        params: MiningParams {
            measure,
            confidence: threshold,
            support_fraction: 0.1,
            max_level: 4,
            ..MiningParams::paper()
        },
        constraints,
    }
}

#[test]
fn all_confidence_matrix_matches_brute_force() {
    let db = graded_db();
    let attrs = AttributeTable::with_identity_prices(8);
    // The acceptance setting: all-confidence at 0.6, unconstrained.
    check_matrix(
        &db,
        &attrs,
        &query(Measure::AllConfidence, 0.6, ConstraintSet::new()),
    );
    // A looser cutoff flips more pairs into the space.
    check_matrix(
        &db,
        &attrs,
        &query(Measure::AllConfidence, 0.3, ConstraintSet::new()),
    );
}

#[test]
fn bond_matrix_matches_brute_force() {
    let db = graded_db();
    let attrs = AttributeTable::with_identity_prices(8);
    check_matrix(
        &db,
        &attrs,
        &query(Measure::Bond, 0.1, ConstraintSet::new()),
    );
    check_matrix(
        &db,
        &attrs,
        &query(Measure::Bond, 0.5, ConstraintSet::new()),
    );
}

#[test]
fn constrained_downward_queries_agree() {
    let db = graded_db();
    let attrs = AttributeTable::with_identity_prices(8);
    // Mixed constraints split the semantics: anti-monotone max ≤ plus
    // monotone sum ≥, so BMS++ pushes, BMS*/BMS** sweep a genuine
    // phase 2, and VALID_MIN ≠ MIN_VALID.
    let mixed = ConstraintSet::new()
        .and(Constraint::max_le("price", 6.0))
        .and(Constraint::sum_ge("price", 3.0));
    check_matrix(
        &db,
        &attrs,
        &query(Measure::AllConfidence, 0.6, mixed.clone()),
    );
    check_matrix(&db, &attrs, &query(Measure::Bond, 0.2, mixed));
}

#[test]
fn xor_db_stays_pairwise_under_downward_measures() {
    // The XOR-planted fixture is the hard case for χ² (pairs look
    // independent, triples are dependent); under a downward measure the
    // minimal answers are pairs by theorem, and the matrix must agree
    // on exactly which ones.
    let db = common::db();
    let attrs = common::attrs();
    check_matrix(
        &db,
        &attrs,
        &query(Measure::AllConfidence, 0.4, ConstraintSet::new()),
    );
    check_matrix(
        &db,
        &attrs,
        &query(Measure::Bond, 0.15, ConstraintSet::new()),
    );
    for algorithm in ALL_ALGORITHMS {
        let q = query(Measure::AllConfidence, 0.4, ConstraintSet::new());
        let outcome = MiningSession::new(&db, &attrs)
            .mine(&q, &MineRequest::new(algorithm))
            .unwrap();
        for set in &outcome.result.answers {
            assert_eq!(set.len(), 2, "{algorithm:?} returned non-pair {set}");
        }
    }
}
