//! Per-algorithm behavioural tests, exercised from the outside: the
//! baseline through `run_bms`, every other algorithm through `mine_on`
//! on a horizontal counter the test owns, so each run passes the same
//! query preamble as a session query.
//!
//! These lived as unit-test modules inside each algorithm's source file
//! until the miners were unified onto the levelwise kernel; the
//! algorithm files now hold only policy code, and the behavioural
//! contracts are pinned here.

// Helper fns outside `#[test]` bodies still trip `unwrap_used`; in a
// test binary a panic is the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ccs_constraints::AttributeTable;
use ccs_constraints::{Constraint, ConstraintSet};
use ccs_core::params::MiningParams;
use ccs_core::query::{CorrelationQuery, MiningError, MiningResult};
use ccs_core::{mine_on, run_bms, Algorithm, MineRequest};
use ccs_itemset::{HorizontalCounter, Item, Itemset, MintermCounter, TransactionDb};

/// Runs `algorithm` on `q` through the one query preamble, counting on
/// `counter`.
fn mine(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    algorithm: Algorithm,
    counter: &mut dyn MintermCounter,
) -> Result<MiningResult, MiningError> {
    mine_on(db, attrs, q, &MineRequest::new(algorithm), counter)
}

mod bms {
    use super::*;

    /// A database where items 0 and 1 are perfectly correlated and item 2
    /// is independent noise.
    fn correlated_db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..40 {
            let mut t = if i % 2 == 0 { vec![0u32, 1] } else { vec![] };
            if i % 3 == 0 {
                t.push(2);
            }
            txns.push(t);
        }
        TransactionDb::from_ids(3, txns)
    }

    fn params() -> MiningParams {
        MiningParams {
            confidence: 0.9,
            support_fraction: 0.1,
            max_level: 6,
            ..MiningParams::paper()
        }
    }

    #[test]
    fn finds_the_planted_pair() {
        let db = correlated_db();
        let mut counter = HorizontalCounter::new(&db);
        let out = run_bms(&db, &params(), &mut counter).unwrap();
        assert!(
            out.sig.contains(&Itemset::from_ids([0, 1])),
            "planted pair not found; SIG = {:?}",
            out.sig
        );
    }

    #[test]
    fn independent_pairs_land_in_notsig() {
        let db = correlated_db();
        let mut counter = HorizontalCounter::new(&db);
        let out = run_bms(&db, &params(), &mut counter).unwrap();
        // {0,2} is independent: must not be in SIG.
        assert!(!out.sig.contains(&Itemset::from_ids([0, 2])));
    }

    #[test]
    fn sig_sets_are_minimal() {
        let db = correlated_db();
        let mut counter = HorizontalCounter::new(&db);
        let out = run_bms(&db, &params(), &mut counter).unwrap();
        for (i, a) in out.sig.iter().enumerate() {
            for b in &out.sig[i + 1..] {
                assert!(
                    !a.is_subset_of(b) && !b.is_subset_of(a),
                    "SIG contains nested sets {a} ⊆ {b}"
                );
            }
        }
    }

    #[test]
    fn metrics_count_tables() {
        let db = correlated_db();
        let mut counter = HorizontalCounter::new(&db);
        let out = run_bms(&db, &params(), &mut counter).unwrap();
        // 3 items → 3 pairs at level 2, plus whatever level 3 considered.
        assert!(out.metrics.tables_built >= 3);
        // Level-batched counting: at most one scan per level, never more
        // scans than tables.
        assert!(out.metrics.db_scans >= 1);
        assert!(out.metrics.db_scans <= out.metrics.tables_built);
        assert!(out.metrics.db_scans <= out.metrics.max_level_reached as u64);
        assert!(out.metrics.candidates_generated >= out.metrics.tables_built);
        assert!(out.metrics.max_level_reached >= 2);
    }

    #[test]
    fn item_support_filter_prunes_basis() {
        let db = correlated_db(); // item 2 support ~1/3, items 0,1 = 1/2
        let p = MiningParams {
            min_item_support: 0.4,
            ..params()
        };
        let mut counter = HorizontalCounter::new(&db);
        let out = run_bms(&db, &p, &mut counter).unwrap();
        assert_eq!(out.level1, vec![Item(0), Item(1)]);
    }

    #[test]
    fn empty_database_yields_nothing() {
        let db = TransactionDb::from_ids(4, Vec::<Vec<u32>>::new());
        let mut counter = HorizontalCounter::new(&db);
        let out = run_bms(&db, &params(), &mut counter).unwrap();
        // With zero transactions every table is all-zeros: chi2 = 0, so
        // nothing is correlated.
        assert!(out.sig.is_empty());
    }

    #[test]
    fn out_of_range_params_are_an_error() {
        let db = correlated_db();
        let mut counter = HorizontalCounter::new(&db);
        let p = MiningParams {
            support_fraction: 1.5,
            ..params()
        };
        let err = run_bms(&db, &p, &mut counter).unwrap_err();
        assert!(matches!(err, MiningError::Params(_)), "{err}");
        let p = MiningParams {
            max_level: 1,
            ..params()
        };
        assert!(matches!(
            run_bms(&db, &p, &mut counter),
            Err(MiningError::Params(_))
        ));
        assert_eq!(counter.stats().tables_built, 0, "nothing was counted");
    }
}

mod bms_plus {
    use super::*;

    /// Items 0–1 and 2–3 perfectly correlated pairs; price of item i = i+1.
    fn db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..60 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.extend([0u32, 1]);
            }
            if i % 3 == 0 {
                t.extend([2, 3]);
            }
            txns.push(t);
        }
        TransactionDb::from_ids(4, txns)
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

    #[test]
    fn unconstrained_returns_all_minimal_correlated() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(4);
        let mut c = HorizontalCounter::new(&db);
        let r = mine(
            &db,
            &attrs,
            &query(ConstraintSet::new()),
            Algorithm::BmsPlus,
            &mut c,
        )
        .unwrap();
        assert!(r.contains(&Itemset::from_ids([0, 1])));
        assert!(r.contains(&Itemset::from_ids([2, 3])));
    }

    #[test]
    fn constraints_filter_answers() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(4);
        // max price ≤ 2 keeps only items {0, 1} (prices 1, 2).
        let cs = ConstraintSet::new().and(Constraint::max_le("price", 2.0));
        let mut c = HorizontalCounter::new(&db);
        let r = mine(&db, &attrs, &query(cs), Algorithm::BmsPlus, &mut c).unwrap();
        assert!(r.contains(&Itemset::from_ids([0, 1])));
        assert!(!r.contains(&Itemset::from_ids([2, 3])));
    }

    #[test]
    fn avg_constraint_is_rejected() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(4);
        let cs = ConstraintSet::new().and(Constraint::Avg {
            attr: "price".into(),
            cmp: ccs_constraints::Cmp::Le,
            value: 2.0,
        });
        let mut c = HorizontalCounter::new(&db);
        assert_eq!(
            mine(&db, &attrs, &query(cs), Algorithm::BmsPlus, &mut c),
            Err(MiningError::NonMonotoneConstraint)
        );
    }

    #[test]
    fn work_is_independent_of_constraints() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(4);
        let mut c1 = HorizontalCounter::new(&db);
        let r1 = mine(
            &db,
            &attrs,
            &query(ConstraintSet::new()),
            Algorithm::BmsPlus,
            &mut c1,
        )
        .unwrap();
        // Selective but satisfiable: only the pair {0, 1} is valid. (A
        // provably empty query, such as `max ≤ 1` with one item under the
        // cap, is answered by the preamble without counting.)
        let cs = ConstraintSet::new().and(Constraint::max_le("price", 2.0));
        let mut c2 = HorizontalCounter::new(&db);
        let r2 = mine(&db, &attrs, &query(cs), Algorithm::BmsPlus, &mut c2).unwrap();
        assert_eq!(r1.metrics.tables_built, r2.metrics.tables_built);
    }
}

mod bms_plus_plus {
    use super::*;

    fn db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..60 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.extend([0u32, 1]);
            }
            if i % 3 == 0 {
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

    fn attrs() -> AttributeTable {
        AttributeTable::with_identity_prices(5)
    }

    /// BMS++ must agree with BMS+ on every constraint mix (Theorem 2.1).
    fn assert_agrees_with_bms_plus(cs: ConstraintSet) {
        let db = db();
        let attrs = attrs();
        let q = query(cs);
        let mut c1 = HorizontalCounter::new(&db);
        let plus = mine(&db, &attrs, &q, Algorithm::BmsPlus, &mut c1).unwrap();
        let mut c2 = HorizontalCounter::new(&db);
        let pp = mine(&db, &attrs, &q, Algorithm::BmsPlusPlus, &mut c2).unwrap();
        assert_eq!(
            plus.answers, pp.answers,
            "BMS+ vs BMS++ for {}",
            q.constraints
        );
        // BMS++ never considers more sets, up to the one verification
        // table a single-witness SIG candidate may cost (see the module
        // docs) — a bounded overhead of at most one table per answer.
        assert!(
            pp.metrics.tables_built <= plus.metrics.tables_built + pp.answers.len() as u64,
            "|BMS++| = {} > |BMS+| = {} + {} answers",
            pp.metrics.tables_built,
            plus.metrics.tables_built,
            pp.answers.len()
        );
    }

    #[test]
    fn agrees_unconstrained() {
        assert_agrees_with_bms_plus(ConstraintSet::new());
    }

    #[test]
    fn agrees_with_am_succinct_constraint() {
        assert_agrees_with_bms_plus(ConstraintSet::new().and(Constraint::max_le("price", 2.0)));
        assert_agrees_with_bms_plus(ConstraintSet::new().and(Constraint::max_le("price", 4.0)));
        assert_agrees_with_bms_plus(ConstraintSet::new().and(Constraint::min_ge("price", 3.0)));
    }

    #[test]
    fn agrees_with_am_nonsuccinct_constraint() {
        assert_agrees_with_bms_plus(ConstraintSet::new().and(Constraint::sum_le("price", 3.0)));
        assert_agrees_with_bms_plus(ConstraintSet::new().and(Constraint::sum_le("price", 7.0)));
    }

    #[test]
    fn agrees_with_monotone_succinct_constraint() {
        assert_agrees_with_bms_plus(ConstraintSet::new().and(Constraint::min_le("price", 1.0)));
        assert_agrees_with_bms_plus(ConstraintSet::new().and(Constraint::min_le("price", 3.0)));
        assert_agrees_with_bms_plus(ConstraintSet::new().and(Constraint::max_ge("price", 4.0)));
    }

    #[test]
    fn agrees_with_monotone_nonsuccinct_constraint() {
        assert_agrees_with_bms_plus(ConstraintSet::new().and(Constraint::sum_ge("price", 5.0)));
    }

    #[test]
    fn agrees_with_mixed_constraints() {
        assert_agrees_with_bms_plus(
            ConstraintSet::new()
                .and(Constraint::max_le("price", 4.0))
                .and(Constraint::sum_ge("price", 3.0)),
        );
        assert_agrees_with_bms_plus(
            ConstraintSet::new()
                .and(Constraint::sum_le("price", 7.0))
                .and(Constraint::min_le("price", 2.0)),
        );
    }

    #[test]
    fn succinct_am_constraint_prunes_tables() {
        let db = db();
        let attrs = attrs();
        // Only items 0,1 allowed: BMS++ builds 1 pair table (+ nothing
        // above), BMS+ builds all 10.
        let q = query(ConstraintSet::new().and(Constraint::max_le("price", 2.0)));
        let mut c2 = HorizontalCounter::new(&db);
        let pp = mine(&db, &attrs, &q, Algorithm::BmsPlusPlus, &mut c2).unwrap();
        let mut c1 = HorizontalCounter::new(&db);
        let plus = mine(&db, &attrs, &q, Algorithm::BmsPlus, &mut c1).unwrap();
        assert!(pp.metrics.tables_built < plus.metrics.tables_built / 2);
    }

    #[test]
    fn single_witness_candidates_share_one_residue_table() {
        // Items 2 and 3 are both `0 XOR 1`: the pairs over {0,1,2,3} are
        // independent except {2,3}, while {0,1,2} and {0,1,3} are
        // correlated. Under `max(price) ≥ 3` only 2 and 3 are witnesses,
        // so both triples are single-witness SIG candidates whose residue
        // is {0,1}; the epilogue counts that residue once.
        let txns: Vec<Vec<u32>> = (0..64u32)
            .map(|i| {
                let (a, b) = (i & 1, (i >> 1) & 1);
                let mut t = Vec::new();
                if a == 1 {
                    t.push(0);
                }
                if b == 1 {
                    t.push(1);
                }
                if a ^ b == 1 {
                    t.extend([2, 3]);
                }
                t
            })
            .collect();
        let db = TransactionDb::from_ids(4, txns);
        let attrs = AttributeTable::with_identity_prices(4);
        let q = query(ConstraintSet::new().and(Constraint::max_ge("price", 3.0)));
        let mut c = HorizontalCounter::new(&db);
        let pp = mine(&db, &attrs, &q, Algorithm::BmsPlusPlus, &mut c).unwrap();
        // {0,1} is uncorrelated, so both triples stay minimal.
        let expected = [[0, 1, 2].as_slice(), &[0, 1, 3], &[2, 3]]
            .map(|ids| Itemset::from_ids(ids.iter().copied()));
        assert_eq!(pp.answers, expected);
        // 5 pairs and 2 triples in the sweep, plus one residue table; the
        // second SIG candidate's residue is a repeat.
        assert_eq!(pp.metrics.tables_built, 8);
        assert_eq!(pp.metrics.cache_hits, 1);
    }

    #[test]
    fn a_candidate_whose_largest_item_is_its_only_witness_is_generated() {
        // Items 0-3 are four independent fair bits and item 4 is
        // `0 XOR 1`. Under `max(price) >= 5` item 4 is the only witness,
        // so the level-3 candidate {0,1,4} minus its largest item holds
        // no witness: `witness_gen` reaches it only from {0,4} extended
        // by the non-witness 1 below 4. Every pair is independent and
        // {0,1,4} is correlated.
        let txns: Vec<Vec<u32>> = (0..64u32)
            .map(|i| {
                let mut t: Vec<u32> = (0..4).filter(|b| i >> b & 1 == 1).collect();
                if (i ^ i >> 1) & 1 == 1 {
                    t.push(4);
                }
                t
            })
            .collect();
        let db = TransactionDb::from_ids(5, txns);
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new().and(Constraint::max_ge("price", 5.0)));
        let mut c = HorizontalCounter::new(&db);
        let pp = mine(&db, &attrs, &q, Algorithm::BmsPlusPlus, &mut c).unwrap();
        let mut c = HorizontalCounter::new(&db);
        let naive = mine(&db, &attrs, &q, Algorithm::Naive, &mut c).unwrap();
        assert_eq!(pp.answers, naive.answers);
        assert_eq!(pp.answers, vec![Itemset::from_ids([0, 1, 4])]);
        // The 4 pairs with item 4, the 6 triples with it, and the 2
        // quadruples {0,2,3,4} and {1,2,3,4} over uncorrelated triples.
        assert_eq!(pp.metrics.candidates_generated, 12);
    }

    #[test]
    fn avg_constraint_is_rejected() {
        let db = db();
        let attrs = attrs();
        let q = query(ConstraintSet::new().and(Constraint::Avg {
            attr: "price".into(),
            cmp: ccs_constraints::Cmp::Le,
            value: 2.0,
        }));
        let mut c = HorizontalCounter::new(&db);
        assert_eq!(
            mine(&db, &attrs, &q, Algorithm::BmsPlusPlus, &mut c),
            Err(MiningError::NonMonotoneConstraint)
        );
    }
}

mod bms_star {
    use super::*;

    fn db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..60 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.extend([0u32, 1]);
            }
            if i % 3 == 0 {
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

    fn assert_agrees_with_naive(cs: ConstraintSet) {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(cs);
        let mut c1 = HorizontalCounter::new(&db);
        let star = mine(&db, &attrs, &q, Algorithm::BmsStar, &mut c1).unwrap();
        let mut c2 = HorizontalCounter::new(&db);
        let naive = mine(&db, &attrs, &q, Algorithm::NaiveMinValid, &mut c2).unwrap();
        assert_eq!(
            star.answers, naive.answers,
            "BMS* vs naive for {}",
            q.constraints
        );
    }

    #[test]
    fn agrees_unconstrained() {
        assert_agrees_with_naive(ConstraintSet::new());
    }

    #[test]
    fn agrees_with_anti_monotone_constraints() {
        assert_agrees_with_naive(ConstraintSet::new().and(Constraint::max_le("price", 4.0)));
        assert_agrees_with_naive(ConstraintSet::new().and(Constraint::sum_le("price", 5.0)));
    }

    #[test]
    fn agrees_with_monotone_constraints() {
        assert_agrees_with_naive(ConstraintSet::new().and(Constraint::sum_ge("price", 5.0)));
        assert_agrees_with_naive(ConstraintSet::new().and(Constraint::min_le("price", 2.0)));
        assert_agrees_with_naive(ConstraintSet::new().and(Constraint::max_ge("price", 4.0)));
    }

    #[test]
    fn agrees_with_mixed_constraints() {
        assert_agrees_with_naive(
            ConstraintSet::new()
                .and(Constraint::max_le("price", 4.0))
                .and(Constraint::sum_ge("price", 4.0)),
        );
    }

    #[test]
    fn monotone_constraint_can_grow_answers() {
        // sum(price) ≥ 8 is unreachable for the correlated pairs
        // ({0,1}: 3; {2,3}: 7) — answers must be strict supersets.
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new().and(Constraint::sum_ge("price", 8.0)));
        let mut c = HorizontalCounter::new(&db);
        let star = mine(&db, &attrs, &q, Algorithm::BmsStar, &mut c).unwrap();
        for a in &star.answers {
            assert!(a.len() >= 3, "answer {a} should be a grown set");
        }
        let mut c2 = HorizontalCounter::new(&db);
        let naive = mine(&db, &attrs, &q, Algorithm::NaiveMinValid, &mut c2).unwrap();
        assert_eq!(star.answers, naive.answers);
    }

    #[test]
    fn avg_constraint_is_rejected() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new().and(Constraint::Avg {
            attr: "price".into(),
            cmp: ccs_constraints::Cmp::Le,
            value: 2.0,
        }));
        let mut c = HorizontalCounter::new(&db);
        assert_eq!(
            mine(&db, &attrs, &q, Algorithm::BmsStar, &mut c),
            Err(MiningError::NonMonotoneConstraint)
        );
    }
}

mod bms_star_star {
    use super::*;

    fn db() -> TransactionDb {
        let mut txns = Vec::new();
        for i in 0..60 {
            let mut t = Vec::new();
            if i % 2 == 0 {
                t.extend([0u32, 1]);
            }
            if i % 3 == 0 {
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

    fn assert_agrees(cs: ConstraintSet) {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(cs);
        let mut c1 = HorizontalCounter::new(&db);
        let ss = mine(&db, &attrs, &q, Algorithm::BmsStarStar, &mut c1).unwrap();
        let mut c2 = HorizontalCounter::new(&db);
        let naive = mine(&db, &attrs, &q, Algorithm::NaiveMinValid, &mut c2).unwrap();
        assert_eq!(
            ss.answers, naive.answers,
            "BMS** vs naive for {}",
            q.constraints
        );
        let mut c3 = HorizontalCounter::new(&db);
        let star = mine(&db, &attrs, &q, Algorithm::BmsStar, &mut c3).unwrap();
        assert_eq!(
            ss.answers, star.answers,
            "BMS** vs BMS* for {}",
            q.constraints
        );
    }

    #[test]
    fn agrees_unconstrained() {
        assert_agrees(ConstraintSet::new());
    }

    #[test]
    fn agrees_with_anti_monotone_constraints() {
        assert_agrees(ConstraintSet::new().and(Constraint::max_le("price", 4.0)));
        assert_agrees(ConstraintSet::new().and(Constraint::sum_le("price", 5.0)));
        assert_agrees(ConstraintSet::new().and(Constraint::min_ge("price", 2.0)));
    }

    #[test]
    fn agrees_with_monotone_constraints() {
        assert_agrees(ConstraintSet::new().and(Constraint::min_le("price", 2.0)));
        assert_agrees(ConstraintSet::new().and(Constraint::max_ge("price", 4.0)));
        assert_agrees(ConstraintSet::new().and(Constraint::sum_ge("price", 5.0)));
        assert_agrees(ConstraintSet::new().and(Constraint::sum_ge("price", 8.0)));
    }

    #[test]
    fn agrees_with_mixed_constraints() {
        assert_agrees(
            ConstraintSet::new()
                .and(Constraint::max_le("price", 4.0))
                .and(Constraint::sum_ge("price", 4.0)),
        );
        assert_agrees(
            ConstraintSet::new()
                .and(Constraint::sum_le("price", 9.0))
                .and(Constraint::min_le("price", 3.0)),
        );
    }

    #[test]
    fn high_selectivity_makes_star_star_consider_more_sets() {
        // With a barely-selective monotone constraint, BMS** enumerates
        // the whole CT-supported region while BMS* stops at the
        // correlation border — the §3.3 crossover, seen from the BMS*
        // side.
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new().and(Constraint::min_le("price", 5.0)));
        let mut c1 = HorizontalCounter::new(&db);
        let ss = mine(&db, &attrs, &q, Algorithm::BmsStarStar, &mut c1).unwrap();
        let mut c2 = HorizontalCounter::new(&db);
        let star = mine(&db, &attrs, &q, Algorithm::BmsStar, &mut c2).unwrap();
        assert_eq!(ss.answers, star.answers);
        assert!(
            ss.metrics.tables_built >= star.metrics.tables_built,
            "expected |BMS**| ≥ |BMS*| at selectivity 1.0: {} vs {}",
            ss.metrics.tables_built,
            star.metrics.tables_built
        );
    }

    #[test]
    fn phase_2_answers_from_the_verdict_cache() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new());
        let mut c = HorizontalCounter::new(&db);
        let ss = mine(&db, &attrs, &q, Algorithm::BmsStarStar, &mut c).unwrap();
        // Every phase-2 evaluation revisits a set phase 1 judged, so the
        // sweep must be answered entirely from the recorded verdicts...
        assert!(
            ss.metrics.cache_hits > 0,
            "phase 2 built tables instead of hitting the cache"
        );
        // ...and the metrics' table count is the counter's own: hits
        // never pass as tables.
        assert_eq!(ss.metrics.tables_built, c.stats().tables_built);
    }

    #[test]
    fn avg_constraint_is_rejected() {
        let db = db();
        let attrs = AttributeTable::with_identity_prices(5);
        let q = query(ConstraintSet::new().and(Constraint::Avg {
            attr: "price".into(),
            cmp: ccs_constraints::Cmp::Le,
            value: 2.0,
        }));
        let mut c = HorizontalCounter::new(&db);
        assert_eq!(
            mine(&db, &attrs, &q, Algorithm::BmsStarStar, &mut c),
            Err(MiningError::NonMonotoneConstraint)
        );
    }
}
