//! Differential property tests for the FP-tree pattern-growth
//! substrate: conditional-projection counting must be bit-identical to
//! a scalar `BTreeSet` model that classifies every transaction into its
//! contingency cell directly, on arbitrary databases and candidate
//! levels — and guarded runs must keep exact completed-candidate
//! accounting with partials that are prefixes (per candidate) of the
//! unguarded answer.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ccs_itemset::counting::{BatchInterrupted, CountProbe};
use ccs_itemset::{FpTreeCounter, Itemset, MintermCounter, TransactionDb};

const N_ITEMS: u32 = 10;

/// The scalar model: for each transaction, membership of the `j`-th
/// smallest candidate item sets bit `j` of the cell index.
fn model_counts(db: &TransactionDb, set: &Itemset) -> Vec<u64> {
    let mut cells = vec![0u64; 1 << set.len()];
    for t in db.transactions() {
        let txn: BTreeSet<u32> = t.iter().map(|i| i.id()).collect();
        let mut cell = 0usize;
        for (j, item) in set.items().iter().enumerate() {
            if txn.contains(&item.id()) {
                cell |= 1 << j;
            }
        }
        cells[cell] += 1;
    }
    cells
}

/// Uniform random baskets, or baskets drawn from at most four profiles
/// (each draw toggling at most one item), so that a few distinct
/// baskets repeat many times and the tree's nodes carry large counts.
fn db_strategy() -> impl Strategy<Value = TransactionDb> {
    let uniform = proptest::collection::vec(proptest::collection::vec(0u32..N_ITEMS, 0..8), 0..100)
        .prop_map(|txns| TransactionDb::from_ids(N_ITEMS, txns));
    let profiled = (
        proptest::collection::vec(proptest::collection::vec(0u32..N_ITEMS, 0..8), 1..=4),
        proptest::collection::vec((0usize..4, 0u32..N_ITEMS + 2), 0..400),
    )
        .prop_map(|(profiles, draws)| {
            let txns = draws.into_iter().map(|(p, toggle)| {
                let mut t = profiles[p % profiles.len()].clone();
                if t.contains(&toggle) {
                    t.retain(|&i| i != toggle);
                } else if toggle < N_ITEMS {
                    t.push(toggle);
                }
                t
            });
            TransactionDb::from_ids(N_ITEMS, txns)
        });
    prop_oneof![uniform, profiled]
}

/// Candidate levels with deliberate prefix/suffix sharing (btree-set
/// sampling over a small alphabet), mixed sizes 0..=6 — including the
/// empty set and singletons, which take the trivial path.
fn sets_strategy() -> impl Strategy<Value = Vec<Itemset>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0u32..N_ITEMS, 0..=6usize),
        1..14,
    )
    .prop_map(|sets| sets.into_iter().map(Itemset::from_ids).collect())
}

/// A probe that flips to "stop" after a fixed number of charged cells,
/// like the real work-budget guard.
#[derive(Clone)]
struct Budget {
    cells: u64,
    spent: Arc<AtomicU64>,
}

impl CountProbe for Budget {
    fn should_stop(&self) -> bool {
        self.spent.load(Ordering::Relaxed) >= self.cells
    }
    fn charge(&self, cells: u64) -> bool {
        self.spent.fetch_add(cells, Ordering::Relaxed) + cells >= self.cells
    }
    fn share(&self) -> Arc<dyn CountProbe + Send + Sync> {
        Arc::new(self.clone())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn fptree_counts_match_the_scalar_model(
        (db, sets) in (db_strategy(), sets_strategy())
    ) {
        let expected: Vec<Vec<u64>> =
            sets.iter().map(|s| model_counts(&db, s)).collect();

        let mut counter = FpTreeCounter::new(&db);
        let singles: Vec<Vec<u64>> =
            sets.iter().map(|s| counter.minterm_counts(s)).collect();
        prop_assert_eq!(&singles, &expected);

        let mut counter = FpTreeCounter::new(&db);
        prop_assert_eq!(&counter.minterm_counts_batch(&sets), &expected);
        let total_cells: u64 = sets.iter().map(|s| 1u64 << s.len()).sum();
        prop_assert_eq!(counter.stats().tables_built, sets.len() as u64);
        prop_assert_eq!(counter.stats().cells_counted, total_cells);
    }

    #[test]
    fn guarded_trips_keep_exact_accounting(
        (db, sets, budget) in (db_strategy(), sets_strategy(), 1u64..200)
    ) {
        let mut counter = FpTreeCounter::new(&db);
        let probe = Budget { cells: budget, spent: Arc::default() };
        match counter.minterm_counts_batch_guarded(&sets, &probe) {
            Ok(results) => {
                // Completed batches are bit-identical to the model.
                let expected: Vec<Vec<u64>> =
                    sets.iter().map(|s| model_counts(&db, s)).collect();
                prop_assert_eq!(&results, &expected);
            }
            Err(BatchInterrupted { tables_completed, cells_completed }) => {
                // A trip reports fewer tables than the level and exactly
                // the cells of completed candidates — never a partial
                // table's worth.
                prop_assert!(tables_completed < sets.len() as u64);
                prop_assert!(cells_completed <= sets.iter().map(|s| 1u64 << s.len()).sum::<u64>());
                // The counter charges the same accounting into its stats.
                prop_assert_eq!(counter.stats().tables_built, tables_completed);
                prop_assert_eq!(counter.stats().cells_counted, cells_completed);
            }
        }
    }
}
