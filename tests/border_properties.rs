//! Property tests for the solution-space borders: on random databases
//! and constraints, the sandwich membership test must match the direct
//! definition for every itemset, and the borders must be antichains of
//! actual space members.

use std::collections::BTreeSet;

use proptest::prelude::*;

use ccs::itemset::{
    BatchInterrupted, CountProbe, CountingStats, HorizontalCounter, MintermCounter, VerticalCounter,
};
use ccs::prelude::*;

const N_ITEMS: u32 = 5;

fn db_strategy() -> impl Strategy<Value = TransactionDb> {
    (
        proptest::collection::vec(proptest::collection::vec(0u32..N_ITEMS, 0..4), 20..50),
        0u32..3,
        2u32..4,
    )
        .prop_map(|(mut txns, p, every)| {
            for (i, t) in txns.iter_mut().enumerate() {
                if (i as u32).is_multiple_of(every) {
                    t.push(p);
                    t.push(p + 1);
                }
            }
            TransactionDb::from_ids(N_ITEMS, txns)
        })
}

fn constraint_strategy() -> impl Strategy<Value = Constraint> {
    (0usize..6, 1.0f64..6.0).prop_map(|(kind, c)| match kind {
        0 => Constraint::max_le("price", c),
        1 => Constraint::min_ge("price", c),
        2 => Constraint::sum_le("price", c * 2.0),
        3 => Constraint::min_le("price", c),
        4 => Constraint::max_ge("price", c),
        _ => Constraint::sum_ge("price", c * 2.0),
    })
}

fn query(c: Constraint) -> CorrelationQuery {
    CorrelationQuery {
        params: MiningParams {
            confidence: 0.9,
            support_fraction: 0.15,
            max_level: 5, // == N_ITEMS, so sweeps never truncate
            ..MiningParams::paper()
        },
        constraints: ConstraintSet::new().and(c),
    }
}

/// Direct space membership from the definitions.
fn in_space_direct(
    db: &TransactionDb,
    q: &CorrelationQuery,
    attrs: &AttributeTable,
    set: &Itemset,
) -> bool {
    let mut counter = HorizontalCounter::new(db);
    let table = ContingencyTable::build(&mut counter, set);
    table.is_ct_supported(q.params.support_abs(db.len()), q.params.ct_fraction)
        && table.is_correlated(q.params.confidence)
        && q.constraints.satisfied(set, attrs)
}

/// A horizontal counter that records the sizes of the sets it counts:
/// the number of lattice levels whose candidates reached the counter.
struct LevelRecorder<'a> {
    inner: HorizontalCounter<'a>,
    sizes: BTreeSet<usize>,
}

impl MintermCounter for LevelRecorder<'_> {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        self.sizes.insert(set.len());
        self.inner.minterm_counts(set)
    }

    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        self.sizes.extend(sets.iter().map(Itemset::len));
        self.inner.minterm_counts_batch_guarded(sets, probe)
    }

    fn n_transactions(&self) -> usize {
        self.inner.n_transactions()
    }

    fn stats(&self) -> CountingStats {
        self.inner.stats()
    }
}

fn all_sets() -> Vec<Itemset> {
    let mut out = Vec::new();
    for mask in 1u32..(1 << N_ITEMS) {
        if mask.count_ones() >= 2 {
            out.push(Itemset::from_ids(
                (0..N_ITEMS).filter(|i| mask & (1 << i) != 0),
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn sandwich_test_matches_direct_membership(
        db in db_strategy(),
        c in constraint_strategy(),
    ) {
        let attrs = AttributeTable::with_identity_prices(N_ITEMS);
        let q = query(c);
        let mut counter = LevelRecorder {
            inner: HorizontalCounter::new(&db),
            sizes: BTreeSet::new(),
        };
        let space = solution_space(&db, &attrs, &q, &mut counter).unwrap();
        prop_assert!(!space.truncated);
        // One counting batch, hence one horizontal scan, per swept level.
        prop_assert_eq!(space.metrics.db_scans, counter.sizes.len() as u64);
        let mut vertical = VerticalCounter::new(&db);
        let by_tidsets = solution_space(&db, &attrs, &q, &mut vertical).unwrap();
        prop_assert_eq!(&by_tidsets.minimal, &space.minimal);
        prop_assert_eq!(&by_tidsets.maximal, &space.maximal);
        prop_assert_eq!(by_tidsets.truncated, space.truncated);
        for set in all_sets() {
            prop_assert_eq!(
                space.contains(&set),
                in_space_direct(&db, &q, &attrs, &set),
                "sandwich mismatch for {} under {}", set, q.constraints
            );
        }
    }

    #[test]
    fn borders_are_antichains_of_members(
        db in db_strategy(),
        c in constraint_strategy(),
    ) {
        let attrs = AttributeTable::with_identity_prices(N_ITEMS);
        let q = query(c);
        let mut counter = HorizontalCounter::new(&db);
        let space = solution_space(&db, &attrs, &q, &mut counter).unwrap();
        for border in [&space.minimal, &space.maximal] {
            for (i, a) in border.iter().enumerate() {
                prop_assert!(in_space_direct(&db, &q, &attrs, a), "{} not a member", a);
                for b in &border[i + 1..] {
                    prop_assert!(!a.is_subset_of(b) && !b.is_subset_of(a));
                }
            }
        }
    }
}
