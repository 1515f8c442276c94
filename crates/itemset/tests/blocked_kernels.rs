//! Differential proptests for the blocked tid-set substrate.
//!
//! The tid-set kernels are written as remainder-free 8×u64 superblock
//! loops with per-superblock population hints (DESIGN.md §6.3); every
//! one of them must remain bit-identical to the obvious scalar model —
//! a sorted set of tids — across capacities that exercise partial tail
//! blocks (capacity ∤ 64), partial tail superblocks (capacity ∤ 512),
//! and multi-superblock bitmaps. On top of the kernels, the horizontally
//! sharded index must merge per-shard contingency tables into exactly
//! the unsharded counts for shard counts that do not divide anything
//! evenly, and [`CountingStats`] shard-merge must be associative and
//! order-independent, since per-shard deltas arrive in whatever order
//! the pool finishes them.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use ccs_itemset::{
    CountingStats, Itemset, MintermCounter, ShardedVerticalCounter, TidSet, TransactionDb,
    VerticalCounter, WorkerPool,
};

/// Capacities biased toward the layout's seams: block boundaries (64),
/// superblock boundaries (512), and their immediate neighbourhoods,
/// alongside a general multi-superblock range.
fn capacity_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..8,       // sub-word
        60usize..70,     // first block boundary
        120usize..132,   // interior block boundary
        505usize..520,   // first superblock boundary
        1015usize..1040, // second superblock boundary
        1usize..1300,    // general
    ]
}

/// Raw tids over the whole capacity domain; the test clips them to the
/// drawn capacity (the vendored proptest stand-in has no
/// `prop_flat_map`, so strategies cannot depend on each other).
fn tids_strategy() -> impl Strategy<Value = BTreeSet<usize>> {
    proptest::collection::btree_set(0usize..1300, 0..=128)
}

fn clip(raw: &BTreeSet<usize>, capacity: usize) -> BTreeSet<usize> {
    raw.iter().copied().filter(|&t| t < capacity).collect()
}

fn collect(set: &TidSet) -> BTreeSet<usize> {
    set.iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn blocked_kernels_match_the_scalar_model(
        (cap, raw_a, raw_b, raw_c, limit) in (
            capacity_strategy(),
            tids_strategy(),
            tids_strategy(),
            tids_strategy(),
            0usize..1302,
        )
    ) {
        let (ma, mb, mc) = (clip(&raw_a, cap), clip(&raw_b, cap), clip(&raw_c, cap));
        let a = TidSet::from_ids(cap, ma.iter().copied());
        let b = TidSet::from_ids(cap, mb.iter().copied());
        let c = TidSet::from_ids(cap, mc.iter().copied());

        // Construction round-trips through the model, and the hint-summed
        // count agrees with it.
        prop_assert_eq!(collect(&a), ma.clone());
        prop_assert_eq!(a.count(), ma.len());
        prop_assert_eq!(TidSet::full(cap).count(), cap);

        // The fused triple-intersection kernel.
        let inter: BTreeSet<usize> = ma.intersection(&mb).copied().collect();
        let triple = ma.iter().filter(|t| mb.contains(t) && mc.contains(t)).count();
        prop_assert_eq!(a.triple_intersection_count(&b, &c), triple);

        // The limited kernel: exact below the limit, saturating (but
        // never over-counting) at or above it, and exact whenever the
        // limit is a true upper bound.
        let limited = a.intersection_count_limited(&b, limit);
        prop_assert!(limited <= inter.len());
        if limited < limit {
            prop_assert_eq!(limited, inter.len());
        } else {
            prop_assert!(limited >= limit);
        }
        prop_assert_eq!(a.intersection_count_limited(&b, ma.len()), inter.len());

        // The fused split, into deliberately dirty scratch so stale
        // superblocks must be overwritten (or zero-filled on the empty-
        // source fast path).
        let mut with = TidSet::full(cap);
        let mut without_set = TidSet::full(cap);
        a.split_into(&b, &mut with, &mut without_set);
        let model_without: BTreeSet<usize> = ma.difference(&mb).copied().collect();
        prop_assert_eq!(with.count(), inter.len());
        prop_assert_eq!(without_set.count(), model_without.len());
        prop_assert_eq!(collect(&with), inter);
        prop_assert_eq!(collect(&without_set), model_without);
    }
}

const N_ITEMS: u32 = 8;

fn db_strategy() -> impl Strategy<Value = TransactionDb> {
    proptest::collection::vec(proptest::collection::vec(0u32..N_ITEMS, 0..7), 0..80)
        .prop_map(|txns| TransactionDb::from_ids(N_ITEMS, txns))
}

fn sets_strategy() -> impl Strategy<Value = Vec<Itemset>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0u32..N_ITEMS, 1..=5usize),
        1..10,
    )
    .prop_map(|sets| sets.into_iter().map(Itemset::from_ids).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn shard_merged_counts_match_the_unsharded_index(
        (db, sets) in (db_strategy(), sets_strategy())
    ) {
        let mut reference = VerticalCounter::new(&db);
        let expected = reference.minterm_counts_batch(&sets);
        // Deliberately non-power-of-two shard counts: boundaries land
        // mid-superblock and shard lengths come out unequal.
        for shards in [1usize, 2, 3, 7] {
            let mut counter = ShardedVerticalCounter::with_pool(&db, shards, Arc::new(WorkerPool::new(2)));
            counter.index_mut().set_work_floor(0);
            prop_assert_eq!(
                &counter.minterm_counts_batch(&sets),
                &expected,
                "{} shards diverged", shards
            );
        }
    }
}

fn stats_strategy() -> impl Strategy<Value = CountingStats> {
    // Small enough that no sum of eight can overflow.
    let f = 0u64..1 << 20;
    (f.clone(), f.clone(), f.clone(), f.clone(), f).prop_map(
        |(tables_built, db_scans, transactions_visited, cells_counted, degraded_batches)| {
            CountingStats {
                tables_built,
                db_scans,
                transactions_visited,
                cells_counted,
                degraded_batches,
            }
        },
    )
}

fn sum(deltas: &[CountingStats]) -> CountingStats {
    let mut acc = CountingStats::default();
    for d in deltas {
        acc += d;
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn stats_shard_merge_is_associative_and_order_independent(
        deltas in proptest::collection::vec(stats_strategy(), 1..8),
        split in 0usize..8,
    ) {
        // Order-independence: per-shard deltas arrive in pool completion
        // order, so any permutation must merge to the same totals.
        let mut reversed = deltas.clone();
        reversed.reverse();
        prop_assert_eq!(sum(&deltas), sum(&reversed));

        // Associativity: merging shard subtotals (as the sharded batch
        // does per class) equals merging every delta directly.
        let mid = split.min(deltas.len());
        let mut grouped = sum(&deltas[..mid]);
        grouped += sum(&deltas[mid..]);
        prop_assert_eq!(grouped, sum(&deltas));
    }
}
