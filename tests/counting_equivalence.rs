//! Differential property test for the counting substrates.
//!
//! Every counting strategy — horizontal, vertical (tid-set
//! intersection), parallel, parallel-vertical (pool fan-out over
//! prefix-equivalence classes), sharded (horizontally partitioned tid
//! ranges with per-shard table merges), fp-tree (pattern growth over a
//! compressed prefix tree) — and every batch path (the default
//! per-candidate loop, the one-scan-per-level horizontal batch, the
//! prefix-sharing vertical batch, the fan-out parallel batch, the
//! projection-memoized fp-tree batch) must produce bit-identical
//! minterm counts on arbitrary databases, for candidate sets up to
//! k = 6. This is the invariant that lets the miners pick a strategy
//! freely.

use proptest::prelude::*;

use ccs::itemset::{
    available_workers, FpTreeCounter, HorizontalCounter, Itemset, MintermCounter, NoProbe,
    ParallelCounter, ParallelVerticalCounter, ShardedVerticalCounter, TransactionDb,
    VerticalCounter,
};

const N_ITEMS: u32 = 8;

fn db_strategy() -> impl Strategy<Value = TransactionDb> {
    proptest::collection::vec(proptest::collection::vec(0u32..N_ITEMS, 0..7), 0..80)
        .prop_map(|txns| TransactionDb::from_ids(N_ITEMS, txns))
}

/// Up to a dozen candidate sets of size 1..=6 over a small alphabet, so
/// shared (k−1)-prefixes — the vertical batch's equivalence classes —
/// occur often, alongside singletons and mixed sizes in one level.
fn sets_strategy() -> impl Strategy<Value = Vec<Itemset>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0u32..N_ITEMS, 1..=6usize),
        1..12,
    )
    .prop_map(|sets| sets.into_iter().map(Itemset::from_ids).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn all_strategies_and_batch_paths_agree(
        (db, sets) in (db_strategy(), sets_strategy())
    ) {
        // Reference: the paper-faithful horizontal scan, one set at a time.
        let mut reference = HorizontalCounter::new(&db);
        let expected: Vec<Vec<u64>> =
            sets.iter().map(|s| reference.minterm_counts(s)).collect();

        // Horizontal batch: one scan for the whole level.
        let mut horizontal = HorizontalCounter::new(&db);
        prop_assert_eq!(&horizontal.minterm_counts_batch(&sets), &expected);

        // Vertical, per candidate and prefix-sharing batch.
        let mut vertical = VerticalCounter::new(&db);
        let vertical_singles: Vec<Vec<u64>> =
            sets.iter().map(|s| vertical.minterm_counts(s)).collect();
        prop_assert_eq!(&vertical_singles, &expected);
        prop_assert_eq!(&vertical.minterm_counts_batch(&sets), &expected);

        // Parallel, across thread counts, per candidate and batched.
        for threads in [1usize, 2, 5] {
            let mut parallel = ParallelCounter::with_workers(&db, threads);
            parallel.set_work_floor(0); // fan out even on tiny inputs
            let parallel_singles: Vec<Vec<u64>> =
                sets.iter().map(|s| parallel.minterm_counts(s)).collect();
            prop_assert_eq!(&parallel_singles, &expected);
            prop_assert_eq!(&parallel.minterm_counts_batch(&sets), &expected);
        }

        // Parallel-vertical: prefix-equivalence classes drained on
        // several threads, swept across worker counts including the
        // machine's own parallelism, with the work floor zeroed so even
        // these small batches take the pooled path.
        for workers in [1usize, 2, available_workers()] {
            let mut counter = ParallelVerticalCounter::with_workers(&db, workers);
            counter.index_mut().set_work_floor(0);
            let par_singles: Vec<Vec<u64>> =
                sets.iter().map(|s| counter.minterm_counts(s)).collect();
            prop_assert_eq!(&par_singles, &expected);
            prop_assert_eq!(&counter.minterm_counts_batch(&sets), &expected);
        }

        // Sharded: horizontally partitioned tid ranges, per-shard tables
        // merged elementwise. Shard counts are deliberately not powers
        // of two so shard boundaries land mid-superblock and shards get
        // unequal lengths; the work floor is zeroed so even tiny batches
        // take the pooled merge path.
        for shards in [1usize, 2, 3, 7] {
            let mut counter = ShardedVerticalCounter::with_shards(&db, shards, 2);
            counter.index_mut().set_work_floor(0);
            let sharded_singles: Vec<Vec<u64>> =
                sets.iter().map(|s| counter.minterm_counts(s)).collect();
            prop_assert_eq!(&sharded_singles, &expected);
            prop_assert_eq!(&counter.minterm_counts_batch(&sets), &expected);
        }

        // FP-tree: pattern growth over the compressed prefix tree —
        // per candidate, projection-memoized batch, and the guarded
        // path under an inert probe.
        let mut fp_counter = FpTreeCounter::new(&db);
        let fp_singles: Vec<Vec<u64>> =
            sets.iter().map(|s| fp_counter.minterm_counts(s)).collect();
        prop_assert_eq!(&fp_singles, &expected);
        prop_assert_eq!(&fp_counter.minterm_counts_batch(&sets), &expected);
        let guarded = fp_counter.minterm_counts_batch_guarded(&sets, &NoProbe);
        prop_assert_eq!(&guarded.expect("NoProbe never interrupts"), &expected);
    }
}
