//! Criterion microbenchmarks for the substrate crates: tid-set kernels,
//! contingency-table counting (horizontal vs vertical — the DESIGN.md §5
//! counting ablation), chi-squared machinery, and candidate generation.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ccs_bench::DataMethod;
use ccs_itemset::{
    candidate, HorizontalCounter, Item, Itemset, ItemsetSet, MintermCounter, ParallelCounter,
    ParallelVerticalCounter, TidSet, VerticalCounter, WorkerPool,
};
use ccs_stats::{chi2_quantile, ContingencyTable};

/// A dense miner level: all `k`-subsets of consecutive `pool`-item
/// windows until `n` candidates exist — the shape `apriori_gen`
/// produces over a correlated item module, where every prefix class is
/// full and suffix items recur across members.
fn dense_level(n_items: u32, n: usize, k: usize, pool: u32) -> Vec<Itemset> {
    let mut sets: Vec<Itemset> = Vec::with_capacity(n);
    let mut base = 0u32;
    'outer: while sets.len() < n {
        assert!(
            base + pool <= n_items,
            "not enough items for {n} dense candidates"
        );
        for mask in 0u32..(1 << pool) {
            if mask.count_ones() as usize == k {
                sets.push(Itemset::from_ids(
                    (0..pool).filter(|b| mask >> b & 1 == 1).map(|b| base + b),
                ));
                if sets.len() == n {
                    break 'outer;
                }
            }
        }
        base += pool;
    }
    sets.sort_unstable();
    sets
}

fn bench_tidset(c: &mut Criterion) {
    let n = 100_000;
    let a = TidSet::from_ids(n, (0..n).step_by(3));
    let b = TidSet::from_ids(n, (0..n).step_by(5));
    c.bench_function("tidset/intersection_count_limited_100k", |bench| {
        bench.iter(|| black_box(&a).intersection_count_limited(black_box(&b), usize::MAX))
    });
    let (mut with, mut without) = (TidSet::new(n), TidSet::new(n));
    c.bench_function("tidset/split_into_100k", |bench| {
        bench.iter(|| black_box(&a).split_into(black_box(&b), &mut with, &mut without))
    });
}

fn bench_counting(c: &mut Criterion) {
    let db = DataMethod::Quest.generate(60, 5_000, 7);
    let set3 = Itemset::from_ids([1, 5, 9]);
    let mut group = c.benchmark_group("counting/table_3items_5k_baskets");
    group.bench_function("horizontal", |bench| {
        bench.iter(|| {
            let mut counter = HorizontalCounter::new(&db);
            black_box(counter.minterm_counts(black_box(&set3)))
        })
    });
    // Vertical: index built once (as the miner does), tables amortized.
    let mut vertical = VerticalCounter::new(&db);
    group.bench_function("vertical_amortized", |bench| {
        bench.iter(|| black_box(vertical.minterm_counts(black_box(&set3))))
    });
    group.finish();
}

/// The level-batched paths of every strategy against their per-candidate
/// loops: one 200-candidate level of 4-itemsets over 5k baskets.
fn bench_counting_batch(c: &mut Criterion) {
    let db = DataMethod::Quest.generate(60, 5_000, 7);
    let level = dense_level(60, 200, 4, 12);
    let mut group = c.benchmark_group("counting/level_200x4items_5k_baskets");
    group.sample_size(10);
    group.bench_function("horizontal_per_candidate", |bench| {
        bench.iter(|| {
            let mut counter = HorizontalCounter::new(&db);
            for set in &level {
                black_box(counter.minterm_counts(black_box(set)));
            }
        })
    });
    group.bench_function("horizontal_batch", |bench| {
        bench.iter(|| {
            let mut counter = HorizontalCounter::new(&db);
            black_box(counter.minterm_counts_batch(black_box(&level)))
        })
    });
    let mut vertical = VerticalCounter::new(&db);
    group.bench_function("vertical_per_candidate", |bench| {
        bench.iter(|| {
            for set in &level {
                black_box(vertical.minterm_counts(black_box(set)));
            }
        })
    });
    group.bench_function("vertical_batch", |bench| {
        bench.iter(|| black_box(vertical.minterm_counts_batch(black_box(&level))))
    });
    let mut parallel = ParallelCounter::with_available_parallelism(&db);
    group.bench_function("parallel_batch", |bench| {
        bench.iter(|| black_box(parallel.minterm_counts_batch(black_box(&level))))
    });
    let mut vertical_par = ParallelVerticalCounter::new(&db);
    vertical_par.index_mut().set_work_floor(0); // measure the pooled path
    group.bench_function("vertical_par_batch", |bench| {
        bench.iter(|| black_box(vertical_par.minterm_counts_batch(black_box(&level))))
    });
    group.finish();
}

/// The pool's fixed dispatch cost, isolated from counting work: an
/// empty-class batch (every candidate is a 0/1-item set answered inline
/// by the planner, so the pool is never engaged) against a same-size
/// batch of triples with the work floor zeroed. The triples have 32
/// distinct leading items, so they form 32 prefix classes and the batch
/// fans out over the bench's own 2-worker pool; setup asserts that it
/// did. The gap is what one fan-out costs end to end — the number the
/// `POOL_WORK_FLOOR` guard exists to amortise.
fn bench_pool_dispatch(c: &mut Criterion) {
    let db = DataMethod::Quest.generate(60, 1_000, 7);
    let mut group = c.benchmark_group("pool/dispatch_overhead");
    let trivial: Vec<Itemset> = (0..32u32).map(|i| Itemset::from_ids([i % 60])).collect();
    let triples: Vec<Itemset> = (0..32u32)
        .map(|i| Itemset::from_ids([i, i + 1, i + 2]))
        .collect();
    let pool = Arc::new(WorkerPool::new(2));
    let mut counter = ParallelVerticalCounter::with_pool(&db, Arc::clone(&pool));
    counter.index_mut().set_work_floor(0);
    let jobs_before = pool.jobs_run();
    black_box(counter.minterm_counts_batch(&triples));
    assert!(
        pool.jobs_run() > jobs_before,
        "the pooled batch ran on the calling thread"
    );
    group.bench_function("trivial_classes_inline", |bench| {
        bench.iter(|| black_box(counter.minterm_counts_batch(black_box(&trivial))))
    });
    group.bench_function("prefix_classes_pooled", |bench| {
        bench.iter(|| black_box(counter.minterm_counts_batch(black_box(&triples))))
    });
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    c.bench_function("stats/chi2_quantile_df4", |bench| {
        bench.iter(|| black_box(chi2_quantile(black_box(0.9), black_box(4))))
    });
    let table = ContingencyTable::from_counts(
        Itemset::from_ids([0, 1, 2]),
        vec![500, 80, 70, 40, 60, 30, 20, 200],
    );
    c.bench_function("stats/chi_squared_8cells", |bench| {
        bench.iter(|| black_box(&table).chi_squared())
    });
}

fn bench_candidates(c: &mut Criterion) {
    // A level of 500 pairs over 50 items, as the miners see it.
    let mut level = ItemsetSet::default();
    for i in 0..50u32 {
        for j in (i + 1)..50 {
            if (i + j) % 3 != 0 {
                level.insert(Itemset::from_ids([i, j]));
            }
        }
    }
    for size in [100usize, 400] {
        let subset: ItemsetSet = level.iter().take(size).cloned().collect();
        c.bench_with_input(
            BenchmarkId::new("candidate/apriori_gen", size),
            &subset,
            |bench, s| bench.iter(|| black_box(candidate::apriori_gen(black_box(s)))),
        );
    }

    // A BMS**-shaped level: ~1.4k SUPP₂ pairs over a 60-item universe,
    // every fourth item a witness, extended under the witness-subset
    // rule (each 2-subset holding a witness must be in the level).
    let universe: Vec<Item> = (0..60).map(Item::new).collect();
    let witness: Vec<bool> = (0..60).map(|i| i % 4 == 0).collect();
    let supp2: ItemsetSet = (0..60u32)
        .flat_map(|i| ((i + 1)..60).map(move |j| (i, j)))
        .filter(|&(i, j)| (i + j) % 5 != 0)
        .map(|(i, j)| Itemset::from_ids([i, j]))
        .collect();
    c.bench_function("candidate/extend_gen", |bench| {
        bench.iter(|| {
            let mut subset = Vec::new();
            black_box(candidate::extend_gen(
                black_box(&supp2),
                &universe,
                |cand| {
                    (0..cand.len()).all(|drop| {
                        candidate::drop_one_into(cand, drop, &mut subset);
                        !subset.iter().any(|i| witness[i.index()])
                            || supp2.contains(subset.as_slice())
                    })
                },
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_tidset,
    bench_counting,
    bench_counting_batch,
    bench_pool_dispatch,
    bench_stats,
    bench_candidates
);
criterion_main!(benches);
