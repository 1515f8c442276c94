//! Criterion benchmarks for whole mining runs: the four paper algorithms
//! on both data methods, plus the horizontal-vs-vertical counting
//! ablation on a full run.

// A failed mining run aborts the benchmark; criterion has no error path,
// so a panic is the failure report.
#![allow(clippy::unwrap_used)]

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ccs_bench::{paper_mining_params, DataMethod};
use ccs_constraints::{AttributeTable, Constraint, ConstraintSet};
use ccs_core::{
    run_bms, Algorithm, CorrelationQuery, CountingStrategy, MineRequest, MiningSession,
};
use ccs_itemset::{HorizontalCounter, ParallelCounter, VerticalCounter};

const N_ITEMS: u32 = 30;
const N_BASKETS: usize = 1_000;

fn query(constraints: ConstraintSet) -> CorrelationQuery {
    CorrelationQuery {
        params: paper_mining_params(),
        constraints,
    }
}

fn bench_algorithms(c: &mut Criterion) {
    let attrs = AttributeTable::with_identity_prices(N_ITEMS);
    for method in DataMethod::both() {
        let db = method.generate(N_ITEMS, N_BASKETS, 11);
        let mut group = c.benchmark_group(format!("mine/{}", method.label()));
        group.sample_size(10);
        // Anti-monotone + succinct constraint at 50% selectivity — the
        // Figure 1 configuration.
        let cs = ConstraintSet::new().and(Constraint::max_le("price", N_ITEMS as f64 / 2.0));
        for algo in Algorithm::paper_algorithms() {
            group.bench_with_input(
                BenchmarkId::new("am_succinct", algo.name()),
                &algo,
                |b, &a| {
                    b.iter(|| {
                        MiningSession::new(black_box(&db), &attrs)
                            .mine(
                                &query(cs.clone()),
                                &MineRequest::new(a).strategy(CountingStrategy::Horizontal),
                            )
                            .unwrap()
                    })
                },
            );
        }
        // Monotone + succinct — the Figure 5/7 configuration.
        let cs_m = ConstraintSet::new().and(Constraint::min_le("price", N_ITEMS as f64 / 2.0));
        for algo in Algorithm::paper_algorithms() {
            group.bench_with_input(
                BenchmarkId::new("mono_succinct", algo.name()),
                &algo,
                |b, &a| {
                    b.iter(|| {
                        MiningSession::new(black_box(&db), &attrs)
                            .mine(
                                &query(cs_m.clone()),
                                &MineRequest::new(a).strategy(CountingStrategy::Horizontal),
                            )
                            .unwrap()
                    })
                },
            );
        }
        group.finish();
    }
}

fn bench_counting_ablation(c: &mut Criterion) {
    let attrs = AttributeTable::with_identity_prices(N_ITEMS);
    let db = DataMethod::Quest.generate(N_ITEMS, N_BASKETS, 11);
    let cs = ConstraintSet::new().and(Constraint::max_le("price", N_ITEMS as f64 / 2.0));
    let mut group = c.benchmark_group("mine/counting_ablation_bms_plus_plus");
    group.sample_size(10);
    for (name, strategy) in [
        ("horizontal", CountingStrategy::Horizontal),
        ("vertical", CountingStrategy::Vertical),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                MiningSession::new(black_box(&db), &attrs)
                    .mine(
                        &query(cs.clone()),
                        &MineRequest::new(Algorithm::BmsPlusPlus).strategy(strategy),
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_bms_strategies(c: &mut Criterion) {
    // The baseline BMS sweep — level-batched through the engine in every
    // configuration — under each counting substrate.
    let db = DataMethod::Quest.generate(N_ITEMS, N_BASKETS, 11);
    let params = paper_mining_params();
    let mut group = c.benchmark_group("mine/bms_strategies");
    group.sample_size(10);
    group.bench_function("horizontal", |b| {
        b.iter(|| {
            let mut counter = HorizontalCounter::new(black_box(&db));
            run_bms(&db, &params, &mut counter).unwrap()
        })
    });
    group.bench_function("vertical", |b| {
        b.iter(|| {
            let mut counter = VerticalCounter::new(black_box(&db));
            run_bms(&db, &params, &mut counter).unwrap()
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            let mut counter = ParallelCounter::with_available_parallelism(black_box(&db));
            run_bms(&db, &params, &mut counter).unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_algorithms,
    bench_counting_ablation,
    bench_bms_strategies
);
criterion_main!(benches);
