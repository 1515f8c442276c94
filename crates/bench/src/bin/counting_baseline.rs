//! Counting-substrate throughput baseline.
//!
//! Times one miner level — 500 candidate 4-itemsets, every 4-subset of
//! a dense 12-item module as `apriori_gen` produces over correlated
//! item clusters, over a 10 000-basket Quest database — through every
//! counting strategy, per candidate and level-batched, and writes
//! `results/BENCH_counting.json` with candidates/sec and tables/sec per
//! strategy. The headline number is the prefix-sharing vertical batch's
//! speedup over per-candidate vertical counting. Each shape also times
//! every index-building backend's build (`<backend>/build`, with the
//! shape's distinct-basket count), and an all-distinct Quest shape times
//! the FP-tree build where no basket repeats. A level-3 shape at the
//! warm Quest session's size (20 000 baskets, 60 items, 4000 3-sets
//! over a 30-item pool, so prefixes and pairs recur) times the vertical
//! batch paths where a level's tables are nearly all 3-sets.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin counting_baseline [-- --out <dir>]
//! ```

// A harness binary: a failed run or a missing row aborts the
// measurement, and a panic is its failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ccs_bench::{DataMethod, HostStamp};
use ccs_constraints::{AttributeTable, Constraint, ConstraintSet};
use ccs_core::{
    Algorithm, CheckpointCadence, CheckpointPolicy, CorrelationQuery, CountingStrategy,
    GuardLimits, MineRequest, MiningParams, MiningSession, RunGuard,
};
use ccs_itemset::{
    available_workers, FpTreeCounter, HorizontalCounter, Itemset, MintermCounter, ParallelCounter,
    ParallelVerticalCounter, ShardedVerticalCounter, TransactionDb, VerticalCounter,
};
use ccs_stats::{chi2_quantile, ContingencyTable, Measure, MeasureContext};

const N_ITEMS: u32 = 60;
const N_BASKETS: usize = 10_000;
const N_CANDIDATES: usize = 500;
const CANDIDATE_SIZE: usize = 4;
/// Dense-module width: C(12, 4) = 495 subsets, so 500 candidates span
/// one full module plus the start of a second.
const POOL: u32 = 12;
const REPS: usize = 7;

/// The sparse companion shape: the same transaction count spread over
/// 4× the items, so each item's tid-set is ~4× emptier and whole
/// superblocks go dark — the regime the population-hint skip targets.
const SPARSE_ITEMS: u32 = 240;
const SPARSE_CANDIDATES: usize = 200;

/// The dense low-cardinality companion shape: a small universe where
/// every basket is a union of a few correlated modules, so the whole
/// database collapses into a handful of distinct profiles. Vertical
/// counting still pays per *transaction* (bitmap words scale with
/// baskets); the FP-tree pays per *distinct profile*, which is where
/// pattern growth beats candidate intersection.
const DENSE_LC_ITEMS: u32 = 28;
const DENSE_LC_BASKETS: usize = 40_000;
const DENSE_LC_CANDIDATES: usize = 400;

/// The level-3 companion shape: Quest baskets at the size of the warm
/// Quest session, and every 3-subset of one 30-item pool up to
/// `LEVEL3_CANDIDATES`, so 3-sets share their 1-item prefixes and their
/// item pairs the way an Apriori level 3 does.
const LEVEL3_BASKETS: usize = 20_000;
const LEVEL3_CANDIDATES: usize = 4000;
const LEVEL3_POOL: u32 = 30;

/// The all-distinct companion shape, at the paper's scale: Quest baskets
/// over 1000 items, which practically never repeat, so an FP-tree build
/// gains nothing from repeated baskets there.
const DISTINCT_ITEMS: u32 = 1000;

/// Deterministic profile-clustered baskets: three overlapping modules
/// switched by small moduli plus one rotating tail item — 16 distinct
/// basket shapes across 40 000 transactions, avg length ≈ 14 of 28
/// items (density ≈ 0.5, exactly the shape `Auto` routes to `fp-tree`).
fn dense_low_cardinality_db() -> TransactionDb {
    let mut txns = Vec::with_capacity(DENSE_LC_BASKETS);
    for i in 0..DENSE_LC_BASKETS as u32 {
        let mut t: Vec<u32> = Vec::new();
        if i % 2 == 0 {
            t.extend(0..10);
        }
        if i % 3 == 0 {
            t.extend(8..18);
        }
        if i % 5 != 0 {
            t.extend(16..24);
        }
        t.push(24 + i % 4);
        t.sort_unstable();
        t.dedup();
        txns.push(t);
    }
    TransactionDb::from_ids(DENSE_LC_ITEMS, txns)
}

/// One dense miner level: all `k`-subsets of consecutive `pool`-item
/// windows until `n` candidates exist. This is the shape `apriori_gen`
/// produces over a correlated item module — every prefix class is full,
/// every suffix item recurs across many members — i.e. exactly the
/// NOTSIG-heavy regime level batching targets.
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

/// Runs `level_pass` `REPS` times and returns the median wall-clock
/// seconds of one pass, with the counter's table delta across all reps.
fn time_level<C: MintermCounter>(
    counter: &mut C,
    level: &[Itemset],
    mut level_pass: impl FnMut(&mut C, &[Itemset]),
) -> (f64, u64) {
    let base_tables = counter.stats().tables_built;
    level_pass(counter, level); // warm-up (vertical index, page cache)
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            level_pass(counter, level);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_unstable_by(f64::total_cmp);
    let tables = counter.stats().tables_built - base_tables;
    (secs[REPS / 2], tables / (REPS as u64 + 1))
}

/// Runs `build` `REPS` times after one warm-up and returns the median
/// wall-clock seconds of one build.
fn time_build<T>(mut build: impl FnMut() -> T) -> f64 {
    std::hint::black_box(build());
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(build());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_unstable_by(f64::total_cmp);
    secs[REPS / 2]
}

/// Number of distinct baskets in `db`.
fn distinct_baskets(db: &TransactionDb) -> usize {
    db.transactions().collect::<BTreeSet<_>>().len()
}

/// One `<backend>/build` row: the median seconds of building the
/// backend's index over a shape's database.
struct BuildRow {
    name: &'static str,
    seconds: f64,
}

/// Times the build of every index-building backend in `backends` over
/// `db`.
fn time_builds(db: &TransactionDb, backends: &[&'static str]) -> Vec<BuildRow> {
    backends
        .iter()
        .map(|&name| {
            let seconds = match name {
                "vertical/build" => time_build(|| VerticalCounter::new(db)),
                "vertical_par/build" => time_build(|| ParallelVerticalCounter::new(db)),
                "sharded/build" => time_build(|| ShardedVerticalCounter::new(db)),
                "fptree/build" => time_build(|| FpTreeCounter::new(db)),
                other => panic!("no build for {other}"),
            };
            BuildRow { name, seconds }
        })
        .collect()
}

/// The build rows as a JSON array member, each row carrying the shape's
/// distinct-basket count.
fn builds_json(rows: &[BuildRow], distinct: usize) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{ \"name\": \"{}\", \"median_seconds\": {:.6}, \"distinct_baskets\": {distinct} }}",
                r.name, r.seconds
            )
        })
        .collect();
    format!("\"builds\": [ {} ]", rows.join(", "))
}

fn print_builds(rows: &[BuildRow], distinct: usize) {
    for r in rows {
        println!(
            "{:>26} {:>12.6}   ({distinct} distinct baskets)",
            r.name, r.seconds
        );
    }
}

/// One durability data point: a full governed BMS++ mine, median of
/// `REPS` runs, with the candidate throughput the checkpoint layer must
/// not depress.
struct OverheadPoint {
    seconds: f64,
    candidates: u64,
    stamps_per_run: u64,
}

impl OverheadPoint {
    fn candidates_per_sec(&self) -> f64 {
        self.candidates as f64 / self.seconds
    }
}

/// Times a complete mining run (armed guard both sides, so the only
/// variable is the durability layer) with an optional checkpoint policy
/// committing atomically to `ckpt_path` at every level.
fn time_mine(
    db: &TransactionDb,
    attrs: &AttributeTable,
    query: &CorrelationQuery,
    ckpt_path: Option<&Path>,
) -> OverheadPoint {
    let run = || {
        let mut request =
            MineRequest::new(Algorithm::BmsPlusPlus).guard(RunGuard::new(GuardLimits::default()));
        if let Some(path) = ckpt_path {
            request =
                request.checkpoint(CheckpointPolicy::file(path, CheckpointCadence::EveryLevel));
        }
        let outcome = MiningSession::new(db, attrs)
            .mine(query, &request)
            .expect("benchmark mine");
        assert!(outcome.result.completion.is_complete());
        let stamps = outcome.checkpoint.map_or(0, |r| {
            assert!(r.error.is_none(), "checkpoint write failed: {:?}", r.error);
            r.written
        });
        (outcome.result.metrics.candidates_generated, stamps)
    };
    let (candidates, stamps_per_run) = run(); // warm-up (page cache)
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(run());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_unstable_by(f64::total_cmp);
    OverheadPoint {
        seconds: secs[REPS / 2],
        candidates,
        stamps_per_run,
    }
}

/// How many sweeps over the prebuilt tables one verdict timing sample
/// runs: a single sweep is microseconds, so the inner loop stretches
/// each sample well past timer granularity.
const VERDICT_PASSES: usize = 200;

/// Median seconds for `VERDICT_PASSES` sweeps of `judge` over the
/// prebuilt tables — counting cost is paid once, outside the timed
/// region, so the two spellings differ only in how the verdict is
/// reached.
fn time_verdicts(
    tables: &[ContingencyTable],
    mut judge: impl FnMut(&ContingencyTable) -> bool,
) -> f64 {
    for t in tables {
        std::hint::black_box(judge(t)); // warm-up
    }
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..VERDICT_PASSES {
                for t in tables {
                    std::hint::black_box(judge(t));
                }
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_unstable_by(f64::total_cmp);
    secs[REPS / 2]
}

struct Row {
    name: &'static str,
    seconds: f64,
    tables_per_pass: u64,
    candidates: usize,
}

impl Row {
    fn candidates_per_sec(&self) -> f64 {
        self.candidates as f64 / self.seconds
    }

    fn tables_per_sec(&self) -> f64 {
        self.tables_per_pass as f64 / self.seconds
    }
}

fn main() {
    let mut out_dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_dir = PathBuf::from(args.next().expect("--out needs a directory"));
        }
    }

    let db = DataMethod::Quest.generate(N_ITEMS, N_BASKETS, 7);
    let level = dense_level(N_ITEMS, N_CANDIDATES, CANDIDATE_SIZE, POOL);
    assert_eq!(level.len(), N_CANDIDATES);

    let single = |counter: &mut dyn MintermCounter, level: &[Itemset]| {
        for set in level {
            std::hint::black_box(counter.minterm_counts(set));
        }
    };
    let batch = |counter: &mut dyn MintermCounter, level: &[Itemset]| {
        std::hint::black_box(counter.minterm_counts_batch(level));
    };

    let mut rows: Vec<Row> = Vec::new();
    {
        let mut c = HorizontalCounter::new(&db);
        let (s, t) = time_level(&mut c, &level, |c, l| single(c, l));
        rows.push(Row {
            name: "horizontal/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &level, |c, l| batch(c, l));
        rows.push(Row {
            name: "horizontal/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
    }
    {
        let mut c = VerticalCounter::new(&db);
        let (s, t) = time_level(&mut c, &level, |c, l| single(c, l));
        rows.push(Row {
            name: "vertical/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &level, |c, l| batch(c, l));
        rows.push(Row {
            name: "vertical/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
    }
    {
        let mut c = ParallelCounter::with_available_parallelism(&db);
        let (s, t) = time_level(&mut c, &level, |c, l| single(c, l));
        rows.push(Row {
            name: "parallel/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &level, |c, l| batch(c, l));
        rows.push(Row {
            name: "parallel/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
    }
    {
        let mut c = ParallelVerticalCounter::new(&db);
        let (s, t) = time_level(&mut c, &level, |c, l| single(c, l));
        rows.push(Row {
            name: "vertical_par/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &level, |c, l| batch(c, l));
        rows.push(Row {
            name: "vertical_par/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
    }
    {
        let mut c = ShardedVerticalCounter::new(&db);
        let (s, t) = time_level(&mut c, &level, |c, l| single(c, l));
        rows.push(Row {
            name: "sharded/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &level, |c, l| batch(c, l));
        rows.push(Row {
            name: "sharded/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
    }
    {
        let mut c = FpTreeCounter::new(&db);
        let (s, t) = time_level(&mut c, &level, |c, l| single(c, l));
        rows.push(Row {
            name: "fptree/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &level, |c, l| batch(c, l));
        rows.push(Row {
            name: "fptree/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: N_CANDIDATES,
        });
    }

    let builds = time_builds(
        &db,
        &[
            "vertical/build",
            "vertical_par/build",
            "sharded/build",
            "fptree/build",
        ],
    );
    let distinct = distinct_baskets(&db);

    // Thread-scaling of the parallel-vertical batch path. On a
    // single-core host every worker count serialises onto one CPU, so
    // the curve is flat there — `available_parallelism` is recorded in
    // the JSON so readers can tell a flat machine from a flat algorithm.
    struct ScalePoint {
        workers: usize,
        seconds: f64,
    }
    let mut scaling: Vec<ScalePoint> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut counter = ParallelVerticalCounter::with_workers(&db, workers);
        counter.index_mut().set_work_floor(0); // measure the pooled path at every width
        let pass = |counter: &mut ParallelVerticalCounter, level: &[Itemset]| {
            std::hint::black_box(counter.minterm_counts_batch(level));
        };
        pass(&mut counter, &level); // warm-up
        let mut secs: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                pass(&mut counter, &level);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_unstable_by(f64::total_cmp);
        scaling.push(ScalePoint {
            workers,
            seconds: secs[REPS / 2],
        });
    }

    // Shard-scaling of the sharded batch path at one worker per
    // available CPU: shard counts sweep past the worker count so the
    // curve also shows the merge overhead of many-small-shards.
    let mut shard_scaling: Vec<ScalePoint> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut counter = ShardedVerticalCounter::with_shards(&db, shards, available_workers());
        counter.index_mut().set_work_floor(0); // measure the pooled path at every width
        let pass = |counter: &mut ShardedVerticalCounter, level: &[Itemset]| {
            std::hint::black_box(counter.minterm_counts_batch(level));
        };
        pass(&mut counter, &level); // warm-up
        let mut secs: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                pass(&mut counter, &level);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_unstable_by(f64::total_cmp);
        shard_scaling.push(ScalePoint {
            workers: shards,
            seconds: secs[REPS / 2],
        });
    }

    // The sparse companion shape, batch paths only: per-item tid-sets
    // are ~4× emptier here, so the superblock population-hint skip does
    // real work instead of merely not hurting.
    let sparse_db = DataMethod::Quest.generate(SPARSE_ITEMS, N_BASKETS, 7);
    let sparse_level = dense_level(SPARSE_ITEMS, SPARSE_CANDIDATES, CANDIDATE_SIZE, POOL);
    let mut sparse_rows: Vec<Row> = Vec::new();
    {
        let mut c = VerticalCounter::new(&sparse_db);
        let (s, t) = time_level(&mut c, &sparse_level, |c, l| batch(c, l));
        sparse_rows.push(Row {
            name: "vertical/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: SPARSE_CANDIDATES,
        });
        let mut c = ParallelVerticalCounter::new(&sparse_db);
        let (s, t) = time_level(&mut c, &sparse_level, |c, l| batch(c, l));
        sparse_rows.push(Row {
            name: "vertical_par/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: SPARSE_CANDIDATES,
        });
        let mut c = ShardedVerticalCounter::new(&sparse_db);
        let (s, t) = time_level(&mut c, &sparse_level, |c, l| batch(c, l));
        sparse_rows.push(Row {
            name: "sharded/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: SPARSE_CANDIDATES,
        });
    }
    let sparse_builds = time_builds(
        &sparse_db,
        &[
            "vertical/build",
            "vertical_par/build",
            "sharded/build",
            "fptree/build",
        ],
    );
    let sparse_distinct = distinct_baskets(&sparse_db);

    // The level-3 shape, vertical batch paths.
    let level3_db = DataMethod::Quest.generate(N_ITEMS, LEVEL3_BASKETS, 7);
    let level3_level = dense_level(N_ITEMS, LEVEL3_CANDIDATES, 3, LEVEL3_POOL);
    let mut level3_rows: Vec<Row> = Vec::new();
    {
        let mut c = VerticalCounter::new(&level3_db);
        let (s, t) = time_level(&mut c, &level3_level, |c, l| batch(c, l));
        level3_rows.push(Row {
            name: "vertical/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: LEVEL3_CANDIDATES,
        });
        let mut c = ParallelVerticalCounter::new(&level3_db);
        let (s, t) = time_level(&mut c, &level3_level, |c, l| batch(c, l));
        level3_rows.push(Row {
            name: "vertical_par/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: LEVEL3_CANDIDATES,
        });
        let mut c = ShardedVerticalCounter::new(&level3_db);
        let (s, t) = time_level(&mut c, &level3_level, |c, l| batch(c, l));
        level3_rows.push(Row {
            name: "sharded/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: LEVEL3_CANDIDATES,
        });
    }

    // The dense low-cardinality shape, batch paths: the FP-tree's home
    // turf. Candidates are drawn from one 12-item module, so the
    // projection memoizer amortizes to one conditional projection per
    // header item across the whole level.
    let lc_db = dense_low_cardinality_db();
    let lc_level = dense_level(DENSE_LC_ITEMS, DENSE_LC_CANDIDATES, CANDIDATE_SIZE, POOL);
    let mut lc_rows: Vec<Row> = Vec::new();
    {
        let mut c = VerticalCounter::new(&lc_db);
        let (s, t) = time_level(&mut c, &lc_level, |c, l| batch(c, l));
        lc_rows.push(Row {
            name: "vertical/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: DENSE_LC_CANDIDATES,
        });
        let mut c = ParallelVerticalCounter::new(&lc_db);
        let (s, t) = time_level(&mut c, &lc_level, |c, l| batch(c, l));
        lc_rows.push(Row {
            name: "vertical_par/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: DENSE_LC_CANDIDATES,
        });
        let mut c = FpTreeCounter::new(&lc_db);
        let (s, t) = time_level(&mut c, &lc_level, |c, l| single(c, l));
        lc_rows.push(Row {
            name: "fptree/per_candidate",
            seconds: s,
            tables_per_pass: t,
            candidates: DENSE_LC_CANDIDATES,
        });
        let (s, t) = time_level(&mut c, &lc_level, |c, l| batch(c, l));
        lc_rows.push(Row {
            name: "fptree/batch",
            seconds: s,
            tables_per_pass: t,
            candidates: DENSE_LC_CANDIDATES,
        });
    }
    let lc_builds = time_builds(
        &lc_db,
        &[
            "vertical/build",
            "vertical_par/build",
            "sharded/build",
            "fptree/build",
        ],
    );
    let lc_distinct = distinct_baskets(&lc_db);

    // The all-distinct shape: the FP-tree build alone.
    let distinct_db = DataMethod::Quest.generate(DISTINCT_ITEMS, N_BASKETS, 7);
    let distinct_builds = time_builds(&distinct_db, &["fptree/build"]);
    let distinct_distinct = distinct_baskets(&distinct_db);

    // Durability overhead: a complete governed BMS++ mine on the dense
    // database, with and without every-level checkpointing into a real
    // file (atomic temp + fsync + rename per stamp). The guard is armed
    // on both sides so the only variable is the persistence layer.
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let attrs = AttributeTable::with_identity_prices(N_ITEMS);
    let mine_query = CorrelationQuery {
        params: MiningParams::paper(),
        constraints: ConstraintSet::new().and(Constraint::max_le("price", f64::from(N_ITEMS / 2))),
    };
    // ccs-lint: allow(checkpoint-io-confined, reason = "bench measures checkpoint overhead through the public CheckpointPolicy API; persist.rs still does all I/O")
    let ckpt_path = out_dir.join("bench_checkpoint.ccs");
    let no_ckpt = time_mine(&db, &attrs, &mine_query, None);
    let every_level = time_mine(&db, &attrs, &mine_query, Some(&ckpt_path));
    let _ = std::fs::remove_file(&ckpt_path);
    let overhead_pct = (every_level.seconds / no_ckpt.seconds - 1.0) * 100.0;

    // Verdict-dispatch overhead: every miner now judges correlation
    // through `MeasureContext` (enum dispatch + precomputed critical
    // value) instead of calling `chi_squared` directly. Both spellings
    // sweep the same 500 prebuilt tables, so the delta is pure dispatch
    // cost; the ratio-measure rows give the absolute scale of the
    // all-confidence and bond statistics for comparison.
    let tables: Vec<ContingencyTable> = {
        let mut c = VerticalCounter::new(&db);
        level
            .iter()
            .map(|set| ContingencyTable::build(&mut c, set))
            .collect()
    };
    // ccs-lint: allow(measure-verdict-confined, reason = "bench baseline: the pre-measure-layer direct spelling this row compares dispatch against")
    let direct_crit = chi2_quantile(0.9, 1);
    // ccs-lint: allow(measure-verdict-confined, reason = "bench baseline: the pre-measure-layer direct spelling this row compares dispatch against")
    let direct_secs = time_verdicts(&tables, |t| t.chi_squared() >= direct_crit);
    let chi2_ctx = MeasureContext::new(Measure::Chi2, 0.9).expect("chi2 context");
    let dispatch_secs = time_verdicts(&tables, |t| chi2_ctx.verdict(t));
    let verdict_overhead_pct = (dispatch_secs / direct_secs - 1.0) * 100.0;
    let allconf_ctx =
        MeasureContext::new(Measure::AllConfidence, 0.5).expect("all-confidence context");
    let allconf_secs = time_verdicts(&tables, |t| allconf_ctx.verdict(t));
    let bond_ctx = MeasureContext::new(Measure::Bond, 0.1).expect("bond context");
    let bond_secs = time_verdicts(&tables, |t| bond_ctx.verdict(t));

    let vertical_single = rows
        .iter()
        .find(|r| r.name == "vertical/per_candidate")
        .unwrap();
    let vertical_batch = rows.iter().find(|r| r.name == "vertical/batch").unwrap();
    let speedup = vertical_single.seconds / vertical_batch.seconds;
    let vertical_par_batch = rows
        .iter()
        .find(|r| r.name == "vertical_par/batch")
        .unwrap();
    let par_speedup = vertical_batch.seconds / vertical_par_batch.seconds;
    let lc_vertical_batch = lc_rows.iter().find(|r| r.name == "vertical/batch").unwrap();
    let lc_fptree_batch = lc_rows.iter().find(|r| r.name == "fptree/batch").unwrap();
    let fptree_speedup = lc_vertical_batch.seconds / lc_fptree_batch.seconds;
    let stamp = HostStamp::probe();
    let available = stamp.available_parallelism;
    // What `Auto` actually picks for each bench shape on this host.
    let routing = [
        ("dense", CountingStrategy::Auto.resolve(&db, None, None)),
        (
            "sparse",
            CountingStrategy::Auto.resolve(&sparse_db, None, None),
        ),
        (
            "dense_low_cardinality",
            CountingStrategy::Auto.resolve(&lc_db, None, None),
        ),
    ];

    println!(
        "counting baseline: {N_CANDIDATES} candidates of size {CANDIDATE_SIZE}, \
         {N_BASKETS} baskets, {N_ITEMS} items (median of {REPS} passes)"
    );
    println!(
        "{:>26} {:>12} {:>16} {:>14}",
        "strategy", "seconds", "candidates/sec", "tables/sec"
    );
    for r in &rows {
        println!(
            "{:>26} {:>12.6} {:>16.0} {:>14.0}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec()
        );
    }
    print_builds(&builds, distinct);
    println!("\nvertical batch speedup over per-candidate: {speedup:.2}x");
    println!("vertical_par batch speedup over vertical batch: {par_speedup:.2}x");
    println!("thread scaling (vertical_par/batch, forced pooled path):");
    for p in &scaling {
        println!(
            "  {} worker(s): {:.6}s ({:.2}x vs 1 worker)",
            p.workers,
            p.seconds,
            scaling[0].seconds / p.seconds
        );
    }
    println!("shard scaling (sharded/batch, one worker per CPU):");
    for p in &shard_scaling {
        println!(
            "  {} shard(s): {:.6}s ({:.2}x vs 1 shard)",
            p.workers,
            p.seconds,
            shard_scaling[0].seconds / p.seconds
        );
    }
    println!(
        "sparse shape ({SPARSE_ITEMS} items, {N_BASKETS} baskets, \
         {SPARSE_CANDIDATES} candidates):"
    );
    for r in &sparse_rows {
        println!(
            "{:>26} {:>12.6} {:>16.0} {:>14.0}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec()
        );
    }
    print_builds(&sparse_builds, sparse_distinct);
    println!(
        "level-3 shape ({N_ITEMS} items, {LEVEL3_BASKETS} baskets, \
         {LEVEL3_CANDIDATES} candidates of size 3):"
    );
    for r in &level3_rows {
        println!(
            "{:>26} {:>12.6} {:>16.0} {:>14.0}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec()
        );
    }
    println!(
        "dense low-cardinality shape ({DENSE_LC_ITEMS} items, {DENSE_LC_BASKETS} baskets, \
         {DENSE_LC_CANDIDATES} candidates, {lc_distinct} distinct baskets):"
    );
    for r in &lc_rows {
        println!(
            "{:>26} {:>12.6} {:>16.0} {:>14.0}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec()
        );
    }
    print_builds(&lc_builds, lc_distinct);
    println!("all-distinct shape ({DISTINCT_ITEMS} items, {N_BASKETS} baskets):");
    print_builds(&distinct_builds, distinct_distinct);
    println!(
        "fptree batch speedup over vertical batch (dense low-cardinality): {fptree_speedup:.2}x"
    );
    println!("auto routing on this host:");
    for (shape, strategy) in &routing {
        println!("  {shape}: {strategy}");
    }
    println!("checkpoint overhead (full BMS++ mine, armed guard both sides):");
    println!(
        "  no checkpoint: {:.6}s ({:.0} cand/s)",
        no_ckpt.seconds,
        no_ckpt.candidates_per_sec()
    );
    println!(
        "  every level ({} stamps/run): {:.6}s ({:.0} cand/s, {:+.1}%)",
        every_level.stamps_per_run,
        every_level.seconds,
        every_level.candidates_per_sec(),
        overhead_pct
    );
    let per_verdict = |secs: f64| secs / (VERDICT_PASSES * tables.len()) as f64 * 1e9;
    println!(
        "verdict dispatch overhead ({} tables x {VERDICT_PASSES} sweeps):",
        tables.len()
    );
    println!(
        "  direct chi2:         {:.6}s ({:.1} ns/verdict)",
        direct_secs,
        per_verdict(direct_secs)
    );
    println!(
        "  MeasureContext chi2: {:.6}s ({:.1} ns/verdict, {:+.1}%)",
        dispatch_secs,
        per_verdict(dispatch_secs),
        verdict_overhead_pct
    );
    println!(
        "  all-confidence:      {:.6}s ({:.1} ns/verdict)",
        allconf_secs,
        per_verdict(allconf_secs)
    );
    println!(
        "  bond:                {:.6}s ({:.1} ns/verdict)",
        bond_secs,
        per_verdict(bond_secs)
    );
    println!("available parallelism on this host: {available}");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"items\": {N_ITEMS}, \"transactions\": {N_BASKETS}, \
         \"candidates\": {N_CANDIDATES}, \"candidate_size\": {CANDIDATE_SIZE}, \
         \"reps\": {REPS},"
    );
    let _ = writeln!(json, "    {},", stamp.json_members());
    let _ = writeln!(
        json,
        "    \"auto_routing\": {{ {} }} }},",
        routing
            .iter()
            .map(|(shape, strategy)| format!("\"{shape}\": \"{strategy}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str("  \"strategies\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"median_seconds\": {:.6}, \
             \"candidates_per_sec\": {:.1}, \"tables_per_sec\": {:.1} }}{}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec(),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  {},", builds_json(&builds, distinct));
    json.push_str("  \"thread_scaling\": [\n");
    for (i, p) in scaling.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"workers\": {}, \"median_seconds\": {:.6}, \
             \"speedup_vs_1_worker\": {:.2} }}{}",
            p.workers,
            p.seconds,
            scaling[0].seconds / p.seconds,
            if i + 1 < scaling.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"shard_scaling\": [\n");
    for (i, p) in shard_scaling.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"shards\": {}, \"median_seconds\": {:.6}, \
             \"speedup_vs_1_shard\": {:.2} }}{}",
            p.workers,
            p.seconds,
            shard_scaling[0].seconds / p.seconds,
            if i + 1 < shard_scaling.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"sparse\": {{ \"items\": {SPARSE_ITEMS}, \"transactions\": {N_BASKETS}, \
         \"candidates\": {SPARSE_CANDIDATES}, \"strategies\": ["
    );
    for (i, r) in sparse_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"median_seconds\": {:.6}, \
             \"candidates_per_sec\": {:.1}, \"tables_per_sec\": {:.1} }}{}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec(),
            if i + 1 < sparse_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(
        json,
        "  ], {} }},",
        builds_json(&sparse_builds, sparse_distinct)
    );
    let _ = writeln!(
        json,
        "  \"level3\": {{ \"items\": {N_ITEMS}, \"transactions\": {LEVEL3_BASKETS}, \
         \"candidates\": {LEVEL3_CANDIDATES}, \"candidate_size\": 3, \"strategies\": ["
    );
    for (i, r) in level3_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"median_seconds\": {:.6}, \
             \"candidates_per_sec\": {:.1}, \"tables_per_sec\": {:.1} }}{}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec(),
            if i + 1 < level3_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ] },\n");
    let _ = writeln!(
        json,
        "  \"dense_low_cardinality\": {{ \"items\": {DENSE_LC_ITEMS}, \
         \"transactions\": {DENSE_LC_BASKETS}, \"candidates\": {DENSE_LC_CANDIDATES}, \
         \"distinct_profiles\": {lc_distinct}, \"strategies\": ["
    );
    for (i, r) in lc_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"median_seconds\": {:.6}, \
             \"candidates_per_sec\": {:.1}, \"tables_per_sec\": {:.1} }}{}",
            r.name,
            r.seconds,
            r.candidates_per_sec(),
            r.tables_per_sec(),
            if i + 1 < lc_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(
        json,
        "  ], {}, \"fptree_batch_speedup_over_vertical_batch\": {fptree_speedup:.2} }},",
        builds_json(&lc_builds, lc_distinct)
    );
    let _ = writeln!(
        json,
        "  \"all_distinct\": {{ \"items\": {DISTINCT_ITEMS}, \"transactions\": {N_BASKETS}, {} }},",
        builds_json(&distinct_builds, distinct_distinct)
    );
    let _ = writeln!(
        json,
        "  \"checkpoint_overhead\": {{ \
         \"no_checkpoint\": {{ \"median_seconds\": {:.6}, \"candidates_per_sec\": {:.1} }}, \
         \"every_level\": {{ \"median_seconds\": {:.6}, \"candidates_per_sec\": {:.1}, \
         \"stamps_per_run\": {} }}, \"overhead_percent\": {:.1} }},",
        no_ckpt.seconds,
        no_ckpt.candidates_per_sec(),
        every_level.seconds,
        every_level.candidates_per_sec(),
        every_level.stamps_per_run,
        overhead_pct
    );
    let _ = writeln!(
        json,
        "  \"verdict_overhead\": {{ \"tables\": {}, \"sweeps_per_rep\": {VERDICT_PASSES}, \
         \"direct_chi2\": {{ \"median_seconds\": {:.6}, \"ns_per_verdict\": {:.1} }}, \
         \"measure_dispatch_chi2\": {{ \"median_seconds\": {:.6}, \"ns_per_verdict\": {:.1} }}, \
         \"overhead_percent\": {:.1}, \
         \"all_confidence_ns_per_verdict\": {:.1}, \"bond_ns_per_verdict\": {:.1} }},",
        tables.len(),
        direct_secs,
        per_verdict(direct_secs),
        dispatch_secs,
        per_verdict(dispatch_secs),
        verdict_overhead_pct,
        per_verdict(allconf_secs),
        per_verdict(bond_secs)
    );
    let _ = writeln!(
        json,
        "  \"vertical_batch_speedup_over_per_candidate\": {speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"vertical_par_batch_speedup_over_vertical_batch\": {par_speedup:.2}"
    );
    json.push_str("}\n");

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = out_dir.join("BENCH_counting.json");
    std::fs::write(&path, json).expect("write BENCH_counting.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test for the per-scan spawn overhead: per-candidate
    /// parallel counting used to spawn a fresh set of threads for every
    /// scan, which made it the slowest strategy on the baseline shape.
    /// With the sequential work floor, a
    /// one-candidate scan routes straight to the sequential kernel, so
    /// it must now track the horizontal reference. Scaled-down shape +
    /// a generous tolerance keep this timing assertion robust on noisy
    /// or single-core hosts.
    #[test]
    fn parallel_per_candidate_is_not_the_slowest_strategy() {
        let db = DataMethod::Quest.generate(N_ITEMS, 2_000, 7);
        let level = dense_level(N_ITEMS, 60, CANDIDATE_SIZE, POOL);
        let pass = |counter: &mut dyn MintermCounter| {
            let t0 = Instant::now();
            for set in &level {
                std::hint::black_box(counter.minterm_counts(set));
            }
            t0.elapsed().as_secs_f64()
        };
        let mut horizontal = HorizontalCounter::new(&db);
        let mut vertical = VerticalCounter::new(&db);
        let mut parallel = ParallelCounter::with_available_parallelism(&db);
        // Warm-up (vertical index build, page cache), then interleaved
        // rounds with the per-strategy *minimum* kept: other test
        // binaries share these cores, and min-of-rounds discards their
        // scheduling noise where a mean or median would absorb it.
        let (mut h, mut v, mut p) = (f64::MAX, f64::MAX, f64::MAX);
        for _ in 0..2 {
            pass(&mut horizontal);
            pass(&mut vertical);
            pass(&mut parallel);
        }
        for _ in 0..7 {
            h = h.min(pass(&mut horizontal));
            v = v.min(pass(&mut vertical));
            p = p.min(pass(&mut parallel));
        }
        let slowest_other = h.max(v);
        assert!(
            p <= slowest_other * 1.5,
            "parallel/per_candidate ({p:.6}s) is the slowest strategy again \
             (slowest other: {slowest_other:.6}s) — per-scan dispatch overhead is back"
        );
    }
}
