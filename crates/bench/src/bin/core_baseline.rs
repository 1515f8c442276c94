//! Between-level core baseline: whole miner runs on the shapes where
//! candidate generation and minimality pruning, not counting, set the
//! run time.
//!
//! Every database is generated in-process from a fixed seed:
//!
//! * `q60` — Quest, 20 000 baskets over 60 items (seed 3), identity
//!   prices, the paper's parameters, `vertical` counting. BMS** and
//!   BMS* run `min(S.price) <= 20`, BMS++ runs `max(S.price) <= 20`.
//! * `indep80` / `indep160` — 2 000 baskets in which each of 80 (160)
//!   items appears independently with probability 1/2, support 0.05, no
//!   constraint. Nothing but chance correlates, so the lattice is wide
//!   and every level is large; each row is capped by `max_level`.
//!
//! Each row records the median wall time of a few complete runs, with
//! the run's `tables_built`, `candidates_generated` and answer count, in
//! `results/BENCH_core.json` beside the host stamp.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin core_baseline [-- --out <dir>]
//! ```

// A harness binary: a failed run or a missing row aborts the
// measurement, and a panic is its failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use ccs_bench::HostStamp;
use ccs_constraints::{AttributeTable, Constraint, ConstraintSet};
use ccs_core::{
    Algorithm, CorrelationQuery, CountingStrategy, MineRequest, MiningParams, MiningSession,
};
use ccs_datagen::{generate_quest, QuestParams};
use ccs_itemset::TransactionDb;

/// Timed runs per row (after one untimed warm-up run).
const REPS: usize = 3;

/// `n_baskets` baskets over `n_items` items, each item present with
/// probability 1/2 independently of every other (splitmix64 stream).
fn independent_db(n_items: u32, n_baskets: usize, seed: u64) -> TransactionDb {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let baskets: Vec<Vec<u32>> = (0..n_baskets)
        .map(|_| {
            let mut basket = Vec::new();
            let mut bits = 0u64;
            for item in 0..n_items {
                if item % 64 == 0 {
                    bits = next();
                }
                if bits >> (item % 64) & 1 == 1 {
                    basket.push(item);
                }
            }
            basket
        })
        .collect();
    TransactionDb::from_ids(n_items, baskets)
}

struct Shape {
    name: &'static str,
    db: TransactionDb,
    attrs: AttributeTable,
}

struct Case {
    shape: usize,
    algorithm: Algorithm,
    query: &'static str,
    constraints: ConstraintSet,
    params: MiningParams,
}

struct Row {
    shape: &'static str,
    algorithm: Algorithm,
    query: &'static str,
    max_level: usize,
    seconds: f64,
    tables_built: u64,
    candidates_generated: u64,
    answers: usize,
}

fn run(shape: &Shape, case: &Case) -> Row {
    let query = CorrelationQuery {
        params: case.params,
        constraints: case.constraints.clone(),
    };
    let request = MineRequest::new(case.algorithm).strategy(CountingStrategy::Vertical);
    let mut session = MiningSession::new(&shape.db, &shape.attrs);
    let mut mine = || {
        let result = session
            .mine(&query, &request)
            .expect("benchmark mine")
            .result;
        assert!(result.completion.is_complete());
        result
    };
    let result = mine(); // warm-up (allocator, page cache, pool)
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(mine());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_unstable_by(f64::total_cmp);
    Row {
        shape: shape.name,
        algorithm: case.algorithm,
        query: case.query,
        max_level: case.params.max_level,
        seconds: secs[REPS / 2],
        tables_built: result.metrics.tables_built,
        candidates_generated: result.metrics.candidates_generated,
        answers: result.answers.len(),
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

    let shapes = [
        Shape {
            name: "q60",
            db: generate_quest(&QuestParams::small(20_000, 60, 3)),
            attrs: AttributeTable::with_identity_prices(60),
        },
        Shape {
            name: "indep80",
            db: independent_db(80, 2_000, 7),
            attrs: AttributeTable::with_identity_prices(80),
        },
        Shape {
            name: "indep160",
            db: independent_db(160, 2_000, 7),
            attrs: AttributeTable::with_identity_prices(160),
        },
    ];
    let paper = MiningParams::paper();
    let indep = |max_level| MiningParams {
        support_fraction: 0.05,
        max_level,
        ..paper
    };
    let min_le = || ConstraintSet::new().and(Constraint::min_le("price", 20.0));
    let max_le = || ConstraintSet::new().and(Constraint::max_le("price", 20.0));
    let cases = [
        Case {
            shape: 0,
            algorithm: Algorithm::BmsStarStar,
            query: "min(S.price) <= 20",
            constraints: min_le(),
            params: paper,
        },
        Case {
            shape: 0,
            algorithm: Algorithm::BmsStar,
            query: "min(S.price) <= 20",
            constraints: min_le(),
            params: paper,
        },
        Case {
            shape: 0,
            algorithm: Algorithm::BmsPlusPlus,
            query: "max(S.price) <= 20",
            constraints: max_le(),
            params: paper,
        },
        Case {
            shape: 1,
            algorithm: Algorithm::BmsPlusPlus,
            query: "none",
            constraints: ConstraintSet::new(),
            params: indep(4),
        },
        Case {
            shape: 1,
            algorithm: Algorithm::BmsStarStar,
            query: "none",
            constraints: ConstraintSet::new(),
            params: indep(3),
        },
        Case {
            shape: 2,
            algorithm: Algorithm::BmsPlusPlus,
            query: "none",
            constraints: ConstraintSet::new(),
            params: indep(3),
        },
    ];

    let stamp = HostStamp::probe();
    println!("core baseline: median of {REPS} complete runs per row, vertical counting");
    println!(
        "{:>9} {:>6} {:>20} {:>4} {:>10} {:>10} {:>12} {:>8}",
        "shape", "algo", "query", "cap", "seconds", "tables", "candidates", "answers"
    );
    let mut rows = Vec::new();
    for case in &cases {
        let row = run(&shapes[case.shape], case);
        println!(
            "{:>9} {:>6} {:>20} {:>4} {:>10.4} {:>10} {:>12} {:>8}",
            row.shape,
            row.algorithm.name(),
            row.query,
            row.max_level,
            row.seconds,
            row.tables_built,
            row.candidates_generated,
            row.answers
        );
        rows.push(row);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"config\": {{ \"reps\": {REPS}, \"counting\": \"vertical\", {} }},",
        stamp.json_members()
    );
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"shape\": \"{}\", \"algorithm\": \"{}\", \"query\": \"{}\", \
             \"max_level\": {}, \"median_seconds\": {:.6}, \"tables_built\": {}, \
             \"candidates_generated\": {}, \"answers\": {} }}{}",
            r.shape,
            r.algorithm.name(),
            r.query,
            r.max_level,
            r.seconds,
            r.tables_built,
            r.candidates_generated,
            r.answers,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = out_dir.join("BENCH_core.json");
    std::fs::write(&path, json).expect("write BENCH_core.json");
    println!("wrote {}", path.display());
}
