//! Golden differential suite for the levelwise kernel.
//!
//! Snapshots every miner's exact output — sorted answer sets plus the
//! deterministic work metrics — on three small fixed databases crossed
//! with four query shapes, and compares each run against a checked-in
//! golden file generated from the pre-kernel implementations. Any
//! behavioural drift in the kernel/policy refactor (a reordered
//! prefilter, a lost cache hit, an off-by-one level mark) shows up as a
//! line-level diff here.
//!
//! The matrix runs once per correlation measure, each against its own
//! golden: χ² against `kernel_equivalence.golden`, the downward-closed
//! measures at their default thresholds against
//! `kernel_equivalence.<measure>.golden`.
//!
//! The suite also asserts, independently of the goldens:
//!
//! * answers are bit-identical across every counting strategy, and on a
//!   sharded counter built over 3 tid-range shards (a count that never
//!   divides the fixture sizes evenly),
//! * so is the work that decides which tables exist: candidates, pre-count
//!   prunes, tables, cells and cache hits (a backend changes what a table
//!   costs, never which tables are built),
//! * answer sets are mutually minimal (no nested pairs).
//!
//! Regenerate every golden after an *intentional* behaviour change with
//! `UPDATE_GOLDENS=1 cargo test --test kernel_equivalence`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use ccs::core::{run_bms, BmsOutput};
use ccs::itemset::{HorizontalCounter, ShardedVerticalCounter, WorkerPool};
use ccs::prelude::*;

/// Perfectly-correlated pair {0,1} plus sparse fill — the smallest shape.
fn pair_db() -> TransactionDb {
    let mut txns = Vec::new();
    for i in 0..50 {
        let mut t = Vec::new();
        if i % 2 == 0 {
            t.extend([0u32, 1]);
        }
        if i % 5 == 0 {
            t.push(2);
        }
        txns.push(t);
    }
    TransactionDb::from_ids(3, txns)
}

/// Two overlapping correlated modules over 8 items: many same-prefix
/// candidates per level, so batching and BMS**'s recorded verdicts see
/// traffic.
fn modular_db() -> TransactionDb {
    let mut txns = Vec::new();
    for i in 0..120u32 {
        let mut t = Vec::new();
        if i % 2 == 0 {
            t.extend([0, 1, 2, 3]);
        }
        if i % 3 == 0 {
            t.extend([3, 4, 5, 6]);
        }
        if i % 5 == 0 {
            t.push(7);
        }
        if i % 7 == 0 {
            t.extend([1, 5]);
        }
        t.sort_unstable();
        t.dedup();
        txns.push(t);
    }
    TransactionDb::from_ids(8, txns)
}

/// Two XOR-planted triples plus a plain pair: pairwise-independent items
/// that only turn significant at level 3, forcing genuine deep levels.
fn xor_db() -> TransactionDb {
    let mut txns = Vec::new();
    for i in 0..160u32 {
        let mut t = Vec::new();
        let (a, b) = (i & 1, (i >> 1) & 1);
        if a == 1 {
            t.push(0);
        }
        if b == 1 {
            t.push(1);
        }
        if a ^ b == 1 {
            t.push(2);
        }
        let (c, d) = ((i >> 2) & 1, (i >> 3) & 1);
        if c == 1 {
            t.push(3);
        }
        if d == 1 {
            t.push(4);
        }
        if c ^ d == 1 {
            t.push(5);
        }
        if i % 5 == 0 {
            t.extend([6, 7]);
        }
        txns.push(t);
    }
    TransactionDb::from_ids(8, txns)
}

/// χ² at the paper's 90% confidence; the downward-closed measures at
/// their default thresholds.
fn params(measure: Measure) -> MiningParams {
    MiningParams {
        measure,
        confidence: if measure == Measure::Chi2 {
            0.9
        } else {
            measure.default_threshold()
        },
        support_fraction: 0.1,
        max_level: 4,
        ..MiningParams::paper()
    }
}

/// The four query shapes: unconstrained, anti-monotone only, monotone
/// only, and mixed (both classes, so `VALID_MIN` ≠ `MIN_VALID` and the
/// two-phase miners run genuine phase-2 sweeps).
fn query_shapes() -> Vec<(&'static str, ConstraintSet)> {
    vec![
        ("none", ConstraintSet::new()),
        (
            "am",
            ConstraintSet::new().and(Constraint::max_le("price", 6.0)),
        ),
        (
            "m",
            ConstraintSet::new().and(Constraint::sum_ge("price", 3.0)),
        ),
        (
            "mixed",
            ConstraintSet::new()
                .and(Constraint::max_le("price", 7.0))
                .and(Constraint::sum_ge("price", 3.0)),
        ),
    ]
}

const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::BmsPlus,
    Algorithm::BmsPlusPlus,
    Algorithm::BmsStar,
    Algorithm::BmsStarStar,
    Algorithm::Naive,
    Algorithm::NaiveMinValid,
];

fn fmt_sets(sets: &[Itemset]) -> String {
    let each: Vec<String> = sets
        .iter()
        .map(|s| {
            let ids: Vec<String> = s.iter().map(|i| i.0.to_string()).collect();
            ids.join(".")
        })
        .collect();
    format!("[{}]", each.join(" "))
}

fn fmt_metrics(m: &MiningMetrics) -> String {
    format!(
        "cand={} tables={} pruned={} scans={} txns={} cells={} hits={} degraded={} maxlvl={} sig={} notsig={}",
        m.candidates_generated,
        m.tables_built,
        m.pruned_before_count,
        m.db_scans,
        m.transactions_visited,
        m.cells_counted,
        m.cache_hits,
        m.degraded_batches,
        m.max_level_reached,
        m.sig_size,
        m.notsig_size,
    )
}

/// The backend-independent work of a run: which sets were generated,
/// pruned before counting, counted (tables and their cells) or answered
/// without a table. Scans and visited transactions are what a backend
/// changes, so they stay out.
fn assert_same_work(context: &str, reference: &MiningMetrics, other: &MiningMetrics) {
    let work = |m: &MiningMetrics| {
        (
            m.candidates_generated,
            m.pruned_before_count,
            m.tables_built,
            m.cells_counted,
            m.cache_hits,
        )
    };
    assert_eq!(
        work(reference),
        work(other),
        "{context}: (cand, pruned, tables, cells, hits) diverged from horizontal"
    );
}

fn assert_mutually_minimal(context: &str, answers: &[Itemset]) {
    for (i, a) in answers.iter().enumerate() {
        for b in &answers[i + 1..] {
            assert!(
                !a.is_subset_of(b) && !b.is_subset_of(a),
                "{context}: nested answers {a} and {b}"
            );
        }
    }
}

/// One run per algorithm with the paper-faithful horizontal counter —
/// the configuration whose metrics the goldens pin down.
fn mine_horizontal(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    algorithm: Algorithm,
) -> MiningResult {
    MiningSession::new(db, attrs)
        .mine(q, &MineRequest::new(algorithm))
        .unwrap()
        .result
}

/// The cross-strategy rows: every non-horizontal strategy.
const STRATEGY_ROWS: [CountingStrategy; 6] = [
    CountingStrategy::Vertical,
    CountingStrategy::Parallel,
    CountingStrategy::VerticalPar,
    CountingStrategy::Sharded,
    CountingStrategy::FpTree,
    CountingStrategy::Auto,
];

/// Same query under a non-default strategy; answers and
/// [`assert_same_work`] must match the horizontal run.
fn mine_with(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    algorithm: Algorithm,
    strategy: CountingStrategy,
) -> MiningResult {
    MiningSession::new(db, attrs)
        .mine(q, &MineRequest::new(algorithm).strategy(strategy))
        .unwrap()
        .result
}

/// Same query on a sharded counter over 3 tid-range shards of the
/// process-wide pool, so shard boundaries land mid-superblock.
fn mine_on_three_shards(
    db: &TransactionDb,
    attrs: &AttributeTable,
    q: &CorrelationQuery,
    algorithm: Algorithm,
) -> MiningResult {
    let mut counter = ShardedVerticalCounter::with_pool(db, 3, Arc::clone(WorkerPool::global()));
    mine_on(db, attrs, q, &MineRequest::new(algorithm), &mut counter).unwrap()
}

fn baseline_bms(db: &TransactionDb, measure: Measure) -> BmsOutput {
    let mut counter = HorizontalCounter::new(db);
    run_bms(db, &params(measure), &mut counter).unwrap()
}

/// Renders the full golden transcript under `measure`: one line per
/// (database × query shape × algorithm), plus one BMS-baseline line per
/// database.
fn render_transcript(measure: Measure) -> String {
    let mut out = String::new();
    let databases: [(&str, TransactionDb); 3] = [
        ("pair", pair_db()),
        ("modular", modular_db()),
        ("xor", xor_db()),
    ];
    for (db_name, db) in &databases {
        let attrs = AttributeTable::with_identity_prices(db.n_items());
        let baseline = baseline_bms(db, measure);
        let _ = writeln!(
            out,
            "{db_name}/-/BMS sig={} level1={} {}",
            fmt_sets(&baseline.sig),
            baseline.level1.len(),
            fmt_metrics(&baseline.metrics),
        );
        for (shape, constraints) in query_shapes() {
            let q = CorrelationQuery {
                params: params(measure),
                constraints,
            };
            for algorithm in ALGORITHMS {
                let context = format!("{db_name}/{shape}/{algorithm}");
                let r = mine_horizontal(db, &attrs, &q, algorithm);
                assert!(r.completion.is_complete(), "{context}: truncated");
                assert_mutually_minimal(&context, &r.answers);
                for strategy in STRATEGY_ROWS {
                    let v = mine_with(db, &attrs, &q, algorithm, strategy);
                    assert_eq!(
                        r.answers, v.answers,
                        "{context}: {strategy} diverged from horizontal"
                    );
                    assert_same_work(&format!("{context} {strategy}"), &r.metrics, &v.metrics);
                }
                let v = mine_on_three_shards(db, &attrs, &q, algorithm);
                assert_eq!(
                    r.answers, v.answers,
                    "{context}: sharded on 3 shards diverged from horizontal"
                );
                assert_same_work(&format!("{context} 3 shards"), &r.metrics, &v.metrics);
                let _ = writeln!(
                    out,
                    "{context} answers={} {}",
                    fmt_sets(&r.answers),
                    fmt_metrics(&r.metrics),
                );
            }
        }
    }
    out
}

fn golden_path(measure: Measure) -> PathBuf {
    let file = match measure {
        Measure::Chi2 => "kernel_equivalence.golden".to_owned(),
        m => format!("kernel_equivalence.{}.golden", m.name()),
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join(file)
}

/// Renders the matrix under `measure` and compares it with its golden
/// (or rewrites the golden under `UPDATE_GOLDENS`).
fn check_golden(measure: Measure) {
    let transcript = render_transcript(measure);
    let path = golden_path(measure);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &transcript).unwrap();
        eprintln!(
            "wrote {} ({} lines)",
            path.display(),
            transcript.lines().count()
        );
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDENS=1",
            path.display()
        )
    });
    if transcript != golden {
        // Line-level diff: point straight at the drifted run.
        for (i, (got, want)) in transcript.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "golden mismatch at line {} (left = this build, right = golden)",
                i + 1
            );
        }
        assert_eq!(
            transcript.lines().count(),
            golden.lines().count(),
            "transcript length changed"
        );
        panic!("transcript differs from golden in whitespace only");
    }
}

#[test]
fn miners_match_the_golden_transcript() {
    check_golden(Measure::Chi2);
}

#[test]
fn miners_match_the_all_confidence_golden_transcript() {
    check_golden(Measure::AllConfidence);
}

#[test]
fn miners_match_the_bond_golden_transcript() {
    check_golden(Measure::Bond);
}
