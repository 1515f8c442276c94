//! # ccs-bench — the evaluation harness
//!
//! Regenerates every figure of the paper's §4 evaluation. Each `figN`
//! binary sweeps the same axis as the corresponding paper figure over
//! both synthetic data methods (`a` = Quest, `b` = rule-planted), runs
//! the same algorithms, and emits one CSV of
//! `(figure, dataset, x, algorithm, seconds, tables, candidates,
//! answers)` rows — the series the paper plots.
//!
//! Two scales are built in:
//!
//! * **default** — a laptop-scale configuration (60 items, ≤ 4 000
//!   baskets) that preserves the paper's cost regime: at `s = p = 25%`
//!   every pair is CT-supported (the all-absent cell carries the test),
//!   triples need two qualifying cells and mostly fail, so the sweep
//!   stops below level 4 exactly as the paper reports ("sets with less
//!   than four items").
//! * **`--paper`** — the full configuration (1 000 items, 10 000–100 000
//!   baskets). CPU-hours to days under the scan-per-table cost model, as
//!   it was in 2000.

#![warn(missing_docs)]
// The harness must measure the current library surface: using a
// deprecated item is a compile error here, and CI's `clippy
// --all-targets -D warnings` step turns the `deprecated` lint into an
// error in the bench bins too.
#![deny(deprecated)]

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use ccs_constraints::{AttributeTable, ConstraintSet};
use ccs_core::{Algorithm, CorrelationQuery, MineRequest, MiningParams, MiningSession};
use ccs_datagen::{generate_quest, generate_rules, QuestParams, RuleParams};
use ccs_itemset::TransactionDb;

/// One measured point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Figure id, e.g. `"fig1"`.
    pub figure: String,
    /// `"quest"` (the paper's data 1) or `"rules"` (data 2).
    pub dataset: String,
    /// Name of the x axis, e.g. `"baskets"` or `"selectivity"`.
    pub x_name: String,
    /// The x coordinate.
    pub x: f64,
    /// Algorithm name in the paper's notation.
    pub algorithm: String,
    /// Wall-clock seconds for the mining run.
    pub seconds: f64,
    /// Contingency tables built (the paper's "sets considered").
    pub tables: u64,
    /// Candidate sets generated.
    pub candidates: u64,
    /// Number of answers returned.
    pub answers: usize,
}

impl SweepRow {
    /// The CSV header matching [`SweepRow::to_csv`].
    pub const CSV_HEADER: &'static str =
        "figure,dataset,x_name,x,algorithm,seconds,tables,candidates,answers";

    /// One CSV line (no trailing newline).
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{:.4},{},{},{}",
            self.figure,
            self.dataset,
            self.x_name,
            self.x,
            self.algorithm,
            self.seconds,
            self.tables,
            self.candidates,
            self.answers
        )
    }
}

/// Writes rows as a CSV file, creating parent directories.
///
/// # Errors
///
/// Propagates I/O errors from creating the directory or writing the file.
pub fn write_csv(path: &Path, rows: &[SweepRow]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = String::with_capacity(rows.len() * 64 + 64);
    out.push_str(SweepRow::CSV_HEADER);
    out.push('\n');
    for r in rows {
        let _ = writeln!(out, "{}", r.to_csv());
    }
    fs::write(path, out)
}

/// The scale of an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Number of items `N`.
    pub n_items: u32,
    /// The basket-count sweep (x axis of the "vs baskets" figures).
    pub basket_sweep: Vec<usize>,
    /// Fixed basket count for the selectivity figures.
    pub fixed_baskets: usize,
    /// The selectivity sweep.
    pub selectivities: Vec<f64>,
    /// `maxsum / N` multipliers for Figure 4.
    pub maxsum_multipliers: Vec<f64>,
}

impl Scale {
    /// Laptop-scale default (see crate docs).
    pub fn default_scale() -> Self {
        Scale {
            n_items: 60,
            basket_sweep: vec![500, 1000, 2000, 4000],
            fixed_baskets: 4000,
            selectivities: vec![0.1, 0.2, 0.3, 0.5, 0.8],
            maxsum_multipliers: vec![0.25, 0.5, 1.0, 2.0, 4.0],
        }
    }

    /// The paper's full configuration. Expect CPU-hours to days under
    /// the scan-per-table cost model.
    pub fn paper_scale() -> Self {
        Scale {
            n_items: 1000,
            basket_sweep: vec![10_000, 25_000, 50_000, 75_000, 100_000],
            fixed_baskets: 100_000,
            selectivities: vec![0.1, 0.2, 0.3, 0.5, 0.8],
            maxsum_multipliers: vec![0.25, 0.5, 1.0, 2.0, 4.0],
        }
    }
}

/// Which of the paper's two data-generation methods to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMethod {
    /// Method 1: IBM-Quest-style (data "a" in the figures).
    Quest,
    /// Method 2: correlation-rule-planted (data "b").
    Rules,
}

impl DataMethod {
    /// Both methods, in the figures' (a, b) order.
    pub fn both() -> [DataMethod; 2] {
        [DataMethod::Quest, DataMethod::Rules]
    }

    /// CSV label.
    pub fn label(self) -> &'static str {
        match self {
            DataMethod::Quest => "quest",
            DataMethod::Rules => "rules",
        }
    }

    /// Generates a database of `n_baskets` baskets over `n_items` items.
    ///
    /// Basket-size and pattern parameters scale with the universe the way
    /// the paper's do (|T| = 20 at N = 1000 → |T| ≈ N/50, min 8).
    pub fn generate(self, n_items: u32, n_baskets: usize, seed: u64) -> TransactionDb {
        let avg_len = (n_items as f64 / 50.0).max(8.0);
        match self {
            DataMethod::Quest => {
                let params = QuestParams {
                    n_transactions: n_baskets,
                    n_items,
                    avg_transaction_len: avg_len,
                    avg_pattern_len: 4.0,
                    n_patterns: (n_items as usize * 2).max(20),
                    correlation: 0.5,
                    corruption_mean: 0.5,
                    corruption_sd: 0.1,
                    seed,
                };
                generate_quest(&params)
            }
            DataMethod::Rules => {
                let params = RuleParams {
                    n_transactions: n_baskets,
                    n_items,
                    avg_transaction_len: avg_len,
                    n_rules: 10.min(n_items as usize / 4),
                    rule_len: (2, 4),
                    support_range: (0.7, 0.9),
                    seed,
                };
                generate_rules(&params).db
            }
        }
    }
}

/// The host stamp every committed `results/BENCH_*.json` carries, so a
/// row compared across hosts says what it ran on.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// `std::thread::available_parallelism` (1 when it is unknown).
    pub available_parallelism: usize,
    /// The ISA extensions this binary was compiled for (`cfg!` probes
    /// are compile-time truth, whatever mix of `.cargo/config.toml` and
    /// RUSTFLAGS produced them), comma-separated.
    pub target_features: String,
    /// The RUSTFLAGS environment as seen at run time.
    pub rustflags: String,
}

impl HostStamp {
    /// Probes this process and the binary it runs.
    pub fn probe() -> HostStamp {
        let available_parallelism = std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1);
        let target_features: Vec<&str> = [
            ("sse4.2", cfg!(target_feature = "sse4.2")),
            ("popcnt", cfg!(target_feature = "popcnt")),
            ("avx", cfg!(target_feature = "avx")),
            ("avx2", cfg!(target_feature = "avx2")),
            ("avx512f", cfg!(target_feature = "avx512f")),
        ]
        .iter()
        .filter(|(_, enabled)| *enabled)
        .map(|(name, _)| *name)
        .collect();
        let rustflags = std::env::var("RUSTFLAGS").unwrap_or_else(|_| {
            String::from("(unset; .cargo/config.toml: -C target-cpu=x86-64-v2)")
        });
        HostStamp {
            available_parallelism,
            target_features: target_features.join(","),
            rustflags,
        }
    }

    /// The stamp as JSON object members (no braces):
    /// `"available_parallelism": …, "target_features": …, "rustflags": …`.
    pub fn json_members(&self) -> String {
        format!(
            "\"available_parallelism\": {}, \"target_features\": \"{}\", \"rustflags\": \"{}\"",
            self.available_parallelism,
            self.target_features,
            self.rustflags.replace('\\', "\\\\").replace('"', "\\\""),
        )
    }
}

/// Runs one algorithm on one dataset and records a sweep row.
#[allow(clippy::too_many_arguments)] // mirrors the experiment grid's axes
pub fn measure(
    figure: &str,
    dataset: DataMethod,
    x_name: &str,
    x: f64,
    db: &TransactionDb,
    attrs: &AttributeTable,
    constraints: &ConstraintSet,
    algorithm: Algorithm,
) -> SweepRow {
    let query = CorrelationQuery {
        params: MiningParams::paper(),
        constraints: constraints.clone(),
    };
    let result = MiningSession::new(db, attrs)
        .mine(&query, &MineRequest::new(algorithm))
        .unwrap_or_else(|e| panic!("{algorithm} failed on {figure}: {e}"))
        .result;
    SweepRow {
        figure: figure.to_owned(),
        dataset: dataset.label().to_owned(),
        x_name: x_name.to_owned(),
        x,
        algorithm: algorithm.name().to_owned(),
        seconds: result.metrics.elapsed.as_secs_f64(),
        tables: result.metrics.tables_built,
        candidates: result.metrics.candidates_generated,
        answers: result.answers.len(),
    }
}

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// The chosen scale.
    pub scale: Scale,
    /// Output directory for CSVs (default `results/`).
    pub out_dir: PathBuf,
    /// Data seed.
    pub seed: u64,
}

impl HarnessArgs {
    /// Parses `--paper`, `--out <dir>`, and `--seed <n>` from
    /// `std::env::args`. Unknown flags abort with a usage message.
    pub fn parse() -> Self {
        let mut scale = Scale::default_scale();
        let mut out_dir = PathBuf::from("results");
        let mut seed = 42u64;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--paper" => scale = Scale::paper_scale(),
                "--out" => {
                    out_dir = PathBuf::from(
                        args.next()
                            .unwrap_or_else(|| usage("--out needs a directory")),
                    )
                }
                "--seed" => {
                    seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"))
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        HarnessArgs {
            scale,
            out_dir,
            seed,
        }
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: figN [--paper] [--out <dir>] [--seed <n>]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// Prints rows as an aligned table to stdout (for eyeballing runs).
pub fn print_table(rows: &[SweepRow]) {
    println!(
        "{:<6} {:<6} {:<12} {:>10} {:<7} {:>9} {:>10} {:>10} {:>7}",
        "figure", "data", "x_name", "x", "algo", "seconds", "tables", "cands", "answers"
    );
    for r in rows {
        println!(
            "{:<6} {:<6} {:<12} {:>10} {:<7} {:>9.3} {:>10} {:>10} {:>7}",
            r.figure,
            r.dataset,
            r.x_name,
            r.x,
            r.algorithm,
            r.seconds,
            r.tables,
            r.candidates,
            r.answers
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_shape() {
        let row = SweepRow {
            figure: "fig1".into(),
            dataset: "quest".into(),
            x_name: "baskets".into(),
            x: 500.0,
            algorithm: "BMS+".into(),
            seconds: 1.25,
            tables: 42,
            candidates: 50,
            answers: 3,
        };
        assert_eq!(row.to_csv(), "fig1,quest,baskets,500,BMS+,1.2500,42,50,3");
        assert_eq!(
            SweepRow::CSV_HEADER.split(',').count(),
            row.to_csv().split(',').count()
        );
    }

    #[test]
    fn data_methods_generate_requested_shape() {
        for m in DataMethod::both() {
            let db = m.generate(40, 200, 7);
            assert_eq!(db.len(), 200, "{m:?}");
            assert_eq!(db.n_items(), 40);
        }
    }

    #[test]
    fn measure_produces_sane_row() {
        let db = DataMethod::Rules.generate(30, 300, 3);
        let attrs = AttributeTable::with_identity_prices(30);
        let row = measure(
            "figX",
            DataMethod::Rules,
            "baskets",
            300.0,
            &db,
            &attrs,
            &ConstraintSet::new(),
            Algorithm::BmsPlus,
        );
        assert!(row.tables > 0);
        assert!(row.seconds >= 0.0);
        assert_eq!(row.algorithm, "BMS+");
    }

    #[test]
    fn scales_are_ordered() {
        let d = Scale::default_scale();
        let p = Scale::paper_scale();
        assert!(d.n_items < p.n_items);
        assert!(d.fixed_baskets < p.fixed_baskets);
        assert_eq!(p.n_items, 1000);
        assert_eq!(p.fixed_baskets, 100_000);
    }
}
pub mod figures;

pub mod plot;
pub mod report;
