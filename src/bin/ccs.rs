//! `ccs` — command-line constrained correlation mining.
//!
//! ```text
//! ccs generate --method rules --baskets 5000 --items 100 --seed 7 --db data.baskets
//! ccs attrs    --items 100 --db data.attrs            # identity prices
//! ccs analyze  --query "max(S.price) <= 2 & min(S.price) >= 5" --items 100
//! ccs mine     --db data.baskets --attrs data.attrs \
//!              --query "correlated & ct_supported & max(S.price) <= 50" \
//!              --algorithm bms++ --explain
//! ccs stats    --db data.baskets
//! ```

// The binary carries exactly one `unsafe` block — the raw `signal(2)`
// binding in `sigint` — and that module opts back in explicitly.
#![deny(unsafe_code)]
// The CLI must stay on the current library surface: using a deprecated
// item is a compile error here, and CI's `clippy --all-targets -D
// warnings` step turns the `deprecated` lint into an error in every
// other target too.
#![deny(deprecated)]

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::Duration;

use ccs::dataset::{read_attrs, read_db, write_attrs, write_db, MAX_ITEMS};
use ccs::prelude::*;

/// Exit codes: 0 = complete answer set (or satisfiable analysis), 2 =
/// sound but truncated answer set (budget/deadline/Ctrl-C), 3 = `ccs
/// analyze` proved the query unsatisfiable, 1 = error.
const EXIT_TRUNCATED: u8 = 2;
const EXIT_ERROR: u8 = 1;
const EXIT_UNSATISFIABLE: u8 = 3;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next();
    let rest: Vec<String> = argv.collect();
    let (recognized, result) = match cmd.as_deref() {
        Some("generate") => (true, cmd_generate(&rest).map(|()| ExitCode::SUCCESS)),
        Some("attrs") => (true, cmd_attrs(&rest).map(|()| ExitCode::SUCCESS)),
        Some("analyze") => (true, cmd_analyze(&rest)),
        Some("mine") => (true, cmd_mine(&rest)),
        Some("resume") => (true, cmd_resume(&rest)),
        Some("stats") => (true, cmd_stats(&rest).map(|()| ExitCode::SUCCESS)),
        Some("--help") | Some("-h") | None => {
            print_usage();
            (true, Ok(ExitCode::SUCCESS))
        }
        Some(other) => (false, Err(format!("unknown command '{other}'"))),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            if !recognized {
                eprintln!();
                print_usage();
            }
            ExitCode::from(EXIT_ERROR)
        }
    }
}

/// Prints to stdout, finishing quietly when the reader has closed the
/// pipe (e.g. `ccs stats … | head`) instead of panicking like
/// `println!` would.
fn print_quietly(text: &str) {
    let _ = io::stdout().write_all(text.as_bytes());
}

fn print_usage() {
    eprintln!(
        "usage:
  ccs generate --method quest|rules --baskets <N> --items <N> [--seed <n>] --db <file>
  ccs attrs    --items <N> --db <file>                 write identity-price attributes
  ccs analyze  --query <q> (--attrs <file> | --db <file> | --items <N>) [--json]
               static query analysis before any counting: satisfiability
               verdict with a minimal conflicting core, normalization,
               and a per-constraint push plan
               exits 0 when satisfiable or trivial, 3 when unsatisfiable
  ccs mine     --db <file> [--attrs <file>] --query <q> [--algorithm <a>]
               [--measure chi2|all-confidence|bond] [--threshold <f>]
               [--support <f>] [--ct <f>] [--confidence <f>] [--counting <s>]
               [--timeout <secs>] [--max-cells <N>] [--max-mem-mb <N>] [--explain]
               [--checkpoint <file>] [--checkpoint-every <N>]
               algorithms: bms+ bms++ bms* bms** naive naive-min-valid
               measures:   chi2 (default; --confidence is its threshold
                           spelling), all-confidence, bond — --threshold
                           sets the cutoff for any measure
               counting:   horizontal vertical parallel vertical-par
                           sharded fp-tree auto (pooled strategies count
                           on scoped threads, one per CPU)
               --checkpoint stamps a crash-safe snapshot at every level
               boundary (every Nth with --checkpoint-every) and on any
               budget trip, so a truncated or killed run can continue
               exits 0 when complete, 2 when truncated by a budget or Ctrl-C
  ccs resume   <checkpoint> --db <file> [--attrs <file>] [--query <q>]
               [--counting <s>] [--timeout <secs>] [--max-cells <N>]
               [--max-mem-mb <N>] [--checkpoint-every <N>]
               continue an interrupted run from its checkpoint file; the
               snapshot pins the algorithm and the original query, and the
               database must fingerprint-match the one the run started on.
               a corrupt or format-skewed checkpoint restarts from scratch
               (with a warning) when --query is given, else exits 1.
               keeps stamping into the same file; exits 0 / 2 like mine
  ccs stats    --db <file>                             print database statistics"
    );
}

/// Installs a SIGINT handler that flips a cancellation flag, so Ctrl-C
/// turns the current mining run into a sound truncated result instead of
/// killing the process. Raw `signal(2)` via a hand-declared binding — no
/// libc crate in this workspace. This module is the only place the
/// binary opts out of its `deny(unsafe_code)`.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static CANCEL: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_sigint(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        if let Some(flag) = CANCEL.get() {
            flag.store(true, Ordering::Relaxed);
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;

    pub fn install() -> Arc<AtomicBool> {
        let flag = CANCEL
            .get_or_init(|| Arc::new(AtomicBool::new(false)))
            .clone();
        // SAFETY: `signal` is the POSIX `signal(2)` function, declared by
        // hand with the handler passed as `usize` (an `extern "C" fn(i32)`
        // pointer is ABI-compatible with `void (*)(int)` on every
        // supported unix target). The handler is registered *before* any
        // mining starts and does only async-signal-safe work — a single
        // relaxed atomic store. `CANCEL` is initialised via `get_or_init`
        // before `signal` is called, so a SIGINT arriving in the
        // registration window either runs the process default (terminate —
        // the run has not started, nothing is lost) or finds the flag
        // already initialised; the handler can never observe a
        // partially-built `OnceLock` because `get_or_init` completes
        // first on this thread, and no other thread exists yet.
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
        flag
    }
}

#[cfg(not(unix))]
mod sigint {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    pub fn install() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }
}

/// Minimal flag parser: `--key value` and `--key=value` pairs, plus
/// valueless boolean switches (`--json`, `--explain`). Construction
/// walks the whole argument list and rejects misspelled or stray flags
/// up front — a silently ignored `--timeout` would leave the user
/// believing a budget is armed.
struct Flags<'a> {
    args: &'a [String],
    switches: &'static [&'static str],
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String], known: &[&str]) -> Result<Self, String> {
        Self::with_switches(args, known, &[])
    }

    fn with_switches(
        args: &'a [String],
        known: &[&str],
        switches: &'static [&'static str],
    ) -> Result<Self, String> {
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_str();
            if !arg.starts_with("--") {
                return Err(format!("unexpected argument '{arg}'"));
            }
            let (key, has_inline_value) = match arg.split_once('=') {
                Some((k, _)) => (k, true),
                None => (arg, false),
            };
            if switches.contains(&key) {
                if has_inline_value {
                    return Err(format!("{key} takes no value"));
                }
                continue;
            }
            if !known.contains(&key) {
                return Err(format!("unknown flag '{key}'"));
            }
            if !has_inline_value && it.next().is_none() {
                return Err(format!("missing value for {key}"));
            }
        }
        Ok(Flags { args, switches })
    }

    fn get(&self, key: &str) -> Option<&str> {
        let mut args = self.args.iter();
        while let Some(a) = args.next() {
            if a == key {
                return args.next().map(String::as_str);
            }
            if let Some(v) = a.strip_prefix(key).and_then(|r| r.strip_prefix('=')) {
                return Some(v);
            }
        }
        None
    }

    /// `true` iff the boolean switch `key` appears.
    fn has(&self, key: &str) -> bool {
        debug_assert!(self.switches.contains(&key));
        self.args.iter().any(|a| a == key)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag {key}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for {key}")),
        }
    }

    fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value '{v}' for {key}")),
        }
    }
}

/// Rejects an `--items` universe larger than a dataset file may declare.
fn bounded_items(items: u32) -> Result<u32, String> {
    if items > MAX_ITEMS {
        return Err(format!(
            "--items {items} exceeds the limit of {MAX_ITEMS} items"
        ));
    }
    Ok(items)
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(
        args,
        &["--method", "--baskets", "--items", "--seed", "--db"],
    )?;
    let method = flags.require("--method")?;
    let baskets: usize = flags.parse_or("--baskets", 10_000)?;
    let items = bounded_items(flags.parse_or("--items", 100)?)?;
    let seed: u64 = flags.parse_or("--seed", 42)?;
    let out_path = flags.require("--db")?;

    if items == 0 {
        return Err("--items must be at least 1".to_owned());
    }
    let db = match method {
        "quest" => generate_quest(&QuestParams::small(baskets, items, seed)),
        "rules" => {
            let p = RuleParams::small(baskets, items, seed);
            // `generate_rules` plants disjoint rules and asserts there is
            // room for them; turn that into a flag error up front.
            let needed = p.n_rules * p.rule_len.1;
            if needed > items as usize {
                return Err(format!(
                    "--items {items} is too small for the rules method, \
                     which plants {} disjoint rules of up to {} items; \
                     need at least {needed}",
                    p.n_rules, p.rule_len.1
                ));
            }
            let data = generate_rules(&p);
            eprintln!("planted rules:");
            for r in &data.rules {
                eprintln!("  {} (support {:.2})", r.items, r.support);
            }
            data.db
        }
        other => return Err(format!("unknown method '{other}' (quest|rules)")),
    };
    let file = File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    let mut w = BufWriter::new(file);
    write_db(&db, &mut w).map_err(|e| format!("write {out_path}: {e}"))?;
    eprintln!(
        "wrote {} baskets over {} items to {out_path}",
        db.len(),
        db.n_items()
    );
    Ok(())
}

fn cmd_attrs(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args, &["--items", "--db"])?;
    let items: u32 = flags
        .require("--items")?
        .parse()
        .map_err(|_| "bad value for --items".to_owned())
        .and_then(bounded_items)?;
    let out_path = flags.require("--db")?;
    let attrs = AttributeTable::with_identity_prices(items);
    let file = File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    let mut w = BufWriter::new(file);
    write_attrs(&attrs, &mut w).map_err(|e| format!("write {out_path}: {e}"))?;
    eprintln!("wrote identity-price attributes for {items} items to {out_path}");
    Ok(())
}

fn load_db(path: &str) -> Result<TransactionDb, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_db(file).map_err(|e| format!("parse {path}: {e}"))
}

fn load_attrs(path: &str) -> Result<AttributeTable, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_attrs(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::with_switches(
        args,
        &["--query", "--attrs", "--db", "--items"],
        &["--json"],
    )?;
    let query_text = flags.require("--query")?;
    let attrs = if let Some(path) = flags.get("--attrs") {
        load_attrs(path)?
    } else if let Some(items) = flags.parse_opt::<u32>("--items")? {
        AttributeTable::with_identity_prices(bounded_items(items)?)
    } else if let Some(path) = flags.get("--db") {
        AttributeTable::with_identity_prices(load_db(path)?.n_items())
    } else {
        return Err(
            "analyze needs an attribute universe: --attrs <file>, --db <file>, or --items <N>"
                .to_owned(),
        );
    };
    let parsed = parse_query(query_text, &attrs).map_err(|e| format!("query: {e}"))?;
    let analysis = analyze_spanned(&parsed.constraints, &parsed.spans, &attrs)
        .map_err(|e| format!("analyze: {e}"))?;
    if flags.has("--json") {
        print_quietly(&format!("{}\n", analysis.to_json()));
    } else {
        print_quietly(&analysis.render(Some(query_text)));
    }
    if analysis.verdict.is_unsatisfiable() {
        Ok(ExitCode::from(EXIT_UNSATISFIABLE))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// The `--algorithm` of `mine` and of `resume`'s restart path; BMS++ by
/// default.
fn parse_algorithm(flags: &Flags<'_>) -> Result<Algorithm, String> {
    flags.get("--algorithm").unwrap_or("bms++").parse()
}

/// The `--counting` strategy shared by `mine` and `resume`; horizontal
/// by default.
fn parse_counting(flags: &Flags<'_>) -> Result<CountingStrategy, String> {
    flags.get("--counting").unwrap_or("horizontal").parse()
}

/// Builds the run guard shared by `mine` and `resume`: budgets from the
/// flags, cancellation from Ctrl-C. The guard is armed whenever any of
/// these are in play.
fn parse_guard(flags: &Flags<'_>) -> Result<RunGuard, String> {
    let timeout_secs: Option<f64> = flags.parse_opt("--timeout")?;
    if let Some(secs) = timeout_secs {
        if !secs.is_finite() || secs < 0.0 {
            return Err(format!(
                "--timeout must be a non-negative number, got {secs}"
            ));
        }
    }
    let limits = GuardLimits {
        timeout: timeout_secs.map(Duration::from_secs_f64),
        work_budget_cells: flags.parse_opt("--max-cells")?,
        memory_budget_bytes: flags
            .parse_opt::<usize>("--max-mem-mb")?
            .map(|mb| mb.saturating_mul(1024 * 1024)),
    };
    let cancel = sigint::install();
    Ok(RunGuard::with_cancel_flag(limits, cancel))
}

/// The checkpoint cadence for `--checkpoint-every`, shared by `mine`
/// and `resume`: every level unless the flag names a larger stride.
fn parse_cadence(flags: &Flags<'_>) -> Result<CheckpointCadence, String> {
    match flags.parse_opt("--checkpoint-every")? {
        Some(0) => Err("--checkpoint-every must be at least 1".to_owned()),
        None | Some(1) => Ok(CheckpointCadence::EveryLevel),
        Some(n) => Ok(CheckpointCadence::EveryLevels(n)),
    }
}

/// The durability policy for `--checkpoint` / `--checkpoint-every`.
fn parse_checkpoint(flags: &Flags<'_>) -> Result<Option<CheckpointPolicy>, String> {
    let cadence = parse_cadence(flags)?;
    let Some(path) = flags.get("--checkpoint") else {
        if flags.get("--checkpoint-every").is_some() {
            return Err("--checkpoint-every needs --checkpoint <file>".to_owned());
        }
        return Ok(None);
    };
    Ok(Some(CheckpointPolicy::file(path, cadence)))
}

/// Prints the answers and the run summary, returning the process exit
/// code: 0 for a complete answer set, 2 for a sound truncated one.
/// `requested` is the strategy the command line asked for: when it was
/// `auto`, the summary names the concrete strategy the run resolved to,
/// so the routing decision is visible.
fn emit_outcome(
    outcome: &MineOutcome,
    requested: CountingStrategy,
    checkpoint_path: Option<&str>,
) -> Result<ExitCode, String> {
    let result = &outcome.result;
    if requested == CountingStrategy::Auto {
        eprintln!("auto counting resolved to {}", outcome.strategy);
    }
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for set in &result.answers {
        // A closed pipe (e.g. `ccs mine … | head`) is a normal way for
        // the reader to stop — finish quietly instead of panicking.
        if writeln!(out, "{set}").is_err() {
            return Ok(ExitCode::SUCCESS);
        }
    }
    drop(out);
    eprintln!(
        "{} answers ({}), {} tables built, {} cells counted, {:.3}s",
        result.answers.len(),
        result.semantics,
        result.metrics.tables_built,
        result.metrics.cells_counted,
        result.metrics.elapsed.as_secs_f64()
    );
    if result.metrics.degraded_batches > 0 {
        eprintln!(
            "memory budget: counting stepped down the degradation ladder for {} batch(es)",
            result.metrics.degraded_batches
        );
    }
    if let Some(report) = &outcome.checkpoint {
        if let Some(error) = &report.error {
            eprintln!("warning: checkpoint write failed: {error}");
        }
    }
    if result.completion.is_complete() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "run {}; the answers above are sound but possibly incomplete",
            result.completion
        );
        if let Some(path) = checkpoint_path {
            if outcome
                .checkpoint
                .as_ref()
                .is_some_and(|r| r.written > 0 && r.error.is_none())
            {
                eprintln!("continue with: ccs resume {path} --db <file>");
            }
        }
        Ok(ExitCode::from(EXIT_TRUNCATED))
    }
}

fn cmd_mine(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::with_switches(
        args,
        &[
            "--db",
            "--attrs",
            "--query",
            "--algorithm",
            "--counting",
            "--measure",
            "--threshold",
            "--confidence",
            "--support",
            "--ct",
            "--min-item-support",
            "--max-level",
            "--timeout",
            "--max-cells",
            "--max-mem-mb",
            "--checkpoint",
            "--checkpoint-every",
        ],
        &["--explain"],
    )?;
    let db = load_db(flags.require("--db")?)?;
    let attrs = match flags.get("--attrs") {
        Some(path) => load_attrs(path)?,
        None => AttributeTable::with_identity_prices(db.n_items()),
    };
    let query_text = flags.get("--query").unwrap_or("correlated & ct_supported");
    let parsed = parse_query(query_text, &attrs).map_err(|e| format!("query: {e}"))?;
    let algorithm = parse_algorithm(&flags)?;
    let strategy = parse_counting(&flags)?;
    let measure: Measure = flags
        .get("--measure")
        .unwrap_or("chi2")
        .parse()
        .map_err(|e| format!("--measure: {e}"))?;
    // `--threshold` is the measure-neutral spelling of the cutoff;
    // `--confidence` remains the historical χ² spelling of the same
    // field. Accepting both at once would silently shadow one of them.
    let threshold = match (
        flags.parse_opt::<f64>("--threshold")?,
        flags.parse_opt::<f64>("--confidence")?,
    ) {
        (Some(_), Some(_)) => {
            return Err(
                "--threshold and --confidence are two spellings of the same cutoff; \
                 pass only one"
                    .to_owned(),
            )
        }
        (Some(t), None) => t,
        (None, Some(c)) => {
            if measure != Measure::Chi2 {
                return Err(format!(
                    "--confidence is the chi2 spelling of the cutoff; \
                     use --threshold with --measure {measure}"
                ));
            }
            c
        }
        (None, None) => measure.default_threshold(),
    };
    let params = MiningParams {
        measure,
        confidence: threshold,
        support_fraction: flags.parse_or("--support", 0.25)?,
        ct_fraction: flags.parse_or("--ct", 0.25)?,
        min_item_support: flags.parse_or("--min-item-support", 0.0)?,
        max_level: flags.parse_or("--max-level", 8)?,
    };
    if flags.has("--explain") {
        let analysis = analyze_for_measure(
            &parsed.constraints,
            &parsed.spans,
            &attrs,
            measure.monotonicity(),
        )
        .map_err(|e| format!("analyze: {e}"))?;
        eprintln!(
            "measure: {} (threshold {}) — {}",
            measure,
            params.confidence,
            measure.monotonicity().describe()
        );
        eprint!("{}", analysis.render(Some(query_text)));
    }
    let constraints = parsed.constraints;
    let query = CorrelationQuery {
        params,
        constraints,
    };
    let guard = parse_guard(&flags)?;
    let checkpoint_path = flags.get("--checkpoint");

    let mut request = MineRequest::new(algorithm).strategy(strategy).guard(guard);
    if let Some(policy) = parse_checkpoint(&flags)? {
        request = request.checkpoint(policy);
    }
    let outcome = MiningSession::new(&db, &attrs)
        .mine(&query, &request)
        .map_err(|e| e.to_string())?;
    emit_outcome(&outcome, strategy, checkpoint_path)
}

fn cmd_resume(args: &[String]) -> Result<ExitCode, String> {
    let Some((path, rest)) = args.split_first().filter(|(p, _)| !p.starts_with("--")) else {
        return Err(
            "resume needs a checkpoint file: ccs resume <checkpoint> --db <file>".to_owned(),
        );
    };
    let flags = Flags::new(
        rest,
        &[
            "--db",
            "--attrs",
            "--query",
            "--algorithm",
            "--counting",
            "--timeout",
            "--max-cells",
            "--max-mem-mb",
            "--checkpoint-every",
        ],
    )?;
    let db = load_db(flags.require("--db")?)?;
    let attrs = match flags.get("--attrs") {
        Some(p) => load_attrs(p)?,
        None => AttributeTable::with_identity_prices(db.n_items()),
    };
    let strategy = parse_counting(&flags)?;
    let guard = parse_guard(&flags)?;
    // The resumed run keeps stamping into the same file, so a second
    // interruption is just another `ccs resume`.
    let request = MineRequest::default()
        .strategy(strategy)
        .guard(guard)
        .checkpoint(CheckpointPolicy::file(path, parse_cadence(&flags)?));

    let checkpoint = match read_checkpoint_file(path) {
        Ok(ckpt) => ckpt,
        Err(e @ (CheckpointError::Corrupt(_) | CheckpointError::FormatMismatch { .. })) => {
            // The degrade path: an unreadable checkpoint must never
            // panic or silently mis-resume. With a query we can restart
            // the run from scratch; without one, fail cleanly.
            let Some(query_text) = flags.get("--query") else {
                return Err(format!(
                    "{e}; pass --query <q> to restart the run from scratch"
                ));
            };
            eprintln!("warning: {e}; restarting from scratch");
            let parsed = parse_query(query_text, &attrs).map_err(|e| format!("query: {e}"))?;
            // The original run's parameters are unreadable along with the
            // checkpoint; restart under `ccs mine`'s defaults (which are
            // the paper's, including the χ² measure).
            let query = CorrelationQuery {
                params: MiningParams::paper(),
                constraints: parsed.constraints,
            };
            let request = request.algorithm(parse_algorithm(&flags)?);
            let outcome = MiningSession::new(&db, &attrs)
                .mine(&query, &request)
                .map_err(|e| e.to_string())?;
            return emit_outcome(&outcome, strategy, Some(path));
        }
        Err(e) => return Err(e.to_string()),
    };
    checkpoint.verify_db(&db).map_err(|e| e.to_string())?;
    eprintln!(
        "resuming {} from {path} ({})",
        checkpoint.algorithm().name(),
        match checkpoint.status {
            CheckpointStatus::InProgress { level } => format!("mid-run stamp at level {level}"),
            CheckpointStatus::Tripped {
                reason,
                frontier_level,
                ..
            } => format!("tripped ({reason}) at level {frontier_level}"),
        }
    );
    let outcome = MiningSession::new(&db, &attrs)
        .resume(&checkpoint.query, &request, checkpoint.resume)
        .map_err(|e| e.to_string())?;
    emit_outcome(&outcome, strategy, Some(path))
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args, &["--db"])?;
    let db = load_db(flags.require("--db")?)?;
    let supports = db.item_supports();
    let nonzero = supports.iter().filter(|&&s| s > 0).count();
    let mut text = format!(
        "baskets:          {}\n\
         items:            {}\n\
         avg basket size:  {:.2}\n\
         max basket size:  {}\n\
         items occurring:  {nonzero}\n",
        db.len(),
        db.n_items(),
        db.avg_transaction_len(),
        db.max_transaction_len()
    );
    if let Some((item, &support)) = supports.iter().enumerate().max_by_key(|(_, &s)| s) {
        text.push_str(&format!(
            "most frequent:    i{item} ({support} baskets, {:.1}%)\n",
            100.0 * support as f64 / db.len().max(1) as f64
        ));
    }
    print_quietly(&text);
    Ok(())
}
