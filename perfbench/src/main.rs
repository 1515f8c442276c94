//! End-to-end and per-layer benchmark of the `ccs` mining library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload quest_session --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client runs a workload's fixed query mix in a closed loop, in
//! whole cycles, for about `--seconds`, through the entry points `ccs
//! mine` and `ccs resume` use (`read_db`, `read_attrs`, `parse_query`,
//! `MiningSession`, `CheckpointPolicy::file`, `read_checkpoint_file`,
//! `verify_db`), with `CountingStrategy::Auto` and the library's default
//! worker pool. Every answer set is compared with a reference computed
//! with the benchmark's own counting backend and checked against the raw
//! baskets. The untraced run times every operation on the wall clock and
//! in process CPU time, and reports the CPU times scaled to a reference
//! host speed gauged by [`probe`]. With `--trace 1` the same mix runs through
//! `mine_on`/`resume_on` with forwarding wrappers and spans around each
//! layer call, interleaved with untraced twins of each operation; it
//! reports per-layer metrics and the tracing overhead.
//!
//! Standard output is a human-readable report (host stamp, routing,
//! metrics with sample counts) whose last line is one JSON object.

mod check;
mod gen;
mod probe;
mod trace;

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ccs::dataset::{read_attrs, read_db};
use ccs::itemset::{
    FpTreeCounter, HorizontalCounter, MintermCounter, ParallelCounter, ParallelVerticalCounter,
    ShardedVerticalCounter, VerticalCounter,
};
use ccs::prelude::*;

use check::Reference;
use gen::{Dataset, Inputs, OpKind, QuerySpec, Workload, OP_KINDS};
use trace::{span, QueryRec, TracedCounter, TracedSink, Tracer};

/// Set-ups spread evenly through each cycle of the untraced loop, the
/// datasets in turn (outside the operation counts and the loop time), so
/// that `setup_s`, the median of all of them, samples the whole run.
const SETUPS_PER_CYCLE: usize = 12;
/// The host-speed probe's median CPU time on the 2-vCPU x86-64 virtual
/// machine the benchmark was written on: the speed CPU times are scaled
/// to (see [`Probed::record`]).
const PROBE_REF_CPU_S: f64 = 1.85e-3;
/// Samples each latency percentile needs in one run, so that ten lie
/// beyond p90: the untraced loop runs enough whole cycles for them.
const MIN_SAMPLES: usize = 100;
/// A per-layer metric printed in the readable report but left out of the
/// JSON: it reads 0 on every workload, where a relative change means
/// nothing. It counts only horizontal scans, which `Auto` routes none of
/// these workloads to.
const REPORT_ONLY_LAYER: &str = "itemset.transactions_visited";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        format!("unknown workload '{name}' (quest_session, dense_measures, cold_resume)")
    })?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_owned())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_owned())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Shown in the readable report only (sample counts and the like).
    note: String,
    /// Whether the metric goes into the JSON line, or the report only.
    json: bool,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
            json: true,
        }
    }

    /// A metric for the readable report only.
    fn report(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
        Metric {
            note,
            json: false,
            ..Metric::new(name, value, unit)
        }
    }
}

/// Totals of the closed loop, shared by both modes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        // Keep the report readable when everything fails the same way.
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let work_dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".into()))
        .join("perfbench");
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
    let ckpt = work_dir.join(format!(
        "{}-{}.ccs",
        args.workload.name(),
        std::process::id()
    ));

    let t0 = Instant::now();
    let baskets = gen::baskets(args.workload, args.seed);
    let inputs = gen::inputs(args.workload, baskets);
    let generated_s = t0.elapsed().as_secs_f64();
    let mut out = String::new();
    writeln!(
        out,
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
    .ok();
    out.push_str(&host_stamp());
    writeln!(out, "# inputs generated in {generated_s:.3} s").ok();

    let result = if args.trace {
        run_traced(&args, &inputs, &ckpt, &work_dir, &mut out)
    } else {
        run_plain(&args, &inputs, &ckpt, &mut out)
    };
    let _ = std::fs::remove_file(&ckpt);
    let (metrics, tally) = result?;

    for m in &metrics {
        writeln!(
            out,
            "{:<30} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        )
        .ok();
    }
    writeln!(
        out,
        "{:<30} {:>14.6} {:<6} ({}/{} operations)",
        "failed_frac",
        ratio(tally.failed as f64, tally.attempted as f64),
        "ratio",
        tally.failed,
        tally.attempted
    )
    .ok();
    for p in &tally.problems {
        writeln!(out, "# FAILED: {p}").ok();
    }
    let correct = tally.failed == 0 && tally.problems.is_empty();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    let reported = metrics.iter().filter(|m| m.json);
    for (i, m) in reported.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .ok();
    }
    json.push_str("}}");
    print!("{out}");
    println!("{json}");
    Ok(())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The host facts any timing depends on.
fn host_stamp() -> String {
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| *name)
    .collect();
    format!(
        "# host available_parallelism={workers} target_features={} rustflags=\"{}\"\n",
        features.join(","),
        env!("PERFBENCH_RUSTFLAGS")
    )
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// CPU time the whole process, every thread, has used, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`, with the 64-bit Linux `timespec`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// A moment on two clocks: the wall clock, and the process's CPU time.
#[derive(Clone, Copy)]
struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    fn elapsed(self) -> Took {
        let now = Stamp::now();
        Took {
            wall: (now.wall - self.wall).as_secs_f64(),
            cpu: now.cpu - self.cpu,
        }
    }
}

/// How long one step took, in seconds, on each clock. The CPU time sums
/// every thread of the process (the worker pool's too), and leaves out
/// what the wall clock also counts: time the host gave the virtual CPUs
/// to someone else (steal), other processes' turns, and waits for the
/// disk (the checkpoint `fsync`).
#[derive(Clone, Copy)]
struct Took {
    wall: f64,
    cpu: f64,
}

/// The counter `MiningSession` builds for `strategy` when no thread or
/// shard override is given.
fn counter_for(db: &TransactionDb, strategy: CountingStrategy) -> Box<dyn MintermCounter + '_> {
    match strategy {
        CountingStrategy::Horizontal => Box::new(HorizontalCounter::new(db)),
        CountingStrategy::Vertical => Box::new(VerticalCounter::new(db)),
        CountingStrategy::Parallel => Box::new(ParallelCounter::with_available_parallelism(db)),
        CountingStrategy::VerticalPar => Box::new(ParallelVerticalCounter::new(db)),
        CountingStrategy::Sharded => Box::new(ShardedVerticalCounter::new(db)),
        CountingStrategy::FpTree => Box::new(FpTreeCounter::new(db)),
        CountingStrategy::Auto => unreachable!("resolve() never returns Auto"),
    }
}

/// Where queries run: the session `ccs mine` uses, or the same kernel
/// through `mine_on`/`resume_on` with a traced counter.
enum Miner<'a> {
    Plain(MiningSession<'a>),
    Traced {
        db: &'a TransactionDb,
        attrs: &'a AttributeTable,
        counter: TracedCounter<'a>,
        tracer: Tracer,
    },
}

impl<'a> Miner<'a> {
    fn open(db: &'a TransactionDb, attrs: &'a AttributeTable, tracer: Option<&Tracer>) -> Self {
        match tracer {
            None => Miner::Plain(MiningSession::new(db, attrs)),
            Some(t) => {
                let strategy = CountingStrategy::Auto.resolve(db, None, None);
                let inner = t.span(trace::BUILD, || counter_for(db, strategy));
                Miner::Traced {
                    db,
                    attrs,
                    counter: TracedCounter::new(inner, t.clone(), true),
                    tracer: t.clone(),
                }
            }
        }
    }

    fn tracer(&self) -> Option<&Tracer> {
        match self {
            Miner::Plain(_) => None,
            Miner::Traced { tracer, .. } => Some(tracer),
        }
    }

    fn attrs(&self) -> &AttributeTable {
        match self {
            Miner::Plain(s) => s.attrs(),
            Miner::Traced { attrs, .. } => attrs,
        }
    }

    /// Runs (or, given a snapshot, resumes) one query. The traced form
    /// records the call's span, the counter's statistics delta, and then
    /// replays the measure's verdict on every table the counter returned.
    fn run(
        &mut self,
        query: &CorrelationQuery,
        request: &MineRequest,
        resume: Option<ResumeState>,
    ) -> Result<MiningResult, String> {
        match self {
            Miner::Plain(session) => {
                let outcome = match resume {
                    None => session.mine(query, request),
                    Some(state) => session.resume(query, request, state),
                }
                .map_err(|e| e.to_string())?;
                if let Some(error) = outcome.checkpoint.and_then(|r| r.error) {
                    return Err(format!("checkpoint write failed: {error}"));
                }
                Ok(outcome.result)
            }
            Miner::Traced {
                db,
                attrs,
                counter,
                tracer,
            } => {
                let before = counter.stats();
                let name = if resume.is_some() {
                    trace::RESUME
                } else {
                    trace::MINE
                };
                let id = tracer.begin(name);
                let result = match resume {
                    None => mine_on(db, attrs, query, request, counter),
                    Some(state) => resume_on(db, attrs, query, request, counter, state),
                };
                tracer.end(id, 0);
                let result = result.map_err(|e| e.to_string())?;
                let counting = counter.stats().since(&before);
                let ctx = query.params.measure_context().map_err(|e| e.to_string())?;
                let tables = counter.take_captured();
                let v = tracer.begin(trace::VERDICT);
                for t in &tables {
                    black_box(ctx.verdict(black_box(t)));
                }
                tracer.end(v, tables.len() as u64);
                tracer.record(QueryRec {
                    span: id,
                    counting,
                    metrics: result.metrics.clone(),
                    answers: result.answers.len(),
                    truncated: !result.completion.is_complete(),
                });
                Ok(result)
            }
        }
    }
}

fn load(ds: &Dataset, tracer: Option<&Tracer>) -> Result<(TransactionDb, AttributeTable), String> {
    let db = span(tracer, trace::READ_DB, || read_db(&ds.db_bytes[..]))
        .map_err(|e| format!("read_db: {e}"))?;
    let attrs = span(tracer, trace::READ_ATTRS, || {
        read_attrs(&ds.attrs_bytes[..])
    })
    .map_err(|e| format!("read_attrs: {e}"))?;
    Ok((db, attrs))
}

fn parse(
    spec: &QuerySpec,
    attrs: &AttributeTable,
    tracer: Option<&Tracer>,
) -> Result<ParsedQuery, String> {
    span(tracer, trace::PARSE, || parse_query(&spec.text, attrs))
        .map_err(|e| format!("query '{}': {e}", spec.text))
}

fn correlation_query(spec: &QuerySpec, parsed: ParsedQuery) -> CorrelationQuery {
    CorrelationQuery {
        params: spec.params,
        constraints: parsed.constraints,
    }
}

/// One warm-session query: parse the text, mine it, expect a complete run.
fn warm_query(miner: &mut Miner<'_>, spec: &QuerySpec) -> Result<MiningResult, String> {
    let parsed = parse(spec, miner.attrs(), miner.tracer())?;
    let query = correlation_query(spec, parsed);
    let request = MineRequest::new(spec.algorithm).strategy(CountingStrategy::Auto);
    let result = miner.run(&query, &request, None)?;
    if !result.completion.is_complete() {
        return Err(format!("'{}' was truncated unexpectedly", spec.text));
    }
    Ok(result)
}

fn checkpoint_policy(path: &Path, tracer: Option<&Tracer>) -> CheckpointPolicy {
    match tracer {
        None => CheckpointPolicy::file(path, CheckpointCadence::EveryLevel),
        Some(t) => CheckpointPolicy::new(
            Box::new(TracedSink::new(path, t.clone())),
            CheckpointCadence::EveryLevel,
        ),
    }
}

/// One cold job, as `ccs mine --checkpoint` under a cell budget that
/// trips mid-sweep followed by `ccs resume`, in process: from the bytes
/// to the resumed run's answers.
fn cold_job(
    ds: &Dataset,
    spec: &QuerySpec,
    budget: u64,
    path: &Path,
    tracer: Option<&Tracer>,
) -> Result<Vec<Itemset>, String> {
    let (db, attrs) = load(ds, tracer)?;
    let parsed = parse(spec, &attrs, tracer)?;
    let analysis = span(tracer, trace::ANALYZE, || {
        analyze_for_measure(
            &parsed.constraints,
            &parsed.spans,
            &attrs,
            spec.params.measure.monotonicity(),
        )
    })
    .map_err(|e| format!("analyze: {e}"))?;
    if analysis.verdict.is_unsatisfiable() {
        return Err(format!("'{}' is unsatisfiable", spec.text));
    }
    let query = correlation_query(spec, parsed);
    let mut miner = Miner::open(&db, &attrs, tracer);
    let guard = RunGuard::new(GuardLimits {
        work_budget_cells: Some(budget),
        ..GuardLimits::default()
    });
    let request = MineRequest::new(spec.algorithm)
        .strategy(CountingStrategy::Auto)
        .guard(guard)
        .checkpoint(checkpoint_policy(path, tracer));
    let first = miner.run(&query, &request, None)?;
    if first.completion.is_complete() {
        return Err(format!("'{}': the cell budget did not trip", spec.text));
    }
    let checkpoint = span(tracer, trace::READ_CKPT, || read_checkpoint_file(path))
        .map_err(|e| format!("read checkpoint: {e}"))?;
    span(tracer, trace::VERIFY, || checkpoint.verify_db(&db))
        .map_err(|e| format!("verify checkpoint: {e}"))?;
    let request = MineRequest::default()
        .strategy(CountingStrategy::Auto)
        .checkpoint(checkpoint_policy(path, tracer));
    let second = miner.run(&checkpoint.query, &request, Some(checkpoint.resume))?;
    if !second.completion.is_complete() {
        return Err(format!("'{}': the resumed run was truncated", spec.text));
    }
    std::fs::remove_file(path).map_err(|e| format!("remove checkpoint: {e}"))?;
    Ok(second.answers)
}

/// A dataset parsed once and kept for the warm sessions that borrow it.
struct Loaded {
    db: TransactionDb,
    attrs: AttributeTable,
}

/// One set-up: from a dataset's bytes to a session warmed by the fixed
/// warm-up query. Returns its time and the warm-up answers' digest.
fn setup_once(
    ds: &Dataset,
    warmup: &QuerySpec,
    tracer: Option<&Tracer>,
) -> Result<(Took, u64), String> {
    let t0 = Stamp::now();
    let (db, attrs) = load(ds, tracer)?;
    let mut miner = Miner::open(&db, &attrs, tracer);
    let result = warm_query(&mut miner, warmup)?;
    Ok((t0.elapsed(), check::digest(&result.answers)))
}

/// Parses every dataset once, for the warm sessions.
fn load_datasets(inputs: &Inputs, tracer: Option<&Tracer>) -> Result<Vec<Loaded>, String> {
    inputs
        .datasets
        .iter()
        .map(|ds| {
            let (db, attrs) = load(ds, tracer)?;
            Ok(Loaded { db, attrs })
        })
        .collect()
}

/// The datasets' warm sessions, each warmed by the fixed warm-up query,
/// whose answers' digest is recorded.
fn open_sessions<'a>(
    loaded: &'a [Loaded],
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    warmups: &mut Vec<(usize, u64)>,
) -> Result<Vec<Miner<'a>>, String> {
    let warmup = &inputs.queries[inputs.warmup];
    let mut miners = Vec::with_capacity(loaded.len());
    for (d, l) in loaded.iter().enumerate() {
        let mut miner = Miner::open(&l.db, &l.attrs, tracer);
        let result = warm_query(&mut miner, warmup)?;
        warmups.push((d, check::digest(&result.answers)));
        miners.push(miner);
    }
    Ok(miners)
}

/// Reference answers for every distinct query, computed once through
/// `mine_on` with the benchmark's own [`check::BitmapCounter`] and
/// checked for soundness against the raw baskets. The counter is traced
/// only to log batch sizes.
fn references(l: &Loaded, inputs: &Inputs, tally: &mut Tally) -> Result<Vec<Reference>, String> {
    let mut refs = Vec::with_capacity(inputs.queries.len());
    let mut tables = check::Tables::new(&l.db);
    for spec in &inputs.queries {
        let query = correlation_query(spec, parse(spec, &l.attrs, None)?);
        let tracer = Tracer::new();
        let bitmaps = Box::new(check::BitmapCounter::new(&l.db));
        let mut counter = TracedCounter::new(bitmaps, tracer.clone(), false);
        let request = MineRequest::new(spec.algorithm);
        let result = mine_on(&l.db, &l.attrs, &query, &request, &mut counter)
            .map_err(|e| format!("reference for '{}': {e}", spec.text))?;
        let answers = result.answers;
        if let Err(e) = check::soundness(&mut tables, l.db.len(), &l.attrs, &query, &answers) {
            tally
                .problems
                .push(format!("reference '{}': {e}", spec.text));
        }
        refs.push(Reference {
            digest: check::digest(&answers),
            batch_cells: tracer
                .spans()
                .iter()
                .filter(|s| s.name == trace::COUNT)
                .map(|s| s.work)
                .collect(),
            answers: answers.len(),
            cold_budget: None,
        });
    }
    Ok(refs)
}

/// Everything before the closed loop, per dataset: routing, reference
/// answers, and the cold-job queries with their budgets (the first
/// `COLD_QUERIES` candidates whose run can trip mid-sweep).
fn prepare(
    loaded: &[Loaded],
    inputs: &Inputs,
    tally: &mut Tally,
    out: &mut String,
) -> Result<Vec<Vec<Reference>>, String> {
    let mut refs = Vec::with_capacity(loaded.len());
    for (d, l) in loaded.iter().enumerate() {
        let auto = CountingStrategy::Auto.resolve(&l.db, None, None);
        let t0 = Instant::now();
        let mut r = references(l, inputs, tally)?;
        let references_s = t0.elapsed().as_secs_f64();
        let sequential = matches!(
            auto,
            CountingStrategy::Horizontal | CountingStrategy::Vertical | CountingStrategy::FpTree
        );
        let cold: Vec<usize> = inputs
            .cold
            .iter()
            .copied()
            .filter(|&q| r[q].mid_sweep_budget(sequential).is_some())
            .take(gen::COLD_QUERIES)
            .collect();
        if cold.is_empty() {
            return Err(format!("dataset {d}: no cold-job query can trip mid-sweep"));
        }
        for &q in &cold {
            r[q].cold_budget = r[q].mid_sweep_budget(sequential);
        }
        let answers: usize = r.iter().map(|r| r.answers).sum();
        writeln!(
            out,
            "# dataset {d}: baskets={} items={} avg_len={:.3} density={:.4} auto={auto}; \
             {} cold-job queries; {answers} reference answers in {references_s:.3} s",
            l.db.len(),
            l.db.n_items(),
            l.db.avg_transaction_len(),
            l.db.avg_transaction_len() / f64::from(l.db.n_items().max(1)),
            cold.len(),
        )
        .ok();
        refs.push(r);
    }
    writeln!(
        out,
        "# mix: {} valid_min and {} min_valid queries on each of {} datasets; cycle length {}",
        inputs.valid_min.len(),
        inputs.min_valid.len(),
        loaded.len(),
        mix(inputs, &refs).len()
    )
    .ok();
    Ok(refs)
}

/// The cycled mix, with each dataset's cold jobs on its budgeted queries.
fn mix(inputs: &Inputs, refs: &[Vec<Reference>]) -> Vec<gen::Op> {
    let colds: Vec<Vec<usize>> = refs
        .iter()
        .map(|r| {
            inputs
                .cold
                .iter()
                .copied()
                .filter(|&q| r[q].cold_budget.is_some())
                .collect()
        })
        .collect();
    gen::cycle(&inputs.valid_min, &inputs.min_valid, &colds)
}

fn check_warmups(
    refs: &[Vec<Reference>],
    warmup: usize,
    warmups: &[(usize, u64)],
    tally: &mut Tally,
) {
    for &(d, digest) in warmups {
        if digest != refs[d][warmup].digest {
            tally.fail(format!(
                "dataset {d}: warm-up answers differ from the reference"
            ));
        }
    }
}

/// Runs one operation of the mix and compares its answers with the
/// reference. Warm queries return their result.
fn run_op(
    miners: &mut [Miner<'_>],
    inputs: &Inputs,
    refs: &[Vec<Reference>],
    op: gen::Op,
    ckpt: &Path,
    tracer: Option<&Tracer>,
) -> Result<Option<MiningResult>, String> {
    let spec = &inputs.queries[op.query];
    let reference = &refs[op.dataset][op.query];
    let (answers, result) = match op.kind {
        OpKind::ValidMin | OpKind::MinValid => {
            let result = warm_query(&mut miners[op.dataset], spec)?;
            (result.answers.clone(), Some(result))
        }
        OpKind::ColdJob => {
            let budget = reference
                .cold_budget
                .expect("cold jobs run only on queries given a budget");
            let ds = &inputs.datasets[op.dataset];
            (cold_job(ds, spec, budget, ckpt, tracer)?, None)
        }
    };
    if check::digest(&answers) != reference.digest {
        return Err(format!(
            "dataset {} '{}' ({:?}): {} answers differ from the {} reference answers",
            op.dataset,
            spec.text,
            op.kind,
            answers.len(),
            reference.answers
        ));
    }
    Ok(result)
}

/// Nearest-rank percentile.
fn percentile(values: impl Iterator<Item = f64>, p: f64) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Runs `cycle` (one whole cycle of the mix) `min_cycles` times, and
/// again while another cycle, as long as the last one, still ends within
/// `seconds`. A run thus samples whole cycles only: what its percentiles
/// cover does not depend on how fast the host is. Returns the number of
/// cycles run.
fn whole_cycles(
    seconds: f64,
    min_cycles: usize,
    mut cycle: impl FnMut() -> Result<(), String>,
) -> Result<usize, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cycles = 0;
    loop {
        let t0 = Instant::now();
        cycle()?;
        cycles += 1;
        let now = Instant::now();
        if cycles >= min_cycles && now + (now - t0) > deadline {
            return Ok(cycles);
        }
    }
}

/// One timed step of the untraced loop.
struct Sample {
    /// The operation type, or `None` for a set-up.
    kind: Option<OpKind>,
    took: Took,
    /// `took.cpu` at the reference host speed: times `PROBE_REF_CPU_S`
    /// over the mean of the probe times just before and just after it.
    scaled: f64,
}

/// The host-speed probes of one run, and the steps they bracket.
struct Probed<'a> {
    host: &'a probe::Probe,
    /// CPU time of every probe run so far, in order.
    probes: Vec<f64>,
    samples: Vec<Sample>,
}

impl<'a> Probed<'a> {
    /// Runs the probe once, ahead of the first step.
    fn new(host: &'a probe::Probe) -> Self {
        let mut probed = Probed {
            host,
            probes: Vec::new(),
            samples: Vec::new(),
        };
        probed.probe();
        probed
    }

    fn probe(&mut self) -> f64 {
        let c0 = process_cpu_s();
        black_box(self.host.run());
        let secs = process_cpu_s() - c0;
        self.probes.push(secs);
        secs
    }

    /// Records a step that has just ended: runs the probe again, and
    /// scales the step's CPU time by the probes on either side of it.
    fn record(&mut self, kind: Option<OpKind>, took: Took) {
        let before = self.probes[self.probes.len() - 1];
        let after = self.probe();
        self.samples.push(Sample {
            kind,
            took,
            scaled: took.cpu * 2.0 * PROBE_REF_CPU_S / (before + after),
        });
    }
}

/// The untraced run: every end-to-end metric, from one process.
///
/// Each step is timed on the wall clock and in process CPU time, and the
/// host-speed probe runs after every step. The JSON carries CPU times
/// scaled to the reference host speed by the probes on either side of
/// each step, which neither steal nor a host that runs slower for a
/// while moves much; the report also prints the wall-clock figures and
/// the probe times.
fn run_plain(
    args: &Args,
    inputs: &Inputs,
    ckpt: &Path,
    out: &mut String,
) -> Result<(Vec<Metric>, Tally), String> {
    // First, so that it is resident at every peak the program reaches.
    let host = probe::Probe::new();
    let loaded = load_datasets(inputs, None)?;
    let mut tally = Tally::default();
    let refs = prepare(&loaded, inputs, &mut tally, out)?;
    let mut warmups = Vec::new();
    let mut miners = open_sessions(&loaded, inputs, None, &mut warmups)?;
    check_warmups(&refs, inputs.warmup, &warmups, &mut tally);
    let cycle = mix(inputs, &refs);
    let warmup = &inputs.queries[inputs.warmup];

    // Enough cycles for `MIN_SAMPLES` of the rarest operation type.
    let rarest = OP_KINDS
        .iter()
        .map(|&k| cycle.iter().filter(|op| op.kind == k).count())
        .min()
        .unwrap_or(0);
    let min_cycles = MIN_SAMPLES.div_ceil(rarest.max(1));
    let setup_every = cycle.len().div_ceil(SETUPS_PER_CYCLE).max(1);
    let mut probed = Probed::new(&host);
    let cycles = whole_cycles(args.seconds, min_cycles, || {
        for (i, op) in cycle.iter().enumerate() {
            if i % setup_every == 0 {
                let d = (i / setup_every) % inputs.datasets.len();
                let (took, digest) = setup_once(&inputs.datasets[d], warmup, None)?;
                probed.record(None, took);
                check_warmups(&refs, inputs.warmup, &[(d, digest)], &mut tally);
            }
            let t0 = Stamp::now();
            let outcome = run_op(&mut miners, inputs, &refs, *op, ckpt, None);
            probed.record(Some(op.kind), t0.elapsed());
            tally.attempted += 1;
            if let Err(e) = outcome {
                tally.fail(e);
            }
        }
        Ok(())
    })?;
    let Probed {
        probes, samples, ..
    } = probed;
    let quartile = |p| percentile(probes.iter().copied(), p) * 1e3;
    writeln!(
        out,
        "# host probe: {} runs, CPU time quartiles {:.4} / {:.4} / {:.4} ms (reference {} ms)",
        probes.len(),
        quartile(0.25),
        quartile(0.5),
        quartile(0.75),
        PROBE_REF_CPU_S * 1e3
    )
    .ok();

    let of = |kind: Option<OpKind>| samples.iter().filter(move |s| s.kind == kind);
    let note = format!("(median of {} set-ups)", of(None).count());
    let mut metrics = vec![
        Metric {
            note: note.clone(),
            ..Metric::new("setup_s", percentile(of(None).map(|s| s.scaled), 0.5), "s")
        },
        Metric::report(
            "setup_wall_s",
            percentile(of(None).map(|s| s.took.wall), 0.5),
            "s",
            note,
        ),
    ];
    for kind in OP_KINDS {
        let note = format!("(n={}, {cycles} cycles)", of(Some(kind)).count());
        for ((cpu_name, wall_name), p) in kind.percentile_metrics().into_iter().zip([0.5, 0.9]) {
            metrics.push(Metric {
                note: note.clone(),
                ..Metric::new(
                    cpu_name,
                    percentile(of(Some(kind)).map(|s| s.scaled), p),
                    "s",
                )
            });
            let latency = percentile(of(Some(kind)).map(|s| s.took.wall), p);
            metrics.push(Metric::report(wall_name, latency, "s", note.clone()));
        }
    }
    let (ops, cpu_s, wall_s) = samples
        .iter()
        .filter(|s| s.kind.is_some())
        .fold((0.0, 0.0, 0.0), |(n, c, w), s| {
            (n + 1.0, c + s.scaled, w + s.took.wall)
        });
    metrics.push(Metric {
        note: format!("({ops} operations in {cpu_s:.3} s of scaled loop CPU time)"),
        ..Metric::new("queries_per_cpu_s", ops / cpu_s, "1/s")
    });
    metrics.push(Metric::report(
        "queries_per_s",
        ops / wall_s,
        "1/s",
        format!("({ops} operations in {wall_s:.3} s of loop time)"),
    ));
    let probe_mb = host.resident_bytes() as f64 / (1024.0 * 1024.0);
    metrics.push(Metric {
        note: format!("(VmHWM less the probe's {probe_mb:.3} MiB)"),
        ..Metric::new("peak_rss_mb", peak_rss_mb()? - probe_mb, "MiB")
    });
    Ok((metrics, tally))
}

/// The traced run: per-layer metrics from spans recorded around each
/// layer call, the trace-fidelity check, and the tracing overhead. Each
/// operation runs traced, then untraced on a plain twin session; the
/// twin's `MiningMetrics` are what the traced counter's work must match.
fn run_traced(
    args: &Args,
    inputs: &Inputs,
    ckpt: &Path,
    work_dir: &Path,
    out: &mut String,
) -> Result<(Vec<Metric>, Tally), String> {
    let tracer = Tracer::new();
    let mut warmups = Vec::new();
    let loaded = load_datasets(inputs, Some(&tracer))?;
    let mut traced = open_sessions(&loaded, inputs, Some(&tracer), &mut warmups)?;
    let mut plain = open_sessions(&loaded, inputs, None, &mut warmups)?;
    let mut tally = Tally::default();
    let refs = prepare(&loaded, inputs, &mut tally, out)?;
    check_warmups(&refs, inputs.warmup, &warmups, &mut tally);
    let cycle = mix(inputs, &refs);

    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    let (mut cold_jobs, mut fidelity_checked) = (0u64, 0u64);
    whole_cycles(args.seconds, 1, || {
        for op in &cycle {
            tracer.next_op();
            let t0 = Instant::now();
            let id = tracer.begin(trace::OP);
            let traced_result = run_op(&mut traced, inputs, &refs, *op, ckpt, Some(&tracer));
            tracer.end(id, 0);
            traced_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let plain_result = run_op(&mut plain, inputs, &refs, *op, ckpt, None);
            plain_s += t0.elapsed().as_secs_f64();
            tally.attempted += 2;
            cold_jobs += u64::from(op.kind == OpKind::ColdJob);
            match (traced_result, plain_result) {
                (Ok(Some(t)), Ok(Some(p))) => {
                    fidelity_checked += 1;
                    let rec = tracer.last_query().expect("a traced query was recorded");
                    let (tc, pm) = (rec.counting, &p.metrics);
                    if (tc.tables_built, tc.cells_counted) != (pm.tables_built, pm.cells_counted)
                        || (t.metrics.tables_built, t.metrics.cells_counted)
                            != (pm.tables_built, pm.cells_counted)
                    {
                        tally.fail(format!(
                            "trace fidelity: '{}' traced counter {}/{} tables/cells, untraced {}/{}",
                            inputs.queries[op.query].text,
                            tc.tables_built,
                            tc.cells_counted,
                            pm.tables_built,
                            pm.cells_counted
                        ));
                    }
                }
                (Ok(_), Ok(_)) => {}
                (t, p) => {
                    for e in [t.err(), p.err()].into_iter().flatten() {
                        tally.fail(e);
                    }
                }
            }
        }
        Ok(())
    })?;

    let trace_path = work_dir.join(format!(
        "trace-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write_tsv(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    writeln!(out, "# spans written to {}", trace_path.display()).ok();

    let mut metrics: Vec<Metric> = trace::layer_metrics(&tracer, cold_jobs)
        .into_iter()
        .map(|(name, value, unit)| Metric {
            json: name != REPORT_ONLY_LAYER,
            ..Metric::new(name, value, unit)
        })
        .collect();
    // The verdict replay is the benchmark's own extra work, not overhead.
    let traced_s = traced_s - tracer.total_s(trace::VERDICT);
    metrics.push(Metric {
        note: format!("(traced {traced_s:.3} s vs untraced {plain_s:.3} s)"),
        ..Metric::new(
            "trace.overhead_frac",
            ratio(traced_s - plain_s, plain_s),
            "ratio",
        )
    });
    metrics.push(Metric::new(
        "trace.fidelity_queries",
        fidelity_checked as f64,
        "count",
    ));
    Ok((metrics, tally))
}
