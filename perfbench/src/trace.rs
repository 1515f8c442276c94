//! Outside-in tracing for the traced run.
//!
//! Spans are recorded from this benchmark's own code around each call
//! into a layer's public functions; nothing inside the library is
//! instrumented. The two seams the library lets a caller supply are
//! wrapped with forwarding types: [`TracedCounter`] (a `MintermCounter`
//! handed to `mine_on`/`resume_on`) and [`TracedSink`] (a
//! `CheckpointSink` around `FileSink`). Spans stay in memory until the
//! run ends.

use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ccs::core::{CheckpointSink, FileSink, MiningMetrics};
use ccs::itemset::{BatchInterrupted, CountProbe, CountingStats, MintermCounter};
use ccs::prelude::{ContingencyTable, Itemset};

pub const OP: &str = "op";
pub const READ_DB: &str = "dataset.read_db";
pub const READ_ATTRS: &str = "dataset.read_attrs";
pub const PARSE: &str = "query.parse";
pub const ANALYZE: &str = "constraints.analyze";
pub const BUILD: &str = "itemset.build";
pub const COUNT: &str = "itemset.count";
pub const MINE: &str = "core.mine";
pub const RESUME: &str = "core.resume";
pub const VERDICT: &str = "stats.verdict";
pub const COMMIT: &str = "persist.commit";
pub const READ_CKPT: &str = "persist.read";
pub const VERIFY: &str = "persist.verify";

/// One timed call. `work` is the call's size where it has one: cells
/// submitted for a count, bytes for a commit, tables for a verdict
/// replay.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by every span of one operation.
    pub op: u64,
    pub work: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one `core.mine`/`core.resume` call did, beside its span.
#[derive(Debug, Clone)]
pub struct QueryRec {
    /// The call's span.
    pub span: usize,
    /// The wrapped counter's statistics over the call.
    pub counting: CountingStats,
    pub metrics: MiningMetrics,
    pub answers: usize,
    pub truncated: bool,
}

#[derive(Default)]
struct Buf {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    queries: Vec<QueryRec>,
}

/// The span recorder. Calls nest on one thread, so the innermost open
/// span is the parent of the next one.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    buf: Arc<Mutex<Buf>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            buf: Arc::new(Mutex::new(Buf::default())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Buf> {
        self.buf.lock().expect("no span holder panics")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next operation: later spans carry its id.
    pub fn next_op(&self) {
        self.lock().op += 1;
    }

    pub fn begin(&self, name: &'static str) -> usize {
        let mut buf = self.lock();
        let id = buf.spans.len();
        let parent = buf.open.last().copied();
        let op = buf.op;
        buf.open.push(id);
        buf.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
            work: 0,
        });
        id
    }

    pub fn end(&self, id: usize, work: u64) {
        let end_ns = self.now_ns();
        let mut buf = self.lock();
        assert_eq!(buf.open.pop(), Some(id), "spans close innermost first");
        let span = &mut buf.spans[id];
        span.end_ns = end_ns;
        span.work = work;
    }

    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id, 0);
        r
    }

    pub fn record(&self, rec: QueryRec) {
        self.lock().queries.push(rec);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    pub fn queries(&self) -> Vec<QueryRec> {
        self.lock().queries.clone()
    }

    pub fn last_query(&self) -> Option<QueryRec> {
        self.lock().queries.last().cloned()
    }

    /// Total time of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top\twork")?;
        for (id, s) in self.lock().spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.op, s.work
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// A forwarding counter: every trait method goes to the wrapped counter
/// (the batch and guarded paths too, so level batching and guard
/// probing stay as they are), inside an `itemset.count` span. Returned
/// tables are kept so the verdict layer can be replayed on them.
pub struct TracedCounter<'a> {
    inner: Box<dyn MintermCounter + 'a>,
    tracer: Tracer,
    capture: bool,
    captured: Vec<ContingencyTable>,
}

impl<'a> TracedCounter<'a> {
    /// Wraps `inner`; with `capture`, returned tables are kept until
    /// [`TracedCounter::take_captured`].
    pub fn new(inner: Box<dyn MintermCounter + 'a>, tracer: Tracer, capture: bool) -> Self {
        TracedCounter {
            inner,
            tracer,
            capture,
            captured: Vec::new(),
        }
    }

    /// The tables returned since the last call.
    pub fn take_captured(&mut self) -> Vec<ContingencyTable> {
        std::mem::take(&mut self.captured)
    }

    fn capture(&mut self, sets: &[Itemset], tables: &[Vec<u64>]) {
        if !self.capture {
            return;
        }
        for (set, counts) in sets.iter().zip(tables) {
            self.captured
                .push(ContingencyTable::from_counts(set.clone(), counts.clone()));
        }
    }
}

/// Contingency cells of a batch: `2^k` per `k`-itemset.
fn cells(sets: &[Itemset]) -> u64 {
    sets.iter().map(|s| 1u64 << s.len()).sum()
}

impl MintermCounter for TracedCounter<'_> {
    fn minterm_counts(&mut self, set: &Itemset) -> Vec<u64> {
        let id = self.tracer.begin(COUNT);
        let counts = self.inner.minterm_counts(set);
        self.tracer.end(id, cells(std::slice::from_ref(set)));
        self.capture(std::slice::from_ref(set), std::slice::from_ref(&counts));
        counts
    }

    fn minterm_counts_batch(&mut self, sets: &[Itemset]) -> Vec<Vec<u64>> {
        let id = self.tracer.begin(COUNT);
        let tables = self.inner.minterm_counts_batch(sets);
        self.tracer.end(id, cells(sets));
        self.capture(sets, &tables);
        tables
    }

    fn minterm_counts_batch_guarded(
        &mut self,
        sets: &[Itemset],
        probe: &dyn CountProbe,
    ) -> Result<Vec<Vec<u64>>, BatchInterrupted> {
        let id = self.tracer.begin(COUNT);
        let result = self.inner.minterm_counts_batch_guarded(sets, probe);
        self.tracer.end(id, cells(sets));
        if let Ok(tables) = &result {
            self.capture(sets, tables);
        }
        result
    }

    fn n_transactions(&self) -> usize {
        self.inner.n_transactions()
    }

    fn stats(&self) -> CountingStats {
        self.inner.stats()
    }
}

/// A forwarding checkpoint sink around [`FileSink`]: each commit runs
/// inside a `persist.commit` span that records the bytes written.
pub struct TracedSink {
    inner: FileSink,
    tracer: Tracer,
}

impl TracedSink {
    pub fn new(path: &Path, tracer: Tracer) -> Self {
        TracedSink {
            inner: FileSink::new(path),
            tracer,
        }
    }
}

impl CheckpointSink for TracedSink {
    fn commit(&mut self, bytes: &[u8]) -> io::Result<()> {
        let id = self.tracer.begin(COMMIT);
        let result = self.inner.commit(bytes);
        self.tracer.end(id, bytes.len() as u64);
        result
    }

    fn load(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.load()
    }
}

/// Per-layer metrics from the recorded spans and query records, one
/// `(name, value, unit)` per metric. Time and work are averaged per
/// call of the named operation: per query (`core.*` call) for the
/// counting, kernel and verdict layers, per cold job for the persistence
/// counts. A layer's self time is its span minus its child spans.
pub fn layer_metrics(tracer: &Tracer, cold_jobs: u64) -> Vec<(&'static str, f64, &'static str)> {
    let spans = tracer.spans();
    let queries = tracer.queries();
    let secs = |ns: u64| ns as f64 * 1e-9;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mean_s = |name: &str| {
        let (n, ns) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, ns), s| (n + 1, ns + s.ns()));
        ratio(secs(ns), n as f64)
    };

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    let (mut core_ns, mut count_ns, mut calls) = (0u64, 0u64, 0u64);
    let (mut preamble, mut between, mut tail) = (0u64, 0u64, 0u64);
    for q in &queries {
        let core = &spans[q.span];
        core_ns += core.ns();
        let kids = &children[q.span];
        let counts: Vec<&Span> = kids
            .iter()
            .map(|&c| &spans[c])
            .filter(|s| s.name == COUNT)
            .collect();
        let commits: Vec<&Span> = kids
            .iter()
            .map(|&c| &spans[c])
            .filter(|s| s.name == COMMIT)
            .collect();
        let committing = |lo: u64, hi: u64| -> u64 {
            commits
                .iter()
                .filter(|c| c.start_ns >= lo && c.end_ns <= hi)
                .map(|c| c.ns())
                .sum()
        };
        let counted: u64 = counts.iter().map(|s| s.ns()).sum();
        count_ns += counted;
        calls += counts.len() as u64;
        match (counts.first(), counts.last()) {
            (Some(first), Some(last)) => {
                preamble +=
                    first.start_ns - core.start_ns - committing(core.start_ns, first.start_ns);
                between += (last.end_ns - first.start_ns)
                    - counted
                    - committing(first.start_ns, last.end_ns);
                tail += core.end_ns - last.end_ns - committing(last.end_ns, core.end_ns);
            }
            _ => preamble += core.ns() - committing(core.start_ns, core.end_ns),
        }
    }
    let nq = queries.len() as f64;
    let sum = |f: &dyn Fn(&QueryRec) -> u64| queries.iter().map(f).sum::<u64>() as f64;
    let tables = sum(&|q| q.counting.tables_built);
    let candidates = sum(&|q| q.metrics.candidates_generated);
    let answers = sum(&|q| q.answers as u64);
    let (verdicts, verdict_ns) = spans
        .iter()
        .filter(|s| s.name == VERDICT)
        .fold((0u64, 0u64), |(n, ns), s| (n + s.work, ns + s.ns()));
    let commits: Vec<&Span> = spans.iter().filter(|s| s.name == COMMIT).collect();
    let commit_bytes: u64 = commits.iter().map(|s| s.work).sum();
    let cold = cold_jobs as f64;

    vec![
        ("dataset.read_db_s", mean_s(READ_DB), "s"),
        ("dataset.read_attrs_s", mean_s(READ_ATTRS), "s"),
        ("query.parse_s", mean_s(PARSE), "s"),
        ("constraints.analyze_s", mean_s(ANALYZE), "s"),
        ("itemset.build_s", mean_s(BUILD), "s"),
        ("itemset.count_s", ratio(secs(count_ns), nq), "s"),
        ("itemset.count_calls", ratio(calls as f64, nq), "count"),
        ("itemset.tables", ratio(tables, nq), "count"),
        (
            "itemset.cells",
            ratio(sum(&|q| q.counting.cells_counted), nq),
            "count",
        ),
        (
            "itemset.transactions_visited",
            ratio(sum(&|q| q.counting.transactions_visited), nq),
            "count",
        ),
        ("itemset.ns_per_table", ratio(count_ns as f64, tables), "ns"),
        (
            "itemset.count_share",
            ratio(count_ns as f64, core_ns as f64),
            "ratio",
        ),
        ("core.preamble_s", ratio(secs(preamble), nq), "s"),
        ("core.between_levels_s", ratio(secs(between), nq), "s"),
        ("core.tail_s", ratio(secs(tail), nq), "s"),
        ("core.candidates", ratio(candidates, nq), "count"),
        (
            "core.pruned_before_count",
            ratio(sum(&|q| q.metrics.pruned_before_count), nq),
            "count",
        ),
        (
            "core.cache_hits",
            ratio(sum(&|q| q.metrics.cache_hits), nq),
            "count",
        ),
        (
            "core.levels",
            ratio(sum(&|q| q.metrics.max_level_reached as u64), nq),
            "count",
        ),
        (
            "core.tables_per_candidate",
            ratio(tables, candidates),
            "ratio",
        ),
        ("core.answers_per_table", ratio(answers, tables), "ratio"),
        ("stats.verdicts", ratio(verdicts as f64, nq), "count"),
        (
            "stats.ns_per_verdict",
            ratio(verdict_ns as f64, verdicts as f64),
            "ns",
        ),
        (
            "stats.verdict_share",
            ratio(verdict_ns as f64, core_ns as f64),
            "ratio",
        ),
        (
            "persist.commits",
            ratio(commits.len() as f64, cold),
            "count",
        ),
        (
            "persist.bytes",
            ratio(commit_bytes as f64, commits.len() as f64),
            "bytes",
        ),
        ("persist.commit_s", mean_s(COMMIT), "s"),
        ("persist.read_s", mean_s(READ_CKPT), "s"),
        ("persist.verify_s", mean_s(VERIFY), "s"),
        (
            "guard.trips",
            ratio(queries.iter().filter(|q| q.truncated).count() as f64, cold),
            "count",
        ),
    ]
}
