//! The rule table and per-file checks.
//!
//! Every rule here replaces (and tightens) a CI grep: matching happens on
//! the significant token stream, so comments, strings, and `#[cfg(test)]`
//! code can never produce a false hit, and path scoping is explicit
//! instead of encoded in `grep -v` chains.

use crate::context::Context;
use crate::lexer::{Tok, TokKind};

/// One architectural invariant, as enforced by the engine and documented
/// in DESIGN.md §13.
pub struct Rule {
    /// Stable kebab-case id — what `allow(...)` names.
    pub id: &'static str,
    /// The invariant, one line.
    pub invariant: &'static str,
    /// Why it matters — rendered under every diagnostic.
    pub why: &'static str,
    /// The file(s) that own the invariant and are exempt.
    pub owner: &'static str,
}

/// The sanctioned home of the level loop and `ResumeState` stamping.
const KERNEL: &str = "crates/core/src/kernel.rs";
/// The one reader/writer of checkpoint bytes.
const PERSIST: &str = "crates/core/src/persist.rs";
/// The one module allowed to read wall clocks.
const GUARD: &str = "crates/core/src/guard.rs";

/// Every rule the engine knows, in severity-stable order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "level-loop-outside-kernel",
        invariant: "only the levelwise kernel iterates over `level` or loops while `cands` remain",
        why: "partial answers and bit-identical resumes are sound only while \
              the kernel owns the single level loop (DESIGN.md §11)",
        owner: KERNEL,
    },
    Rule {
        id: "resume-state-construction-confined",
        invariant: "`ResumeState { .. }` is built only in kernel.rs and persist.rs",
        why: "resume stamps must come from the kernel's stamping site or \
              persist.rs's validated decode, or resumes drift from the run \
              they claim to continue (DESIGN.md §11)",
        owner: "crates/core/src/kernel.rs + crates/core/src/persist.rs",
    },
    Rule {
        id: "checkpoint-io-confined",
        invariant: "checkpoint bytes and checkpoint paths are handled only in persist.rs",
        why: "the checkpoint format is crash-safe only while persist.rs is its \
              sole reader and writer — anything else bypasses magic/version/\
              checksum/fingerprint validation (DESIGN.md §12)",
        owner: PERSIST,
    },
    Rule {
        id: "counting-stats-merge-via-addassign",
        invariant: "CountingStats merges go through its one `AddAssign` impl",
        why: "a hand-rolled field-wise merge silently drops newly added \
              counters; the single AddAssign is where the compiler sees them",
        owner: "crates/itemset/src/counting.rs",
    },
    Rule {
        id: "guard-probe-protocol",
        invariant: "every `*_guarded` fn threads a `CountProbe` or `RunGuard`",
        why: "a guarded entry point that cannot observe the probe defeats \
              cooperative interruption and deadline checks",
        owner: GUARD,
    },
    Rule {
        id: "no-panic-in-io-paths",
        invariant: "persist + CLI I/O code returns errors instead of panicking",
        why: "a panic mid-checkpoint or mid-emit can tear state the durability \
              story promises to keep; I/O paths must fail as values",
        owner: "crates/core/src/persist.rs + src/",
    },
    Rule {
        id: "nondeterminism-in-kernel",
        invariant: "wall-clock reads (`Instant::now`, `SystemTime`) live only in guard.rs",
        why: "clock reads scattered through mining code make runs \
              non-reproducible; guard.rs centralizes time so tests can reason \
              about it",
        owner: GUARD,
    },
    Rule {
        id: "measure-verdict-confined",
        invariant: "`chi_squared` / `is_correlated` / `chi2_quantile` calls live only in \
                    the stats crate (the measure layer)",
        why: "a direct χ² call bypasses the run's `MeasureContext`, silently judging \
              with the wrong measure when the query asks for all-confidence or bond \
              (DESIGN.md §14)",
        owner: "crates/stats/src",
    },
    Rule {
        id: "itemset-keyed-std-hash",
        invariant: "itemset-keyed sets and maps in the mining layers are `ItemsetSet` / \
                    `ItemsetMap`, and the counting crate builds no map or set with \
                    std's `RandomState`",
        why: "between counting batches the miners mostly hash itemsets, and the FP-tree \
              build hashes baskets and tree nodes; under std's SipHash that hashing \
              costs more than the work it serves (DESIGN.md §11)",
        owner: "crates/itemset/src/hash.rs",
    },
    Rule {
        id: "suppression-requires-reason",
        invariant: "every `ccs-lint: allow(...)` names a known rule and carries a reason",
        why: "an allow without a reason (or naming an unknown rule) hides an \
              invariant hole from audit",
        owner: "crates/lint/src/diag.rs",
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One raw hit before suppression filtering.
pub struct Finding {
    /// The violated rule's id.
    pub rule: &'static str,
    /// Byte span of the offending tokens.
    pub span: (usize, usize),
    /// What was found.
    pub message: String,
}

/// The `CountingStats` counter fields, mirrored from
/// `crates/itemset/src/counting.rs`.
const STATS_FIELDS: &[&str] = &[
    "tables_built",
    "db_scans",
    "transactions_visited",
    "cells_counted",
    "degraded_batches",
];

/// Identifiers that can precede `[` without forming an index expression
/// (slice patterns, array types in `as` casts, …).
const NON_INDEX_PREFIX: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "dyn", "where",
    "const", "static", "break", "continue",
];

fn in_crates_src(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

/// Runs every rule against one file. `sig` is the significant token
/// stream; `ctx` its structural flags. `path` is workspace-relative with
/// unix separators.
pub fn check_file(path: &str, src: &str, sig: &[Tok], ctx: &Context) -> Vec<Finding> {
    let mut out = Vec::new();
    check_level_loop(path, src, sig, ctx, &mut out);
    check_resume_state(path, src, sig, ctx, &mut out);
    check_checkpoint_io(path, src, sig, ctx, &mut out);
    check_stats_merge(path, src, sig, ctx, &mut out);
    check_guard_probe(path, src, sig, ctx, &mut out);
    check_no_panic(path, src, sig, ctx, &mut out);
    check_nondeterminism(path, src, sig, ctx, &mut out);
    check_measure_verdict(path, src, sig, ctx, &mut out);
    check_itemset_hash(path, src, sig, ctx, &mut out);
    out
}

/// `level-loop-outside-kernel`: a `while`/`for` whose header mentions the
/// `level` identifier, or a `while` whose condition names the candidate
/// vector `cands` (the `while !cands.is_empty()` sweep), anywhere but the
/// kernel.
fn check_level_loop(path: &str, src: &str, sig: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    if path == KERNEL {
        return;
    }
    for (i, t) in sig.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let kw = t.text(src);
        if kw != "while" && kw != "for" {
            continue;
        }
        // Scan the loop header: the `while` condition, or the `for`
        // binding up to `in` — `for set in level` iterates one level's
        // *contents*, which is fine anywhere; `for level in …` is the
        // level loop itself.
        for tok in sig.iter().take(i + 64).skip(i + 1) {
            match tok.text(src) {
                "{" | ";" => break,
                "in" if kw == "for" && tok.kind == TokKind::Ident => break,
                name @ ("level" | "cands")
                    if tok.kind == TokKind::Ident && (name == "level" || kw == "while") =>
                {
                    out.push(Finding {
                        rule: "level-loop-outside-kernel",
                        span: (t.start, tok.end),
                        message: format!("`{kw}` loop over `{name}` outside the levelwise kernel"),
                    });
                    break;
                }
                _ => {}
            }
        }
    }
}

/// `resume-state-construction-confined`: a `ResumeState { … }` struct
/// literal outside kernel.rs / persist.rs. Declarations (`struct`, `impl`)
/// do not count. Unlike the other rules this one fires in test code too:
/// a test forging a resume stamp is exactly the drift PR 5 banned.
fn check_resume_state(path: &str, src: &str, sig: &[Tok], _ctx: &Context, out: &mut Vec<Finding>) {
    if path == KERNEL || path == PERSIST {
        return;
    }
    for (i, t) in sig.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text(src) != "ResumeState" {
            continue;
        }
        let next_is_brace = sig.get(i + 1).is_some_and(|n| n.text(src) == "{");
        let prev = i.checked_sub(1).map(|p| sig[p].text(src));
        // `-> ResumeState {` is a return type followed by the fn body
        // brace, not a literal (`=> ResumeState { … }` match arms still
        // count — the `>` there follows `=`, not `-`).
        let return_type =
            prev == Some(">") && i.checked_sub(2).map(|p| sig[p].text(src)) == Some("-");
        if next_is_brace && !return_type && !matches!(prev, Some("struct" | "impl" | "for")) {
            out.push(Finding {
                rule: "resume-state-construction-confined",
                span: (t.start, sig[i + 1].end),
                message: "`ResumeState` constructed outside kernel.rs / persist.rs".to_owned(),
            });
        }
    }
}

/// `checkpoint-io-confined`: checkpoint parsing identifiers in core /
/// itemset sources, and `.ccs` path literals anywhere in `crates/*/src`
/// (the lint crate itself excepted — its rule table names the pattern).
fn check_checkpoint_io(path: &str, src: &str, sig: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    if path == PERSIST {
        return;
    }
    let ident_scope =
        path.starts_with("crates/core/src/") || path.starts_with("crates/itemset/src/");
    let str_scope = in_crates_src(path) && !path.starts_with("crates/lint/");
    for (i, t) in sig.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let text = t.text(src);
        if ident_scope
            && t.kind == TokKind::Ident
            && matches!(text, "from_bytes" | "ckpt_path" | "checkpoint_path")
        {
            out.push(Finding {
                rule: "checkpoint-io-confined",
                span: (t.start, t.end),
                message: format!("checkpoint handling (`{text}`) outside persist.rs"),
            });
        }
        if str_scope && matches!(t.kind, TokKind::Str | TokKind::RawStr) && text.contains(".ccs") {
            out.push(Finding {
                rule: "checkpoint-io-confined",
                span: (t.start, t.end),
                message: "checkpoint path literal (`*.ccs`) outside persist.rs".to_owned(),
            });
        }
    }
}

/// `counting-stats-merge-via-addassign`: `x.field += …field…` where
/// `field` is a `CountingStats` counter — a field-wise merge — anywhere
/// outside the sanctioned `AddAssign` impl. Plain increments
/// (`stats.db_scans += 1`) are fine.
fn check_stats_merge(_path: &str, src: &str, sig: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    for i in 0..sig.len() {
        if ctx.in_test[i] || ctx.in_addassign_impl[i] {
            continue;
        }
        if sig[i].text(src) != "." {
            continue;
        }
        let Some(field) = sig.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let name = field.text(src);
        if !STATS_FIELDS.contains(&name) {
            continue;
        }
        let is_pluseq = sig.get(i + 2).is_some_and(|t| t.text(src) == "+")
            && sig.get(i + 3).is_some_and(|t| t.text(src) == "=");
        if !is_pluseq {
            continue;
        }
        // The right-hand side, up to the statement end: the same field
        // name appearing there means this is a merge, not an increment.
        for tok in sig.iter().take(i + 64).skip(i + 4) {
            match tok.text(src) {
                ";" => break,
                t if t == name && tok.kind == TokKind::Ident => {
                    out.push(Finding {
                        rule: "counting-stats-merge-via-addassign",
                        span: (field.start, tok.end),
                        message: format!(
                            "field-wise `CountingStats` merge (`{name} += …{name}`) outside \
                             the AddAssign impl"
                        ),
                    });
                    break;
                }
                _ => {}
            }
        }
    }
}

/// `guard-probe-protocol`: a `fn *_guarded(...)` whose parameter list
/// names neither `CountProbe` nor `RunGuard`.
fn check_guard_probe(_path: &str, src: &str, sig: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    for i in 0..sig.len() {
        if ctx.in_test[i] || sig[i].text(src) != "fn" || sig[i].kind != TokKind::Ident {
            continue;
        }
        let Some(name_tok) = sig.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let name = name_tok.text(src);
        if !name.ends_with("_guarded") {
            continue;
        }
        // Find the parameter list (skipping any generic parameters) and
        // scan it, depth-matched, for a guard-typed parameter.
        let mut j = i + 2;
        while j < sig.len().min(i + 64) && sig[j].text(src) != "(" {
            j += 1;
        }
        let mut depth = 0usize;
        let mut has_probe = false;
        while j < sig.len() {
            match sig[j].text(src) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "CountProbe" | "RunGuard" if sig[j].kind == TokKind::Ident => {
                    has_probe = true;
                }
                _ => {}
            }
            j += 1;
        }
        if !has_probe {
            out.push(Finding {
                rule: "guard-probe-protocol",
                span: (name_tok.start, name_tok.end),
                message: format!(
                    "`{name}` claims the `_guarded` contract but threads no \
                     `CountProbe`/`RunGuard`"
                ),
            });
        }
    }
}

/// `no-panic-in-io-paths`: `.unwrap()`, `.expect(…)`, panic-family
/// macros, and slice/array indexing inside persist.rs and the CLI crate.
fn check_no_panic(path: &str, src: &str, sig: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    let in_scope = path == PERSIST
        || path == "src/lib.rs"
        || path == "src/dataset.rs"
        || path.starts_with("src/bin/");
    if !in_scope {
        return;
    }
    for (i, t) in sig.iter().enumerate() {
        if ctx.in_test[i] {
            continue;
        }
        let text = t.text(src);
        if t.kind == TokKind::Ident && matches!(text, "unwrap" | "expect") {
            let after_dot = i.checked_sub(1).is_some_and(|p| sig[p].text(src) == ".");
            let is_call = sig.get(i + 1).is_some_and(|n| n.text(src) == "(");
            if after_dot && is_call {
                out.push(Finding {
                    rule: "no-panic-in-io-paths",
                    span: (t.start, t.end),
                    message: format!("`.{text}()` in an I/O path"),
                });
            }
        }
        if t.kind == TokKind::Ident
            && matches!(text, "panic" | "unreachable" | "todo" | "unimplemented")
            && sig.get(i + 1).is_some_and(|n| n.text(src) == "!")
        {
            out.push(Finding {
                rule: "no-panic-in-io-paths",
                span: (t.start, sig[i + 1].end),
                message: format!("`{text}!` in an I/O path"),
            });
        }
        if text == "[" {
            let Some(p) = i.checked_sub(1) else { continue };
            let prev = &sig[p];
            let prev_text = prev.text(src);
            let indexes = (prev.kind == TokKind::Ident && !NON_INDEX_PREFIX.contains(&prev_text))
                || prev_text == "]"
                || prev_text == ")";
            if indexes {
                out.push(Finding {
                    rule: "no-panic-in-io-paths",
                    span: (prev.start, t.end),
                    message: format!("slice index on `{prev_text}` can panic in an I/O path"),
                });
            }
        }
    }
}

/// `nondeterminism-in-kernel`: `Instant::now` / `SystemTime` in mining
/// code outside guard.rs.
fn check_nondeterminism(path: &str, src: &str, sig: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    if path == GUARD
        || !(path.starts_with("crates/core/src/") || path.starts_with("crates/itemset/src/"))
    {
        return;
    }
    for (i, t) in sig.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(src);
        if !matches!(name, "Instant" | "SystemTime") {
            continue;
        }
        // Only the `::now()` read is nondeterministic — type positions,
        // imports, and constants like `UNIX_EPOCH` read no clock.
        let now = sig.get(i + 1).is_some_and(|a| a.text(src) == ":")
            && sig.get(i + 2).is_some_and(|b| b.text(src) == ":")
            && sig.get(i + 3).is_some_and(|c| c.text(src) == "now");
        if now {
            out.push(Finding {
                rule: "nondeterminism-in-kernel",
                span: (t.start, sig[i + 3].end),
                message: format!("`{name}::now()` outside guard.rs — use `guard::wall_now()`"),
            });
        }
    }
}

/// `measure-verdict-confined`: calls to the raw χ² spellings
/// (`chi_squared(…)`, `is_correlated(…)`, `chi2_quantile(…)`) in
/// production code outside the stats crate. Everything downstream must
/// judge through `MeasureContext`, whose verdict follows the query's
/// measure; a direct call pins χ² regardless. Test code is exempt (the
/// differential suites recompute χ² on purpose), as are benches and
/// examples (outside `src/` trees).
fn check_measure_verdict(
    path: &str,
    src: &str,
    sig: &[Tok],
    ctx: &Context,
    out: &mut Vec<Finding>,
) {
    let in_scope =
        (in_crates_src(path) || path.starts_with("src/")) && !path.starts_with("crates/stats/src/");
    if !in_scope {
        return;
    }
    for (i, t) in sig.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(src);
        if !matches!(name, "chi_squared" | "is_correlated" | "chi2_quantile") {
            continue;
        }
        // Only calls judge; a doc path or `use` item computes nothing.
        if sig.get(i + 1).is_some_and(|n| n.text(src) == "(") {
            out.push(Finding {
                rule: "measure-verdict-confined",
                span: (t.start, t.end),
                message: format!(
                    "`{name}(…)` outside the measure layer — judge through `MeasureContext`"
                ),
            });
        }
    }
}

/// `itemset-keyed-std-hash`: `HashSet<Itemset` / `HashMap<Itemset`
/// (std's default hasher) in production code of the mining core and the
/// candidate generators, which key their collections by itemsets through
/// the `ItemsetSet` / `ItemsetMap` aliases instead; and
/// `HashMap::new` / `HashSet::new` / `HashMap::with_capacity` /
/// `HashSet::with_capacity`, which exist only for std's `RandomState`,
/// in production code of the counting crate outside `hash.rs`.
fn check_itemset_hash(path: &str, src: &str, sig: &[Tok], ctx: &Context, out: &mut Vec<Finding>) {
    let keyed_scope =
        path.starts_with("crates/core/src/") || path == "crates/itemset/src/candidate.rs";
    let ctor_scope =
        path.starts_with("crates/itemset/src/") && path != "crates/itemset/src/hash.rs";
    if !keyed_scope && !ctor_scope {
        return;
    }
    for (i, t) in sig.iter().enumerate() {
        if ctx.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(src);
        let alias = match name {
            "HashSet" => "ItemsetSet",
            "HashMap" => "ItemsetMap<V>",
            _ => continue,
        };
        let text = |j: usize| sig.get(i + j).map(|t| t.text(src));
        let ctor = text(1) == Some(":")
            && text(2) == Some(":")
            && matches!(text(3), Some("new" | "with_capacity"));
        if ctor_scope && ctor {
            out.push(Finding {
                rule: "itemset-keyed-std-hash",
                span: (t.start, sig[i + 3].end),
                message: format!(
                    "`{name}::{}` hashes with std's SipHash — build it with \
                     `ItemsetBuildHasher`",
                    sig[i + 3].text(src)
                ),
            });
        }
        let keyed = text(1) == Some("<")
            && sig
                .get(i + 2)
                .is_some_and(|k| k.kind == TokKind::Ident && k.text(src) == "Itemset");
        if keyed_scope && keyed {
            out.push(Finding {
                rule: "itemset-keyed-std-hash",
                span: (t.start, sig[i + 2].end),
                message: format!(
                    "`{}<Itemset` hashes with std's SipHash — use `{alias}`",
                    t.text(src)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<&'static str> {
        let sig: Vec<Tok> = lex(src).into_iter().filter(|t| !t.is_trivia()).collect();
        let ctx = context::analyze(src, &sig);
        check_file(path, src, &sig, &ctx)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn level_loop_flags_only_real_code() {
        let hit = "fn sweep() { while level <= max { step(); } }";
        assert_eq!(
            run("crates/core/src/sweep.rs", hit),
            vec!["level-loop-outside-kernel"]
        );
        assert!(
            run("crates/core/src/kernel.rs", hit).is_empty(),
            "kernel owns the loop"
        );
        let drain = "fn sweep() { while !cands.is_empty() { cands = next(&cands); } }";
        assert_eq!(
            run("crates/core/src/border.rs", drain),
            vec!["level-loop-outside-kernel"]
        );
        assert!(run("crates/core/src/kernel.rs", drain).is_empty());
        let one_level = "fn f() { for set in cands { probe(set); } }";
        assert!(
            run("crates/core/src/sweep.rs", one_level).is_empty(),
            "iterating one level's candidates is fine"
        );
        let comment = "// while level <= max\nfn f() { let s = \"for level in 0..\"; }";
        assert!(run("crates/core/src/sweep.rs", comment).is_empty());
        let test_code = "#[cfg(test)]\nmod t { fn f() { for level in 0..3 { probe(level); } } }";
        assert!(run("crates/core/src/sweep.rs", test_code).is_empty());
    }

    #[test]
    fn resume_state_literal_but_not_declaration() {
        let hit = "fn f() -> ResumeState { ResumeState { format: 2 } }";
        assert_eq!(
            run("crates/core/src/miner.rs", hit),
            vec!["resume-state-construction-confined"]
        );
        assert!(run("crates/core/src/persist.rs", hit).is_empty());
        let decl = "pub struct ResumeState { format: u16 }\nimpl ResumeState { }";
        assert!(run("crates/core/src/guard.rs", decl).is_empty());
    }

    #[test]
    fn checkpoint_io_idents_and_ccs_literals() {
        let hit = "fn f(p: &Path) { let c = from_bytes(p); }";
        assert_eq!(
            run("crates/core/src/engine.rs", hit),
            vec!["checkpoint-io-confined"]
        );
        assert!(
            run("crates/bench/src/bin/b.rs", hit).is_empty(),
            "bench drives the public API"
        );
        let lit = "fn f() { let p = dir.join(\"run.ccs\"); }";
        assert_eq!(
            run("crates/bench/src/bin/b.rs", lit),
            vec!["checkpoint-io-confined"]
        );
    }

    #[test]
    fn stats_merge_versus_increment() {
        let merge = "fn f(a: &mut S, b: &S) { a.db_scans += b.db_scans; }";
        assert_eq!(
            run("crates/itemset/src/x.rs", merge),
            vec!["counting-stats-merge-via-addassign"]
        );
        let incr = "fn f(a: &mut S) { a.db_scans += 1; a.transactions_visited += visited; }";
        assert!(run("crates/itemset/src/x.rs", incr).is_empty());
        let sanctioned =
            "impl AddAssign<&S> for S { fn add_assign(&mut self, r: &S) { self.db_scans += r.db_scans; } }";
        assert!(run("crates/itemset/src/counting.rs", sanctioned).is_empty());
    }

    #[test]
    fn guarded_fn_must_thread_probe() {
        let bad = "pub fn count_batch_guarded(db: &Db, sets: &[Itemset]) -> R { body() }";
        assert_eq!(
            run("crates/itemset/src/x.rs", bad),
            vec!["guard-probe-protocol"]
        );
        let good = "pub fn count_batch_guarded(db: &Db, probe: &dyn CountProbe) -> R { body() }";
        assert!(run("crates/itemset/src/x.rs", good).is_empty());
        let generic = "fn mine_guarded<C: Counter>(c: &mut C, guard: &RunGuard) -> R { body() }";
        assert!(run("crates/core/src/x.rs", generic).is_empty());
    }

    #[test]
    fn panic_rule_catches_all_four_shapes() {
        let src = "fn f(b: &[u8]) { let x = b[0]; r.unwrap(); r.expect(\"m\"); panic!(\"n\"); }";
        let rules = run("crates/core/src/persist.rs", src);
        assert_eq!(rules.len(), 4);
        assert!(rules.iter().all(|&r| r == "no-panic-in-io-paths"));
        assert!(
            run("crates/core/src/kernel.rs", src).is_empty(),
            "rule is path-scoped"
        );
        let patterns = "fn f(a: [u8; 2]) { let [x, y] = a; let v = vec![0; 4]; }";
        assert!(run("crates/core/src/persist.rs", patterns).is_empty());
    }

    #[test]
    fn measure_verdict_flags_calls_outside_stats() {
        let hit = "fn f(t: &ContingencyTable) -> bool { t.chi_squared() >= crit }";
        assert_eq!(
            run("crates/core/src/engine.rs", hit),
            vec!["measure-verdict-confined"]
        );
        assert!(
            run("crates/stats/src/contingency.rs", hit).is_empty(),
            "the stats crate owns the spellings"
        );
        let quantile = "fn f() -> f64 { chi2_quantile(0.95, 2) }";
        assert_eq!(
            run("src/bin/ccs.rs", quantile),
            vec!["measure-verdict-confined"]
        );
        assert!(
            run("crates/bench/benches/substrates.rs", quantile).is_empty(),
            "benches time the raw statistic on purpose"
        );
        assert!(
            run("examples/quickstart.rs", quantile).is_empty(),
            "examples may show the raw statistic"
        );
        let test_code = "#[cfg(test)]\nmod t { fn f(t: &T) { assert!(t.is_correlated(0.9)); } }";
        assert!(run("crates/core/src/border.rs", test_code).is_empty());
        let import = "use ccs_stats::chi2_quantile;\nfn f(ctx: &MeasureContext, t: &T) -> bool { ctx.verdict(t) }";
        assert!(
            run("crates/core/src/causality.rs", import).is_empty(),
            "imports and MeasureContext verdicts are fine"
        );
    }

    #[test]
    fn nondeterminism_scoped_to_mining_code() {
        let src = "fn f() { let t = Instant::now(); let s = SystemTime::now(); }";
        let rules = run("crates/core/src/kernel.rs", src);
        assert_eq!(rules.len(), 2);
        assert!(
            run("crates/core/src/guard.rs", src).is_empty(),
            "guard.rs owns the clock"
        );
        assert!(
            run("crates/bench/src/bin/b.rs", src).is_empty(),
            "bench may time itself"
        );
        let ty = "struct S { start: Instant }";
        assert!(
            run("crates/core/src/kernel.rs", ty).is_empty(),
            "type position is fine"
        );
    }

    #[test]
    fn itemset_hash_scoped_to_core_and_candidate_generation() {
        let src = "fn f(a: HashSet<Itemset>, b: &HashMap<Itemset, Verdict>) {}";
        assert_eq!(
            run("crates/core/src/bms.rs", src),
            vec!["itemset-keyed-std-hash"; 2]
        );
        assert_eq!(run("crates/itemset/src/candidate.rs", src).len(), 2);
        assert!(
            run("crates/itemset/src/vertical.rs", src).is_empty(),
            "the rule covers the between-level code only"
        );
        let fine = "fn f(a: ItemsetSet, b: HashMap<usize, ItemsetSet>, c: HashSet<Item>) {}";
        assert!(run("crates/core/src/bms.rs", fine).is_empty());
    }

    #[test]
    fn std_hash_constructors_flagged_in_the_counting_crate_only() {
        let src = "fn f() { let a: HashMap<u32, u32> = HashMap::new(); \
                   let b = HashSet::with_capacity(8); }";
        assert_eq!(
            run("crates/itemset/src/fptree.rs", src),
            vec!["itemset-keyed-std-hash"; 2]
        );
        assert!(
            run("crates/itemset/src/hash.rs", src).is_empty(),
            "hash.rs owns the hashers"
        );
        assert!(
            run("crates/core/src/kernel.rs", src).is_empty(),
            "the constructors are flagged in the counting crate only"
        );
        let fine = "fn f() { let a: HashMap<u64, u32, ItemsetBuildHasher> = HashMap::default(); \
                    let b = HashSet::with_capacity_and_hasher(8, ItemsetBuildHasher::default()); }";
        assert!(run("crates/itemset/src/fptree.rs", fine).is_empty());
        let test_code = "#[cfg(test)] mod tests { fn f() { let a = HashMap::new(); } }";
        assert!(run("crates/itemset/src/fptree.rs", test_code).is_empty());
    }
}
