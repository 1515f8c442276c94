//! Fixture self-tests: every rule has seeded-violation fixtures whose
//! caret diagnostics and JSON reports are pinned as goldens.
//!
//! Each fixture under `tests/fixtures/*.rs` starts with a
//! `//! pretend: <path>` line naming the workspace-relative path it
//! should be linted *as* — that is what drives per-rule scoping. The
//! expected text rendering lives at `tests/goldens/<name>.txt` and the
//! JSON report at `tests/goldens/<name>.json`.
//!
//! Regenerate after an intentional diagnostic change with:
//!
//! ```text
//! CCS_LINT_BLESS=1 cargo test -p ccs-lint --test golden_diagnostics
//! ```

// Helper fns outside `#[test]` bodies still trip `expect_used`; in a
// test binary a panic is the failure report.
#![allow(clippy::expect_used)]

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use ccs_lint::diag::{to_json, LineIndex};
use ccs_lint::lint_source;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// Extracts the pretend path from a fixture's first line.
fn pretend_path(src: &str, fixture: &Path) -> String {
    src.lines()
        .next()
        .and_then(|l| l.strip_prefix("//! pretend: "))
        .unwrap_or_else(|| panic!("{} lacks a `//! pretend:` header", fixture.display()))
        .trim()
        .to_owned()
}

/// Lints one fixture and renders its full text + JSON reports.
fn run_fixture(fixture: &Path) -> (String, String, usize) {
    let src = fs::read_to_string(fixture).expect("read fixture");
    let pretend = pretend_path(&src, fixture);
    let report = lint_source(&pretend, &src);
    let index = LineIndex::new(&src);
    let mut text = String::new();
    for v in &report.violations {
        text.push_str(&ccs_lint::diag::render(v, &src, &index));
        text.push('\n');
    }
    let _ = writeln!(
        text,
        "checked 1 files: {} violations ({} suppressed)",
        report.violations.len(),
        report.suppressed,
    );
    let json = to_json(&report.violations, 1, report.suppressed);
    (text, json, report.violations.len())
}

fn check_golden(path: &Path, actual: &str) {
    if std::env::var_os("CCS_LINT_BLESS").is_some() {
        fs::write(path, actual).expect("bless golden");
        return;
    }
    let expected = fs::read_to_string(path)
        .unwrap_or_else(|_| panic!("{} missing — run with CCS_LINT_BLESS=1", path.display()));
    assert_eq!(
        expected,
        actual,
        "{} diverges from the pinned golden (CCS_LINT_BLESS=1 to re-pin)",
        path.display()
    );
}

#[test]
fn every_fixture_matches_its_goldens() {
    let mut fixtures: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("fixtures dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 8,
        "expected a fixture per rule, found {}",
        fixtures.len()
    );
    for fixture in &fixtures {
        let stem = fixture.file_stem().and_then(|s| s.to_str()).expect("stem");
        let (text, json, n) = run_fixture(fixture);
        assert!(
            n > 0,
            "{stem} seeds no violations — a dead fixture proves nothing"
        );
        check_golden(&goldens_dir().join(format!("{stem}.txt")), &text);
        check_golden(&goldens_dir().join(format!("{stem}.json")), &json);
    }
}

#[test]
fn fixtures_cover_every_rule() {
    let mut seen = BTreeSet::new();
    for entry in fs::read_dir(fixtures_dir()).expect("fixtures dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|x| x != "rs") {
            continue;
        }
        let src = fs::read_to_string(&path).expect("read fixture");
        let report = lint_source(&pretend_path(&src, &path), &src);
        seen.extend(report.violations.iter().map(|v| v.rule));
    }
    for rule in ccs_lint::rules::RULES {
        assert!(
            seen.contains(rule.id),
            "no fixture seeds a `{}` violation",
            rule.id
        );
    }
}

/// The JSON goldens stay machine-readable: minimal structural checks so
/// a rendering bug cannot be blessed in silently.
#[test]
fn json_reports_are_well_formed() {
    for entry in fs::read_dir(goldens_dir()).expect("goldens dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("read golden");
        assert!(text.starts_with("{\"violations\":["), "{}", path.display());
        assert!(text.trim_end().ends_with('}'), "{}", path.display());
        let quotes = text.bytes().filter(|&b| b == b'"').count()
            - text.as_bytes().windows(2).filter(|w| w == b"\\\"").count();
        assert!(quotes % 2 == 0, "unbalanced quotes in {}", path.display());
    }
}
