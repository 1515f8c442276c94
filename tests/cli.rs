//! End-to-end tests of the `ccs` binary: exit codes and error messages
//! of the argument and parameter paths of `mine` and `resume`, the
//! dataset limits, and the answers of the pooled counting strategies.

// Helper fns outside `#[test]` bodies still trip `unwrap_used`; in a
// test binary a panic is the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A per-test scratch directory holding a small Quest database `q.db`
/// (500 baskets over 20 items), written by `ccs generate`.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccs-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("q.db");
    let out = ccs(&[
        "generate",
        "--method",
        "quest",
        "--baskets",
        "500",
        "--items",
        "20",
        "--seed",
        "1",
        "--db",
        db.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "generate failed: {out:?}");
    dir
}

fn ccs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccs"))
        .args(args)
        .output()
        .unwrap()
}

fn path(dir: &Path, file: &str) -> String {
    dir.join(file).to_str().unwrap().to_owned()
}

/// Asserts the run failed with exit code 1 and `message` on stderr.
fn assert_error(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(message),
        "expected {message:?} in stderr: {stderr}"
    );
}

#[test]
fn unsatisfiable_query_still_validates_parameters() {
    let dir = scratch("unsat");
    let db = path(&dir, "q.db");
    let unsat = "correlated & ct_supported & max(price) <= 5 & min(price) >= 9";
    for (flag, value) in [("--max-level", "31"), ("--support", "7")] {
        let out = ccs(&["mine", "--db", &db, flag, value, "--query", unsat]);
        assert_error(&out, "error: invalid parameters: ");
    }
    // With valid parameters the same query is a complete, empty answer.
    let out = ccs(&["mine", "--db", &db, "--query", unsat]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("0 answers"));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn max_level_is_bounded_by_the_widest_countable_table() {
    // The tid-set and FP-tree counters refuse tables wider than 20
    // items, so a wider `--max-level` is a parameter error, not a panic
    // deep in a level that reaches it.
    let dir = scratch("width");
    let db = path(&dir, "q.db");
    let query = "correlated & ct_supported";
    for counting in ["horizontal", "fp-tree"] {
        let mine = |level| {
            ccs(&[
                "mine",
                "--db",
                &db,
                "--counting",
                counting,
                "--max-level",
                level,
                "--query",
                query,
            ])
        };
        assert_error(
            &mine("21"),
            "error: invalid parameters: max_level must be at most 20, \
             since a k-item contingency table has 2^k cells, got 21",
        );
        let out = mine("20");
        assert_eq!(out.status.code(), Some(0), "{counting}: {out:?}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn unknown_algorithm_is_rejected_by_mine_and_by_resume_restart() {
    let dir = scratch("algorithm");
    let db = path(&dir, "q.db");
    let out = ccs(&["mine", "--db", &db, "--algorithm", "bogus"]);
    assert_error(&out, "error: unknown algorithm 'bogus'");

    // An unreadable checkpoint restarts the run from `--query` under the
    // named algorithm, which must parse too.
    let ckpt = path(&dir, "corrupt.ckpt");
    std::fs::write(&ckpt, b"not a checkpoint").unwrap();
    let out = ccs(&[
        "resume",
        &ckpt,
        "--db",
        &db,
        "--query",
        "correlated & ct_supported",
        "--algorithm",
        "bogus",
    ]);
    assert_error(&out, "error: unknown algorithm 'bogus'");
    assert!(String::from_utf8_lossy(&out.stderr).contains("restarting from scratch"));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn zero_checkpoint_stride_is_rejected_by_mine_and_resume() {
    let dir = scratch("stride");
    let db = path(&dir, "q.db");
    let ckpt = path(&dir, "run.ckpt");
    let out = ccs(&[
        "mine",
        "--db",
        &db,
        "--checkpoint",
        &ckpt,
        "--checkpoint-every",
        "0",
    ]);
    assert_error(&out, "error: --checkpoint-every must be at least 1");
    let out = ccs(&["resume", &ckpt, "--db", &db, "--checkpoint-every", "0"]);
    assert_error(&out, "error: --checkpoint-every must be at least 1");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn crafted_checkpoint_is_refused_not_a_panic() {
    // A governed BMS++ run leaves a checkpoint; each crafted copy keeps
    // every checksum valid and the fingerprint intact, so only its
    // snapshot content is wrong. Resuming it is an error, never a panic.
    let dir = scratch("crafted");
    let db = path(&dir, "q.db");
    let ckpt = path(&dir, "run.ckpt");
    let out = ccs(&[
        "mine",
        "--db",
        &db,
        "--checkpoint",
        &ckpt,
        "--max-cells",
        "200",
    ]);
    assert_eq!(out.status.code(), Some(2), "the budget truncates: {out:?}");
    let bytes = std::fs::read(&ckpt).unwrap();
    let crafted = path(&dir, "crafted.ckpt");
    for (name, patch) in common::CRAFTED_RESUME_PATCHES {
        std::fs::write(&crafted, common::patch_resume(&bytes, patch)).unwrap();
        let out = ccs(&["resume", &crafted, "--db", &db, "--counting", "vertical"]);
        assert_error(&out, "corrupt checkpoint: ");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("pass --query"),
            "{name}: {out:?}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn stats_summarises_a_small_database() {
    let dir = std::env::temp_dir().join(format!("ccs-cli-{}-stats", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = path(&dir, "s.db");
    // Unsorted and repeated ids, a blank (empty) basket and comments;
    // items 1 and 3 tie for the most frequent, and the later id wins.
    std::fs::write(&db, "# fixture\nitems 6\n3 1 1 0\n\n1 3\n# note\n5\n3 1\n").unwrap();
    let out = ccs(&["stats", "--db", &db]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "baskets:          5\n\
         items:            6\n\
         avg basket size:  1.60\n\
         max basket size:  3\n\
         items occurring:  4\n\
         most frequent:    i3 (3 baskets, 60.0%)\n"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn thread_and_shard_flags_are_unknown() {
    let dir = scratch("overrides");
    let db = path(&dir, "q.db");
    let ckpt = path(&dir, "run.ckpt");
    for flag in ["--threads", "--shards"] {
        let out = ccs(&["mine", "--db", &db, "--counting", "sharded", flag, "2"]);
        assert_error(&out, &format!("error: unknown flag '{flag}'"));
        let out = ccs(&["resume", &ckpt, "--db", &db, flag, "2"]);
        assert_error(&out, &format!("error: unknown flag '{flag}'"));
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn pooled_counting_prints_the_horizontal_answers() {
    let dir = std::env::temp_dir().join(format!("ccs-cli-{}-pooled", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = path(&dir, "x.db");
    // Item 2 is the xor of items 0 and 1, so {0, 1, 2} is correlated
    // while none of its pairs is; item 3 follows item 0.
    let mut text = String::from("# fixture\nitems 4\n");
    for _ in 0..12 {
        text.push_str("0 2 3\n1 2\n0 1 3\n\n");
    }
    text.push_str("0 1\n2\n");
    std::fs::write(&db, text).unwrap();
    for algorithm in ["bms++", "bms**"] {
        let answers = |counting: &str| {
            let out = ccs(&[
                "mine",
                "--db",
                &db,
                "--algorithm",
                algorithm,
                "--support",
                "0.2",
                "--ct",
                "0.2",
                "--counting",
                counting,
            ]);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{algorithm} {counting}: {out:?}"
            );
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let horizontal = answers("horizontal");
        assert_eq!(
            horizontal, "{i0, i1, i2}\n{i0, i3}\n{i1, i2, i3}\n",
            "{algorithm}"
        );
        for counting in ["sharded", "vertical-par"] {
            assert_eq!(answers(counting), horizontal, "{algorithm} {counting}");
        }
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn universe_over_the_limit_is_rejected() {
    let dir = std::env::temp_dir().join(format!("ccs-cli-{}-universe", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baskets = path(&dir, "huge.db");
    std::fs::write(&baskets, "# too many items\nitems 4294967295\n0\n").unwrap();
    let out = ccs(&["stats", "--db", &baskets]);
    assert_error(
        &out,
        "line 2: 'items 4294967295' exceeds the limit of 16777216 items",
    );
    let attrs = path(&dir, "huge.attrs");
    std::fs::write(&attrs, "items 16777217\n").unwrap();
    let out = ccs(&["analyze", "--query", "max(price) <= 5", "--attrs", &attrs]);
    assert_error(
        &out,
        "line 1: 'items 16777217' exceeds the limit of 16777216 items",
    );
    let too_many = "--items 16777217 exceeds the limit of 16777216 items";
    let out = ccs(&[
        "generate", "--method", "quest", "--items", "16777217", "--db", &baskets,
    ]);
    assert_error(&out, too_many);
    let out = ccs(&["attrs", "--items", "16777217", "--db", &attrs]);
    assert_error(&out, too_many);
    let out = ccs(&[
        "analyze",
        "--query",
        "max(price) <= 5",
        "--items",
        "16777217",
    ]);
    assert_error(&out, too_many);
    std::fs::remove_dir_all(dir).unwrap();
}
