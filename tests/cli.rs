//! End-to-end tests of the `ccs` binary: exit codes and error messages
//! of the argument and parameter paths of `mine` and `resume`.

// Helper fns outside `#[test]` bodies still trip `unwrap_used`; in a
// test binary a panic is the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

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
