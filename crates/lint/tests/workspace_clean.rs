//! The linchpin test: the real workspace lints clean, and the vendored
//! trees match their pins. CI runs the `ccs-lint` binary too, but having
//! this inside `cargo test` means a violation fails the ordinary test
//! suite on any machine — the invariants cannot drift between CI runs.

// Helper fns outside `#[test]` bodies still trip `expect_used`; in a
// test binary a panic is the failure report.
#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};

use ccs_lint::{lint_tree, vendor};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint")
        .to_path_buf()
}

#[test]
fn the_workspace_lints_clean() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").exists() && root.join("crates").is_dir(),
        "unexpected workspace layout at {}",
        root.display()
    );
    let files = lint_tree(&root).expect("walk workspace");
    assert!(
        files.len() > 50,
        "walk looks truncated: {} files",
        files.len()
    );
    let mut rendered = String::new();
    for f in &files {
        let index = ccs_lint::diag::LineIndex::new(&f.src);
        for v in &f.violations {
            rendered.push_str(&ccs_lint::diag::render(v, &f.src, &index));
            rendered.push('\n');
        }
    }
    assert!(
        rendered.is_empty(),
        "the tree has lint violations:\n{rendered}"
    );
}

#[test]
fn vendored_trees_match_their_pins() {
    let drift = vendor::check(&workspace_root()).expect("hash vendor trees");
    assert!(drift.is_empty(), "vendor drift:\n{}", drift.join("\n"));
}

#[test]
fn the_walker_sees_the_load_bearing_files() {
    // Path scoping is only meaningful if the walker actually visits the
    // owners; a future layout change must not silently blind the rules.
    let files = lint_tree(&workspace_root()).expect("walk workspace");
    for expected in [
        "crates/core/src/kernel.rs",
        "crates/core/src/persist.rs",
        "crates/core/src/guard.rs",
        "crates/itemset/src/counting.rs",
        "src/bin/ccs.rs",
    ] {
        assert!(
            files.iter().any(|f| f.path == expected),
            "walker no longer visits {expected}"
        );
    }
    // And the seeded fixtures must never leak into the workspace scan.
    assert!(
        !files.iter().any(|f| f.path.contains("tests/fixtures")),
        "fixture files leaked into the workspace scan"
    );
}
