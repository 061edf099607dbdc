//! End-to-end lint tests: the seeded-violation fixture crate, waiver
//! honoring, the real workspace's cleanliness, and the `hublint` CLI.
//!
//! The fixture crate under `tests/fixtures/violations/` is invisible to
//! cargo (the workspace's `crates/*` glob matches only direct children)
//! and to workspace-level lint runs (everything under `tests/` is test
//! context), so it can seed violations of every rule without tripping
//! either build.

use std::path::{Path, PathBuf};
use std::process::Command;

use hl_lint::lint_workspace;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn fixture_crate_trips_every_rule_at_exact_lines() {
    let report = lint_workspace(&fixture_root()).expect("lint fixture");
    let got: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|d| (d.rule, d.file.as_str(), d.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("untrusted-length-alloc", "src/alloc.rs", 3),
            // Line 19 decodes its count through `read_u64`, the HLBS
            // parsers' helper, not a bare `from_le_bytes`: the seed table
            // must follow the decode wherever a refactor moves it.
            ("untrusted-length-alloc", "src/alloc.rs", 19),
            ("cast-truncation", "src/cast.rs", 3),
            ("lock-order", "src/locks.rs", 15),
            ("swallowed-result", "src/swallow.rs", 7),
            ("swallowed-result", "src/swallow.rs", 11),
        ]
    );
}

#[test]
fn fixture_waivers_are_honored_and_reported() {
    let report = lint_workspace(&fixture_root()).expect("lint fixture");
    let waived: Vec<(&str, &str, u32)> = report
        .waived
        .iter()
        .map(|(d, _)| (d.rule, d.file.as_str(), d.line))
        .collect();
    assert_eq!(
        waived,
        vec![
            ("cast-truncation", "src/cast.rs", 8),
            ("swallowed-result", "src/swallow.rs", 15),
        ]
    );
    assert!(report
        .waived
        .iter()
        .all(|(_, w)| w.reason.contains("fixture")));
    assert!(report.unused_waivers.is_empty());
}

#[test]
fn fixture_bin_and_cfg_test_code_is_exempt() {
    let report = lint_workspace(&fixture_root()).expect("lint fixture");
    // src/main.rs and the #[cfg(test)] module in src/lib.rs both discard
    // a workspace Result, which fires at src/swallow.rs:7 and :11. None
    // of that may surface.
    assert!(report
        .violations
        .iter()
        .all(|d| d.file != "src/main.rs" && d.file != "src/lib.rs"));
}

#[test]
fn real_workspace_is_clean_and_server_needs_no_waivers() {
    let report = lint_workspace(&workspace_root()).expect("lint workspace");
    assert!(
        report.violations.is_empty(),
        "workspace must lint clean: {:#?}",
        report.violations
    );
    // crates/server holds every invariant without an exception of either
    // kind: no hublint waiver, no clippy expectation.
    let server_src = workspace_root().join("crates/server/src");
    for entry in std::fs::read_dir(&server_src).expect("read crates/server/src") {
        let path = entry.expect("dir entry").path();
        let src = std::fs::read_to_string(&path).expect("read server source");
        assert!(
            !src.contains("lint:allow(") && !src.contains("clippy::"),
            "{} carries a lint exception",
            path.display()
        );
    }
}

#[test]
fn cli_reports_fixture_violations_with_exit_code_1() {
    let out = Command::new(env!("CARGO_BIN_EXE_hublint"))
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("run hublint");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("src/cast.rs:3: [cast-truncation]"), "{text}");
    assert!(text.contains("src/locks.rs:15: [lock-order]"), "{text}");
    assert!(text.contains("hublint: 6 violation(s)"), "{text}");
}

#[test]
fn cli_clean_workspace_exits_0_and_usage_error_exits_2() {
    let ok = Command::new(env!("CARGO_BIN_EXE_hublint"))
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("run hublint");
    assert_eq!(
        ok.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    // `--root` is the only option; the retired report/baseline flags are
    // usage errors like any other unknown argument.
    for args in [
        &["--no-such-flag"][..],
        &["--json"],
        &["--baseline", "x"],
        &["--diff"],
    ] {
        let usage = Command::new(env!("CARGO_BIN_EXE_hublint"))
            .args(args)
            .output()
            .expect("run hublint");
        assert_eq!(usage.status.code(), Some(2), "{args:?}");
    }
}
