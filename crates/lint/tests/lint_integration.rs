//! End-to-end lint tests: the seeded-violation fixture crate, waiver
//! honoring, the real workspace's cleanliness, and the `hublint` CLI.
//!
//! The fixture crate under `tests/fixtures/violations/` is invisible to
//! cargo (the workspace's `crates/*` glob matches only direct children)
//! and to workspace-level lint runs (everything under `tests/` is test
//! context), so it can seed one violation per rule without tripping
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
            ("offline-deps", "Cargo.toml", 9),
            ("untrusted-length-alloc", "src/alloc.rs", 3),
            // Line 19 decodes its count through `read_u64`, the HLBS
            // parsers' helper, not a bare `from_le_bytes`: the seed table
            // must follow the decode wherever a refactor moves it.
            ("untrusted-length-alloc", "src/alloc.rs", 19),
            ("cast-truncation", "src/cast.rs", 3),
            ("no-unsafe-attr", "src/lib.rs", 1),
            ("no-panic", "src/lib.rs", 2),
            ("no-print", "src/lib.rs", 6),
            ("exit-in-lib", "src/lib.rs", 10),
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
            ("no-panic", "src/lib.rs", 14),
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
    // src/main.rs prints and exits; the #[cfg(test)] module unwraps and
    // panics. None of that may surface.
    assert!(report.violations.iter().all(|d| d.file != "src/main.rs"));
    assert!(report
        .violations
        .iter()
        .filter(|d| d.file == "src/lib.rs")
        .all(|d| d.line < 17));
}

#[test]
fn real_workspace_is_clean_and_server_needs_no_waivers() {
    let report = lint_workspace(&workspace_root()).expect("lint workspace");
    assert!(
        report.violations.is_empty(),
        "workspace must lint clean: {:#?}",
        report.violations
    );
    assert!(
        report
            .waived
            .iter()
            .all(|(_, w)| !w.file.starts_with("crates/server/")),
        "crates/server must hold the no-panic invariant without waivers: {:#?}",
        report.waived
    );
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
    assert!(text.contains("src/lib.rs:2: [no-panic]"), "{text}");
    assert!(text.contains("Cargo.toml:9: [offline-deps]"), "{text}");
    assert!(text.contains("src/cast.rs:3: [cast-truncation]"), "{text}");
    assert!(text.contains("src/locks.rs:15: [lock-order]"), "{text}");
    assert!(text.contains("hublint: 11 violation(s)"), "{text}");
}

#[test]
fn cli_json_mode_has_violations_waivers_and_summary() {
    let out = Command::new(env!("CARGO_BIN_EXE_hublint"))
        .arg("--json")
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("run hublint");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"rule\": \"no-print\""), "{text}");
    assert!(text.contains("\"rule\": \"exit-in-lib\""), "{text}");
    assert!(text.contains("\"rule\": \"swallowed-result\""), "{text}");
    assert!(
        text.contains("\"rule\": \"untrusted-length-alloc\""),
        "{text}"
    );
    assert!(
        text.contains("\"reason\": \"fixture demonstrates an honored waiver\""),
        "{text}"
    );
    assert!(text.contains("\"summary\": {\"violations\": 11"), "{text}");
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

    let usage = Command::new(env!("CARGO_BIN_EXE_hublint"))
        .arg("--no-such-flag")
        .output()
        .expect("run hublint");
    assert_eq!(usage.status.code(), Some(2));
}

/// A scratch directory under the target-adjacent temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("hublint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read_dir") {
        let entry = entry.expect("dir entry");
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_tree(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).expect("copy file");
        }
    }
}

#[test]
fn baseline_round_trip_suppresses_every_finding() {
    let scratch = Scratch::new("roundtrip");
    let baseline_path = scratch.0.join("baseline.json");

    // Step 1: capture the fixture's findings as JSON.
    let capture = Command::new(env!("CARGO_BIN_EXE_hublint"))
        .arg("--json")
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("run hublint --json");
    assert_eq!(capture.status.code(), Some(1));
    std::fs::write(&baseline_path, &capture.stdout).expect("write baseline");

    // Step 2: feed the report back as the baseline — everything known.
    let gated = Command::new(env!("CARGO_BIN_EXE_hublint"))
        .arg("--root")
        .arg(fixture_root())
        .arg("--baseline")
        .arg(&baseline_path)
        .arg("--diff")
        .output()
        .expect("run hublint --diff");
    let text = String::from_utf8_lossy(&gated.stdout);
    assert_eq!(gated.status.code(), Some(0), "{text}");
    assert!(text.contains("0 violation(s)"), "{text}");
    assert!(text.contains("11 baselined"), "{text}");
}

#[test]
fn diff_gate_fails_on_a_newly_introduced_narrowing_cast() {
    let scratch = Scratch::new("diffgate");
    let tree = scratch.0.join("violations");
    copy_tree(&fixture_root(), &tree);
    let baseline_path = scratch.0.join("baseline.json");

    let capture = Command::new(env!("CARGO_BIN_EXE_hublint"))
        .arg("--json")
        .arg("--root")
        .arg(&tree)
        .output()
        .expect("run hublint --json");
    std::fs::write(&baseline_path, &capture.stdout).expect("write baseline");

    // Introduce a fresh narrowing cast on a decoded value.
    let cast_rs = tree.join("src/cast.rs");
    let mut src = std::fs::read_to_string(&cast_rs).expect("read cast.rs");
    src.push_str(
        "\npub fn regression(buf: [u8; 8]) -> u16 {\n    u64::from_le_bytes(buf) as u16\n}\n",
    );
    std::fs::write(&cast_rs, src).expect("write cast.rs");

    let gated = Command::new(env!("CARGO_BIN_EXE_hublint"))
        .arg("--root")
        .arg(&tree)
        .arg("--baseline")
        .arg(&baseline_path)
        .arg("--diff")
        .output()
        .expect("run hublint --diff");
    let text = String::from_utf8_lossy(&gated.stdout);
    assert_eq!(gated.status.code(), Some(1), "{text}");
    // Only the new finding survives the baseline; the backlog stays quiet.
    assert!(text.contains("1 violation(s)"), "{text}");
    assert!(text.contains("[cast-truncation]"), "{text}");
    assert!(text.contains("as u16"), "{text}");
}

#[test]
fn diff_without_baseline_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_hublint"))
        .arg("--root")
        .arg(fixture_root())
        .arg("--diff")
        .output()
        .expect("run hublint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn workspace_baseline_file_is_empty_and_matches_a_clean_tree() {
    // The committed baseline must stay empty: decode-path findings are
    // fixed at the source, never suppressed.
    let baseline = workspace_root().join("hublint-baseline.json");
    let contents = std::fs::read_to_string(&baseline).expect("read hublint-baseline.json");
    assert!(
        contents.contains("\"violations\": []"),
        "committed baseline must contain no suppressions: {contents}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_hublint"))
        .arg("--root")
        .arg(workspace_root())
        .arg("--baseline")
        .arg(&baseline)
        .arg("--diff")
        .output()
        .expect("run hublint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
