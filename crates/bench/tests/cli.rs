//! End-to-end tests of the `experiments` binary (spawned as a subprocess).

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn gadget_families_generate_the_papers_graphs() {
    // H(2,3): (2l+1)·s^l = 7·64 vertices, weighted; G(1,2) has max degree 3.
    for (spec, nodes) in [("h:2,3", 448), ("g:1,2", 740)] {
        let out = experiments().args(["gadget", spec]).output().unwrap();
        assert!(out.status.success(), "gadget {spec}");
        let g = hl_graph::io::read_edge_list(out.stdout.as_slice()).unwrap();
        assert_eq!(g.num_nodes(), nodes, "{spec}");
        if spec.starts_with('g') {
            assert!(g.max_degree() <= 3);
        } else {
            assert!(!g.is_unit_weighted());
        }
    }
    // Specs that do not parse or are infeasible are usage errors.
    for args in [
        &["h:2"][..],
        &["h:0,3"],
        &["x:2,3"],
        &["g:9,9"],
        &["h:a,b"],
        &[],
    ] {
        let out = experiments().arg("gadget").args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "gadget {args:?}");
        assert!(out.stdout.is_empty(), "gadget {args:?}");
    }
}

#[test]
fn experiments_usage_names_every_documented_subcommand() {
    // The names the module doc promises: every backticked word between
    // "Subcommands:" and the end of that sentence.
    let source = include_str!("../src/bin/experiments.rs");
    let doc: String = source
        .lines()
        .map_while(|l| l.strip_prefix("//!"))
        .collect::<Vec<_>>()
        .join(" ");
    let listed = doc.split("Subcommands:").nth(1).expect("usage in the doc");
    let listed = listed.split("Each subcommand").next().unwrap();
    let documented: Vec<&str> = listed
        .split('`')
        .skip(1)
        .step_by(2)
        .flat_map(str::split_whitespace)
        .collect();
    assert!(documented.len() >= 17, "{documented:?}");

    // The exit-2 usage line is printed from the dispatch table itself, so
    // a name it lists is a name `main` runs.
    let out = experiments().arg("nosuch").output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let usage = stderr.lines().find(|l| l.starts_with("usage:")).unwrap();
    let (open, close) = (usage.find('[').unwrap(), usage.find(']').unwrap());
    let accepted: Vec<&str> = usage[open + 1..close].split('|').collect();
    for name in &documented {
        assert!(accepted.contains(name), "`{name}` missing from: {usage}");
    }
    assert_eq!(accepted.len(), documented.len(), "{usage}");
    assert!(experiments().arg("f1").output().unwrap().status.success());
}

/// The exit rule on a stdout that fails (`hl_graph::exit`): a closed
/// pipe is exit 0 with nothing on stderr, a full device exit 1 with one
/// `experiments: ` line. Never a panic.
#[cfg(target_os = "linux")]
#[test]
fn a_closed_stdout_exits_0_and_a_full_one_exits_1() {
    for args in [&["f1"][..], &["gadget", "h:2,4"]] {
        // The read end closes before the spawn, so the first write fails.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = experiments().args(args).stdout(writer).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");

        let full = std::fs::OpenOptions::new().write(true).open("/dev/full");
        let out = experiments()
            .args(args)
            .stdout(full.unwrap())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with("experiments: "), "{stderr}");
    }
}

/// The paper's tables, byte for byte: `experiments all`'s stdout and then
/// `experiments big`'s. Every stdout cell is a function of fixed seeds
/// (wall-clock cells go to stderr), so a changed construction, gadget,
/// seed or encoding shows here as a diff. When a number is meant to move,
/// regenerate the file from the same two commands and say which blocks
/// moved and why.
const GOLDEN: &str = include_str!("../../../docs/experiments_reference.txt");

/// Runs `experiments <sub>` and holds its stdout to the golden's slice
/// for it: `big`'s starts at the blank line before its first heading.
fn assert_matches_golden(sub: &str) {
    let split = GOLDEN
        .find("\n\n== BIG: ")
        .expect("the golden ends with `big`")
        + 1;
    let want = if sub == "big" {
        &GOLDEN[split..]
    } else {
        &GOLDEN[..split]
    };
    let out = experiments().arg(sub).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "experiments {sub}: {stderr}");
    let got = String::from_utf8(out.stdout).unwrap();
    let mismatch = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    if let Some(i) = mismatch {
        panic!(
            "experiments {sub}, line {}: {:?}; docs/experiments_reference.txt has {:?}",
            i + 1,
            got.lines().nth(i).unwrap(),
            want.lines().nth(i).unwrap()
        );
    }
    assert_eq!(
        got, want,
        "experiments {sub} differs from the golden in length"
    );
}

#[test]
fn experiments_all_prints_the_golden() {
    assert_matches_golden("all");
}

#[test]
fn experiments_big_prints_the_golden() {
    assert_matches_golden("big");
}
