//! End-to-end tests of the `hubtool` binary (spawned as a subprocess).

use std::process::Command;

fn hubtool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hubtool"))
}

fn tempfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hubtool-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn gen_build_verify_query_pipeline() {
    let graph = tempfile("g.txt");
    let labels = tempfile("l.txt");

    let out = hubtool()
        .args(["gen", "grid", "49", "1", graph.to_str().unwrap()])
        .output()
        .expect("spawn hubtool gen");
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = hubtool()
        .args([
            "build",
            graph.to_str().unwrap(),
            labels.to_str().unwrap(),
            "pll",
        ])
        .output()
        .expect("spawn hubtool build");
    assert!(
        out.status.success(),
        "build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = hubtool()
        .args(["verify", graph.to_str().unwrap(), labels.to_str().unwrap()])
        .output()
        .expect("spawn hubtool verify");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("exact"));

    let out = hubtool()
        .args(["stats", labels.to_str().unwrap()])
        .output()
        .expect("spawn hubtool stats");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("avg="));

    let out = hubtool()
        .args(["query", labels.to_str().unwrap(), "0", "48"])
        .output()
        .expect("spawn hubtool query");
    assert!(out.status.success());
    // 7x7 grid: corner to corner = 12.
    assert!(String::from_utf8_lossy(&out.stdout).contains("= 12"));

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(labels);
}

#[test]
fn verify_rejects_mismatched_labels() {
    let graph_a = tempfile("ga.txt");
    let graph_b = tempfile("gb.txt");
    let labels_b = tempfile("lb.txt");
    assert!(hubtool()
        .args(["gen", "path", "10", "1", graph_a.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(hubtool()
        .args(["gen", "cycle", "10", "1", graph_b.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(hubtool()
        .args([
            "build",
            graph_b.to_str().unwrap(),
            labels_b.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    // Labels of the cycle are NOT an exact cover of the path.
    let out = hubtool()
        .args([
            "verify",
            graph_a.to_str().unwrap(),
            labels_b.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "mismatched labeling must fail verification"
    );

    let _ = std::fs::remove_file(graph_a);
    let _ = std::fs::remove_file(graph_b);
    let _ = std::fs::remove_file(labels_b);
}

#[test]
fn bad_usage_exits_2_and_failed_work_exits_1() {
    let out = hubtool().output().expect("spawn hubtool");
    assert_eq!(out.status.code(), Some(2));
    let out = hubtool()
        .args(["gen", "nosuchfamily", "10", "1", "/tmp/x"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = hubtool()
        .args(["query", "/nonexistent/file", "0", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn all_build_algorithms_roundtrip() {
    let graph = tempfile("galgo.txt");
    let labels = tempfile("lalgo.txt");
    assert!(hubtool()
        .args(["gen", "tree", "40", "3", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    for algo in [
        "pll",
        "pll-random",
        "pll-betweenness",
        "greedy",
        "rs",
        "random-threshold",
        "centroid",
        "separator",
    ] {
        let out = hubtool()
            .args([
                "build",
                graph.to_str().unwrap(),
                labels.to_str().unwrap(),
                algo,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let out = hubtool()
            .args(["verify", graph.to_str().unwrap(), labels.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo} verify failed");
    }
    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(labels);
}
