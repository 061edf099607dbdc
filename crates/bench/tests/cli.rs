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
fn gen_build_verify_stats_pipeline() {
    let graph = tempfile("g.txt");
    let labels = tempfile("l.hlbs");

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

    // What `build` wrote is an HLBS v2 store any daemon can mount: 7x7
    // grid, corner to corner = 12.
    let store = hl_server::AnyStore::open(&labels).expect("mount the built store");
    assert_eq!((store.version(), store.flavor()), (2, "v2"));
    assert_eq!(store.served().query(0, 48), 12);

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(labels);
}

#[test]
fn verify_rejects_mismatched_labels() {
    let graph_a = tempfile("ga.txt");
    let graph_b = tempfile("gb.txt");
    let labels_b = tempfile("lb.hlbs");
    assert!(hubtool()
        .args(["gen", "path", "9", "1", graph_a.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(hubtool()
        .args(["gen", "grid", "9", "1", graph_b.to_str().unwrap()])
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
    // Labels of the 3x3 grid are NOT an exact cover of the 9-path.
    let out = hubtool()
        .args([
            "verify",
            graph_a.to_str().unwrap(),
            labels_b.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "mismatched labeling must fail verification"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("violations"));

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
    // `query` is gone (`hubserve query` answers from the same store).
    let out = hubtool()
        .args(["query", "/tmp/x", "0", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = hubtool()
        .args(["stats", "/nonexistent/file"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // A zero-vertex graph is a usage error for every family, not a panic
    // inside a generator (exit 101) — `gnm` included, which used to get
    // by on wrapping arithmetic in release builds only.
    for family in ["path", "tree", "grid", "gnm", "deg3-exp", "powerlaw"] {
        let out = hubtool()
            .args(["gen", family, "0", "1", "/tmp/x"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "gen {family} 0");
    }
    // Gadget specs that do not parse or are infeasible are usage errors too.
    for spec in ["h:2", "h:0,3", "x:2,3", "g:9,9", "h:a,b"] {
        let out = hubtool()
            .args(["gen", spec, "1", "1", "/tmp/x"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "gen {spec}");
    }
}

#[test]
fn all_build_algorithms_roundtrip() {
    let graph = tempfile("galgo.txt");
    let labels = tempfile("lalgo.hlbs");
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

#[test]
fn gadget_families_generate_the_papers_graphs() {
    // H(2,3): (2l+1)·s^l = 7·64 vertices, weighted; G(1,2) has max degree 3.
    let path = tempfile("gadget.txt");
    for (spec, nodes) in [("h:2,3", 448), ("g:1,2", 740)] {
        let out = hubtool()
            .args(["gen", spec, "0", "0", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "gen {spec}");
        let g = hl_graph::io::read_edge_list(std::io::BufReader::new(
            std::fs::File::open(&path).unwrap(),
        ))
        .unwrap();
        assert_eq!(g.num_nodes(), nodes, "{spec}");
        if spec.starts_with('g') {
            assert!(g.max_degree() <= 3);
        } else {
            assert!(!g.is_unit_weighted());
        }
    }
    let _ = std::fs::remove_file(path);
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
    let experiments = || Command::new(env!("CARGO_BIN_EXE_experiments"));
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
    assert!(experiments().arg("f1").status().unwrap().success());
}
