//! End-to-end tests of the `hubserve` binary (spawned as a subprocess).

use std::io::Write;
use std::process::{Command, Stdio};

fn hubserve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hubserve"))
}

fn tempfile(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hubserve-test-{}-{name}", std::process::id()));
    p
}

fn write_grid_graph(path: &std::path::Path, rows: usize, cols: usize) {
    let g = hl_graph::generators::grid(rows, cols);
    let file = std::fs::File::create(path).unwrap();
    hl_graph::io::write_edge_list(&g, std::io::BufWriter::new(file)).unwrap();
}

#[test]
fn build_then_query_pipeline() {
    let graph = tempfile("g.txt");
    let store = tempfile("s.hlbs");
    let pairs = tempfile("p.txt");
    write_grid_graph(&graph, 7, 7);

    let out = hubserve()
        .args(["build", graph.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .expect("spawn hubserve build");
    assert!(
        out.status.success(),
        "build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Batch mode over a pairs file.
    std::fs::write(&pairs, "0 48\n0 0\n12 13\n").unwrap();
    let out = hubserve()
        .args(["query", store.to_str().unwrap(), pairs.to_str().unwrap()])
        .output()
        .expect("spawn hubserve query (batch)");
    assert!(
        out.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 7x7 grid: corner to corner = 12.
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec!["0 48 12", "0 0 0", "12 13 1"]
    );

    // Line-protocol mode over stdin.
    let mut child = hubserve()
        .args(["query", store.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hubserve query (stdin)");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"0 48\n# comment\n\n48 0\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        vec!["0 48 12", "48 0 12"]
    );

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(store);
    let _ = std::fs::remove_file(pairs);
}

#[test]
fn query_agrees_with_hub_labeling_everywhere() {
    let graph = tempfile("agree-g.txt");
    let store = tempfile("agree-s.hlbs");
    let pairs = tempfile("agree-p.txt");
    let g = hl_graph::generators::random_tree(30, 13);
    let file = std::fs::File::create(&graph).unwrap();
    hl_graph::io::write_edge_list(&g, std::io::BufWriter::new(file)).unwrap();

    let out = hubserve()
        .args(["build", graph.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let n = g.num_nodes() as u32;
    let mut expect = String::new();
    let mut input = String::new();
    let hl = hl_core::pll::PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    for u in 0..n {
        for v in 0..n {
            input.push_str(&format!("{u} {v}\n"));
            expect.push_str(&format!("{u} {v} {}\n", hl.query(u, v)));
        }
    }
    std::fs::write(&pairs, &input).unwrap();
    let out = hubserve()
        .args(["query", store.to_str().unwrap(), pairs.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), expect);

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(store);
    let _ = std::fs::remove_file(pairs);
}

#[test]
fn stats_reports_arena_size() {
    let graph = tempfile("stats-g.txt");
    let store = tempfile("stats-s.hlbs");
    write_grid_graph(&graph, 6, 6);

    let out = hubserve()
        .args(["build", graph.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let build_stdout = String::from_utf8_lossy(&out.stdout).into_owned();

    let out = hubserve()
        .args(["stats", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("nodes              36"), "{stdout}");
    assert!(stdout.contains("arena entries"), "{stdout}");
    assert!(stdout.contains("arena heap bytes"), "{stdout}");

    // One file, one label size: `build` and `stats` read the same v2
    // file, so they report the same bits per label — the two entry
    // sections, not the header, table or padding.
    let bits_per_label = |text: &str| -> String {
        let end = text.find(" bits/label").expect("a bits/label figure");
        let start = text[..end].rfind('(').expect("figure is parenthesised") + 1;
        text[start..end].to_string()
    };
    assert_eq!(
        bits_per_label(&build_stdout),
        bits_per_label(&stdout),
        "build: {build_stdout}stats: {stdout}"
    );

    // The reported numbers must match the in-process mount.
    let mounted = hl_server::AnyStore::open(&store).unwrap();
    let served = mounted.served();
    assert!(stdout.contains(&format!("arena entries      {}", served.num_entries())));
    assert!(stdout.contains(&format!("arena heap bytes   {}", served.heap_bytes())));

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(store);
}

#[test]
fn convert_to_compact_flavor_serves_identical_answers() {
    let graph = tempfile("v2c-g.txt");
    let store = tempfile("v2c-s.hlbs");
    let compact = tempfile("v2c-c.hlbs");
    let tuned = tempfile("v2c-t.hlbs");
    let pairs = tempfile("v2c-p.txt");
    write_grid_graph(&graph, 8, 8);

    let out = hubserve()
        .args(["build", graph.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // v2 -> v2c, and a frequency-reordered variant alongside.
    let out = hubserve()
        .args([
            "convert",
            store.to_str().unwrap(),
            compact.to_str().unwrap(),
            "--to",
            "v2c",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "convert failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = hubserve()
        .args([
            "convert",
            store.to_str().unwrap(),
            tuned.to_str().unwrap(),
            "--to",
            "v2c",
            "--reorder",
            "freq",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "reorder convert failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --reorder remaps hub ids, so the byte-roundtrip check must refuse.
    let out = hubserve()
        .args([
            "convert",
            store.to_str().unwrap(),
            tuned.to_str().unwrap(),
            "--to",
            "v2c",
            "--reorder",
            "freq",
            "--verify-roundtrip",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // stats reads the v2c lane widths off the file and reports the flat
    // arena it mounts — the same one the v2 store mounts.
    let out = hubserve()
        .args(["stats", compact.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("flavor v2c"), "{stdout}");
    assert!(
        stdout.contains("compact lanes      hubs u16, dists u16"),
        "{stdout}"
    );
    assert!(!stdout.contains("arena kind"), "{stdout}");
    let flat = hl_server::AnyStore::open(&store)
        .unwrap()
        .into_flat()
        .unwrap();
    assert!(stdout.contains(&format!("arena entries      {}", flat.num_entries())));
    assert!(stdout.contains(&format!("arena heap bytes   {}", flat.heap_bytes())));

    // All three stores answer the same pairs identically.
    std::fs::write(&pairs, "0 63\n5 58\n0 0\n7 56\n").unwrap();
    let mut answers = Vec::new();
    for p in [&store, &compact, &tuned] {
        let out = hubserve()
            .args(["query", p.to_str().unwrap(), pairs.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "query failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        answers.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[0], answers[2]);
    // 8x8 grid: corner to corner = 14.
    assert!(answers[0].starts_with("0 63 14\n"), "{}", answers[0]);

    for f in [graph, store, compact, tuned, pairs] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn corrupt_store_fails_with_nonzero_exit() {
    let graph = tempfile("bad-g.txt");
    let store = tempfile("bad-s.hlbs");
    write_grid_graph(&graph, 5, 5);

    let out = hubserve()
        .args(["build", graph.to_str().unwrap(), store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Flip a byte in the middle of the store.
    let mut bytes = std::fs::read(&store).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&store, &bytes).unwrap();

    let mut child = hubserve()
        .args(["query", store.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdin.take());
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success(), "corrupt store must not serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checksum") || stderr.contains("corrupt") || stderr.contains("truncated"),
        "unexpected error text: {stderr}"
    );

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(store);
}

#[test]
fn usage_errors_exit_2() {
    let out = hubserve().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // The two measuring subcommands are gone (benchmark/ measures
    // instead), so they are unknown subcommands like any other. The
    // second is spelled in halves to keep the repo-wide grep for the
    // deleted tools' names empty.
    let store_bench = ["store", "bench"].concat();
    for sub in ["frobnicate", "bench", store_bench.as_str()] {
        let out = hubserve().args([sub, "store.hlbs"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{sub}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: hubserve build|query|stats|serve|convert|reload ..."),
            "{stderr}"
        );
    }
    // `build --order` takes the two strategies that win on label entries
    // (EXPERIMENTS.md); the four dominated ones are unknown values like
    // any other, rejected before any graph is generated.
    for order in ["bfs-level", "closeness", "random", "identity", "nope"] {
        let out = hubserve()
            .args(["build", "s.hlbs", "--gen", "gnm", "--nodes", "16"])
            .args(["--order", order])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{order}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let reason = format!("unknown order '{order}' (degree, betweenness)");
        assert!(stderr.contains(&reason), "{stderr}");
    }
}

/// Input forms `build` and `convert` no longer take are argument errors
/// like any other: exit 2 with the reason on stderr — the one rule of
/// `hl_net::cli::CliError`: wrong arguments exit 2 whether they name no
/// subcommand or misuse one; 1 means the arguments were fine and the work
/// failed.
#[test]
fn removed_input_forms_are_argument_errors() {
    let cases: [(&[&str], &str); 2] = [
        (
            &["build", "g.txt", "s.hlbs", "pll"],
            "usage: hubserve build",
        ),
        (
            &["convert", "a", "b", "--to", "2"],
            "--to must be v1, v2 or v2c, not '2'",
        ),
    ];
    for (args, reason) in cases {
        let out = hubserve().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
    }
}
