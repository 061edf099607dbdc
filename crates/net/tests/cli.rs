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
        .args(["--verify", "3"])
        .output()
        .expect("spawn hubserve build");
    assert!(
        out.status.success(),
        "build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // --verify checks every one of the 49 targets of each source.
    assert!(String::from_utf8_lossy(&out.stdout)
        .contains("verify: OK — 147 store answers from 3 sources"));

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

    // The served arena is 8 bytes an entry: offsets are 8 bytes a vertex
    // (plus one), each entry a u32 hub and a u32 distance. A distance lane
    // widened back to u64 makes this 8(n+1) + 12e.
    let field = |name: &str| -> usize {
        let line = stdout.lines().find_map(|l| l.strip_prefix(name));
        let word = line.and_then(|rest| rest.split_whitespace().next());
        word.and_then(|w| w.parse().ok())
            .unwrap_or_else(|| panic!("no `{name}` figure: {stdout}"))
    };
    let (n, e) = (field("  nodes "), field("  arena entries "));
    assert!(e > 0, "{stdout}");
    assert_eq!(
        field("  arena heap bytes "),
        8 * (n + 1) + 8 * e,
        "{stdout}"
    );

    // The hubset-size deciles follow the heap line, at nearest rank over
    // the 36 label sizes: p10 is the 4th smallest, p50 the 18th, p90 the
    // 33rd.
    let mut sizes: Vec<usize> = (0..36).map(|v| served.hubs_of(v).len()).collect();
    sizes.sort_unstable();
    let deciles = format!(
        "  hubs per vertex    p10 {} p50 {} p90 {} max {}\n",
        sizes[3], sizes[17], sizes[32], sizes[35]
    );
    let heap = stdout.find("  arena heap bytes").unwrap();
    let next_line = &stdout[heap + stdout[heap..].find('\n').unwrap() + 1..];
    assert!(next_line.starts_with(&deciles), "{stdout}");
    assert_eq!(sizes[35], served.max_hubs());

    // The dense split the engine mounts: its filled cells and remainder
    // entries are the arena's entries, and its table is n · K bytes.
    let dense = stdout
        .lines()
        .find_map(|l| l.strip_prefix("  dense prefix       "))
        .expect("a dense prefix line");
    let words: Vec<usize> = dense
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    let [k, u8_bits, cells, table, rest] = words[..] else {
        panic!("dense prefix line: {dense}");
    };
    assert_eq!(u8_bits, 8, "{dense}");
    assert!(k > 0, "{dense}");
    assert_eq!(cells + rest, served.num_entries(), "{dense}");
    assert_eq!(table, 36 * k, "{dense}");

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(store);
}

#[test]
fn convert_to_compact_flavor_serves_identical_answers() {
    let graph = tempfile("v2c-g.txt");
    let store = tempfile("v2c-s.hlbs");
    let compact = tempfile("v2c-c.hlbs");
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

    // v2 -> v2c, checked to lose nothing on the way back.
    let out = hubserve()
        .args([
            "convert",
            store.to_str().unwrap(),
            compact.to_str().unwrap(),
            "--to",
            "v2c",
            "--verify-roundtrip",
        ])
        .output()
        .unwrap();
    let stdout = succeeds(out);
    assert!(
        stdout.contains("roundtrip verified: v2 -> v2c -> v2 is byte-identical"),
        "{stdout}"
    );
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

    // Both stores answer the same pairs identically.
    std::fs::write(&pairs, "0 63\n5 58\n0 0\n7 56\n").unwrap();
    let mut answers = Vec::new();
    for p in [&store, &compact] {
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
    // 8x8 grid: corner to corner = 14.
    assert!(answers[0].starts_with("0 63 14\n"), "{}", answers[0]);

    // 2,000 seeded pairs: the v2c store answers them as the v2 store
    // does, from a pairs file (one batch, split across the machine's
    // workers) and line by line on stdin (the cached point path).
    let mut rng = hl_graph::rng::Xorshift64::seed_from_u64(7);
    let seeded: String = (0..2000)
        .map(|_| format!("{} {}\n", rng.gen_index(64), rng.gen_index(64)))
        .collect();
    std::fs::write(&pairs, &seeded).unwrap();
    let batch = |p: &std::path::Path| {
        let args = ["query", p.to_str().unwrap(), pairs.to_str().unwrap()];
        succeeds(hubserve().args(args).output().unwrap())
    };
    let (flat_batch, compact_batch) = (batch(&store), batch(&compact));
    assert_eq!(flat_batch.lines().count(), 2000);
    assert_eq!(flat_batch, compact_batch);
    let point = hubserve()
        .args(["query", compact.to_str().unwrap()])
        .stdin(std::fs::File::open(&pairs).unwrap())
        .output()
        .unwrap();
    assert_eq!(succeeds(point), compact_batch);

    for f in [graph, store, compact, pairs] {
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

    // `convert` refuses the flipped store, and one cut short, before it
    // writes anything: exit 1, one `hubserve: ` line, no output file.
    let cut = tempfile("bad-cut.hlbs");
    std::fs::write(&cut, &bytes[..mid]).unwrap();
    let converted = tempfile("bad-out.hlbs");
    for input in [&store, &cut] {
        for to in ["v1", "v2", "v2c"] {
            let args = [input.to_str().unwrap(), converted.to_str().unwrap()];
            let out = hubserve()
                .arg("convert")
                .args(args)
                .args(["--to", to, "--verify-roundtrip"])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?} --to {to}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{stderr}");
            assert!(stderr.starts_with("hubserve: "), "{stderr}");
            assert!(
                !converted.exists(),
                "{args:?} --to {to} left an output file"
            );
        }
    }

    for f in [graph, store, cut] {
        let _ = std::fs::remove_file(f);
    }
}

/// `convert --verify-roundtrip` v2 -> v1 -> v2 gives back the built file
/// byte for byte: v2 is a verbatim arena dump and γ-coding is canonical,
/// which is what makes `convert` safe on archival stores. Two shapes: a
/// random graph and a weighted grid with shortcuts.
#[test]
fn convert_v2_to_v1_and_back_is_byte_identical() {
    for (name, family) in [
        ("gnm", "gnm --nodes 2000 --edges 6000 --seed 3"),
        ("road", "road --nodes 2500 --seed 13"),
    ] {
        let [built, v1, back] =
            ["v2", "v1", "back"].map(|f| tempfile(&format!("rt-{name}-{f}.hlbs")));
        let [built_s, v1_s, back_s] = [&built, &v1, &back].map(|p| p.to_str().unwrap());
        let gen = family.split(' ');
        succeeds(
            hubserve()
                .args(["build", built_s, "--gen"])
                .args(gen)
                .output()
                .unwrap(),
        );
        for (from, to, flavor) in [(built_s, v1_s, "v1"), (v1_s, back_s, "v2")] {
            let args = ["convert", from, to, "--to", flavor, "--verify-roundtrip"];
            let stdout = succeeds(hubserve().args(args).output().unwrap());
            assert!(stdout.contains("roundtrip verified"), "{stdout}");
        }
        assert!(
            std::fs::read(&built).unwrap() == std::fs::read(&back).unwrap(),
            "{name}: v2 -> v1 -> v2 differs from the built store"
        );
        let stdout = succeeds(hubserve().args(["stats", built_s]).output().unwrap());
        assert!(
            stdout.contains("format version     2 (flavor v2)"),
            "{stdout}"
        );
        assert!(stdout.contains("  section offsets "), "{stdout}");
        for f in [built, v1, back] {
            let _ = std::fs::remove_file(f);
        }
    }
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
            stderr
                .contains("usage: hubserve gen|build|verify|query|stats|serve|convert|reload ..."),
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
/// `hl_graph::exit::CliError`: wrong arguments exit 2 whether they name no
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

fn succeeds(out: std::process::Output) -> String {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn gen_build_verify_stats_pipeline() {
    let graph = tempfile("pipe-g.txt");
    let store = tempfile("pipe-s.hlbs");
    let (g, s) = (graph.to_str().unwrap(), store.to_str().unwrap());

    let gen = ["gen", g, "--gen", "grid", "--nodes", "49", "--seed", "1"];
    let stdout = succeeds(hubserve().args(gen).output().unwrap());
    assert!(stdout.contains("(49 nodes, 84 edges)"), "{stdout}");
    succeeds(hubserve().args(["build", g, s]).output().unwrap());
    // `verify` checks every ordered pair: all 49 sources, 49 targets each.
    let stdout = succeeds(hubserve().args(["verify", g, s]).output().unwrap());
    assert!(
        stdout.contains("verify: OK — 2401 store answers from 49 sources"),
        "{stdout}"
    );
    let stdout = succeeds(hubserve().args(["stats", s]).output().unwrap());
    assert!(stdout.contains("hubs per vertex"), "{stdout}");

    // What `build` wrote is an HLBS v2 store any daemon can mount: 7x7
    // grid, corner to corner = 12.
    let mounted = hl_server::AnyStore::open(&store).expect("mount the built store");
    assert_eq!((mounted.version(), mounted.flavor()), (2, "v2"));
    assert_eq!(mounted.served().query(0, 48), 12);

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(store);
}

#[test]
fn verify_rejects_mismatched_labels() {
    let [path9, grid9, path10, labels] =
        ["mm-a.txt", "mm-b.txt", "mm-c.txt", "mm-l.hlbs"].map(tempfile);
    for (file, family, n) in [
        (&path9, "path", "9"),
        (&grid9, "grid", "9"),
        (&path10, "path", "10"),
    ] {
        let args = ["gen", file.to_str().unwrap(), "--gen", family, "--nodes", n];
        succeeds(hubserve().args(args).output().unwrap());
    }
    let labels_arg = labels.to_str().unwrap();
    succeeds(
        hubserve()
            .args(["build", grid9.to_str().unwrap(), labels_arg])
            .output()
            .unwrap(),
    );
    // Labels of the 3x3 grid are NOT an exact cover of the 9-path, and do
    // not even cover the 10-path's vertices.
    for (graph, reason) in [
        (&path9, "verify FAILED"),
        (&path10, "has 9 vertices but the graph has 10"),
    ] {
        let out = hubserve()
            .args(["verify", graph.to_str().unwrap(), labels_arg])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "a mismatched store must fail verification"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains(reason));
    }
    for f in [path9, grid9, path10, labels] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn bad_usage_exits_2_and_failed_work_exits_1() {
    let cases: [(&[&str], i32); 10] = [
        (&[], 2),
        (
            &["gen", "/tmp/x", "--gen", "nosuchfamily", "--nodes", "10"],
            2,
        ),
        (&["gen", "/tmp/x", "--nodes", "10"], 2),
        // Flags only `build` reads are argument errors on `gen` ...
        (
            &[
                "gen",
                "/tmp/x",
                "--gen",
                "path",
                "--nodes",
                "5",
                "--threads",
                "2",
            ],
            2,
        ),
        (
            &[
                "gen", "/tmp/x", "--gen", "path", "--nodes", "5", "--verify", "1",
            ],
            2,
        ),
        // ... and `--threads`/`--order` on any construction but PLL.
        (
            &[
                "build",
                "s.hlbs",
                "--gen",
                "path",
                "--nodes",
                "5",
                "--algo",
                "rs",
                "--threads",
                "2",
            ],
            2,
        ),
        (
            &[
                "build", "s.hlbs", "--gen", "path", "--nodes", "5", "--algo", "greedy", "--order",
                "degree",
            ],
            2,
        ),
        (
            &[
                "build",
                "s.hlbs",
                "--gen",
                "path",
                "--nodes",
                "5",
                "--algo",
                "pll-random",
            ],
            2,
        ),
        (&["stats", "/nonexistent/file"], 1),
        (&["verify", "/nonexistent/graph", "/nonexistent/store"], 1),
    ];
    for (args, code) in cases {
        let out = hubserve().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(code), "{args:?}");
    }
}

#[test]
fn all_build_algorithms_roundtrip() {
    let graph = tempfile("algo-g.txt");
    let labels = tempfile("algo-l.hlbs");
    let (g, l) = (graph.to_str().unwrap(), labels.to_str().unwrap());
    let gen = ["gen", g, "--gen", "tree", "--nodes", "40", "--seed", "3"];
    succeeds(hubserve().args(gen).output().unwrap());
    for flags in [
        &[][..],
        &["--order", "betweenness"],
        &["--algo", "greedy"],
        &["--algo", "rs"],
        &["--algo", "random-threshold"],
        &["--algo", "centroid"],
        &["--algo", "separator"],
    ] {
        let out = hubserve()
            .args(["build", g, l])
            .args(flags)
            .output()
            .unwrap();
        succeeds(out);
        let out = hubserve().args(["verify", g, l]).output().unwrap();
        assert!(out.status.success(), "{flags:?} verify failed");
    }
    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(labels);
}

/// Every family at every tiny size, through both `gen` and `build --gen`,
/// and four sizes no family can build: each exits 0 or 2 — an argument
/// error — never 101, a panic inside a generator.
#[test]
fn gen_inputs_exit_0_or_2_never_panic() {
    let graph = tempfile("tiny-g.txt");
    let store = tempfile("tiny-s.hlbs");
    let mut cases: Vec<Vec<String>> = Vec::new();
    for family in hl_graph::families::Family::ALL {
        for n in 0..4 {
            cases.push(vec![family.name().into(), "--nodes".into(), n.to_string()]);
        }
    }
    for extra in [
        "gnm --nodes 10 --edges 1000",
        "path --nodes 5 --edges 3",
        "rmat --nodes 3000000000",
        "nosuchfamily --nodes 5",
    ] {
        cases.push(extra.split(' ').map(String::from).collect());
    }
    for case in &cases {
        for lead in [
            ["gen", graph.to_str().unwrap()],
            ["build", store.to_str().unwrap()],
        ] {
            let out = hubserve()
                .args(lead)
                .arg("--gen")
                .args(case)
                .output()
                .unwrap();
            let code = out.status.code();
            assert!(
                code == Some(0) || code == Some(2),
                "{lead:?} --gen {case:?} exited {code:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            if case[2] == "0" || case.len() > 3 {
                assert_eq!(code, Some(2), "{lead:?} --gen {case:?}");
            }
        }
    }
    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(store);
}

/// The exit rule on a stdout that fails (`hl_graph::exit`): a reader
/// that closed the pipe chose to stop, so that is exit 0 with nothing on
/// stderr; any other write error exits 1 with one `<tool>: ` line. Never
/// a panic.
#[cfg(target_os = "linux")]
#[test]
fn a_closed_stdout_exits_0_and_a_full_one_exits_1() {
    let graph = tempfile("dead-out-g.txt");
    let store = tempfile("dead-out-s.hlbs");
    let pairs = tempfile("dead-out-p.txt");
    write_grid_graph(&graph, 6, 6);
    let (store_s, pairs_s) = (store.to_str().unwrap(), pairs.to_str().unwrap());
    succeeds(
        hubserve()
            .args(["build", graph.to_str().unwrap(), store_s])
            .output()
            .unwrap(),
    );
    std::fs::write(&pairs, "0 35\n1 2\n").unwrap();
    // (binary, arguments, whether the pairs come on stdin)
    let cases: [(&str, &[&str], bool); 4] = [
        ("hubserve", &["stats", store_s], false),
        ("hubserve", &["query", store_s, pairs_s], false),
        ("hubserve", &["query", store_s], true),
        ("hlnp-fuzz", &["--iters", "1"], false),
    ];
    for (tool, args, stdin) in cases {
        let command = || {
            let mut cmd = match tool {
                "hubserve" => hubserve(),
                _ => Command::new(env!("CARGO_BIN_EXE_hlnp-fuzz")),
            };
            if stdin {
                cmd.stdin(std::fs::File::open(&pairs).unwrap());
            }
            cmd.args(args);
            cmd
        };
        // The read end closes before the spawn, so the first write fails.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = command().stdout(writer).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{tool} {args:?}: {stderr}");
        assert!(
            stderr.is_empty(),
            "{tool} {args:?} wrote to stderr: {stderr}"
        );

        let full = std::fs::OpenOptions::new().write(true).open("/dev/full");
        let out = command().stdout(full.unwrap()).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tool} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with(&format!("{tool}: ")), "{stderr}");
    }
    for path in [graph, store, pairs] {
        let _ = std::fs::remove_file(path);
    }
}

/// `hubserve query` on stdin answers each line while the writer is still
/// there: a client that sends one pair and waits gets its answer without
/// closing stdin first.
#[test]
fn stdin_query_answers_before_stdin_closes() {
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc;
    use std::time::Duration;

    let graph = tempfile("live-g.txt");
    let store = tempfile("live-s.hlbs");
    write_grid_graph(&graph, 6, 6);
    let store_s = store.to_str().unwrap();
    succeeds(
        hubserve()
            .args(["build", graph.to_str().unwrap(), store_s])
            .output()
            .unwrap(),
    );
    let mut child = hubserve()
        .args(["query", store_s])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hubserve query (stdin)");
    let mut stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in stdout.lines() {
            if tx.send(line.unwrap()).is_err() {
                return;
            }
        }
    });
    stdin.write_all(b"0 5\n").unwrap();
    stdin.flush().unwrap();
    let answer = rx.recv_timeout(Duration::from_secs(5));
    if answer.is_err() {
        let _ = child.kill();
    }
    // 6x6 grid: 0 and 5 are the two ends of the first row.
    assert_eq!(answer.as_deref(), Ok("0 5 5"), "no answer while stdin open");
    drop(stdin);
    assert!(child.wait().unwrap().success());
    reader.join().unwrap();
    for path in [graph, store] {
        let _ = std::fs::remove_file(path);
    }
}
