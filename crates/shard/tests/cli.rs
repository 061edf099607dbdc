//! End-to-end tests of the `hl-shard` binary (spawned as a subprocess).
#![cfg(target_os = "linux")]

use std::path::Path;
use std::process::{Command, Output};
use std::sync::Arc;

use hl_core::order::DegreeOrder;
use hl_core::pll::{build_with_strategy, BuildConfig, PrunedLandmarkLabeling};
use hl_graph::families::Family;
use hl_net::cli::print_answer;
use hl_net::{NetServer, ServerConfig};
use hl_server::{AnyStore, FlatStore, QueryEngine};

/// `hl-shard partition <store> <dir>/shards --shards 2` over a saved 6x6 grid labeling.
fn partition(dir: &Path) -> Command {
    let store = dir.join("s.hlbs");
    let g = hl_graph::generators::grid(6, 6);
    let labeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    FlatStore::from_flat(labeling).save(&store).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hl-shard"));
    cmd.arg("partition").arg(&store).arg(dir.join("shards"));
    cmd.args(["--shards", "2"]);
    cmd
}

fn expect_exit(out: Output, code: i32) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    stderr
}

/// The exit rule on a stdout that fails (`hl_graph::exit`): a pipe whose
/// read end closed before the spawn is exit 0 with nothing on stderr, a
/// full device exit 1 with one `hl-shard: ` line. Never a panic.
#[test]
fn partition_exits_0_on_a_closed_stdout_and_1_on_a_full_one() {
    let dir = std::env::temp_dir().join(format!("hl-shard-test-{}-dead-out", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let stderr = expect_exit(partition(&dir).stdout(writer).output().unwrap(), 0);
    assert!(stderr.is_empty(), "{stderr}");
    assert!(dir.join("shards/shard-1.hlbs").is_file());

    let full = std::fs::OpenOptions::new().write(true).open("/dev/full");
    let out = partition(&dir).stdout(full.unwrap()).output().unwrap();
    let stderr = expect_exit(out, 1);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("hl-shard: "), "{stderr}");
    std::fs::remove_dir_all(dir).unwrap();
}

/// `hl-shard partition` at 2 and 3 shards, each shard file served by its
/// own in-process daemon: `hl-shard query` through the fleet prints what
/// the unsharded store answers, byte for byte, cross-shard pairs included
/// (0 and 1 differ mod 2 and mod 3).
#[test]
fn routed_queries_over_partitioned_files_print_the_unsharded_answers() {
    let dir = std::env::temp_dir().join(format!("hl-shard-test-{}-routed", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pairs = [(0, 1), (0, 2), (1, 3), (5, 1999), (17, 1003)];
    let pairs_path = dir.join("pairs.txt");
    let lines: String = pairs.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
    std::fs::write(&pairs_path, lines).unwrap();
    for (k, family, nodes, edges, seed) in
        [(2, "gnm", 2000, Some(6000), 3), (3, "road", 2500, None, 13)]
    {
        // The store `hubserve build --gen` writes: PLL in degree order.
        let g = Family::named(family)
            .and_then(|f| f.generate(nodes, edges, seed))
            .unwrap();
        let built = build_with_strategy(&g, &DegreeOrder, BuildConfig::sequential()).unwrap();
        let store = dir.join(format!("{family}.hlbs"));
        FlatStore::from_flat(built.labeling).save(&store).unwrap();
        let shards = dir.join(format!("shards-{k}"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_hl-shard"));
        cmd.arg("partition").arg(&store).arg(&shards);
        expect_exit(cmd.args(["--shards", &k.to_string()]).output().unwrap(), 0);

        // What `hubserve query` prints for the pairs, from the whole store.
        let mount = |path: &Path| {
            let flat = AnyStore::open(path).unwrap().into_flat().unwrap();
            Arc::new(QueryEngine::new(flat, 1).unwrap())
        };
        let mut unsharded = Vec::new();
        let answers = mount(&store).query_batch(&pairs).unwrap();
        for (&(u, v), &d) in pairs.iter().zip(&answers) {
            print_answer(&mut unsharded, u, v, d).unwrap();
        }

        let mut query = Command::new(env!("CARGO_BIN_EXE_hl-shard"));
        query.arg("query");
        let mut daemons = Vec::new();
        for i in 0..k {
            let engine = mount(&shards.join(format!("shard-{i}.hlbs")));
            let server = NetServer::bind(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
            query.args(["--shard", &server.local_addr().to_string()]);
            let stop = server.stop_handle();
            daemons.push((stop, std::thread::spawn(move || server.serve().unwrap())));
        }
        let routed = query.arg(&pairs_path).output().unwrap();
        for (stop, daemon) in daemons {
            stop.stop();
            daemon.join().unwrap();
        }
        let stdout = String::from_utf8_lossy(&routed.stdout).into_owned();
        expect_exit(routed, 0);
        assert_eq!(
            stdout,
            String::from_utf8_lossy(&unsharded),
            "{k} shards of {family}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}
