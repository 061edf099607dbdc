//! End-to-end tests of the `hl-shard` binary (spawned as a subprocess).
#![cfg(target_os = "linux")]

use std::path::Path;
use std::process::{Command, Output};

use hl_core::pll::PrunedLandmarkLabeling;
use hl_server::FlatStore;

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
