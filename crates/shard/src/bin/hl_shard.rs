//! `hl-shard` — partition hub label stores and query a sharded fleet.
//!
//! ```text
//! hl-shard partition <store-file> <out-dir> --shards K [options]
//! hl-shard query --shard HOST:PORT [--shard HOST:PORT ...] [pairs-file]
//! ```
//!
//! `partition` opens a store of either HLBS version, splits its labels
//! into K full-width vertex-routed shard stores (`v % K` owns vertex
//! `v`), writes `shard-0.hlbs` … `shard-(K-1).hlbs` into `<out-dir>`,
//! and prints a per-shard summary. Shard stores are HLBS v2 (the serving
//! format); each shard is then served by a perfectly ordinary `hubserve
//! serve shard-i.hlbs`.
//!
//! `query` connects to one daemon per `--shard` flag — order must match
//! shard ids — and answers `u v` pair lines: from a file as one routed
//! batch, else line-by-line from stdin. Same-shard pairs are answered by
//! the owning daemon; cross-shard pairs fetch both labels and merge-join
//! in the router. Output is `u v <distance>` with `inf` for unreachable,
//! byte-compatible with `hubserve query`.
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage — a subcommand's own
//! argument errors as much as an unknown subcommand.

use std::path::Path;
use std::process::ExitCode;

use hl_net::cli::{answer_pairs, exit_code, CliError, Flags};
use hl_net::ClientConfig;
use hl_server::{AnyStore, FlatStore};
use hl_shard::{partition, ShardRouter};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("partition") => cmd_partition(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        _ => CliError::usage(
            "usage: hl-shard partition|query ...\n  \
             partition <store-file> <out-dir> --shards K\n  \
             query --shard HOST:PORT [--shard HOST:PORT ...] [pairs-file]",
        ),
    };
    exit_code("hl-shard", result)
}

struct PartitionOpts {
    store_path: String,
    out_dir: String,
    shards: usize,
}

fn parse_partition_opts(args: &[String]) -> Result<PartitionOpts, String> {
    let usage = "usage: hl-shard partition <store-file> <out-dir> --shards K";
    let mut positionals = Vec::new();
    let mut shards = 0usize;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--shards" => shards = flags.parsed(arg)?,
            other if !other.starts_with('-') => positionals.push(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let [store_path, out_dir] = positionals.as_slice() else {
        return Err(usage.into());
    };
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(PartitionOpts {
        store_path: store_path.clone(),
        out_dir: out_dir.clone(),
        shards,
    })
}

fn cmd_partition(args: &[String]) -> Result<(), CliError> {
    let opts = parse_partition_opts(args).map_err(CliError::Usage)?;
    let store = AnyStore::open(&opts.store_path)
        .map_err(|e| format!("cannot open store {}: {e}", opts.store_path))?;
    let version = store.version();
    let flat = store.into_flat().map_err(|e| e.to_string())?;
    println!(
        "partitioning {} (v{version}, {} nodes, {} entries) into {} shards",
        opts.store_path,
        flat.num_nodes(),
        flat.num_entries(),
        opts.shards
    );

    let out_dir = Path::new(&opts.out_dir);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {}: {e}", opts.out_dir))?;
    let n = flat.num_nodes();
    let shards = partition(&flat, opts.shards).map_err(|e| e.to_string())?;
    drop(flat);

    for (i, shard) in shards.into_iter().enumerate() {
        let path = out_dir.join(format!("shard-{i}.hlbs"));
        let owned = n / opts.shards + usize::from(i < n % opts.shards);
        let entries = shard.num_entries();
        let store = FlatStore::from_flat(shard);
        store
            .save(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let bytes = store.file_len();
        println!(
            "  shard {i}: {owned} vertices owned, {entries} entries, {bytes} bytes -> {}",
            path.display()
        );
    }
    Ok(())
}

struct QueryOpts {
    addrs: Vec<String>,
    pairs_path: Option<String>,
}

fn parse_query_opts(args: &[String]) -> Result<QueryOpts, String> {
    let usage = "usage: hl-shard query --shard HOST:PORT [--shard HOST:PORT ...] [pairs-file]";
    let mut addrs = Vec::new();
    let mut pairs_path = None;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--shard" => addrs.push(flags.value(arg)?.to_string()),
            other if pairs_path.is_none() && !other.starts_with('-') => {
                pairs_path = Some(other.to_string())
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if addrs.is_empty() {
        return Err(usage.into());
    }
    Ok(QueryOpts { addrs, pairs_path })
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let opts = parse_query_opts(args).map_err(CliError::Usage)?;
    let mut router = ShardRouter::connect(&opts.addrs, &ClientConfig::default())
        .map_err(|e| format!("cannot connect fleet: {e}"))?;
    let n = router.num_nodes();
    eprintln!(
        "routing over {} shards covering {n} vertices",
        router.num_shards()
    );
    // A pairs file is one routed batch; stdin is answered line by line.
    answer_pairs(
        &mut router,
        opts.pairs_path.as_deref(),
        n,
        ShardRouter::query_many,
        ShardRouter::query,
    )?;
    Ok(())
}
