//! `hubserve` — build, query, inspect, convert and *serve* binary hub
//! label stores.
//!
//! ```text
//! hubserve build <graph-file> <store-file> [options]  graph -> binary store
//! hubserve query <store-file> [pairs-file]            answer "u v" lines
//! hubserve stats <store-file>                         store + arena sizes
//! hubserve serve <store-file> [options]               TCP daemon (HLNP)
//! hubserve convert <in-store> <out-store> --to v1|v2|v2c  migrate store formats
//! hubserve reload <host:port> <server-store-path>     hot-swap a daemon's store
//! ```
//!
//! `build` reads the plain-text edge list of `hl_graph::io` — or
//! synthesizes a seeded graph in-process with `--gen rmat|power-law|grid|gnm
//! --nodes N` — and constructs the labeling through the `hl_build`
//! batch/commit pipeline: `--threads N` parallelizes (output is
//! bit-identical to sequential PLL), `--order` picks the vertex-ordering
//! strategy (`degree`, or `betweenness` for road-like graphs — the two
//! that win on label entries; EXPERIMENTS.md has the table). The result
//! is written as an HLBS v2 store (`hl_server::store_v2`), the format
//! every daemon mounts; `--verify K` spot-checks the freshly written
//! store against ground-truth distances from `K` seeded sources.
//!
//! `query` reads whitespace-separated `u v` pairs — from a file when given
//! (served as one batch), else line-by-line from stdin
//! through the cached single-query path — and prints `u v <distance>` per
//! pair, with `inf` for unreachable.
//!
//! `stats` validates the store, decodes it into the flat arena every
//! flavor mounts as (exactly what `serve` mounts), and prints both the
//! on-disk and in-memory sizes: label entries and bytes per entry, the
//! two axes the paper's size bounds are stated in.
//!
//! `serve` loads a store of any format into a [`hl_net::NetServer`]
//! and answers HLNP frames until a `Shutdown` request arrives, then
//! drains and prints the final metrics snapshot. It announces
//! `listening on <addr>` on stdout so scripts binding port 0 can
//! discover the ephemeral port. A running daemon hot-swaps its store on
//! a `Reload` frame (disable with `--no-remote-reload`): in-flight
//! queries finish on the old epoch, new ones answer from the new store.
//!
//! `convert` migrates a store between HLBS v2 (the flat serving arena,
//! verbatim), HLBS v1 (γ-coded archival format; `convert` is the only
//! writer) and HLBS v2c (the compact flavor: delta-coded hubs, narrow
//! distance lanes, expanded to the flat arena at mount). All three
//! encodings are canonical functions of the labeling, so `convert --to
//! v1` then `convert --to v2` reproduces the built file byte for byte —
//! `--verify-roundtrip` proves it on the spot. `--reorder freq` applies
//! the hub-frequency id remap before encoding (hot hubs get small ids,
//! which shrinks the compact deltas); the remap changes hub ids, so it
//! refuses to combine with `--verify-roundtrip`.
//!
//! `reload` asks a running daemon (one with remote reload enabled) to
//! mount the store at a *server-local* path and reports the new epoch.
//!
//! How fast any of this is, end to end and per layer, is measured by one
//! thing only: `benchmark/` (see `benchmark/README.md`).
//!
//! Exit codes: 0 success, 1 runtime failure (bad store, i/o), 2 usage —
//! a subcommand's own argument errors as much as an unknown subcommand.

use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hl_build::BuildConfig;
use hl_core::order::{BetweennessOrder, DegreeOrder};
use hl_core::{freq, CompactLabeling, VertexOrder};
use hl_graph::rng::Xorshift64;
use hl_graph::{generators, Graph, NodeId};
use hl_net::cli::{answer_pairs, exit_code, CliError, Flags};
use hl_net::{ClientConfig, NetClient, NetServer, ServerConfig};
use hl_server::{AnyStore, CompactStore, FlatStore, LabelStore, QueryEngine};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("reload") => cmd_reload(&args[1..]),
        _ => {
            let mut usage =
                "usage: hubserve build|query|stats|serve|convert|reload ...".to_string();
            for sub in [
                BUILD_USAGE,
                QUERY_USAGE,
                STATS_USAGE,
                SERVE_USAGE,
                CONVERT_USAGE,
                RELOAD_USAGE,
            ] {
                usage.push_str("\n  ");
                usage.push_str(sub.trim_start_matches("usage: hubserve "));
            }
            CliError::usage(usage)
        }
    };
    exit_code("hubserve", result)
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// Opens a store of any flavor and decodes it to the flat arena, the way
/// `serve` mounts it.
fn open_store(path: &str) -> Result<AnyStore, String> {
    AnyStore::open(path).map_err(|e| format!("cannot open store {path}: {e}"))
}

/// Starts a query engine over the store's arena.
fn mount(store: AnyStore, workers: usize) -> Result<QueryEngine, String> {
    let flat = store.into_flat().map_err(|e| e.to_string())?;
    QueryEngine::new(flat, workers).map_err(|e| format!("cannot start engine: {e}"))
}

struct BuildOpts {
    graph_path: Option<String>,
    store_path: String,
    gen: Option<String>,
    nodes: usize,
    edges: usize,
    seed: u64,
    threads: usize,
    order: String,
    verify_sources: usize,
}

const BUILD_USAGE: &str = "usage: hubserve build [<graph-file>] <store-file> \
     [--gen rmat|power-law|grid|gnm --nodes N [--edges M]] [--threads N] \
     [--order degree|betweenness] [--seed S] \
     [--verify SOURCES]";

fn parse_build_opts(args: &[String]) -> Result<BuildOpts, String> {
    let mut positionals: Vec<String> = Vec::new();
    let mut gen = None;
    let mut nodes = 0usize;
    let mut edges = 0usize;
    let mut seed = 1u64;
    let mut threads = 1usize;
    let mut order: Option<String> = None;
    let mut verify_sources = 0usize;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--gen" => gen = Some(flags.value(arg)?.to_string()),
            "--nodes" => nodes = flags.parsed(arg)?,
            "--edges" => edges = flags.parsed(arg)?,
            "--seed" => seed = flags.parsed(arg)?,
            "--threads" => threads = flags.parsed(arg)?,
            "--order" => order = Some(flags.value(arg)?.to_string()),
            "--verify" => verify_sources = flags.parsed(arg)?,
            other if !other.starts_with('-') => positionals.push(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let (graph_path, store_path) = match (&gen, positionals.as_slice()) {
        (Some(_), [s]) => (None, s.clone()),
        (None, [g, s]) => (Some(g.clone()), s.clone()),
        _ => return Err(BUILD_USAGE.into()),
    };
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    Ok(BuildOpts {
        graph_path,
        store_path,
        gen,
        nodes,
        edges,
        seed,
        threads,
        order: order.unwrap_or_else(|| "degree".into()),
        verify_sources,
    })
}

fn order_strategy(name: &str, seed: u64) -> Result<Box<dyn VertexOrder>, String> {
    match name {
        "degree" => Ok(Box::new(DegreeOrder)),
        "betweenness" => Ok(Box::new(BetweennessOrder { samples: 24, seed })),
        other => Err(format!("unknown order '{other}' (degree, betweenness)")),
    }
}

/// Synthesizes one of the seeded graph families of `hl_graph::generators`
/// sized from `--nodes`/`--edges`.
fn generate_graph(name: &str, nodes: usize, edges: usize, seed: u64) -> Result<Graph, String> {
    if nodes == 0 {
        return Err("--gen needs --nodes N".into());
    }
    match name {
        "rmat" => {
            let scale = (usize::BITS - (nodes - 1).max(1).leading_zeros()).max(1);
            let m = if edges > 0 { edges } else { nodes * 8 };
            Ok(generators::rmat(scale, m, seed))
        }
        "power-law" => Ok(generators::power_law_configuration(nodes, 25, seed)),
        "grid" => {
            let side = (nodes as f64).sqrt().ceil() as usize;
            let shortcuts = if edges > 0 { edges } else { nodes / 50 };
            Ok(generators::grid_with_shortcuts(side, side, shortcuts, seed))
        }
        "gnm" => {
            let extra = if edges > 0 {
                edges.saturating_sub(nodes - 1)
            } else {
                nodes
            };
            Ok(generators::connected_gnm(nodes, extra, seed))
        }
        other => Err(format!(
            "unknown generator '{other}' (rmat, power-law, grid, gnm)"
        )),
    }
}

fn cmd_build(args: &[String]) -> Result<(), CliError> {
    let opts = parse_build_opts(args).map_err(CliError::Usage)?;
    let strategy = order_strategy(&opts.order, opts.seed).map_err(CliError::Usage)?;
    let g = match (&opts.gen, &opts.graph_path) {
        (Some(name), _) => {
            generate_graph(name, opts.nodes, opts.edges, opts.seed).map_err(CliError::Usage)?
        }
        (None, Some(path)) => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            hl_graph::io::read_edge_list(BufReader::new(file)).map_err(|e| e.to_string())?
        }
        (None, None) => return CliError::usage(BUILD_USAGE),
    };
    let started = Instant::now();
    let out = hl_build::build_with_strategy(
        &g,
        strategy.as_ref(),
        BuildConfig::with_threads(opts.threads),
    )
    .map_err(|e| e.to_string())?;
    let build_s = started.elapsed().as_secs_f64();
    let entries = out.labeling.num_entries();
    let store = FlatStore::from_flat(out.labeling);
    store
        .save(&opts.store_path)
        .map_err(|e| format!("cannot write {}: {e}", opts.store_path))?;
    println!(
        "built {}-order labels for {} nodes ({} edges) in {build_s:.2}s \
         ({} threads, {entries} entries); store {} bytes ({:.1} bits/label)",
        opts.order,
        g.num_nodes(),
        g.num_edges(),
        opts.threads,
        store.file_len(),
        store.label_bits() as f64 / g.num_nodes().max(1) as f64,
    );
    if opts.verify_sources > 0 {
        let mut verified_pairs = 0usize;
        // Spot-check the *saved* store — reopen it the way a daemon would
        // and compare against ground-truth single-source distances, so the
        // whole generate -> build -> encode -> decode path is on the hook.
        let reopened = open_store(&opts.store_path)?;
        let served = reopened.served();
        let n = g.num_nodes();
        let mut rng = Xorshift64::seed_from_u64(opts.seed ^ 0x5107_C4EC);
        for _ in 0..opts.verify_sources {
            let s = rng.gen_index(n) as NodeId;
            let truth = hl_graph::dijkstra::shortest_path_distances(&g, s);
            for _ in 0..512 {
                let v = rng.gen_index(n) as NodeId;
                let got = served.query(s, v);
                if got != truth[v as usize] {
                    return Err(CliError::Runtime(format!(
                        "verify FAILED: store answers d({s},{v}) = {got}, \
                         ground truth says {}",
                        truth[v as usize]
                    )));
                }
                verified_pairs += 1;
            }
        }
        println!(
            "verify: OK — {verified_pairs} store answers from {} sources match \
             ground-truth distances exactly",
            opts.verify_sources
        );
    }
    Ok(())
}

const QUERY_USAGE: &str = "usage: hubserve query <store-file> [pairs-file]";

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let (store_path, pairs_path) = match args {
        [s] => (s, None),
        [s, p] => (s, Some(p.as_str())),
        _ => return CliError::usage(QUERY_USAGE),
    };
    let store = open_store(store_path)?;
    let n = store.num_nodes() as u64;
    let mut engine = mount(store, default_workers())?;
    // A pairs file is answered as one batch; stdin lines go through the
    // cached single-query path as they arrive.
    answer_pairs(
        &mut engine,
        pairs_path,
        n,
        |engine, pairs| engine.query_batch(pairs),
        |engine, u, v| engine.query(u, v),
    )?;
    Ok(())
}

const STATS_USAGE: &str = "usage: hubserve stats <store-file>";

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let [store_path] = args else {
        return CliError::usage(STATS_USAGE);
    };
    let store = open_store(store_path)?;
    let (served, flavor) = (store.served(), store.flavor());
    let n = store.num_nodes();
    let sections = store.section_bytes();
    println!("store {store_path}");
    println!("  format version     {} (flavor {flavor})", store.version());
    println!("  nodes              {n}");
    let encoding = match flavor {
        "v1" => "gamma-coded",
        "v2c" => "compact lanes",
        _ => "flat arena",
    };
    println!(
        "  file bytes         {} ({:.1} bits/label {encoding})",
        store.file_len(),
        store.label_bits() as f64 / n.max(1) as f64
    );
    for (name, bytes) in sections {
        println!("  section {name:<10} {bytes} bytes");
    }
    if flavor == "v2c" {
        // Lane widths are the file's, read off its section table: the
        // mounted arena is flat whatever the flavor.
        let e = served.num_entries().max(1) as u64;
        let [(_, offsets), (_, hubs), (_, dists)] = sections;
        println!(
            "  compact lanes      hubs u{}, dists u{} ({:.2} B/entry incl. offsets)",
            hubs * 8 / e,
            dists * 8 / e,
            (offsets + hubs + dists) as f64 / e as f64
        );
    }
    println!("  arena entries      {}", served.num_entries());
    println!(
        "  arena heap bytes   {} ({:.1} avg hubs/vertex, max {})",
        served.heap_bytes(),
        served.average_hubs(),
        served.max_hubs()
    );
    Ok(())
}

struct ServeOpts {
    addr: String,
    workers: usize,
    max_conns: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    allow_remote_shutdown: bool,
    allow_remote_reload: bool,
}

const SERVE_USAGE: &str = "usage: hubserve serve <store-file> [--addr HOST:PORT] [--workers N] \
     [--max-conns N] [--read-timeout-ms N] [--write-timeout-ms N] [--no-remote-shutdown] \
     [--no-remote-reload]";

fn parse_serve_opts(args: &[String]) -> Result<(String, ServeOpts), String> {
    let mut store_path = None;
    let mut opts = ServeOpts {
        addr: "127.0.0.1:4890".to_string(),
        workers: default_workers(),
        max_conns: 64,
        read_timeout: Duration::from_secs(30),
        write_timeout: Duration::from_secs(10),
        allow_remote_shutdown: true,
        allow_remote_reload: true,
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--addr" => opts.addr = flags.value(arg)?.to_string(),
            "--workers" => opts.workers = flags.parsed(arg)?,
            "--max-conns" => opts.max_conns = flags.parsed(arg)?,
            "--read-timeout-ms" => {
                opts.read_timeout = Duration::from_millis(flags.parsed::<u64>(arg)?.max(1))
            }
            "--write-timeout-ms" => {
                opts.write_timeout = Duration::from_millis(flags.parsed::<u64>(arg)?.max(1))
            }
            "--no-remote-shutdown" => opts.allow_remote_shutdown = false,
            "--no-remote-reload" => opts.allow_remote_reload = false,
            other if store_path.is_none() && !other.starts_with('-') => {
                store_path = Some(other.to_string())
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let store_path = store_path.ok_or(SERVE_USAGE)?;
    if opts.max_conns == 0 {
        return Err("--max-conns must be positive".into());
    }
    Ok((store_path, opts))
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let (store_path, opts) = parse_serve_opts(args).map_err(CliError::Usage)?;
    let store = open_store(&store_path)?;
    let (flavor, version) = (store.flavor(), store.version());
    let engine = Arc::new(mount(store, opts.workers)?);
    let config = ServerConfig {
        max_connections: opts.max_conns,
        read_timeout: opts.read_timeout,
        write_timeout: opts.write_timeout,
        allow_remote_shutdown: opts.allow_remote_shutdown,
        allow_remote_reload: opts.allow_remote_reload,
        store_version: version,
        ..ServerConfig::default()
    };
    let server = NetServer::bind(Arc::clone(&engine), opts.addr.as_str(), config)
        .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    println!(
        "serving {} nodes, {} label entries (store {flavor}, {} arena bytes, \
         {} workers, {} max conns)",
        engine.num_nodes(),
        engine.num_entries(),
        engine.heap_bytes(),
        engine.num_workers(),
        opts.max_conns
    );
    // Scripts parse this line to discover an ephemeral port (--addr :0).
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    server.serve().map_err(|e| format!("serve failed: {e}"))?;

    println!("--- final metrics ---");
    println!("{}", engine.snapshot().render_text());
    println!("shutdown complete");
    Ok(())
}

const CONVERT_USAGE: &str = "usage: hubserve convert <in-store> <out-store> \
     --to v1|v2|v2c [--reorder freq] [--verify-roundtrip]";

/// Encodes `flat` in the requested store flavor (`"v1"`, `"v2"`, `"v2c"`).
fn encode_as(flat: &hl_core::FlatLabeling, flavor: &str) -> Result<Vec<u8>, String> {
    match flavor {
        "v1" => {
            let mut bytes = Vec::new();
            LabelStore::from_flat(flat)
                .write_to(&mut bytes)
                .map_err(|e| format!("cannot encode v1: {e}"))?;
            Ok(bytes)
        }
        "v2" => Ok(FlatStore::from_flat(flat.clone()).encode()),
        "v2c" => {
            let compact =
                CompactLabeling::from_flat(flat).map_err(|e| format!("cannot encode v2c: {e}"))?;
            Ok(CompactStore::from_compact(compact).encode())
        }
        other => Err(format!("unknown target flavor '{other}'")),
    }
}

fn cmd_convert(args: &[String]) -> Result<(), CliError> {
    let mut positionals = Vec::new();
    let mut to = None;
    let mut reorder = None;
    let mut verify_roundtrip = false;
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--to" => to = Some(flags.value(arg).map_err(CliError::Usage)?),
            "--reorder" => reorder = Some(flags.value(arg).map_err(CliError::Usage)?),
            "--verify-roundtrip" => verify_roundtrip = true,
            other if !other.starts_with('-') => positionals.push(other),
            other => return CliError::usage(format!("unexpected argument '{other}'")),
        }
    }
    let (&[in_path, out_path], Some(to)) = (positionals.as_slice(), to) else {
        return CliError::usage(CONVERT_USAGE);
    };
    if !matches!(to, "v1" | "v2" | "v2c") {
        return CliError::usage(format!("--to must be v1, v2 or v2c, not '{to}'"));
    }
    match reorder {
        None => {}
        Some("freq") if verify_roundtrip => {
            return CliError::usage(
                "--reorder freq remaps hub ids, so the output cannot re-encode to the \
                 input bytes; drop --verify-roundtrip",
            )
        }
        Some("freq") => {}
        Some(other) => return CliError::usage(format!("--reorder must be freq, not '{other}'")),
    }

    let in_bytes = std::fs::read(in_path).map_err(|e| format!("cannot read {in_path}: {e}"))?;
    let store =
        AnyStore::parse(&in_bytes).map_err(|e| format!("cannot parse store {in_path}: {e}"))?;
    let source = store.flavor();
    let mut flat = store
        .into_flat()
        .map_err(|e| format!("cannot decode store {in_path}: {e}"))?;
    if reorder.is_some() {
        let before = flat.heap_bytes();
        let (tuned, _) = freq::reorder_by_hub_frequency(&flat);
        flat = tuned;
        println!(
            "reordered hub ids by global frequency ({} entries, flat arena {before} bytes)",
            flat.num_entries()
        );
    }
    let out_bytes = encode_as(&flat, to)?;
    std::fs::write(out_path, &out_bytes).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!(
        "converted {in_path} ({source}, {} bytes) -> {out_path} ({to}, {} bytes, {:.2}x)",
        in_bytes.len(),
        out_bytes.len(),
        out_bytes.len() as f64 / in_bytes.len().max(1) as f64
    );

    if verify_roundtrip {
        // All three encodings are canonical functions of the labeling, so
        // decoding what we just wrote and re-encoding in the *source*
        // flavor must reproduce the input byte for byte.
        let back = AnyStore::parse(&out_bytes)
            .map_err(|e| format!("roundtrip: cannot re-parse output: {e}"))?
            .into_flat()
            .map_err(|e| format!("roundtrip: cannot re-decode output: {e}"))?;
        let again = encode_as(&back, source)?;
        if again != in_bytes {
            return Err(CliError::Runtime(format!(
                "roundtrip FAILED: {to} -> {source} re-encoding differs from the input \
                 ({} vs {} bytes)",
                again.len(),
                in_bytes.len()
            )));
        }
        println!(
            "roundtrip verified: {source} -> {to} -> {source} is byte-identical \
             ({} bytes)",
            in_bytes.len()
        );
    }
    Ok(())
}

const RELOAD_USAGE: &str = "usage: hubserve reload <host:port> <server-store-path>";

fn cmd_reload(args: &[String]) -> Result<(), CliError> {
    let [addr, store_path] = args else {
        return CliError::usage(RELOAD_USAGE);
    };
    let mut client = NetClient::connect(addr.as_str(), ClientConfig::default())
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let before = client.num_nodes();
    let (epoch, num_nodes) = client
        .reload(store_path)
        .map_err(|e| format!("reload failed: {e}"))?;
    println!(
        "reloaded {addr} from {store_path}: epoch {epoch}, {num_nodes} nodes \
         (was {before})"
    );
    Ok(())
}
