//! `hubserve` — generate graphs, build, verify, query, inspect, convert
//! and *serve* binary hub label stores.
//!
//! ```text
//! hubserve gen <graph-file> --gen F --nodes N         seeded graph -> edge list
//! hubserve build <graph-file> <store-file> [options]  graph -> binary store
//! hubserve verify <graph-file> <store-file>           check every pair exactly
//! hubserve query <store-file> [pairs-file]            answer "u v" lines
//! hubserve stats <store-file>                         store + arena sizes
//! hubserve serve <store-file> [options]               TCP daemon (HLNP)
//! hubserve convert <in-store> <out-store> --to v1|v2|v2c  migrate store formats
//! hubserve reload <host:port> <server-store-path>     hot-swap a daemon's store
//! ```
//!
//! `gen` writes, and `build` reads, the plain-text edge list of
//! `hl_graph::io`; `build --gen F --nodes N` synthesizes the graph
//! in-process instead. The families are `hl_graph::families`: `path tree
//! grid gnm deg3-exp powerlaw` (the experiments' sweep), `road` (weighted
//! grid with shortcuts), `powerlaw-config` and `rmat`; `--edges M` sets
//! the edge count of `gnm` and `rmat` and the shortcut count of `road`,
//! and a size a family cannot build is an argument error. The paper's own
//! gadgets come from `experiments gadget h:b,l|g:b,l`.
//!
//! `build --algo` picks the construction: `pll` (the default) runs PLL's
//! batch/commit driver (`hl_core::pll`), where `--threads N` parallelizes
//! (output is bit-identical to sequential PLL) and `--order` picks the
//! vertex-ordering strategy (`degree`, or `betweenness` for road-like
//! graphs — the two that win on label entries; EXPERIMENTS.md has the
//! table); `greedy`, `rs`, `random-threshold`, `centroid` and `separator`
//! are the paper's other constructions, sequential. The result is written
//! as an HLBS v2 store (`hl_server::store_v2`), the format every daemon
//! mounts. `build --verify K` reopens the written store and checks every
//! answer from `K` seeded sources against ground-truth distances; `verify`
//! runs the same check from every vertex, so it covers all pairs.
//!
//! `query` reads whitespace-separated `u v` pairs — from a file when given
//! (served as one batch), else line-by-line from stdin
//! through the cached single-query path — and prints `u v <distance>` per
//! pair, with `inf` for unreachable. On stdin, answers are flushed before
//! any read that could block, so a live client need not close stdin.
//!
//! `stats` validates the store, decodes it into the flat arena every
//! flavor mounts as (exactly what `serve` mounts), and prints both the
//! on-disk and in-memory sizes: label entries and bytes per entry, the
//! two axes the paper's size bounds are stated in — and the hubset sizes
//! `|S_v|` themselves, at their p10/p50/p90 deciles and maximum.
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
//! Exit codes (`hl_graph::exit`): 0 success or a reader that closed
//! stdout, 1 runtime failure (bad store, i/o, any other failed stdout
//! write), 2 usage — a subcommand's own argument errors as much as an
//! unknown subcommand.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hl_build::BuildConfig;
use hl_core::cover::verify_from_sources;
use hl_core::greedy::greedy_cover;
use hl_core::order::{BetweennessOrder, DegreeOrder};
use hl_core::random_threshold::{random_threshold_labeling, RandomThresholdParams};
use hl_core::rs_based::{rs_labeling, RsParams};
use hl_core::separator_labeling::separator_labeling;
use hl_core::tree::centroid_labeling;
use hl_core::{freq, CompactLabeling, FlatLabeling, VertexOrder};
use hl_graph::exit::{exit_code, CliError};
use hl_graph::families::Family;
use hl_graph::rng::Xorshift64;
use hl_graph::sync::machine_workers;
use hl_graph::{Graph, GraphError, NodeId};
use hl_net::cli::{answer_pairs, Flags};
use hl_net::{ClientConfig, MuxClient, NetServer, ServerConfig};
use hl_server::{AnyStore, CompactStore, FlatStore, LabelStore, QueryEngine};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut BufWriter::new(std::io::stdout().lock());
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..], out),
        Some("build") => cmd_build(&args[1..], out),
        Some("verify") => cmd_verify(&args[1..], out),
        Some("query") => cmd_query(&args[1..], out),
        Some("stats") => cmd_stats(&args[1..], out),
        Some("serve") => cmd_serve(&args[1..], out),
        Some("convert") => cmd_convert(&args[1..], out),
        Some("reload") => cmd_reload(&args[1..], out),
        _ => {
            let mut usage =
                "usage: hubserve gen|build|verify|query|stats|serve|convert|reload ...".to_string();
            for sub in [
                GEN_USAGE,
                BUILD_USAGE,
                VERIFY_USAGE,
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
    exit_code("hubserve", out, result)
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

/// The flags of `gen` and `build`, from one parser: both read the
/// graph-source flags (`--gen`, `--nodes`, `--edges`, `--seed`), only
/// `build` the rest.
#[derive(Default)]
struct Opts {
    positionals: Vec<String>,
    gen: Option<String>,
    nodes: usize,
    edges: Option<usize>,
    seed: u64,
    algo: String,
    threads: Option<usize>,
    order: Option<String>,
    verify_sources: usize,
}

const GEN_USAGE: &str = "usage: hubserve gen <graph-file> --gen FAMILY --nodes N \
     [--edges M] [--seed S]";

const BUILD_USAGE: &str = "usage: hubserve build [<graph-file>] <store-file> \
     [--gen FAMILY --nodes N [--edges M]] [--seed S] \
     [--algo pll|greedy|rs|random-threshold|centroid|separator] [--threads N] \
     [--order degree|betweenness] [--verify SOURCES]";

fn parse_opts(args: &[String], build: bool) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        algo: "pll".into(),
        ..Opts::default()
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--gen" => o.gen = Some(flags.value(arg)?.to_string()),
            "--nodes" => o.nodes = flags.parsed(arg)?,
            "--edges" => o.edges = Some(flags.parsed(arg)?),
            "--seed" => o.seed = flags.parsed(arg)?,
            "--algo" if build => o.algo = flags.value(arg)?.to_string(),
            "--threads" if build => o.threads = Some(flags.parsed(arg)?),
            "--order" if build => o.order = Some(flags.value(arg)?.to_string()),
            "--verify" if build => o.verify_sources = flags.parsed(arg)?,
            other if !other.starts_with('-') => o.positionals.push(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(o)
}

impl Opts {
    /// The graph `--gen` names at `--nodes`/`--edges`/`--seed`; a size the
    /// family cannot build is an argument error.
    fn generate(&self, family: &str) -> Result<Graph, CliError> {
        Family::named(family)
            .and_then(|f| f.generate(self.nodes, self.edges, self.seed))
            .map_err(|e| CliError::Usage(format!("--gen {family}: {e}")))
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    hl_graph::io::read_edge_list(BufReader::new(file)).map_err(|e| e.to_string())
}

fn cmd_gen(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let opts = parse_opts(args, false).map_err(CliError::Usage)?;
    let (Some(family), [path]) = (&opts.gen, opts.positionals.as_slice()) else {
        return CliError::usage(GEN_USAGE);
    };
    let g = opts.generate(family)?;
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut file = BufWriter::new(file);
    hl_graph::io::write_edge_list(&g, &mut file)
        .and_then(|()| file.flush())
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    writeln!(
        out,
        "wrote {path} ({} nodes, {} edges)",
        g.num_nodes(),
        g.num_edges()
    )?;
    Ok(())
}

fn order_strategy(name: &str, seed: u64) -> Result<Box<dyn VertexOrder>, String> {
    match name {
        "degree" => Ok(Box::new(DegreeOrder)),
        "betweenness" => Ok(Box::new(BetweennessOrder { samples: 24, seed })),
        other => Err(format!("unknown order '{other}' (degree, betweenness)")),
    }
}

/// One of hl-core's sequential constructions, given the graph and `--seed`.
type Construction = fn(&Graph, u64) -> Result<FlatLabeling, GraphError>;

/// The construction `--algo` names; `None` for `pll`, which builds
/// through PLL's batch/commit driver instead.
fn construction(algo: &str) -> Result<Option<Construction>, String> {
    let build: Construction = match algo {
        "pll" => return Ok(None),
        "greedy" => |g, _| greedy_cover(g),
        "rs" => |g, seed| Ok(rs_labeling(g, RsParams::for_size(g.num_nodes(), seed))?.0),
        "random-threshold" => |g, seed| {
            let params = RandomThresholdParams::for_size(g.num_nodes(), seed);
            Ok(random_threshold_labeling(g, params)?.0)
        },
        "centroid" => |g, _| centroid_labeling(g),
        "separator" => |g, _| separator_labeling(g),
        other => {
            return Err(format!(
                "unknown algorithm '{other}' (pll, greedy, rs, random-threshold, centroid, \
                 separator)"
            ))
        }
    };
    Ok(Some(build))
}

fn cmd_build(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let opts = parse_opts(args, true).map_err(CliError::Usage)?;
    let construction = construction(&opts.algo).map_err(CliError::Usage)?;
    if construction.is_some() && (opts.threads.is_some() || opts.order.is_some()) {
        return CliError::usage(format!(
            "--threads and --order apply to --algo pll only, not '{}'",
            opts.algo
        ));
    }
    let order = opts.order.as_deref().unwrap_or("degree");
    let strategy = order_strategy(order, opts.seed).map_err(CliError::Usage)?;
    let threads = opts.threads.unwrap_or(1);
    if threads == 0 {
        return CliError::usage("--threads must be positive");
    }
    let (g, store_path) = match (&opts.gen, opts.positionals.as_slice()) {
        (Some(family), [s]) => (opts.generate(family)?, s),
        (None, [g, s]) => (load_graph(g)?, s),
        _ => return CliError::usage(BUILD_USAGE),
    };
    let started = Instant::now();
    let labeling = match construction {
        Some(build) => build(&g, opts.seed).map_err(|e| e.to_string())?,
        None => {
            let config = BuildConfig::with_threads(threads);
            hl_build::build_with_strategy(&g, strategy.as_ref(), config)
                .map_err(|e| e.to_string())?
                .labeling
        }
    };
    let build_s = started.elapsed().as_secs_f64();
    let entries = labeling.num_entries();
    let store = FlatStore::from_flat(labeling);
    store
        .save(store_path)
        .map_err(|e| format!("cannot write {store_path}: {e}"))?;
    let built = match construction {
        Some(_) => opts.algo.clone(),
        None => format!("{order}-order"),
    };
    writeln!(
        out,
        "built {built} labels for {} nodes ({} edges) in {build_s:.2}s \
         ({threads} threads, {entries} entries); store {} bytes ({:.1} bits/label)",
        g.num_nodes(),
        g.num_edges(),
        store.file_len(),
        store.label_bits() as f64 / g.num_nodes().max(1) as f64,
    )?;
    if opts.verify_sources > 0 {
        let mut rng = Xorshift64::seed_from_u64(opts.seed ^ 0x5107_C4EC);
        let sources: Vec<NodeId> = (0..opts.verify_sources)
            .map(|_| rng.gen_index(g.num_nodes()) as NodeId)
            .collect();
        verify_store(&g, store_path, &sources, out)?;
    }
    Ok(())
}

const VERIFY_USAGE: &str = "usage: hubserve verify <graph-file> <store-file>";

fn cmd_verify(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let [graph_path, store_path] = args else {
        return CliError::usage(VERIFY_USAGE);
    };
    let g = load_graph(graph_path)?;
    let sources: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    verify_store(&g, store_path, &sources, out)
}

/// Checks the *saved* store — reopened the way a daemon mounts it — by
/// comparing every answer from each of `sources` with ground truth, so
/// the whole generate -> build -> encode -> decode path is on the hook.
fn verify_store(
    g: &Graph,
    store_path: &str,
    sources: &[NodeId],
    out: &mut impl Write,
) -> Result<(), CliError> {
    let store = open_store(store_path)?;
    if store.num_nodes() != g.num_nodes() {
        return Err(CliError::Runtime(format!(
            "store {store_path} has {} vertices but the graph has {}",
            store.num_nodes(),
            g.num_nodes()
        )));
    }
    let report = verify_from_sources(g, store.served(), sources);
    if let Some((s, v, truth, got)) = report.violations.first() {
        return Err(CliError::Runtime(format!(
            "verify FAILED: {} of {} store answers are wrong; d({s},{v}) = {got}, \
             ground truth says {truth}",
            report.num_violations, report.pairs_checked
        )));
    }
    writeln!(
        out,
        "verify: OK — {} store answers from {} sources match \
         ground-truth distances exactly",
        report.pairs_checked,
        sources.len()
    )?;
    Ok(())
}

const QUERY_USAGE: &str = "usage: hubserve query <store-file> [pairs-file]";

fn cmd_query(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let (store_path, pairs_path) = match args {
        [s] => (s, None),
        [s, p] => (s, Some(p.as_str())),
        _ => return CliError::usage(QUERY_USAGE),
    };
    let store = open_store(store_path)?;
    let n = store.num_nodes() as u64;
    let mut engine = mount(store, machine_workers())?;
    // A pairs file is answered as one batch; stdin lines go through the
    // cached single-query path as they arrive.
    answer_pairs(
        out,
        &mut engine,
        pairs_path,
        n,
        |engine, pairs| engine.query_batch(pairs),
        |engine, u, v| engine.query(u, v),
    )
}

const STATS_USAGE: &str = "usage: hubserve stats <store-file>";

fn cmd_stats(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let [store_path] = args else {
        return CliError::usage(STATS_USAGE);
    };
    let store = open_store(store_path)?;
    let (served, flavor, version) = (store.served(), store.flavor(), store.version());
    let n = store.num_nodes();
    let sections = store.section_bytes();
    writeln!(out, "store {store_path}")?;
    writeln!(out, "  format version     {version} (flavor {flavor})")?;
    writeln!(out, "  nodes              {n}")?;
    let encoding = match flavor {
        "v1" => "gamma-coded",
        "v2c" => "compact lanes",
        _ => "flat arena",
    };
    writeln!(
        out,
        "  file bytes         {} ({:.1} bits/label {encoding})",
        store.file_len(),
        store.label_bits() as f64 / n.max(1) as f64
    )?;
    for (name, bytes) in sections {
        writeln!(out, "  section {name:<10} {bytes} bytes")?;
    }
    if flavor == "v2c" {
        // Lane widths are the file's, read off its section table: the
        // mounted arena is flat whatever the flavor.
        let e = served.num_entries().max(1) as u64;
        let [(_, offsets), (_, hubs), (_, dists)] = sections;
        writeln!(
            out,
            "  compact lanes      hubs u{}, dists u{} ({:.2} B/entry incl. offsets)",
            hubs * 8 / e,
            dists * 8 / e,
            (offsets + hubs + dists) as f64 / e as f64
        )?;
    }
    writeln!(out, "  arena entries      {}", served.num_entries())?;
    writeln!(
        out,
        "  arena heap bytes   {} ({:.1} avg hubs/vertex, max {})",
        served.heap_bytes(),
        served.average_hubs(),
        served.max_hubs()
    )?;
    // The paper's quantity, |S_v| over the served vertices, at
    // nearest-rank deciles.
    let mut sizes: Vec<usize> = (0..n as NodeId).map(|v| served.hubs_of(v).len()).collect();
    sizes.sort_unstable();
    let decile = |tenths: usize| match sizes.len() {
        0 => 0,
        len => sizes[(tenths * len).div_ceil(10).clamp(1, len) - 1],
    };
    writeln!(
        out,
        "  hubs per vertex    p10 {} p50 {} p90 {} max {}",
        decile(1),
        decile(5),
        decile(9),
        decile(10)
    )?;
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
        workers: machine_workers(),
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

fn cmd_serve(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
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
    writeln!(
        out,
        "serving {} nodes, {} label entries (store {flavor}, {} arena bytes, \
         {} workers, {} max conns)",
        engine.num_nodes(),
        engine.num_entries(),
        engine.heap_bytes(),
        engine.num_workers(),
        opts.max_conns
    )?;
    // Scripts parse this line to discover an ephemeral port (--addr :0).
    writeln!(out, "listening on {}", server.local_addr())?;
    out.flush()?;

    server.serve().map_err(|e| format!("serve failed: {e}"))?;

    writeln!(out, "--- final metrics ---")?;
    writeln!(out, "{}", engine.snapshot().render_text())?;
    writeln!(out, "shutdown complete")?;
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

fn cmd_convert(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
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
        freq::reorder_by_hub_frequency(&mut flat);
        writeln!(
            out,
            "reordered hub ids by global frequency ({} entries, flat arena {} bytes)",
            flat.num_entries(),
            flat.heap_bytes()
        )?;
    }
    let out_bytes = encode_as(&flat, to)?;
    std::fs::write(out_path, &out_bytes).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    writeln!(
        out,
        "converted {in_path} ({source}, {} bytes) -> {out_path} ({to}, {} bytes, {:.2}x)",
        in_bytes.len(),
        out_bytes.len(),
        out_bytes.len() as f64 / in_bytes.len().max(1) as f64
    )?;

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
        writeln!(
            out,
            "roundtrip verified: {source} -> {to} -> {source} is byte-identical \
             ({} bytes)",
            in_bytes.len()
        )?;
    }
    Ok(())
}

const RELOAD_USAGE: &str = "usage: hubserve reload <host:port> <server-store-path>";

fn cmd_reload(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let [addr, store_path] = args else {
        return CliError::usage(RELOAD_USAGE);
    };
    let client = MuxClient::connect(addr.as_str(), ClientConfig::default())
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let before = client.num_nodes();
    let (epoch, num_nodes) = client
        .reload(store_path)
        .map_err(|e| format!("reload failed: {e}"))?;
    writeln!(
        out,
        "reloaded {addr} from {store_path}: epoch {epoch}, {num_nodes} nodes \
         (was {before})"
    )?;
    Ok(())
}
