//! `hubtool` — generate graphs, construct hub labelings with any of the
//! paper's constructions, and verify or size them, from the command
//! line. Graphs are the plain-text format of `hl_graph::io`; labelings
//! are HLBS stores, so what `build` writes a daemon can mount
//! (`hubserve serve`) and `hubserve query` answers from.
//!
//! ```text
//! hubtool gen <family> <n> <seed> <graph-file>      generate a graph
//! hubtool build <graph-file> <store-file> [algo]    construct a labeling (v2 store)
//! hubtool verify <graph-file> <store-file>          check exactness (any store version)
//! hubtool stats <store-file>                        size statistics
//! ```
//!
//! Families: `path`, `tree`, `grid`, `gnm`, `deg3-exp`, `powerlaw`, and the
//! paper's own gadgets `h:b,l` (weighted `H_{b,ℓ}`) and `g:b,l` (its
//! degree-3 expansion `G_{b,ℓ}`), which `b` and `l` determine — their
//! `<n>` and `<seed>` are read but unused.
//!
//! Algorithms: `pll` (default), `pll-random`, `pll-betweenness`, `greedy`,
//! `rs`, `random-threshold`, `centroid`, `separator`.
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage — a subcommand's own
//! argument errors as much as an unknown subcommand.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use hl_bench::{family_graph, Family};
use hl_core::cover::verify_exact;
use hl_core::greedy::greedy_cover;
use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::random_threshold::{random_threshold_labeling, RandomThresholdParams};
use hl_core::rs_based::{rs_labeling, RsParams};
use hl_core::tree::centroid_labeling;
use hl_core::{FlatLabeling, LabelingStats};
use hl_graph::Graph;
use hl_lowerbound::{GGraph, GadgetParams, HGraph};
use hl_server::{AnyStore, FlatStore};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        _ => usage("usage: hubtool gen|build|verify|stats ... (see --help in the docs)"),
    };
    let (message, code) = match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => (message, 2),
        Err(CliError::Runtime(message)) => (message, 1),
    };
    eprintln!("hubtool: {message}");
    ExitCode::from(code)
}

/// The exit-code rule of `hl_net::cli`, mirrored by hand (hl-bench does not
/// depend on hl-net): wrong arguments exit 2, failed work exits 1, and a
/// `String` error from the work converts to the latter under `?`.
enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Runtime(message)
    }
}

fn usage<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(message.into()))
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    hl_graph::io::read_edge_list(BufReader::new(file)).map_err(|e| e.to_string())
}

fn load_labels(path: &str) -> Result<FlatLabeling, String> {
    AnyStore::open(path)
        .and_then(AnyStore::into_flat)
        .map_err(|e| format!("cannot load {path}: {e}"))
}

/// The paper's gadgets by spec: `h:b,l` is `H_{b,ℓ}`, `g:b,l` is
/// `G_{b,ℓ}`. `None` for anything else, infeasible `b`, `l` included.
fn gadget_graph(spec: &str) -> Option<Graph> {
    let (kind, params) = spec.split_once(':')?;
    let (b, ell) = params.split_once(',')?;
    let h = HGraph::build(GadgetParams::new(b.parse().ok()?, ell.parse().ok()?).ok()?);
    match kind {
        "h" => Some(h.graph().clone()),
        "g" => Some(GGraph::from_hgraph(&h).graph().clone()),
        _ => None,
    }
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    let [family, n, seed, out] = args else {
        return usage("usage: hubtool gen <family> <n> <seed> <graph-file>");
    };
    let (Ok(n), Ok(seed)) = (n.parse::<usize>(), seed.parse::<u64>()) else {
        return usage("n and seed must be integers");
    };
    let g = match Family::all().into_iter().find(|f| f.name() == family) {
        Some(_) if n == 0 => return usage("n must be at least 1"),
        Some(fam) => family_graph(fam, n, seed),
        None => match gadget_graph(family) {
            Some(g) => g,
            None => {
                return usage(format!(
                    "unknown family '{family}'; choose from: {}, h:b,l, g:b,l",
                    Family::all().map(|f| f.name()).join(", ")
                ))
            }
        },
    };
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    hl_graph::io::write_edge_list(&g, BufWriter::new(file)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} edges)",
        out,
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), CliError> {
    let (graph_path, labels_path, algo) = match args {
        [g, l] => (g, l, "pll"),
        [g, l, a] => (g, l, a.as_str()),
        _ => return usage("usage: hubtool build <graph-file> <store-file> [algo]"),
    };
    let g = load_graph(graph_path)?;
    let labeling = match algo {
        "pll" => PrunedLandmarkLabeling::by_degree(&g).into_labeling(),
        "pll-random" => PrunedLandmarkLabeling::by_random_order(&g, 1).into_labeling(),
        "pll-betweenness" => PrunedLandmarkLabeling::by_betweenness(&g, 24, 1)
            .map_err(|e| e.to_string())?
            .into_labeling(),
        "separator" => {
            hl_core::separator_labeling::separator_labeling(&g).map_err(|e| e.to_string())?
        }
        "greedy" => greedy_cover(&g).map_err(|e| e.to_string())?,
        "rs" => {
            rs_labeling(&g, RsParams::for_size(g.num_nodes(), 1))
                .map_err(|e| e.to_string())?
                .0
        }
        "random-threshold" => {
            random_threshold_labeling(&g, RandomThresholdParams::for_size(g.num_nodes(), 1))
                .map_err(|e| e.to_string())?
                .0
        }
        "centroid" => centroid_labeling(&g).map_err(|e| e.to_string())?,
        other => return usage(format!("unknown algorithm '{other}'")),
    };
    let stats = LabelingStats::of(&labeling);
    FlatStore::from_flat(labeling)
        .save(labels_path)
        .map_err(|e| format!("cannot write {labels_path}: {e}"))?;
    println!("built {algo} labeling: {stats}");
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), CliError> {
    let [graph_path, labels_path] = args else {
        return usage("usage: hubtool verify <graph-file> <store-file>");
    };
    let g = load_graph(graph_path)?;
    let labeling = load_labels(labels_path)?;
    if labeling.num_nodes() != g.num_nodes() {
        return Err(CliError::Runtime(format!(
            "labeling covers {} vertices but graph has {}",
            labeling.num_nodes(),
            g.num_nodes()
        )));
    }
    let report = verify_exact(&g, &labeling).map_err(|e| e.to_string())?;
    println!(
        "checked {} pairs: {}",
        report.pairs_checked,
        if report.is_exact() {
            "exact".to_string()
        } else {
            format!(
                "{} violations (accuracy {:.4})",
                report.num_violations,
                report.accuracy()
            )
        }
    );
    if report.is_exact() {
        Ok(())
    } else {
        Err(CliError::Runtime("labeling is not an exact cover".into()))
    }
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let [labels_path] = args else {
        return usage("usage: hubtool stats <store-file>");
    };
    let labeling = load_labels(labels_path)?;
    println!("{}", LabelingStats::of(&labeling));
    let bits = hl_labeling::SchemeStats::of(&hl_labeling::hub_scheme::encode_labeling(&labeling));
    println!(
        "encoded: avg {:.1} bits/label, max {} bits, total {} bits",
        bits.average_bits, bits.max_bits, bits.total_bits
    );
    Ok(())
}
