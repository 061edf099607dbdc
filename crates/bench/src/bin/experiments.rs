//! Experiment table generator for the reproduction.
//!
//! Usage: `experiments [SUBCOMMAND]` (default: `all`). Subcommands:
//! `f1 l22 t21 t41 t14 t16 rs q ablation oracles corrected highway growth
//! encoding tradeoff` — plus `big` (large-instance stress, excluded from
//! `all`).
//! Each subcommand regenerates one experiment from DESIGN.md §3 and prints
//! an aligned table; EXPERIMENTS.md records the reference output.

use std::time::Instant;

use hl_bench::{family_graph, Family, Table};
use hl_core::cover::verify_exact;
use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::random_threshold::{random_threshold_labeling, RandomThresholdParams};
use hl_core::rs_based::{project_labeling, rs_labeling, RsParams};
use hl_core::tree::centroid_labeling;
use hl_core::FlatLabeling;
use hl_graph::transform::reduce_degree;
use hl_graph::{generators, NodeId};
use hl_labeling::hub_scheme::encode_labeling;
use hl_labeling::SchemeStats;
use hl_lowerbound::accounting::{audit_g, audit_h};
use hl_lowerbound::midpoint::{check_all_pairs, figure1_check};
use hl_lowerbound::{GGraph, GadgetParams, HGraph};
use hl_sumindex::protocol::GraphProtocol;
use hl_sumindex::repr::Repr;
use hl_sumindex::SumIndexInstance;

/// Every subcommand: its name, its function, and whether `all` runs it.
/// Dispatch, `all` and the usage line all read this one list.
const EXPERIMENTS: [(&str, fn(), bool); 16] = [
    ("f1", f1, true),
    ("l22", l22, true),
    ("t21", t21, true),
    ("t41", t41, true),
    ("t14", t14, true),
    ("t16", t16, true),
    ("rs", rs_tables, true),
    ("q", query_tradeoff, true),
    ("ablation", ablation, true),
    ("oracles", oracles, true),
    ("corrected", corrected, true),
    ("highway", highway, true),
    ("growth", growth, true),
    ("encoding", encoding, true),
    ("tradeoff", tradeoff, true),
    ("big", big, false),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let chosen: Vec<fn()> = EXPERIMENTS
        .iter()
        .filter(|&&(name, _, in_all)| arg == name || (arg == "all" && in_all))
        .map(|e| e.1)
        .collect();
    if chosen.is_empty() {
        let names = |in_all| {
            let of_kind = EXPERIMENTS.iter().filter(|e| e.2 == in_all);
            of_kind.map(|e| e.0).collect::<Vec<_>>().join("|")
        };
        eprintln!("unknown experiment '{arg}'");
        eprintln!(
            "usage: experiments [{}|all|{}]  ({} is excluded from all)",
            names(true),
            names(false),
            names(false)
        );
        std::process::exit(2);
    }
    for run in chosen {
        run();
    }
}

/// F1 — reproduce Figure 1: the blue unique shortest path in `H_{2,2}`.
fn f1() {
    println!("\n== F1: Figure 1 (H_{{b=2,l=2}}, blue vs red path) ==");
    let h = HGraph::build(GadgetParams::new(2, 2).expect("valid params"));
    let (blue, red) = figure1_check(&h);
    let mut t = Table::new(vec![
        "path",
        "endpoints",
        "length",
        "unique",
        "via midpoint",
    ]);
    t.row(vec![
        "blue".to_string(),
        "v0,(1,0) -> v4,(3,2)".to_string(),
        format!("{} (= 4A+4)", blue.distance),
        format!("{}", blue.path_count == 1),
        format!("{}", blue.through_midpoint),
    ]);
    t.row(vec![
        "red".to_string(),
        "detour".to_string(),
        format!("{red} (= 4A+8)"),
        "-".to_string(),
        "-".to_string(),
    ]);
    print!("{t}");
    println!("claims hold: {}", blue.holds() && red > blue.distance);
}

/// L2.2 — Lemma 2.2 exhaustively on a sweep of gadget sizes.
fn l22() {
    println!("\n== L2.2: unique shortest paths through midpoints ==");
    let mut t = Table::new(vec!["gadget", "n(H)", "even pairs", "failures"]);
    for (b, ell) in [(1u32, 1u32), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)] {
        let p = GadgetParams::new(b, ell).expect("valid params");
        let h = HGraph::build(p);
        let pairs = h.even_pairs().count();
        let failures = check_all_pairs(&h).len();
        t.row(vec![
            p.to_string(),
            h.graph().num_nodes().to_string(),
            pairs.to_string(),
            failures.to_string(),
        ]);
    }
    print!("{t}");
}

/// T2.1 / T1.1 — the lower-bound family: construction invariants, the
/// counting audit, and measured hub sizes vs the closed-form bound, with
/// easy families as contrast.
fn t21() {
    println!("\n== T2.1: gadget invariants + counting audit (H family) ==");
    let mut t = Table::new(vec![
        "gadget",
        "n(H)",
        "triples",
        "charged",
        "PLL avg |S|",
        "bound avg",
        "exact",
    ]);
    for (b, ell) in [(1u32, 1u32), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)] {
        let p = GadgetParams::new(b, ell).expect("valid params");
        let h = HGraph::build(p);
        let hl = PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling();
        let exact = verify_exact(h.graph(), &hl).expect("verify").is_exact();
        let report = audit_h(&h, &hl);
        t.row(vec![
            p.to_string(),
            h.graph().num_nodes().to_string(),
            report.triples.to_string(),
            report.charged.to_string(),
            format!("{:.2}", hl.average_hubs()),
            format!("{:.3}", p.h_avg_hub_lower_bound()),
            exact.to_string(),
        ]);
    }
    print!("{t}");

    println!("\n== T2.1(G): degree-3 expansion invariants ==");
    let mut t = Table::new(vec![
        "gadget",
        "n(G)",
        "max deg",
        "charged/triples",
        "exact",
    ]);
    for (b, ell) in [(1u32, 1u32), (2, 1), (1, 2)] {
        let p = GadgetParams::new(b, ell).expect("valid params");
        let h = HGraph::build(p);
        let g = GGraph::from_hgraph(&h);
        let hl = PrunedLandmarkLabeling::by_degree(g.graph()).into_labeling();
        let exact = verify_exact(g.graph(), &hl).expect("verify").is_exact();
        let report = audit_g(&h, &g, &hl);
        t.row(vec![
            format!("G({b},{ell})"),
            g.graph().num_nodes().to_string(),
            g.graph().max_degree().to_string(),
            format!("{}/{}", report.charged, report.triples),
            exact.to_string(),
        ]);
    }
    print!("{t}");

    println!("\n== T1.1: hub-size growth, gadget vs easy families (PLL avg |S|) ==");
    let mut t = Table::new(vec!["graph", "n", "avg |S|", "avg |S| / n"]);
    for (b, ell) in [(2u32, 2u32), (3, 2), (2, 3)] {
        let p = GadgetParams::new(b, ell).expect("valid params");
        let h = HGraph::build(p);
        let hl = PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling();
        let n = h.graph().num_nodes();
        t.row(vec![
            p.to_string(),
            n.to_string(),
            format!("{:.2}", hl.average_hubs()),
            format!("{:.4}", hl.average_hubs() / n as f64),
        ]);
    }
    for family in [Family::RandomTree, Family::Grid] {
        for n in [320usize, 448] {
            let g = family_graph(family, n, 5);
            let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
            t.row(vec![
                family.name().to_string(),
                g.num_nodes().to_string(),
                format!("{:.2}", hl.average_hubs()),
                format!("{:.4}", hl.average_hubs() / g.num_nodes() as f64),
            ]);
        }
    }
    print!("{t}");
}

/// T4.1 — the RS-based construction: size breakdown over `D`, against
/// PLL and random-threshold baselines.
fn t41() {
    println!("\n== T4.1: RS-based construction, size breakdown over D ==");
    let mut t = Table::new(vec![
        "graph",
        "n",
        "D",
        "|S|",
        "sumQ",
        "sumR",
        "sumF",
        "avg |H_v|",
        "exact",
    ]);
    for family in [Family::Degree3Expander, Family::SparseRandom, Family::Grid] {
        let g = family_graph(family, 150, 21);
        for d in [2u64, 3, 4, 6] {
            let (hl, bd) = rs_labeling(
                &g,
                RsParams {
                    threshold: d,
                    seed: 77,
                },
            )
            .expect("rs");
            let exact = verify_exact(&g, &hl).expect("verify").is_exact();
            t.row(vec![
                family.name().to_string(),
                g.num_nodes().to_string(),
                d.to_string(),
                bd.global_hubs.to_string(),
                bd.fallback_q.to_string(),
                bd.fallback_r.to_string(),
                bd.cover_f.to_string(),
                format!("{:.2}", hl.average_hubs()),
                exact.to_string(),
            ]);
        }
    }
    print!("{t}");

    println!("\n== T4.1(baselines): average hub size by construction ==");
    let mut t = Table::new(vec!["graph", "n", "PLL", "rand-thresh", "RS-based(D*)"]);
    for family in [
        Family::Path,
        Family::RandomTree,
        Family::Grid,
        Family::Degree3Expander,
    ] {
        let g = family_graph(family, 150, 22);
        let n = g.num_nodes();
        let pll = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let (rt, _) = random_threshold_labeling(&g, RandomThresholdParams::for_size(n, 1))
            .expect("random threshold");
        let (rs, _) = rs_labeling(&g, RsParams::for_size(n, 1)).expect("rs");
        t.row(vec![
            family.name().to_string(),
            n.to_string(),
            format!("{:.2}", pll.average_hubs()),
            format!("{:.2}", rt.average_hubs()),
            format!("{:.2}", rs.average_hubs()),
        ]);
    }
    print!("{t}");
}

/// T1.4 — constant *average* degree via degree reduction.
fn t14() {
    println!("\n== T1.4: degree reduction pipeline on skewed-degree graphs ==");
    let mut t = Table::new(vec![
        "n",
        "hub deg",
        "n(reduced)",
        "max deg after",
        "avg |H_v|",
        "exact",
    ]);
    for (n, hub) in [(120usize, 50usize), (160, 90), (200, 120)] {
        let g = generators::skewed_sparse(n, hub, 9);
        let red = reduce_degree(&g, 4).expect("reduce");
        let (hl_red, _) = rs_labeling(
            &red.graph,
            RsParams {
                threshold: 3,
                seed: 5,
            },
        )
        .expect("rs");
        let hl = project_labeling(&hl_red, &red.representative, &red.origin).expect("project");
        let exact = verify_exact(&g, &hl).expect("verify").is_exact();
        t.row(vec![
            n.to_string(),
            g.degree(0).to_string(),
            red.graph.num_nodes().to_string(),
            red.graph.max_degree().to_string(),
            format!("{:.2}", hl.average_hubs()),
            exact.to_string(),
        ]);
    }
    print!("{t}");
}

/// T1.6 — the Sum-Index protocol: correctness sweep + message-size table.
fn t16() {
    println!("\n== T1.6: Sum-Index via distance labels of H'(b,l) ==");
    let mut t = Table::new(vec![
        "gadget",
        "m",
        "graph n",
        "correct",
        "max msg bits",
        "avg msg bits",
        "naive bits",
        "sqrt(m)",
    ]);
    for (b, ell) in [(2u32, 2u32), (3, 2), (2, 3), (4, 2)] {
        let params = GadgetParams::new(b, ell).expect("valid params");
        let m = Repr::new(params).modulus() as usize;
        let instance = SumIndexInstance::random(m, 1234);
        let protocol = GraphProtocol::new(params, &instance).expect("protocol");
        let mut correct = true;
        for a in 0..m as u64 {
            for bb in 0..m as u64 {
                correct &= protocol.run(a, bb) == instance.answer(a as usize, bb as usize);
            }
        }
        let costs = protocol.costs();
        t.row(vec![
            params.to_string(),
            m.to_string(),
            costs.graph_nodes.to_string(),
            correct.to_string(),
            costs.max_message_bits.to_string(),
            format!("{:.1}", costs.avg_message_bits),
            costs.naive_bits.to_string(),
            format!("{:.1}", costs.sqrt_m),
        ]);
    }
    print!("{t}");

    println!("\n== T1.6(G'): on the true max-degree-3 graph ==");
    let mut t = Table::new(vec![
        "gadget",
        "m",
        "n(G')",
        "max deg",
        "correct",
        "avg label bits",
        "max label bits",
    ]);
    for (b, ell) in [(2u32, 2u32), (3, 2)] {
        let params = GadgetParams::new(b, ell).expect("valid params");
        let m = Repr::new(params).modulus() as usize;
        let instance = SumIndexInstance::random(m, 4321);
        let protocol =
            hl_sumindex::g_protocol::GPrimeProtocol::new(params, &instance).expect("protocol");
        let mut correct = true;
        for a in 0..m as u64 {
            for bb in 0..m as u64 {
                correct &= protocol.run(a, bb) == instance.answer(a as usize, bb as usize);
            }
        }
        let stats = protocol.label_stats();
        t.row(vec![
            format!("G'({b},{ell})"),
            m.to_string(),
            protocol.graph_nodes().to_string(),
            protocol.max_degree().to_string(),
            correct.to_string(),
            format!("{:.0}", stats.average_bits),
            stats.max_bits.to_string(),
        ]);
    }
    print!("{t}");
}

/// RS — Behrend/greedy densities and RS-graph witnesses.
fn rs_tables() {
    println!("\n== RS: progression-free set densities ==");
    let mut t = Table::new(vec!["n", "greedy |B|", "behrend |B|", "n/|B|"]);
    for n in [100u64, 1_000, 10_000, 100_000] {
        let d = hl_rs::behrend::density(n);
        t.row(vec![
            n.to_string(),
            d.greedy.to_string(),
            d.behrend.to_string(),
            format!("{:.1}", d.gap_factor),
        ]);
    }
    print!("{t}");

    println!("\n== RS: Ruzsa-Szemeredi graph witnesses (RS(n) <= n^2/m) ==");
    let mut t = Table::new(vec!["n", "edges", "matchings", "RS upper", "2^sqrt(log n)"]);
    for target in [100usize, 500, 2_000, 10_000] {
        let w = hl_rs::rs_function::witness(target);
        t.row(vec![
            w.n.to_string(),
            w.m.to_string(),
            w.matchings.to_string(),
            format!("{:.1}", w.rs_upper),
            format!("{:.1}", w.rs_heuristic),
        ]);
    }
    print!("{t}");
}

/// Q — the label-size / query-time tradeoff across constructions.
fn query_tradeoff() {
    println!("\n== Q: label size vs query latency (10k queries each) ==");
    let mut t = Table::new(vec!["graph", "scheme", "avg hubs", "avg bits", "ns/query"]);
    for family in [Family::RandomTree, Family::Grid, Family::Degree3Expander] {
        let g = family_graph(family, 150, 33);
        let n = g.num_nodes() as u64;
        let queries: Vec<(NodeId, NodeId)> = (0..10_000u64)
            .map(|i| (((i * 37) % n) as NodeId, ((i * 101) % n) as NodeId))
            .collect();
        let mut schemes: Vec<(&str, hl_core::FlatLabeling)> = vec![
            ("pll", PrunedLandmarkLabeling::by_degree(&g).into_labeling()),
            (
                "rand-thresh",
                random_threshold_labeling(&g, RandomThresholdParams::for_size(g.num_nodes(), 3))
                    .expect("random threshold")
                    .0,
            ),
            (
                "rs-based",
                rs_labeling(&g, RsParams::for_size(g.num_nodes(), 3))
                    .expect("rs")
                    .0,
            ),
        ];
        if family == Family::RandomTree {
            schemes.push(("centroid", centroid_labeling(&g).expect("tree")));
        }
        for (name, hl) in schemes {
            let bits = SchemeStats::of(&encode_labeling(&hl));
            let start = Instant::now();
            let mut sink = 0u64;
            for &(a, b) in &queries {
                sink = sink.wrapping_add(hl.query(a, b));
            }
            let elapsed = start.elapsed().as_nanos() as f64 / queries.len() as f64;
            std::hint::black_box(sink);
            t.row(vec![
                family.name().to_string(),
                name.to_string(),
                format!("{:.2}", hl.average_hubs()),
                format!("{:.1}", bits.average_bits),
                format!("{elapsed:.0}"),
            ]);
        }
    }
    print!("{t}");
}

/// Ablations: PLL order choice, canonical HHL vs PLL, post-hoc
/// minimization, and the protocol's labeling-scheme choice.
fn ablation() {
    use hl_core::hierarchical::canonical_hhl;
    use hl_core::minimize::minimize_labeling;
    use hl_core::order;
    use hl_labeling::full_vector::FullVectorScheme;
    use hl_labeling::hub_scheme::HubPllScheme;
    use hl_sumindex::scheme_protocol::SchemeProtocol;

    println!("\n== Ablation A: PLL vertex order (total hubs) ==");
    let mut t = Table::new(vec![
        "graph",
        "n",
        "degree",
        "random",
        "betweenness",
        "closeness",
    ]);
    for family in [Family::RandomTree, Family::Grid, Family::Degree3Expander] {
        let g = family_graph(family, 196, 3);
        let deg = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let rnd = PrunedLandmarkLabeling::by_random_order(&g, 1).into_labeling();
        let btw = PrunedLandmarkLabeling::by_betweenness(&g, 16, 1)
            .expect("betweenness order")
            .into_labeling();
        let clo = PrunedLandmarkLabeling::with_order(
            &g,
            order::by_closeness(&g).expect("closeness order"),
        )
        .into_labeling();
        t.row(vec![
            family.name().to_string(),
            g.num_nodes().to_string(),
            deg.total_hubs().to_string(),
            rnd.total_hubs().to_string(),
            btw.total_hubs().to_string(),
            clo.total_hubs().to_string(),
        ]);
    }
    print!("{t}");

    println!("\n== Ablation B: canonical HHL vs PLL (same order) + minimization ==");
    let mut t = Table::new(vec!["graph", "n", "canonical HHL", "PLL", "PLL minimized"]);
    for family in [Family::RandomTree, Family::SparseRandom] {
        let g = family_graph(family, 60, 5);
        let ord = order::by_degree(&g);
        let hhl = canonical_hhl(&g, &ord).expect("hhl");
        let pll = PrunedLandmarkLabeling::with_order(&g, ord).into_labeling();
        let (_, report) = minimize_labeling(&g, &pll).expect("minimize");
        t.row(vec![
            family.name().to_string(),
            g.num_nodes().to_string(),
            hhl.total_hubs().to_string(),
            pll.total_hubs().to_string(),
            report.after.to_string(),
        ]);
    }
    print!("{t}");

    println!("\n== Ablation C: Sum-Index message size by labeling scheme ==");
    let mut t = Table::new(vec![
        "gadget",
        "m",
        "scheme",
        "avg label bits",
        "max label bits",
        "correct",
    ]);
    for (b, ell) in [(2u32, 2u32), (3, 2)] {
        let params = GadgetParams::new(b, ell).expect("params");
        let m = Repr::new(params).modulus() as usize;
        let instance = SumIndexInstance::random(m, 7);
        let mut report = |proto: &SchemeProtocol<dyn hl_labeling::DistanceLabelingScheme>| {
            let mut correct = true;
            for a in 0..m as u64 {
                for bb in 0..m as u64 {
                    correct &= proto.run(a, bb).0 == instance.answer(a as usize, bb as usize);
                }
            }
            let stats = proto.label_stats();
            t.row(vec![
                params.to_string(),
                m.to_string(),
                proto.scheme_name().to_string(),
                format!("{:.0}", stats.average_bits),
                stats.max_bits.to_string(),
                correct.to_string(),
            ]);
        };
        let hub_scheme: &dyn hl_labeling::DistanceLabelingScheme = &HubPllScheme;
        let full_scheme: &dyn hl_labeling::DistanceLabelingScheme = &FullVectorScheme;
        report(&SchemeProtocol::new(params, &instance, hub_scheme).expect("protocol"));
        report(&SchemeProtocol::new(params, &instance, full_scheme).expect("protocol"));
    }
    print!("{t}");
}

/// Oracles — the space/time tradeoff of §1: latency and space of five
/// exact point-to-point methods on one weighted instance.
fn oracles() {
    use hl_oracles::oracle::{BidirectionalOracle, DijkstraOracle, DistanceOracle, HubLabelOracle};
    use hl_oracles::{AltOracle, ContractionHierarchy};

    println!("\n== Oracles: exact point-to-point methods, 20x20 weighted grid ==");
    let g = generators::weighted_grid(20, 20, 13);
    let n = g.num_nodes() as u64;
    let queries: Vec<(NodeId, NodeId)> = (0..400u64)
        .map(|i| (((i * 97) % n) as NodeId, ((i * 263) % n) as NodeId))
        .collect();

    let dij = DijkstraOracle { graph: &g };
    let bi = BidirectionalOracle { graph: &g };
    let alt = AltOracle::with_farthest_landmarks(&g, 8);
    let ch = ContractionHierarchy::build(&g);
    let labeling = PrunedLandmarkLabeling::by_betweenness(&g, 24, 1)
        .expect("betweenness order")
        .into_labeling();
    let hub_space = labeling.total_hubs() * FlatLabeling::ENTRY_BYTES;
    let hub = HubLabelOracle { labeling };
    let alt_space = alt.landmarks().memory_bytes();

    let mut t = Table::new(vec!["oracle", "space (B)", "us/query", "agrees"]);
    let reference: Vec<u64> = queries.iter().map(|&(u, v)| dij.distance(u, v)).collect();
    let mut bench = |oracle: &dyn DistanceOracle, space: usize| {
        let start = Instant::now();
        let mut ok = true;
        for (i, &(u, v)) in queries.iter().enumerate() {
            ok &= oracle.distance(u, v) == reference[i];
        }
        let us = start.elapsed().as_micros() as f64 / queries.len() as f64;
        t.row(vec![
            oracle.name().to_string(),
            space.to_string(),
            format!("{us:.1}"),
            ok.to_string(),
        ]);
    };
    bench(&dij, 0);
    bench(&bi, 0);
    bench(&alt, alt_space);
    bench(&ch, ch.num_shortcuts() * 12);
    bench(&hub, hub_space);
    print!("{t}");
    println!("(space: auxiliary index bytes beyond the graph; 0 = none)");
}

/// Corrected — the §1.1 architecture: approximate hubs + correction
/// tables, swept over the pruning slack.
fn corrected() {
    use hl_core::corrected::CorrectedLabeling;

    println!("\n== Corrected: approximate hubs + correction tables (slack sweep) ==");
    let mut t = Table::new(vec!["graph", "n", "slack", "hubs", "corrections", "exact"]);
    for family in [Family::Grid, Family::PowerLaw, Family::SparseRandom] {
        let g = family_graph(family, 150, 31);
        for slack in [0u64, 1, 2, 4] {
            let c = CorrectedLabeling::build(&g, slack, 0).expect("corrected");
            let (hubs, corr) = c.size_breakdown();
            // Spot verify exactness on a sample.
            let truth = hl_graph::apsp::DistanceMatrix::compute(&g).expect("apsp");
            let mut exact = true;
            for u in (0..g.num_nodes() as NodeId).step_by(7) {
                for v in 0..g.num_nodes() as NodeId {
                    exact &= c.query(u, v) == truth.distance(u, v);
                }
            }
            t.row(vec![
                family.name().to_string(),
                g.num_nodes().to_string(),
                slack.to_string(),
                hubs.to_string(),
                corr.to_string(),
                exact.to_string(),
            ]);
        }
    }
    print!("{t}");
}

/// Big — large-instance stress runs with sampled verification (not part of
/// `all`; takes a minute or two).
fn big() {
    use hl_lowerbound::sampling::{audit_sampled, check_sampled_pairs};

    println!("\n== BIG: H(3,3) — sampled Lemma 2.2 + sampled audit ==");
    let p = GadgetParams::new(3, 3).expect("valid params");
    let h = HGraph::build(p);
    println!(
        "H(3,3): {} vertices, {} edges",
        h.graph().num_nodes(),
        h.graph().num_edges()
    );
    let t0 = Instant::now();
    let failures = check_sampled_pairs(&h, 128, 1);
    println!(
        "Lemma 2.2 on 128 sampled pairs: {} failures ({:.2?})",
        failures.len(),
        t0.elapsed()
    );
    let t0 = Instant::now();
    let hl = PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling();
    println!(
        "PLL: avg |S| = {:.2} (bound {:.3}), built in {:.2?}",
        hl.average_hubs(),
        p.h_avg_hub_lower_bound(),
        t0.elapsed()
    );
    let report = audit_sampled(&h, &hl, 96, 2);
    println!(
        "sampled audit: {}/{} triples charged",
        report.charged, report.triples
    );

    println!("\n== BIG: G'(3,2) protocol on ~800k max-degree-3 vertices ==");
    let params = GadgetParams::new(3, 2).expect("valid params");
    let m = Repr::new(params).modulus() as usize;
    let instance = SumIndexInstance::random(m, 77);
    let t0 = Instant::now();
    let protocol =
        hl_sumindex::g_protocol::GPrimeProtocol::new(params, &instance).expect("protocol");
    println!(
        "setup: n(G') = {}, max degree = {}, built in {:.2?}",
        protocol.graph_nodes(),
        protocol.max_degree(),
        t0.elapsed()
    );
    let mut correct = true;
    for a in 0..m as u64 {
        for b in 0..m as u64 {
            correct &= protocol.run(a, b) == instance.answer(a as usize, b as usize);
        }
    }
    println!("all {} input pairs correct: {}", m * m, correct);
}

/// Highway — empirical highway dimension across families (the ADF+16
/// explanation §1.1 gives for hub labeling's practical success).
fn highway() {
    use hl_oracles::highway::{empirical_highway_dimension, estimate};

    println!("\n== Highway: empirical highway dimension (greedy estimate) ==");
    let mut t = Table::new(vec![
        "graph",
        "n",
        "h (max over scales)",
        "per-scale max_in_ball",
    ]);
    for family in [
        Family::Path,
        Family::Grid,
        Family::RandomTree,
        Family::PowerLaw,
        Family::Degree3Expander,
    ] {
        let g = family_graph(family, 64, 19);
        let sweep = estimate(&g);
        let per_scale: Vec<String> = sweep
            .iter()
            .map(|e| format!("r{}:{}", e.r, e.max_in_ball))
            .collect();
        t.row(vec![
            family.name().to_string(),
            g.num_nodes().to_string(),
            empirical_highway_dimension(&g).to_string(),
            per_scale.join(" "),
        ]);
    }
    print!("{t}");
}

/// Growth — label-size scaling shapes per family (the §1.1 landscape:
/// log n on trees, ~sqrt(n) on grids/planar-like, near-linear on the
/// gadget), with fitted growth exponents.
fn growth() {
    use hl_core::separator_labeling::separator_labeling;

    println!("\n== Growth: avg hub size vs n (PLL betweenness; separator for grids) ==");
    let mut t = Table::new(vec![
        "family", "n1", "avg1", "n2", "avg2", "n4", "avg4", "exponent",
    ]);
    // Fitted exponent from the first and last point: log(avg4/avg1)/log(n4/n1).
    let mut row = |name: &str, points: Vec<(usize, f64)>| {
        let (n1, a1) = points[0];
        let (n4, a4) = points[2];
        let exp = (a4 / a1).ln() / (n4 as f64 / n1 as f64).ln();
        t.row(vec![
            name.to_string(),
            n1.to_string(),
            format!("{a1:.2}"),
            points[1].0.to_string(),
            format!("{:.2}", points[1].1),
            n4.to_string(),
            format!("{a4:.2}"),
            format!("{exp:.2}"),
        ]);
    };
    for family in [Family::RandomTree, Family::SparseRandom, Family::PowerLaw] {
        let mut points = Vec::new();
        for n in [128usize, 256, 512] {
            let g = family_graph(family, n, 5);
            let hl = PrunedLandmarkLabeling::by_betweenness(&g, 24, 1)
                .expect("betweenness order")
                .into_labeling();
            points.push((g.num_nodes(), hl.average_hubs()));
        }
        row(family.name(), points);
    }
    // Grids with both constructions.
    let mut pll_points = Vec::new();
    let mut sep_points = Vec::new();
    for side in [12usize, 17, 24] {
        let g = generators::grid(side, side);
        let hl = PrunedLandmarkLabeling::by_betweenness(&g, 24, 1)
            .expect("betweenness order")
            .into_labeling();
        pll_points.push((g.num_nodes(), hl.average_hubs()));
        let sep = separator_labeling(&g).expect("separator");
        sep_points.push((g.num_nodes(), sep.average_hubs()));
    }
    row("grid/pll", pll_points);
    row("grid/separator", sep_points);
    // Unit-disk (planar-like) with separator labeling.
    let mut disk_points = Vec::new();
    for n in [128usize, 256, 512] {
        let radius = (3.0 / n as f64).sqrt(); // keep expected degree ~constant
        let g = generators::unit_disk(n, radius, 9);
        let sep = separator_labeling(&g).expect("separator");
        disk_points.push((g.num_nodes(), sep.average_hubs()));
    }
    row("unit-disk/separator", disk_points);
    // The gadget family (near-linear: exponent ~1).
    let mut gadget_points = Vec::new();
    for (b, ell) in [(2u32, 2u32), (3, 2), (2, 3)] {
        let h = HGraph::build(GadgetParams::new(b, ell).expect("params"));
        let hl = PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling();
        gadget_points.push((h.graph().num_nodes(), hl.average_hubs()));
    }
    row("gadget H(b,l)", gadget_points);
    print!("{t}");
    println!("(exponent: log-log slope between first and last point; 0 ~ polylog, 0.5 ~ sqrt, 1 ~ linear)");
}

/// Encoding — bits per label across encodings (the "careful encoding"
/// step §1.1 says the sublinear labelings rely on).
fn encoding() {
    use hl_labeling::packed::{encode_labeling_compact, CompactParams};

    println!("\n== Encoding: avg bits/label, gamma vs best-of-4 compact ==");
    let mut t = Table::new(vec![
        "graph",
        "construction",
        "avg hubs",
        "gamma bits",
        "compact bits",
        "saved",
    ]);
    for family in [Family::Path, Family::Grid, Family::PowerLaw] {
        let g = family_graph(family, 200, 41);
        let diam = hl_graph::properties::diameter_double_sweep(&g);
        let constructions: Vec<(&str, hl_core::FlatLabeling)> = vec![
            (
                "pll",
                PrunedLandmarkLabeling::by_betweenness(&g, 24, 1)
                    .expect("betweenness order")
                    .into_labeling(),
            ),
            (
                "rand-thresh",
                random_threshold_labeling(&g, RandomThresholdParams::for_size(g.num_nodes(), 2))
                    .expect("rt")
                    .0,
            ),
        ];
        for (name, hl) in constructions {
            let gamma = SchemeStats::of(&encode_labeling(&hl));
            let params = CompactParams::new(g.num_nodes(), diam, 8);
            let compact = SchemeStats::of(&encode_labeling_compact(&hl, &params));
            let saved = 100.0 * (1.0 - compact.average_bits / gamma.average_bits.max(1.0));
            t.row(vec![
                family.name().to_string(),
                name.to_string(),
                format!("{:.1}", hl.average_hubs()),
                format!("{:.0}", gamma.average_bits),
                format!("{:.0}", compact.average_bits),
                format!("{saved:.0}%"),
            ]);
        }
    }
    print!("{t}");
}

/// Tradeoff — the §1 space/time curve: portal oracles interpolating
/// between Dijkstra and the full table, with the hub-label point shown
/// beating the curve.
fn tradeoff() {
    use hl_oracles::portal::PortalOracle;

    println!("\n== Tradeoff: portal-oracle S/T curve vs hub labels (20x20 weighted grid) ==");
    let g = generators::weighted_grid(20, 20, 13);
    let n = g.num_nodes();
    let queries: Vec<(NodeId, NodeId)> = (0..300u64)
        .map(|i| {
            (
                ((i * 97) % n as u64) as NodeId,
                ((i * 263) % n as u64) as NodeId,
            )
        })
        .collect();
    let mut t = Table::new(vec!["oracle", "space (B)", "avg settled", "us/query"]);
    for k in [0usize, 5, 20, 80, 400] {
        let oracle = PortalOracle::by_degree(&g, k);
        let start = Instant::now();
        let mut settled = 0usize;
        for &(u, v) in &queries {
            settled += oracle.query_with_stats(u, v).1.settled;
        }
        let us = start.elapsed().as_micros() as f64 / queries.len() as f64;
        t.row(vec![
            format!("portal k={k}"),
            oracle.memory_bytes().to_string(),
            format!("{:.0}", settled as f64 / queries.len() as f64),
            format!("{us:.1}"),
        ]);
    }
    let hl = PrunedLandmarkLabeling::by_betweenness(&g, 24, 1)
        .expect("betweenness order")
        .into_labeling();
    let start = Instant::now();
    let mut acc = 0u64;
    for &(u, v) in &queries {
        acc = acc.wrapping_add(hl.query(u, v));
    }
    std::hint::black_box(acc);
    let us = start.elapsed().as_micros() as f64 / queries.len() as f64;
    t.row(vec![
        "hub labels".to_string(),
        (hl.total_hubs() * FlatLabeling::ENTRY_BYTES).to_string(),
        "0".to_string(),
        format!("{us:.1}"),
    ]);
    print!("{t}");
    println!("(the hub-label row sits far below the portal curve: less space than the");
    println!(" k=400 table at orders-of-magnitude lower query time — the paper's point)");
}
