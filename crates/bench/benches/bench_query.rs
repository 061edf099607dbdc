//! Q — query latency of hub-label merge-joins across graph families and
//! constructions (the tradeoff discussion of §1.1 / the distance-oracle
//! motivation in the introduction). How the serving arenas and kernels
//! compare is measured by `benchmark/` (the `hl-core.*` layer metrics).

use hl_bench::timing::bench;
use hl_bench::{family_graph, Family};
use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::random_threshold::{random_threshold_labeling, RandomThresholdParams};
use hl_graph::NodeId;

fn main() {
    for family in [Family::RandomTree, Family::Grid, Family::Degree3Expander] {
        let g = family_graph(family, 400, 11);
        let n = g.num_nodes() as u64;
        let pll = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let (rt, _) =
            random_threshold_labeling(&g, RandomThresholdParams::for_size(g.num_nodes(), 2))
                .expect("random threshold");
        let queries: Vec<(NodeId, NodeId)> = (0..1024u64)
            .map(|i| (((i * 37) % n) as NodeId, ((i * 613) % n) as NodeId))
            .collect();
        bench("query", &format!("pll/{}", family.name()), || {
            let mut acc = 0u64;
            for &(u, v) in &queries {
                acc = acc.wrapping_add(pll.query(u, v));
            }
            acc
        });
        bench("query", &format!("rand-thresh/{}", family.name()), || {
            let mut acc = 0u64;
            for &(u, v) in &queries {
                acc = acc.wrapping_add(rt.query(u, v));
            }
            acc
        });
    }
}
