//! Sampled verification for gadget sizes where exhaustive checks are too
//! expensive: Lemma 2.2 on a seeded subset of even pairs, and the counting
//! audit on a seeded subset of triples.

use hl_graph::rng::Xorshift64;
use hl_graph::NodeId;

use hl_core::LabelingView;

use crate::accounting::{audit, AccountingReport, Triple};
use crate::hgraph::HGraph;
use crate::midpoint::{check_pair, MidpointCheck};

/// Draws `count` independent even pairs `(x, z)` (uniform over the even-
/// difference pairs), seeded.
pub fn sample_even_pairs(h: &HGraph, count: usize, seed: u64) -> Vec<(Vec<u64>, Vec<u64>)> {
    let params = h.params();
    let s = params.side();
    let ell = params.ell as usize;
    let mut rng = Xorshift64::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let x: Vec<u64> = (0..ell).map(|_| rng.gen_u64_below(s)).collect();
            // z_k must match x_k's parity: draw a half-range offset.
            let z: Vec<u64> = x
                .iter()
                .map(|&xk| {
                    let parity = xk % 2;
                    2 * rng.gen_u64_below(s / 2) + parity
                })
                .collect();
            (x, z)
        })
        .collect()
}

/// Checks Lemma 2.2 on `count` sampled pairs; returns the failures.
pub fn check_sampled_pairs(h: &HGraph, count: usize, seed: u64) -> Vec<MidpointCheck> {
    sample_even_pairs(h, count, seed)
        .into_iter()
        .map(|(x, z)| check_pair(h, &x, &z))
        .filter(|c| !c.holds())
        .collect()
}

/// Runs the counting audit on `count` sampled triples.
pub fn audit_sampled<L: LabelingView>(
    h: &HGraph,
    labeling: &L,
    count: usize,
    seed: u64,
) -> AccountingReport {
    let ell = h.params().ell as u64;
    let triples: Vec<Triple> = sample_even_pairs(h, count, seed)
        .into_iter()
        .map(|(x, z)| {
            let mid: Vec<u64> = x.iter().zip(&z).map(|(&a, &c)| (a + c) / 2).collect();
            (
                h.node_id(0, &x) as NodeId,
                h.node_id(ell, &mid) as NodeId,
                h.node_id(2 * ell, &z) as NodeId,
            )
        })
        .collect();
    audit(h.graph(), labeling, &triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GadgetParams;
    use hl_core::pll::PrunedLandmarkLabeling;

    #[test]
    fn sampled_pairs_have_even_differences() {
        let h = HGraph::build(GadgetParams::new(3, 2).unwrap());
        for (x, z) in sample_even_pairs(&h, 100, 4) {
            assert!(x.iter().zip(&z).all(|(&a, &c)| a.abs_diff(c) % 2 == 0));
            assert!(x.iter().all(|&d| d < 8) && z.iter().all(|&d| d < 8));
        }
    }

    #[test]
    fn sampling_deterministic() {
        let h = HGraph::build(GadgetParams::new(2, 2).unwrap());
        assert_eq!(sample_even_pairs(&h, 20, 7), sample_even_pairs(&h, 20, 7));
        assert_ne!(sample_even_pairs(&h, 20, 7), sample_even_pairs(&h, 20, 8));
    }

    #[test]
    fn lemma22_holds_on_samples_of_larger_gadget() {
        // H(3,2) has 1024 even pairs; sample 64 and verify.
        let h = HGraph::build(GadgetParams::new(3, 2).unwrap());
        assert!(check_sampled_pairs(&h, 64, 3).is_empty());
    }

    #[test]
    fn sampled_audit_charges_everything() {
        let h = HGraph::build(GadgetParams::new(3, 2).unwrap());
        let hl = PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling();
        let report = audit_sampled(&h, &hl, 48, 5);
        assert!(report.all_charged(), "{report:?}");
        assert_eq!(report.triples, 48);
    }
}
