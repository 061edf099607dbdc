//! The triplet-counting argument of Theorem 2.1, claim (iii), made
//! executable.
//!
//! For every triple `(x, y, z)` with `y = (x+z)/2` the midpoint vertex
//! `v_{ℓ,y}` lies on the unique shortest `v_{0,x} → v_{2ℓ,z}` path, so for
//! any valid hub labeling with monotone closure `S*`, either
//! `v_{ℓ,y} ∈ S*_{v_{0,x}}` or `v_{ℓ,y} ∈ S*_{v_{2ℓ,z}}`. Because `z` is
//! determined by `(x, y)` and `x` by `(y, z)`, each charge is distinct and
//! `Σ_v |S*_v| ≥ s^ℓ·(s/2)^ℓ` follows — the executable core of the
//! `n/2^{Θ(√log n)}` lower bound.

use hl_graph::{Graph, NodeId};

use hl_core::monotone::{count_midpoint_charges, MonotoneClosure};
use hl_core::FlatLabeling;

use crate::hgraph::HGraph;

/// A midpoint triple in graph-vertex form: `(source, midpoint, target)`.
pub type Triple = (NodeId, NodeId, NodeId);

/// Enumerates the paper's triples `(v_{0,x}, v_{ℓ,(x+z)/2}, v_{2ℓ,z})` over
/// all componentwise-even pairs, as `H`-vertex ids.
pub fn h_triples(h: &HGraph) -> Vec<Triple> {
    h.even_pairs()
        .map(|(x, z, _)| h_triple(h, &x, &z))
        .collect()
}

/// The triple `(v_{0,x}, v_{ℓ,(x+z)/2}, v_{2ℓ,z})` of one even pair.
pub(crate) fn h_triple(h: &HGraph, x: &[u64], z: &[u64]) -> Triple {
    let ell = u64::from(h.params().ell);
    let mid: Vec<u64> = x.iter().zip(z).map(|(&a, &c)| (a + c) / 2).collect();
    (h.node_id(0, x), h.node_id(ell, &mid), h.node_id(2 * ell, z))
}

/// Outcome of the accounting check for a concrete labeling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccountingReport {
    /// Number of triples audited (`s^ℓ (s/2)^ℓ`).
    pub triples: usize,
    /// Triples whose midpoint was charged to an endpoint's `S*`.
    pub charged: usize,
    /// `Σ_v |S_v|` of the audited labeling.
    pub total_hubs: usize,
    /// `Σ over endpoint vertices of |S*_v|` (closures computed only at
    /// triple endpoints).
    pub star_total_at_endpoints: usize,
    /// The theoretical lower bound on `Σ_v |S*_v|` (= `triples`).
    pub star_lower_bound: usize,
}

impl AccountingReport {
    /// `true` when every triple was charged — the inequality of claim (iii)
    /// is then witnessed: `Σ|S*| ≥ triples`.
    pub fn all_charged(&self) -> bool {
        self.charged == self.triples
    }

    /// `true` when the measured `S*` mass at endpoints already meets the
    /// counting lower bound.
    pub fn bound_met(&self) -> bool {
        self.star_total_at_endpoints >= self.star_lower_bound
    }
}

/// Audits a hub labeling of `graph` against the given triples.
///
/// Closes each distinct endpoint's hubset under its canonical
/// shortest-path tree ([`MonotoneClosure::at`]) and counts the midpoint
/// charges ([`count_midpoint_charges`]). Works for labelings of `H_{b,ℓ}`
/// (pass [`h_triples`]) and of `G_{b,ℓ}` (pass core-mapped triples),
/// however the arena was obtained — built in memory, mounted from a
/// store, or fetched from a daemon.
pub fn audit(graph: &Graph, labeling: &FlatLabeling, triples: &[Triple]) -> AccountingReport {
    let mut endpoints: Vec<NodeId> = triples.iter().flat_map(|&(u, _, z)| [u, z]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    let closure = MonotoneClosure::at(graph, labeling, endpoints);
    AccountingReport {
        triples: triples.len(),
        charged: count_midpoint_charges(&closure, triples),
        total_hubs: labeling.num_entries(),
        star_total_at_endpoints: closure.total_size(),
        star_lower_bound: triples.len(),
    }
}

/// Audits a labeling of `H_{b,ℓ}` directly.
pub fn audit_h(h: &HGraph, labeling: &FlatLabeling) -> AccountingReport {
    audit(h.graph(), labeling, &h_triples(h))
}

/// Audits a labeling of `G_{b,ℓ}`, mapping the triples through cores.
pub fn audit_g(h: &HGraph, g: &crate::ggraph::GGraph, labeling: &FlatLabeling) -> AccountingReport {
    let triples: Vec<Triple> = h_triples(h)
        .into_iter()
        .map(|(u, m, z)| (g.core(u), g.core(m), g.core(z)))
        .collect();
    audit(g.graph(), labeling, &triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ggraph::GGraph;
    use crate::params::GadgetParams;
    use hl_core::pll::PrunedLandmarkLabeling;

    #[test]
    fn triples_are_distinct_and_counted() {
        let h = HGraph::build(GadgetParams::new(2, 2).unwrap());
        let ts = h_triples(&h);
        assert_eq!(ts.len() as u64, h.params().triplet_count());
        let set: std::collections::HashSet<_> = ts.iter().collect();
        assert_eq!(set.len(), ts.len());
        // (x, y) determines z and (y, z) determines x: the (source, mid)
        // pairs and (mid, target) pairs are each distinct.
        let sm: std::collections::HashSet<_> = ts.iter().map(|&(u, m, _)| (u, m)).collect();
        let mt: std::collections::HashSet<_> = ts.iter().map(|&(_, m, z)| (m, z)).collect();
        assert_eq!(sm.len(), ts.len());
        assert_eq!(mt.len(), ts.len());
    }

    #[test]
    fn pll_labeling_charges_every_triple_on_h() {
        let h = HGraph::build(GadgetParams::new(2, 2).unwrap());
        let hl = PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling();
        let report = audit_h(&h, &hl);
        assert!(report.all_charged(), "{report:?}");
        assert!(report.bound_met());
        assert!(report.total_hubs >= 1);
    }

    #[test]
    fn pll_labeling_charges_every_triple_on_g() {
        let p = GadgetParams::new(1, 2).unwrap();
        let h = HGraph::build(p);
        let g = GGraph::from_hgraph(&h);
        let hl = PrunedLandmarkLabeling::by_degree(g.graph()).into_labeling();
        let report = audit_g(&h, &g, &hl);
        assert!(report.all_charged(), "{report:?}");
    }

    #[test]
    fn broken_labeling_fails_audit() {
        // An empty labeling charges nothing (it is not a cover).
        let h = HGraph::build(GadgetParams::new(1, 1).unwrap());
        let empty = FlatLabeling::from_pair_lists(vec![Vec::new(); h.graph().num_nodes()]).unwrap();
        let report = audit_h(&h, &empty);
        assert!(!report.all_charged());
        assert_eq!(report.charged, 0);
    }

    #[test]
    fn average_hub_size_respects_theory() {
        // The PLL average hub size on H must sit above the closed-form
        // counting bound (it is a *lower* bound on any labeling).
        let p = GadgetParams::new(2, 2).unwrap();
        let h = HGraph::build(p);
        let hl = PrunedLandmarkLabeling::by_degree(h.graph()).into_labeling();
        assert!(
            hl.average_hubs() >= p.h_avg_hub_lower_bound(),
            "avg {} < bound {}",
            hl.average_hubs(),
            p.h_avg_hub_lower_bound()
        );
    }
}
