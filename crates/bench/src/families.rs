//! The graph-family zoo the experiments sweep over: sparse families with
//! very different hub-labeling behaviour.

use hl_graph::{generators, Graph};

/// A named sparse graph family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Path graph — trivial labels.
    Path,
    /// Random recursive tree — `O(log n)` labels.
    RandomTree,
    /// Near-square 2D grid — `Õ(√n)` labels.
    Grid,
    /// Connected sparse `G(n, 1.5n)`.
    SparseRandom,
    /// Union of three random perfect matchings (max degree 3) — sparse
    /// expander-like, the hard regime.
    Degree3Expander,
    /// Preferential attachment — heavy-tailed "real-world" shape.
    PowerLaw,
}

impl Family {
    /// All families in sweep order.
    pub fn all() -> [Family; 6] {
        [
            Family::Path,
            Family::RandomTree,
            Family::Grid,
            Family::SparseRandom,
            Family::Degree3Expander,
            Family::PowerLaw,
        ]
    }

    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::RandomTree => "tree",
            Family::Grid => "grid",
            Family::SparseRandom => "gnm",
            Family::Degree3Expander => "deg3-exp",
            Family::PowerLaw => "powerlaw",
        }
    }
}

/// Builds a graph of roughly `n` vertices from the family (deterministic
/// for a given seed).
pub fn family_graph(family: Family, n: usize, seed: u64) -> Graph {
    match family {
        Family::Path => generators::path(n),
        Family::RandomTree => generators::random_tree(n, seed),
        Family::Grid => {
            let side = (n as f64).sqrt().round() as usize;
            generators::grid(side.max(2), side.max(2))
        }
        Family::SparseRandom => {
            // At most C(n,2) - (n-1) = (n-1)(n-2)/2 edges fit beyond a
            // spanning tree.
            let n = n.max(2);
            let max_extra = (n - 1).saturating_mul(n - 2) / 2;
            generators::connected_gnm(n, (n / 2).min(max_extra), seed)
        }
        Family::Degree3Expander => generators::union_of_matchings(n + n % 2, 3, seed),
        Family::PowerLaw => generators::preferential_attachment(n.max(2), 2, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_build() {
        for f in Family::all() {
            let g = family_graph(f, 60, 7);
            assert!(g.num_nodes() >= 49, "{}", f.name());
            assert!(!f.name().is_empty());
        }
    }

    #[test]
    fn families_are_sparse() {
        for f in Family::all() {
            let g = family_graph(f, 100, 3);
            assert!(g.average_degree() <= 4.0, "{} too dense", f.name());
        }
    }
}
