//! The named graph families: one table from a name to a seeded generator
//! of [`generators`], sized by a vertex count and, for three families, an
//! edge count. The experiments sweep the first six (sparse families with
//! very different hub-labeling behaviour); `hubserve gen` and `hubserve
//! build --gen` reach all nine by name. A size a family cannot build is an
//! [`GraphError::InvalidParameters`], never a panic inside a generator.

use crate::error::GraphError;
use crate::{generators, Graph};

/// A named sparse graph family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Path graph — trivial labels.
    Path,
    /// Random recursive tree — `O(log n)` labels.
    RandomTree,
    /// Near-square 2D grid — `Õ(√n)` labels.
    Grid,
    /// Connected sparse `G(n, 1.5n)`, or `G(n, m)` given an edge count.
    SparseRandom,
    /// Union of three random perfect matchings (max degree 3) — sparse
    /// expander-like, the hard regime.
    Degree3Expander,
    /// Preferential attachment — heavy-tailed "real-world" shape.
    PowerLaw,
    /// Weighted grid with long-range shortcuts — road-network-like.
    Road,
    /// Configuration-model power law (`γ = 2.5`).
    PowerLawConfig,
    /// R-MAT with Graph500 quadrant probabilities, `2^⌈log₂ n⌉` vertices.
    Rmat,
}

/// The largest vertex count any family is asked for: R-MAT's `2^31`.
const MAX_NODES: usize = 1 << 31;

impl Family {
    /// Every family, in the order usage lines list them: the six the
    /// experiments sweep, in sweep order, then the large-graph generators.
    pub const ALL: [Family; 9] = [
        Family::Path,
        Family::RandomTree,
        Family::Grid,
        Family::SparseRandom,
        Family::Degree3Expander,
        Family::PowerLaw,
        Family::Road,
        Family::PowerLawConfig,
        Family::Rmat,
    ];

    /// Short name for tables and the command line.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::RandomTree => "tree",
            Family::Grid => "grid",
            Family::SparseRandom => "gnm",
            Family::Degree3Expander => "deg3-exp",
            Family::PowerLaw => "powerlaw",
            Family::Road => "road",
            Family::PowerLawConfig => "powerlaw-config",
            Family::Rmat => "rmat",
        }
    }

    /// The family called `name`.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] naming every family, for an
    /// unknown name.
    pub fn named(name: &str) -> Result<Family, GraphError> {
        Family::ALL
            .into_iter()
            .find(|f| f.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Family::ALL.iter().map(Family::name).collect();
                invalid(format!("unknown family '{name}' ({})", names.join(", ")))
            })
    }

    /// Builds a graph of roughly `n` vertices from the family,
    /// deterministic for a given seed. `edges` sets the total edge count
    /// of `gnm` and `rmat` and the shortcut count of `road`; the other
    /// families take none.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] for a size the family cannot
    /// build: `n` of 0 or above `2^31`, an edge count given to a family
    /// that takes none, more `gnm` edges than a simple graph holds, fewer
    /// than two `powerlaw-config` vertices, or no `rmat` edges.
    pub fn generate(self, n: usize, edges: Option<usize>, seed: u64) -> Result<Graph, GraphError> {
        if n == 0 || n > MAX_NODES {
            return Err(invalid(format!("{n} vertices (1 to {MAX_NODES})")));
        }
        if edges.is_some() && !matches!(self, Family::SparseRandom | Family::Road | Family::Rmat) {
            return Err(invalid(format!("{} takes no edge count", self.name())));
        }
        Ok(match self {
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
                let extra = edges.map_or((n / 2).min(max_extra), |m| m.saturating_sub(n - 1));
                if extra > max_extra {
                    let m = n - 1 + extra;
                    return Err(invalid(format!("{m} edges do not fit on {n} vertices")));
                }
                generators::connected_gnm(n, extra, seed)
            }
            Family::Degree3Expander => generators::union_of_matchings(n + n % 2, 3, seed),
            Family::PowerLaw => generators::preferential_attachment(n.max(2), 2, seed),
            Family::Road => {
                let side = (n as f64).sqrt().ceil() as usize;
                let shortcuts = edges.unwrap_or(n / 50);
                generators::grid_with_shortcuts(side, side, shortcuts, seed)
            }
            Family::PowerLawConfig if n < 2 => {
                return Err(invalid("powerlaw-config needs at least 2 vertices".into()))
            }
            Family::PowerLawConfig => generators::power_law_configuration(n, 25, seed),
            Family::Rmat => {
                let scale = (usize::BITS - (n - 1).max(1).leading_zeros()).max(1);
                match edges.unwrap_or(n.saturating_mul(8)) {
                    0 => return Err(invalid("rmat needs at least 1 edge".into())),
                    m => generators::rmat(scale, m, seed),
                }
            }
        })
    }
}

fn invalid(reason: String) -> GraphError {
    GraphError::InvalidParameters { reason }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_build() {
        for &f in &Family::ALL[..6] {
            let g = f.generate(60, None, 7).unwrap();
            assert!(g.num_nodes() >= 49, "{}", f.name());
            assert!(!f.name().is_empty());
        }
    }

    #[test]
    fn families_are_sparse() {
        for &f in &Family::ALL[..6] {
            let g = f.generate(100, None, 3).unwrap();
            assert!(g.average_degree() <= 4.0, "{} too dense", f.name());
        }
    }
}
