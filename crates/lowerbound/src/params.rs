//! Parameters and closed-form predictions for the `H_{b,ℓ}` / `G_{b,ℓ}`
//! family of Theorem 2.1.

use hl_graph::GraphError;

/// Parameters of the gadget: `b` (side-length exponent, `s = 2^b`) and `ℓ`
/// (half the number of level transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GadgetParams {
    /// Side-length exponent; the per-coordinate alphabet is `s = 2^b`.
    pub b: u32,
    /// Number of coordinate dimensions; the graph has `2ℓ + 1` levels.
    pub ell: u32,
}

impl GadgetParams {
    /// Creates parameters, validating feasibility of the construction.
    ///
    /// # Errors
    ///
    /// Rejects `b == 0` or `ell == 0` and parameter combinations whose
    /// level size `s^ℓ` exceeds `2^32` (vertex ids would overflow).
    pub fn new(b: u32, ell: u32) -> Result<Self, GraphError> {
        if b == 0 || ell == 0 {
            return Err(GraphError::InvalidParameters {
                reason: "gadget requires b >= 1 and ell >= 1".into(),
            });
        }
        if (b as u64) * (ell as u64) > 26 {
            return Err(GraphError::InvalidParameters {
                reason: format!("level size 2^(b*ell) = 2^{} too large", b * ell),
            });
        }
        Ok(GadgetParams { b, ell })
    }

    /// The per-coordinate alphabet size `s = 2^b`.
    pub fn side(&self) -> u64 {
        1u64 << self.b
    }

    /// The base edge weight `A = 3ℓs²`.
    pub fn base_weight(&self) -> u64 {
        3 * self.ell as u64 * self.side() * self.side()
    }

    /// Number of levels, `2ℓ + 1`.
    pub fn num_levels(&self) -> u64 {
        2 * self.ell as u64 + 1
    }

    /// Vertices per level, `s^ℓ`.
    pub fn level_size(&self) -> u64 {
        self.side().pow(self.ell)
    }

    /// `|V(H_{b,ℓ})| = (2ℓ+1)·s^ℓ`.
    pub fn h_num_nodes(&self) -> u64 {
        self.num_levels() * self.level_size()
    }

    /// `|E(H_{b,ℓ})| = 2ℓ·s^ℓ·s` (each vertex has `s` up-neighbors).
    pub fn h_num_edges(&self) -> u64 {
        2 * self.ell as u64 * self.level_size() * self.side()
    }

    /// The paper's triplet count `s^ℓ · (s/2)^ℓ` — the number of
    /// `(x, y, z)` triples with `y = (x+z)/2`, each charging one middle
    /// vertex to a hubset (claim (iii) of Theorem 2.1).
    pub fn triplet_count(&self) -> u64 {
        self.level_size() * (self.side() / 2).pow(self.ell)
    }

    /// Closed-form lower bound on the *average* hubset size of `H_{b,ℓ}`
    /// implied by claim (iii): `triplets / (n_H · (2ℓ + 1))`, using the hop
    /// diameter `2ℓ` (+1 for the root) as the `S* → S` conversion factor.
    pub fn h_avg_hub_lower_bound(&self) -> f64 {
        self.triplet_count() as f64 / (self.h_num_nodes() as f64 * (2.0 * self.ell as f64 + 1.0))
    }

    /// The length of the unique shortest `v_{0,x} → v_{2ℓ,z}` path when
    /// `z - x` is componentwise even: `2ℓA + Σ_k (z_k - x_k)²/2`.
    pub fn unique_sp_length(&self, x: &[u64], z: &[u64]) -> u64 {
        debug_assert_eq!(x.len(), self.ell as usize);
        debug_assert_eq!(z.len(), self.ell as usize);
        let spread: u64 = x
            .iter()
            .zip(z)
            .map(|(&a, &c)| {
                let d = a.abs_diff(c);
                debug_assert!(d % 2 == 0, "coordinates must have even difference");
                d * d / 2
            })
            .sum();
        2 * self.ell as u64 * self.base_weight() + spread
    }
}

impl std::fmt::Display for GadgetParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "H(b={}, l={})", self.b, self.ell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_params() {
        assert!(GadgetParams::new(0, 2).is_err());
        assert!(GadgetParams::new(2, 0).is_err());
        assert!(GadgetParams::new(9, 3).is_err());
    }

    #[test]
    fn figure1_parameters() {
        // Figure 1 uses b = 2, ℓ = 2 (s = 4).
        let p = GadgetParams::new(2, 2).unwrap();
        assert_eq!(p.side(), 4);
        assert_eq!(p.base_weight(), 96); // A = 3·2·16
        assert_eq!(p.num_levels(), 5);
        assert_eq!(p.level_size(), 16);
        assert_eq!(p.h_num_nodes(), 80);
        assert_eq!(p.h_num_edges(), 2 * 2 * 16 * 4);
    }

    #[test]
    fn triplet_count_matches_formula() {
        let p = GadgetParams::new(2, 2).unwrap();
        // s^ℓ (s/2)^ℓ = 16 · 4 = 64.
        assert_eq!(p.triplet_count(), 64);
        let p = GadgetParams::new(3, 2).unwrap();
        assert_eq!(p.triplet_count(), 64 * 16);
    }

    #[test]
    fn figure1_path_lengths() {
        // Blue path of Figure 1: (1,0) -> (3,2), both coordinate gaps 2:
        // length 4A + 4.
        let p = GadgetParams::new(2, 2).unwrap();
        assert_eq!(p.unique_sp_length(&[1, 0], &[3, 2]), 4 * 96 + 4);
        // Zero spread: straight climb costs 4A.
        assert_eq!(p.unique_sp_length(&[1, 1], &[1, 1]), 4 * 96);
    }

    #[test]
    fn lower_bound_positive_and_scaling() {
        let small = GadgetParams::new(2, 2).unwrap();
        let big = GadgetParams::new(3, 2).unwrap();
        assert!(small.h_avg_hub_lower_bound() > 0.0);
        assert!(
            big.h_avg_hub_lower_bound() > small.h_avg_hub_lower_bound(),
            "bound grows with the level size"
        );
    }

    #[test]
    fn display_shape() {
        let p = GadgetParams::new(2, 3).unwrap();
        assert_eq!(p.to_string(), "H(b=2, l=3)");
    }
}
