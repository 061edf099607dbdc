//! Aggregate statistics of hub labelings, shared by every experiment table.

use crate::flat::FlatLabeling;

/// Size statistics of a labeling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelingStats {
    /// Number of vertices.
    pub num_nodes: usize,
    /// `Σ_v |S_v|`.
    pub total_hubs: usize,
    /// `Σ_v |S_v| / n`.
    pub average_hubs: f64,
    /// `max_v |S_v|`.
    pub max_hubs: usize,
    /// Bytes the entries take in the [`FlatLabeling`] arena
    /// ([`FlatLabeling::ENTRY_BYTES`] each; offsets not counted).
    pub memory_bytes: usize,
}

impl LabelingStats {
    /// Computes the statistics of `labeling`.
    pub fn of(labeling: &FlatLabeling) -> Self {
        let total = labeling.num_entries();
        LabelingStats {
            num_nodes: labeling.num_nodes(),
            total_hubs: total,
            average_hubs: labeling.average_hubs(),
            max_hubs: labeling.max_hubs(),
            memory_bytes: total * FlatLabeling::ENTRY_BYTES,
        }
    }
}

impl std::fmt::Display for LabelingStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} total={} avg={:.2} max={} mem={}B",
            self.num_nodes, self.total_hubs, self.average_hubs, self.max_hubs, self.memory_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_simple_labeling() {
        let hl = FlatLabeling::from_pair_lists(vec![vec![(0, 0), (1, 1)], vec![(1, 0)]]).unwrap();
        let s = LabelingStats::of(&hl);
        assert_eq!(s.num_nodes, 2);
        assert_eq!(s.total_hubs, 3);
        assert_eq!(s.max_hubs, 2);
        assert!((s.average_hubs - 1.5).abs() < 1e-9);
        assert_eq!(s.memory_bytes, 24);
        let text = s.to_string();
        assert!(text.contains("avg=1.50"));
    }

    #[test]
    fn stats_of_empty() {
        let s = LabelingStats::of(&FlatLabeling::new());
        assert_eq!(s.total_hubs, 0);
        assert_eq!(s.average_hubs, 0.0);
    }
}
