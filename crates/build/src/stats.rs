//! Build-time telemetry: per-batch timings and entry counts, and pruning
//! effectiveness.

/// Telemetry for one root batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Roots processed in this batch.
    pub roots: usize,
    /// Entries that survived the commit filter.
    pub committed_entries: usize,
    /// Total committed entries after this batch (growth curve sample).
    pub entries_after: usize,
    /// Wall-clock seconds for the batch (waves + commit).
    pub seconds: f64,
}

/// Telemetry for a whole parallel build.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildStats {
    /// Worker threads used.
    pub threads: usize,
    /// Largest batch size the ramp-up reached.
    pub batch_cap: usize,
    /// Name of the ordering strategy (or `"explicit"` for a caller-supplied
    /// permutation).
    pub order: String,
    /// Per-batch telemetry, in processing order.
    pub batches: Vec<BatchStats>,
    /// Vertices popped across all waves.
    pub wave_pops: u64,
    /// Pops cut by the committed-prefix pruning test.
    pub wave_pruned: u64,
    /// End-to-end wall-clock seconds.
    pub total_seconds: f64,
}

impl BuildStats {
    /// Final label entry count, `Σ_v |S_v|`.
    pub fn label_entries(&self) -> usize {
        self.batches.last().map_or(0, |b| b.entries_after)
    }

    /// Fraction of wave pops cut by the pruning test. High is good — it is
    /// what keeps PLL subquadratic in practice.
    pub fn pruning_hit_rate(&self) -> f64 {
        if self.wave_pops == 0 {
            return 0.0;
        }
        self.wave_pruned as f64 / self.wave_pops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BuildStats {
        BuildStats {
            threads: 2,
            batch_cap: 4,
            order: "degree".into(),
            batches: vec![
                BatchStats {
                    roots: 2,
                    committed_entries: 8,
                    entries_after: 8,
                    seconds: 0.5,
                },
                BatchStats {
                    roots: 4,
                    committed_entries: 4,
                    entries_after: 12,
                    seconds: 0.25,
                },
            ],
            wave_pops: 100,
            wave_pruned: 75,
            total_seconds: 0.8,
        }
    }

    #[test]
    fn derived_rates() {
        let s = sample();
        assert_eq!(s.label_entries(), 12);
        assert!((s.pruning_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = BuildStats {
            threads: 1,
            batch_cap: 1,
            order: "explicit".into(),
            batches: Vec::new(),
            wave_pops: 0,
            wave_pruned: 0,
            total_seconds: 0.0,
        };
        assert_eq!(s.label_entries(), 0);
        assert_eq!(s.pruning_hit_rate(), 0.0);
    }
}
