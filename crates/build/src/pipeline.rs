//! The batch/commit pipeline: parallel PLL that is bit-identical to the
//! sequential algorithm.
//!
//! # Protocol
//!
//! Roots are processed in batches. Within a batch, every root runs a
//! pruned wave — [`hl_core::pll`]'s one-root search, slack 0 — on a
//! worker pool; waves prune **only** against the immutable committed
//! prefix (labels of all earlier batches), so they never observe each
//! other and their results do not depend on scheduling. Because a wave cannot see the labels its own
//! batch is producing, its candidate set is a *superset* of what
//! sequential PLL would assign from that root.
//!
//! The commit step then replays the batch sequentially in canonical root
//! order and removes exactly the surplus: a candidate `(v, d)` from the
//! batch's `j`-th root survives iff no earlier in-batch root `r_i`
//! (`i < j`) already covers it, i.e. iff
//! `min_i d(r_j, r_i) + d(r_i, v) > d`, with both summands read from the
//! *filtered* in-batch entries committed so far.
//!
//! # Why the output is bit-identical to sequential PLL
//!
//! By Akiba–Iwata–Yoshida's pruning lemma, sequential PLL assigns root
//! `r` as a hub of exactly the vertices `v` (reachable from `r`) whose
//! prefix query is strictly worse than the true distance:
//! `query_{L_before_r}(r, v) > d(r, v)`. Any hub `h` contributing to that
//! query lives either in the committed prefix (earlier batch) or in the
//! current batch's delta — there is no third place. The wave applies the
//! committed half of the test (and, pruning strictly less than sequential
//! PLL would, reaches every sequentially-labeled vertex at its exact
//! distance); the commit filter applies the in-batch half against the
//! already-filtered delta, which by induction over roots equals the
//! sequential labels. Every candidate therefore survives iff sequential
//! PLL would have kept it, with the same distance — so the final labels,
//! and the [`FlatLabeling`] arena serialized from them, are byte-equal
//! for every thread count and every batch schedule.

use std::time::Instant;

use hl_core::order::is_permutation;
use hl_core::pll::{LabelAccumulator, SearchScratch};
use hl_core::{FlatLabeling, VertexOrder};
use hl_graph::sync::fan_out;
use hl_graph::{Distance, Graph, NodeId, INFINITY};

use crate::error::BuildError;
use crate::stats::{BatchStats, BuildStats};

/// Knobs for the parallel pipeline. The defaults build sequentially;
/// raise [`BuildConfig::threads`] to parallelize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildConfig {
    /// Worker threads (must be >= 1). `1` degenerates to sequential PLL
    /// with zero wasted work.
    pub threads: usize,
    /// Largest batch size the ramp-up may reach; `0` picks automatically
    /// (1 for a single thread, 4096 otherwise). Batch size trades wave
    /// parallelism against candidates the commit filter throws away — it
    /// never changes the output, which is all this module's tests set it
    /// to prove; no caller has a second value to pass.
    batch_cap: usize,
}

impl BuildConfig {
    /// Sequential defaults.
    pub fn sequential() -> Self {
        BuildConfig {
            threads: 1,
            batch_cap: 0,
        }
    }

    /// Parallel defaults for `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        BuildConfig {
            threads,
            batch_cap: 0,
        }
    }

    fn effective_cap(&self) -> usize {
        if self.batch_cap > 0 {
            self.batch_cap
        } else if self.threads <= 1 {
            1
        } else {
            4096
        }
    }
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig::sequential()
    }
}

/// A finished parallel build: the serving-ready labeling, the order it
/// used, and the build telemetry.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// The labeling, already in the query-time CSR arena.
    pub labeling: FlatLabeling,
    /// The vertex order the labeling was built with.
    pub order: Vec<NodeId>,
    /// Per-batch telemetry.
    pub stats: BuildStats,
}

/// Builds a labeling with a pluggable ordering strategy.
///
/// # Errors
///
/// Propagates the strategy's ordering error and any [`BuildError`] from
/// the pipeline itself.
pub fn build_with_strategy(
    g: &Graph,
    strategy: &dyn VertexOrder,
    config: BuildConfig,
) -> Result<BuildOutput, BuildError> {
    let order = strategy.compute(g)?;
    let mut out = build_with_order(g, order, config)?;
    out.stats.order = strategy.name().to_string();
    Ok(out)
}

/// Builds a labeling processing vertices in the given explicit order.
///
/// # Errors
///
/// Returns [`BuildError::ZeroThreads`] when `config.threads == 0`,
/// [`BuildError::NotAPermutation`] when `order` is not a permutation of
/// the vertex set, [`BuildError::WorkerPanicked`] if a worker dies, and
/// [`BuildError::Arena`] when a label distance exceeds the arena's `u32`
/// lane.
pub fn build_with_order(
    g: &Graph,
    order: Vec<NodeId>,
    config: BuildConfig,
) -> Result<BuildOutput, BuildError> {
    if config.threads == 0 {
        return Err(BuildError::ZeroThreads);
    }
    if !is_permutation(&order, g.num_nodes()) {
        return Err(BuildError::NotAPermutation);
    }
    let n = g.num_nodes();
    let cap = config.effective_cap();
    let started = Instant::now();

    let mut committed = LabelAccumulator::new(n);
    let mut scratches: Vec<SearchScratch> =
        (0..config.threads).map(|_| SearchScratch::new(n)).collect();
    // Commit-phase state, allocated once and reset via touch lists.
    let mut delta: Vec<Vec<(u32, Distance)>> = vec![Vec::new(); n];
    let mut delta_touched: Vec<NodeId> = Vec::new();
    let mut root_to_batch: Vec<Distance> = vec![INFINITY; cap];

    let mut batches = Vec::new();
    let mut batch_size = config.threads.max(2).min(cap);
    let mut next = 0usize;
    while next < order.len() {
        let batch = &order[next..order.len().min(next + batch_size)];
        next += batch.len();
        let batch_started = Instant::now();

        // Wave phase: one pruned wave per root, against the frozen prefix.
        let waves = fan_out(&mut scratches, batch.len(), |scratch, j| {
            scratch.search(g, &committed, batch[j], 0)
        })
        .map_err(|_| BuildError::WorkerPanicked)?;

        // Commit phase: replay in canonical order, filtering candidates
        // against the in-batch entries committed so far.
        let mut committed_entries = 0usize;
        for (j, cand) in waves.iter().enumerate() {
            // root_to_batch[i] = d(r_j, r_i) for earlier in-batch hubs r_i
            // of r_j — read from r_j's own filtered delta.
            for &(i, d) in &delta[batch[j] as usize] {
                root_to_batch[i as usize] = d;
            }
            for &(v, d) in cand {
                let covered = delta[v as usize]
                    .iter()
                    .any(|&(i, dv)| root_to_batch[i as usize].saturating_add(dv) <= d);
                if !covered {
                    if delta[v as usize].is_empty() {
                        delta_touched.push(v);
                    }
                    delta[v as usize].push((j as u32, d));
                    committed_entries += 1;
                }
            }
            for &(i, _) in &delta[batch[j] as usize] {
                root_to_batch[i as usize] = INFINITY;
            }
        }
        for &v in &delta_touched {
            for &(i, d) in &delta[v as usize] {
                committed.push(v, batch[i as usize], d);
            }
            delta[v as usize].clear();
        }
        delta_touched.clear();

        batches.push(BatchStats {
            roots: batch.len(),
            committed_entries,
            entries_after: committed.num_entries(),
            seconds: batch_started.elapsed().as_secs_f64(),
        });
        batch_size = (batch_size * 2).min(cap);
    }

    let (wave_pops, wave_pruned) = scratches
        .iter()
        .map(SearchScratch::counters)
        .fold((0, 0), |(p, q), (a, b)| (p + a, q + b));
    let stats = BuildStats {
        threads: config.threads,
        batch_cap: cap,
        order: "explicit".to_string(),
        batches,
        wave_pops,
        wave_pruned,
        total_seconds: started.elapsed().as_secs_f64(),
    };
    Ok(BuildOutput {
        labeling: committed.freeze()?,
        order,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_core::cover::verify_exact;
    use hl_core::order::DegreeOrder;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    fn sequential_flat(g: &Graph, order: &[NodeId]) -> FlatLabeling {
        PrunedLandmarkLabeling::with_order(g, order.to_vec()).into_labeling()
    }

    #[test]
    fn zero_threads_rejected() {
        let g = generators::path(4);
        let cfg = BuildConfig {
            threads: 0,
            batch_cap: 0,
        };
        assert_eq!(
            build_with_order(&g, vec![0, 1, 2, 3], cfg).unwrap_err(),
            BuildError::ZeroThreads
        );
    }

    #[test]
    fn bad_order_rejected() {
        let g = generators::path(3);
        assert_eq!(
            build_with_order(&g, vec![0, 0, 1], BuildConfig::sequential()).unwrap_err(),
            BuildError::NotAPermutation
        );
    }

    #[test]
    fn distance_past_the_u32_lane_is_a_typed_error() {
        // Where the sequential driver panics, the pipeline reports: a
        // 2^32 edge is a 2^32 label distance, at any thread count.
        let g =
            hl_graph::builder::graph_from_weighted_edges(3, &[(0, 1, 1), (1, 2, 1 << 32)]).unwrap();
        for cfg in [BuildConfig::sequential(), BuildConfig::with_threads(2)] {
            let err = build_with_order(&g, vec![1, 0, 2], cfg).unwrap_err();
            assert_eq!(
                err,
                BuildError::Arena(hl_core::FlatLayoutError::DistanceTooWide {
                    vertex: 2,
                    distance: 1 << 32
                })
            );
            assert!(err.to_string().contains("u32"));
        }
    }

    #[test]
    fn sequential_config_matches_classic_pll() {
        let g = generators::connected_gnm(60, 60, 3);
        let order = hl_core::order::by_degree(&g);
        let out = build_with_order(&g, order.clone(), BuildConfig::sequential()).unwrap();
        assert_eq!(out.labeling, sequential_flat(&g, &order));
        assert_eq!(out.stats.label_entries(), out.labeling.num_entries());
    }

    #[test]
    fn batching_never_changes_output() {
        let g = generators::connected_gnm(80, 90, 5);
        let order = hl_core::order::by_degree(&g);
        let reference = sequential_flat(&g, &order);
        for cap in [1, 2, 3, 7, 16, 80] {
            let cfg = BuildConfig {
                threads: 1,
                batch_cap: cap,
            };
            let out = build_with_order(&g, order.clone(), cfg).unwrap();
            assert_eq!(out.labeling, reference, "batch_cap = {cap}");
        }
    }

    #[test]
    fn parallel_output_is_exact_and_identical() {
        let g = generators::grid(9, 11);
        let order = hl_core::order::by_degree(&g);
        let reference = sequential_flat(&g, &order);
        for threads in [2, 4] {
            let out =
                build_with_order(&g, order.clone(), BuildConfig::with_threads(threads)).unwrap();
            assert_eq!(out.labeling, reference, "threads = {threads}");
            assert!(verify_exact(&g, &out.labeling).unwrap().is_exact());
        }
    }

    #[test]
    fn weighted_graphs_go_through_dijkstra_waves() {
        let g = generators::grid_with_shortcuts(8, 8, 12, 2);
        let order = hl_core::order::by_degree(&g);
        let reference = sequential_flat(&g, &order);
        let out = build_with_order(&g, order, BuildConfig::with_threads(3)).unwrap();
        assert_eq!(out.labeling, reference);
    }

    #[test]
    fn strategy_entry_point_records_order_name() {
        let g = generators::star(20);
        let out = build_with_strategy(&g, &DegreeOrder, BuildConfig::with_threads(2)).unwrap();
        assert_eq!(out.stats.order, "degree");
        assert_eq!(out.order[0], 0, "star center is processed first");
        assert!(out.labeling.max_hubs() <= 2);
    }

    #[test]
    fn stats_account_for_every_committed_entry() {
        let g = generators::connected_gnm(50, 40, 9);
        let order = hl_core::order::by_degree(&g);
        let out = build_with_order(&g, order, BuildConfig::with_threads(2)).unwrap();
        let committed: usize = out.stats.batches.iter().map(|b| b.committed_entries).sum();
        assert_eq!(committed, out.labeling.num_entries());
        let roots: usize = out.stats.batches.iter().map(|b| b.roots).sum();
        assert_eq!(roots, 50);
        assert!(out.stats.wave_pops >= out.labeling.num_entries() as u64);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = hl_graph::builder::graph_from_edges(1, &[]).unwrap();
        let out = build_with_order(&g, vec![0], BuildConfig::with_threads(4)).unwrap();
        assert_eq!(out.labeling.num_entries(), 1); // the self-entry
    }
}
