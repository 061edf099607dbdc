//! Pruned Landmark Labeling (PLL), the canonical practical construction of
//! exact hub labelings (2-hop covers, Cohen–Halperin–Kaplan–Zwick), computed with the pruning
//! strategy of Akiba–Iwata–Yoshida.
//!
//! Vertices are processed in a given importance order; a pruned BFS/Dijkstra
//! from the `k`-th vertex adds it as a hub only to vertices whose distance
//! is not already covered by earlier hubs. The result is exact *by
//! construction* for any processing order; the order only affects size.
//!
//! One driver builds every PLL labeling: [`build_with_order`] (and
//! [`build_with_strategy`]) runs the one-root search, written here once as
//! one BFS loop and one Dijkstra loop, in batches on
//! [`BuildConfig::threads`] workers. [`PrunedLandmarkLabeling::with_order`]
//! and [`crate::approx::approx_pll`] run it at one thread, where each batch
//! is one root and the commit filter keeps everything; only `approx_pll`
//! prunes with a slack above 0. The output is **bit-identical to
//! sequential PLL** for the same order, at any thread count.
//!
//! # Rank space
//!
//! The search never sees a vertex id. Each build relabels the graph once
//! so that a vertex's id is its processing rank, labels grow as one
//! interleaved `(hub rank, distance)` vec per vertex rank, and only the
//! final freeze maps ranks back to ids. Two things follow:
//!
//! * The pruning test is a branch-free scan. The root's label is expanded
//!   into an array indexed by rank, holding `u32::MAX` where the root has
//!   no such hub; an entry's test sums that slot and its own distance in
//!   `u64`, so a missing hub sums past every bound below `u32::MAX` with
//!   no branch of its own, and eight sums are folded with `min` before
//!   each comparison. (A bound of `u32::MAX` or more, which only a graph
//!   with distances at the top of the arena's lane reaches, takes an exact
//!   binary-search join instead.)
//! * A popped vertex ranked before the first uncommitted rank is covered
//!   without a scan. Once roots `v_1..v_k` are processed, their labels
//!   answer `d(s, t)` exactly for every pair with a shortest path through
//!   one of them (Akiba, Iwata and Yoshida, SIGMOD 2013, the lemma behind
//!   PLL's correctness proof); a path from the root to an earlier-ranked
//!   `u` passes `u`, so `u` is covered at its popped distance. That holds
//!   at slack 0 only: [`crate::approx`]'s labels are not exact, so it
//!   keeps scanning. The shortcut counts as a pop and a prune, as the scan
//!   it replaces would.
//!
//! # Batches
//!
//! Roots are processed in batches, each a rank range with every rank
//! below it committed; sizes ramp up from the thread count to a cap. Within
//! a batch every root runs a pruned wave on a worker, against the
//! immutable committed prefix only, so waves never observe each other and
//! their results do not depend on scheduling. A wave cannot see the labels
//! its own batch is producing, so its candidates are a *superset* of what
//! sequential PLL assigns from that root. The commit step replays the
//! batch in root order and removes exactly the surplus: a candidate
//! `(v, d)` of the batch's `j`-th root survives iff no earlier in-batch
//! root `r_i` covers it, i.e. iff `min_i d(r_j, r_i) + d(r_i, v) > d`,
//! both summands read from the *filtered* in-batch entries so far.
//!
//! That is sequential PLL's output: by the pruning lemma, sequential PLL
//! makes root `r` a hub of exactly the vertices `v` (reachable from `r`)
//! whose prefix query is strictly worse than `d(r, v)`. A hub serving that
//! query lives in the committed prefix or in the batch's delta, nowhere
//! else. The wave applies the committed half of the test (and, pruning
//! strictly less than sequential PLL, reaches every sequentially labeled
//! vertex at its exact distance); the commit filter applies the in-batch
//! half against the filtered delta, which by induction over roots equals
//! the sequential labels. So the labels, and the [`FlatLabeling`] arena
//! frozen from them, are byte-equal for every thread count and batch
//! schedule. At slack above 0 pruning is inexact and this argument fails,
//! so a slack build runs one-root batches only.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hl_graph::sync::fan_out;
use hl_graph::{Distance, Graph, NodeId, Weight, INFINITY};

use crate::flat::{FlatLabeling, FlatLayoutError};
use crate::order;
use crate::order::{OrderError, VertexOrder};

/// One label entry in rank space: `(hub rank, distance)`, the distance
/// already narrowed to the arena's `u32` lane.
type Entry = (NodeId, u32);

/// What the root-side array holds for a hub the root lacks. Summed in
/// `u64` with any entry's distance it is at least `u32::MAX`, so it
/// passes no bound below that.
const NO_HUB: u32 = u32::MAX;

/// A finished PLL labeling, remembering the order it was built with.
#[derive(Debug, Clone)]
pub struct PrunedLandmarkLabeling {
    labeling: FlatLabeling,
    order: Vec<NodeId>,
}

impl PrunedLandmarkLabeling {
    /// Builds the labeling with the classic decreasing-degree order.
    /// Panics as [`PrunedLandmarkLabeling::with_order`] does.
    pub fn by_degree(g: &Graph) -> Self {
        Self::with_order(g, order::by_degree(g))
    }

    /// Builds the labeling with a seeded random order (useful as a
    /// worst-case-ish contrast to importance orders).
    /// Panics as [`PrunedLandmarkLabeling::with_order`] does.
    pub fn by_random_order(g: &Graph, seed: u64) -> Self {
        Self::with_order(g, order::random(g, seed))
    }

    /// Builds the labeling with sampled-betweenness order.
    /// Panics as [`PrunedLandmarkLabeling::with_order`] does.
    ///
    /// # Errors
    ///
    /// Returns [`OrderError`] when the order heuristic cannot produce a
    /// meaningful order (`samples == 0`, disconnected graph) — the old
    /// behaviour silently fell back to a signal-free permutation.
    pub fn by_betweenness(g: &Graph, samples: usize, seed: u64) -> Result<Self, OrderError> {
        Ok(Self::with_order(
            g,
            order::by_sampled_betweenness(g, samples, seed)?,
        ))
    }

    /// Builds the labeling processing vertices in the given order, on one
    /// thread.
    ///
    /// Uses pruned BFS on unit-weight graphs and pruned Dijkstra otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the vertex set, or if a
    /// label distance exceeds `u32::MAX`, the arena's distance lane
    /// ([`build_with_order`] reports both as typed errors instead).
    pub fn with_order(g: &Graph, order: Vec<NodeId>) -> Self {
        let labeling = one_thread(g, &order, 0);
        PrunedLandmarkLabeling { labeling, order }
    }

    /// The vertex order the labeling was built with.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Borrow the underlying labeling.
    pub fn labeling(&self) -> &FlatLabeling {
        &self.labeling
    }

    /// Extracts the underlying labeling.
    pub fn into_labeling(self) -> FlatLabeling {
        self.labeling
    }
}

/// Knobs for the driver. The defaults build on one thread; raise
/// [`BuildConfig::threads`] to parallelize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildConfig {
    /// Worker threads (must be >= 1). At `1` each batch is one root and
    /// the commit filter keeps everything, with zero wasted work.
    pub threads: usize,
    /// Largest batch size the ramp-up may reach; `0` picks automatically
    /// (1 for a single thread, 4096 otherwise). Batch size trades wave
    /// parallelism against candidates the commit filter throws away — it
    /// never changes the output, which is all this module's tests set it
    /// to prove; no caller has a second value to pass.
    batch_cap: usize,
}

impl BuildConfig {
    /// One-thread defaults.
    pub fn sequential() -> Self {
        Self::with_threads(1)
    }

    /// Defaults for `threads` workers.
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

/// A finished build: the serving-ready labeling, the order it used, and
/// what the build counted.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// The labeling, already in the query-time CSR arena.
    pub labeling: FlatLabeling,
    /// The vertex order the labeling was built with.
    pub order: Vec<NodeId>,
    /// What the build counted.
    pub stats: BuildStats,
}

/// What a build counted: its width, its order, and the pruning test's work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildStats {
    /// Worker threads used.
    pub threads: usize,
    /// Name of the ordering strategy (or `"explicit"` for a caller-supplied
    /// permutation).
    pub order: String,
    /// Vertices popped across all waves.
    pub wave_pops: u64,
    /// Pops cut by the committed-prefix pruning test.
    pub wave_pruned: u64,
}

impl BuildStats {
    /// Fraction of wave pops cut by the pruning test. High is good — it is
    /// what keeps PLL subquadratic in practice.
    pub fn pruning_hit_rate(&self) -> f64 {
        if self.wave_pops == 0 {
            return 0.0;
        }
        self.wave_pruned as f64 / self.wave_pops as f64
    }
}

/// Everything that can go wrong while building a labeling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The requested ordering strategy could not produce an order.
    Order(OrderError),
    /// `threads == 0` — the driver needs at least one worker.
    ZeroThreads,
    /// The supplied order is not a permutation of the vertex set.
    NotAPermutation,
    /// A worker thread panicked; the build result would be incomplete.
    WorkerPanicked,
    /// The labels do not fit the arena: a label distance exceeds the
    /// `u32` distance lane ([`FlatLayoutError::DistanceTooWide`]).
    Arena(FlatLayoutError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Order(e) => write!(f, "ordering failed: {e}"),
            BuildError::ZeroThreads => write!(f, "parallel build needs at least one thread"),
            BuildError::NotAPermutation => {
                write!(f, "vertex order must be a permutation of 0..n")
            }
            BuildError::WorkerPanicked => write!(f, "a build worker panicked"),
            BuildError::Arena(e) => write!(f, "labels do not fit the arena: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Order(e) => Some(e),
            BuildError::Arena(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OrderError> for BuildError {
    fn from(e: OrderError) -> Self {
        BuildError::Order(e)
    }
}

impl From<FlatLayoutError> for BuildError {
    fn from(e: FlatLayoutError) -> Self {
        BuildError::Arena(e)
    }
}

/// Builds a labeling with a pluggable ordering strategy.
///
/// # Errors
///
/// Propagates the strategy's ordering error and any [`BuildError`] from
/// [`build_with_order`].
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
    let (labeling, stats) = build(g, &order, config, 0)?;
    Ok(BuildOutput {
        labeling,
        order,
        stats,
    })
}

/// The one-thread build behind [`PrunedLandmarkLabeling::with_order`]
/// (`slack = 0`) and [`crate::approx::approx_pll`], with their panics.
pub(crate) fn one_thread(g: &Graph, order: &[NodeId], slack: Distance) -> FlatLabeling {
    let built = build(g, order, BuildConfig::sequential(), slack);
    assert!(
        !matches!(built, Err(BuildError::NotAPermutation)),
        "PLL order must be a permutation of the vertex set"
    );
    assert!(
        built.is_ok(),
        "PLL label distances must fit the arena's u32 lane: {built:?}"
    );
    built.map(|(labeling, _)| labeling).unwrap_or_default()
}

/// The driver (module doc): batches of roots, each searched against the
/// committed prefix by one wave per root on the workers, then committed
/// in root order through the in-batch filter. A wave drops a vertex that
/// hubs certify within `slack` of its popped distance; `slack` above 0
/// asks for one-root batches, which only a one-thread config builds.
fn build(
    g: &Graph,
    order: &[NodeId],
    config: BuildConfig,
    slack: Distance,
) -> Result<(FlatLabeling, BuildStats), BuildError> {
    if config.threads == 0 {
        return Err(BuildError::ZeroThreads);
    }
    if !order::is_permutation(order, g.num_nodes()) {
        return Err(BuildError::NotAPermutation);
    }
    let n = g.num_nodes();
    let cap = config.effective_cap();
    debug_assert!(
        slack == 0 || cap == 1,
        "a slack build runs one-root batches"
    );

    let ranked = RankedGraph::new(g, order);
    let mut committed = LabelAccumulator::ranked(order);
    let mut scratches: Vec<SearchScratch> =
        (0..config.threads).map(|_| SearchScratch::new(n)).collect();
    // Commit-phase state, allocated once and reset via touch lists.
    let mut delta: Vec<Vec<(u32, Distance)>> = vec![Vec::new(); n];
    let mut delta_touched: Vec<NodeId> = Vec::new();
    let mut root_to_batch: Vec<Distance> = vec![INFINITY; cap];

    let mut batch_size = config.threads.max(2).min(cap);
    let mut next = 0usize;
    while next < n {
        // A batch is a rank range; every rank below it is committed.
        let batch = next..n.min(next + batch_size);
        next = batch.end;
        let first = batch.start as NodeId;

        // Wave phase: one pruned wave per root, against the frozen prefix.
        let waves = fan_out(&mut scratches, batch.len(), |scratch, j| {
            scratch.search(&ranked, &committed, first + j as NodeId, first, slack)
        })
        .map_err(|_| BuildError::WorkerPanicked)?;

        // Commit phase: replay in canonical order, filtering candidates
        // against the in-batch entries committed so far.
        for (j, cand) in waves.iter().enumerate() {
            // root_to_batch[i] = d(r_j, r_i) for earlier in-batch hubs r_i
            // of r_j — read from r_j's own filtered delta.
            let root = batch.start + j;
            for &(i, d) in &delta[root] {
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
                }
            }
            for &(i, _) in &delta[root] {
                root_to_batch[i as usize] = INFINITY;
            }
        }
        for &v in &delta_touched {
            for &(i, d) in &delta[v as usize] {
                committed.push(v, first + i, d);
            }
            delta[v as usize].clear();
        }
        delta_touched.clear();
        batch_size = (batch_size * 2).min(cap);
    }

    let (wave_pops, wave_pruned) = scratches
        .iter()
        .map(SearchScratch::counters)
        .fold((0, 0), |(p, q), (a, b)| (p + a, q + b));
    let stats = BuildStats {
        threads: config.threads,
        order: "explicit".to_string(),
        wave_pops,
        wave_pruned,
    };
    Ok((committed.freeze()?, stats))
}

/// The graph relabeled so that a vertex's id is its processing rank: a
/// CSR over ranks that keeps the weights, built once per build.
#[derive(Debug, Clone)]
struct RankedGraph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    weights: Vec<Weight>,
    unit_weighted: bool,
}

impl RankedGraph {
    /// `g` with vertex `order[r]` renamed `r`. `order` must be a
    /// permutation of `g`'s vertex set (the driver checks it first).
    fn new(g: &Graph, order: &[NodeId]) -> Self {
        let rank = ranks(order);
        let mut offsets = Vec::with_capacity(order.len() + 1);
        let mut targets = Vec::with_capacity(2 * g.num_edges());
        let mut weights = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0);
        for &v in order {
            for (w, weight) in g.neighbors(v) {
                targets.push(rank[w as usize]);
                weights.push(weight);
            }
            offsets.push(targets.len());
        }
        RankedGraph {
            offsets,
            targets,
            weights,
            unit_weighted: g.is_unit_weighted(),
        }
    }

    fn span(&self, r: NodeId) -> std::ops::Range<usize> {
        self.offsets[r as usize]..self.offsets[r as usize + 1]
    }
}

/// `rank[v]` for each vertex `v` of the permutation `order`.
fn ranks(order: &[NodeId]) -> Vec<NodeId> {
    let mut rank = vec![0; order.len()];
    for (r, &v) in (0..).zip(order) {
        rank[v as usize] = r;
    }
    rank
}

/// The labels assigned so far, in rank space: one `(hub rank, distance)`
/// vec per vertex rank, appended in root order, so hub ranks increase
/// along each label. Nothing reads a label by vertex id while it grows,
/// so the mapping back to ids and the sort by hub id happen once, in
/// [`LabelAccumulator::freeze`].
#[derive(Debug)]
struct LabelAccumulator {
    labels: Vec<Vec<Entry>>,
    /// `ids[r]`: the vertex ranked `r`.
    ids: Vec<NodeId>,
    entries: usize,
    /// The first pushed distance past the `u32` lane, with the rank of
    /// the vertex it was pushed to.
    too_wide: Option<(NodeId, Distance)>,
}

impl LabelAccumulator {
    /// No labels yet, over the vertices of the permutation `order`,
    /// vertex `order[r]` ranked `r`.
    fn ranked(order: &[NodeId]) -> Self {
        LabelAccumulator {
            labels: vec![Vec::new(); order.len()],
            ids: order.to_vec(),
            entries: 0,
            too_wide: None,
        }
    }

    /// Appends `(hub, dist)` to the label of the vertex ranked `v`, `hub`
    /// a rank above every hub the label holds. `dist` is narrowed to the
    /// arena's `u32` lane here; a wider one is kept as `u32::MAX`, and the
    /// first such push is what [`LabelAccumulator::freeze`] reports.
    fn push(&mut self, v: NodeId, hub: NodeId, dist: Distance) {
        let label = &mut self.labels[v as usize];
        debug_assert!(label.last().is_none_or(|&(last, _)| last < hub));
        let lane = u32::try_from(dist).unwrap_or_else(|_| {
            self.too_wide.get_or_insert((v, dist));
            u32::MAX
        });
        label.push((hub, lane));
        self.entries += 1;
    }

    fn label(&self, v: NodeId) -> &[Entry] {
        &self.labels[v as usize]
    }

    /// Maps ranks back to vertex ids and sorts each label by hub id into
    /// the query-time arena, one vertex at a time so each label is
    /// released as the arena fills.
    ///
    /// # Errors
    ///
    /// [`FlatLayoutError::DistanceTooWide`] when a pushed distance exceeds
    /// the arena's `u32` lane. It names the first such push, so the first
    /// in root order; the arena's own check
    /// ([`FlatLabeling::from_pair_lists`]) names the lowest vertex id
    /// holding one, which on a graph with several can be another vertex.
    fn freeze(mut self) -> Result<FlatLabeling, FlatLayoutError> {
        if let Some((v, distance)) = self.too_wide {
            return Err(FlatLayoutError::DistanceTooWide {
                vertex: self.ids[v as usize] as usize,
                distance,
            });
        }
        let mut flat = FlatLabeling::with_capacity(self.ids.len(), self.entries);
        for r in ranks(&self.ids) {
            let mut label = std::mem::take(&mut self.labels[r as usize]);
            for entry in &mut label {
                entry.0 = self.ids[entry.0 as usize];
            }
            label.sort_unstable();
            let (hubs, dists): (Vec<NodeId>, Vec<u32>) = label.into_iter().unzip();
            flat.push_label(&hubs, &dists);
        }
        Ok(flat)
    }
}

/// Per-worker buffers of the pruned search: every `O(n)` allocation a
/// root needs, paid once per worker instead of once per root.
#[derive(Debug)]
struct SearchScratch {
    /// Tentative distance from the current root, by rank.
    dist: Vec<Distance>,
    /// Ranks whose `dist` entry must be reset after the search.
    visited: Vec<NodeId>,
    /// `root_dist[h]` = `d(root, h)` for the hubs `h` the root already
    /// has, [`NO_HUB`] elsewhere: the root side of the pruning test's
    /// min-plus join, expanded into an array once per root.
    root_dist: Vec<u32>,
    heap: BinaryHeap<Reverse<(Distance, NodeId)>>,
    pops: u64,
    pruned: u64,
}

impl SearchScratch {
    /// Buffers for a graph with `n` vertices.
    fn new(n: usize) -> Self {
        SearchScratch {
            dist: vec![INFINITY; n],
            visited: Vec::new(),
            root_dist: vec![NO_HUB; n],
            heap: BinaryHeap::new(),
            pops: 0,
            pruned: 0,
        }
    }

    /// `(pops, pruned)`: vertices popped, and pops cut by the pruning
    /// test, over every search run with this scratch.
    fn counters(&self) -> (u64, u64) {
        (self.pops, self.pruned)
    }

    /// One pruned search from the vertex ranked `root` — BFS on
    /// unit-weight graphs, Dijkstra otherwise — against `labels`, which it
    /// only reads and which hold every root ranked below `committed`.
    /// Returns `(v, d(root, v))` for every rank `v` that needs `root` as a
    /// hub, in pop order: a popped `u` at distance `du` is dropped, and not
    /// expanded, when hubs in `labels` already certify
    /// `d(root, u) <= du + slack` (`slack = 0` is exact PLL). At slack 0 a
    /// `u` ranked below `committed` is dropped without a look at its label
    /// (module doc).
    fn search(
        &mut self,
        g: &RankedGraph,
        labels: &LabelAccumulator,
        root: NodeId,
        committed: NodeId,
        slack: Distance,
    ) -> Vec<(NodeId, Distance)> {
        let root_label = labels.label(root);
        for &(h, d) in root_label {
            self.root_dist[h as usize] = d;
        }
        let prefix = if slack == 0 { committed } else { 0 };
        let mut kept = Vec::new();
        self.dist[root as usize] = 0;
        self.visited.push(root);
        if g.unit_weighted {
            // `visited` is in discovery order, so it is the BFS queue.
            let mut head = 0;
            while let Some(&u) = self.visited.get(head) {
                head += 1;
                let du = self.dist[u as usize];
                if self.covered(root_label, labels, u, prefix, du.saturating_add(slack)) {
                    continue;
                }
                kept.push((u, du));
                for &v in &g.targets[g.span(u)] {
                    if self.dist[v as usize] == INFINITY {
                        self.dist[v as usize] = du + 1;
                        self.visited.push(v);
                    }
                }
            }
        } else {
            self.heap.push(Reverse((0, root)));
            while let Some(Reverse((du, u))) = self.heap.pop() {
                if du > self.dist[u as usize] {
                    continue;
                }
                if self.covered(root_label, labels, u, prefix, du.saturating_add(slack)) {
                    continue;
                }
                kept.push((u, du));
                let span = g.span(u);
                for (&v, &w) in g.targets[span.clone()].iter().zip(&g.weights[span]) {
                    let nd = du.saturating_add(w);
                    if nd < self.dist[v as usize] {
                        if self.dist[v as usize] == INFINITY {
                            self.visited.push(v);
                        }
                        self.dist[v as usize] = nd;
                        self.heap.push(Reverse((nd, v)));
                    }
                }
            }
        }
        for v in self.visited.drain(..) {
            self.dist[v as usize] = INFINITY;
        }
        for &(h, _) in root_label {
            self.root_dist[h as usize] = NO_HUB;
        }
        kept
    }

    /// The pruning test: is `u` ranked below `prefix`, or does some hub
    /// shared by the (pre-loaded) root and `u` certify
    /// `d(root, u) <= bound`?
    fn covered(
        &mut self,
        root_label: &[Entry],
        labels: &LabelAccumulator,
        u: NodeId,
        prefix: NodeId,
        bound: Distance,
    ) -> bool {
        let hit = u < prefix
            || if bound < u64::from(NO_HUB) {
                covers(&self.root_dist, labels.label(u), bound)
            } else {
                covers_wide(root_label, labels.label(u), bound)
            };
        self.pops += 1;
        self.pruned += u64::from(hit);
        hit
    }
}

/// `min` over `label` of `root_dist[h] + d`, against `bound`: eight sums
/// folded with `min` before each comparison, so a [`NO_HUB`] slot costs
/// no branch. Exact for `bound < u32::MAX`.
fn covers(root_dist: &[u32], label: &[Entry], bound: Distance) -> bool {
    let sum = |&(h, d): &Entry| u64::from(root_dist[h as usize]) + u64::from(d);
    let mut chunks = label.chunks_exact(8);
    chunks
        .by_ref()
        .any(|chunk| chunk.iter().map(sum).fold(INFINITY, u64::min) <= bound)
        || chunks.remainder().iter().map(sum).fold(INFINITY, u64::min) <= bound
}

/// [`covers`] for a bound a [`NO_HUB`] sum could pass: each of `u`'s hubs
/// is looked up in the root's label, which holds hub ranks increasing.
fn covers_wide(root_label: &[Entry], label: &[Entry], bound: Distance) -> bool {
    label.iter().any(|&(h, d)| {
        root_label
            .binary_search_by_key(&h, |&(hub, _)| hub)
            .is_ok_and(|i| u64::from(root_label[i].1) + u64::from(d) <= bound)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::verify_exact;
    use crate::hierarchical::canonical_hhl;
    use crate::order::DegreeOrder;
    use hl_graph::generators;

    /// `g` in rank space with every vertex ranked by its own id.
    fn by_id(g: &Graph) -> RankedGraph {
        let ids: Vec<NodeId> = (0..).take(g.num_nodes()).collect();
        RankedGraph::new(g, &ids)
    }

    /// No labels yet, over `n` vertices each ranked by its own id.
    fn unranked(n: usize) -> LabelAccumulator {
        let ids: Vec<NodeId> = (0..).take(n).collect();
        LabelAccumulator::ranked(&ids)
    }

    fn sequential_flat(g: &Graph, order: &[NodeId]) -> FlatLabeling {
        PrunedLandmarkLabeling::with_order(g, order.to_vec()).into_labeling()
    }

    #[test]
    fn first_search_reaches_everything() {
        let g = by_id(&generators::path(5));
        let kept = SearchScratch::new(5).search(&g, &unranked(5), 0, 0, 0);
        assert_eq!(kept, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn earlier_labels_prune_later_searches() {
        // Path 0-1-2-3-4 with vertex 2 a hub of everyone: a search from 0
        // stops at 2 (it and every farther vertex are covered); slack 1
        // changes nothing, slack 2 stops it at 1 (2 + 1 <= 1 + 2).
        let g = by_id(&generators::path(5));
        let mut labels = unranked(5);
        for v in 0..5u32 {
            labels.push(v, 2, (i64::from(v) - 2).unsigned_abs());
        }
        let mut scratch = SearchScratch::new(5);
        assert_eq!(scratch.search(&g, &labels, 0, 0, 0), vec![(0, 0), (1, 1)]);
        assert_eq!(scratch.counters(), (3, 1));
        assert_eq!(scratch.search(&g, &labels, 0, 0, 1), vec![(0, 0), (1, 1)]);
        assert_eq!(scratch.search(&g, &labels, 0, 0, 2), vec![(0, 0)]);
    }

    #[test]
    fn a_committed_rank_is_pruned_unscanned_at_slack_0_only() {
        // Path ranked 1-0-2: root 1 meets rank 0, whose label is empty, so
        // only the prefix rule can cover it — at slack 0, counted as a
        // prune. At slack 1 the empty label is scanned and covers nothing.
        let g = by_id(&generators::path(3));
        let labels = unranked(3);
        let mut scratch = SearchScratch::new(3);
        assert_eq!(scratch.search(&g, &labels, 1, 1, 0), vec![(1, 0), (2, 1)]);
        assert_eq!(scratch.counters(), (3, 1));
        assert_eq!(
            scratch.search(&g, &labels, 1, 1, 1),
            vec![(1, 0), (0, 1), (2, 1)]
        );
    }

    #[test]
    fn a_hub_the_root_lacks_covers_nothing_at_the_top_of_the_lane() {
        // Rank 1 is u32::MAX from the root and holds hub 2 at distance 0,
        // which the root lacks: its NO_HUB slot sums to exactly the bound.
        let top = u64::from(u32::MAX);
        let g = by_id(&hl_graph::builder::graph_from_weighted_edges(3, &[(0, 1, top)]).unwrap());
        let mut labels = unranked(3);
        labels.push(1, 2, 0);
        let kept = SearchScratch::new(3).search(&g, &labels, 0, 0, 0);
        assert_eq!(kept, vec![(0, 0), (1, top)]);
        // A hub the root has still covers there.
        labels.push(0, 2, 1);
        let mut scratch = SearchScratch::new(3);
        assert_eq!(scratch.search(&g, &labels, 0, 0, 0), vec![(0, 0)]);
        assert_eq!(scratch.counters(), (2, 1));
    }

    #[test]
    fn scratch_resets_between_searches() {
        let g = by_id(&generators::cycle(6));
        let labels = unranked(6);
        let mut scratch = SearchScratch::new(6);
        let a = scratch.search(&g, &labels, 3, 0, 0);
        let b = scratch.search(&g, &labels, 3, 0, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_search_uses_dijkstra() {
        let g =
            hl_graph::builder::graph_from_weighted_edges(3, &[(0, 1, 5), (1, 2, 5), (0, 2, 20)])
                .unwrap();
        let kept = SearchScratch::new(3).search(&by_id(&g), &unranked(3), 0, 0, 0);
        assert_eq!(kept, vec![(0, 0), (1, 5), (2, 10)]);
    }

    #[test]
    fn the_search_runs_on_ranks() {
        // Path 0-1-2 ranked 2, 0, 1: the root (rank 0) is vertex 2, and
        // vertex 1 (rank 2) is its neighbor.
        let g = RankedGraph::new(&generators::path(3), &[2, 0, 1]);
        let kept = SearchScratch::new(3).search(&g, &unranked(3), 0, 0, 0);
        assert_eq!(kept, vec![(0, 0), (2, 1), (1, 2)]);
    }

    #[test]
    fn freeze_maps_ranks_to_ids_and_sorts_each_label_by_hub_id() {
        // Vertex order[r] is ranked r; entries are pushed as ranks in
        // root order and come out as ids, each label sorted by hub id.
        let order = [4, 1, 3, 0, 2];
        let pushed = [
            (0, 0, 0),
            (3, 0, 2),
            (1, 1, 0),
            (3, 1, 7),
            (3, 2, 4),
            (3, 3, 0),
        ];
        let mut labels = LabelAccumulator::ranked(&order);
        let mut lists = vec![Vec::new(); 5];
        for (v, hub, dist) in pushed {
            labels.push(v, hub, dist);
            lists[order[v as usize] as usize].push((order[hub as usize], dist));
        }
        assert_eq!(labels.entries, 6);
        let flat = labels.freeze().unwrap();
        assert_eq!(flat.hubs_of(0), &[0, 1, 3, 4]);
        assert_eq!(flat.dists_of(0), &[0, 7, 4, 2]);
        assert!(flat.hubs_of(2).is_empty());
        assert_eq!(Ok(flat), FlatLabeling::from_pair_lists(lists));
    }

    #[test]
    fn freeze_rejects_a_distance_past_the_u32_lane() {
        let mut labels = unranked(2);
        labels.push(0, 0, 0);
        labels.push(1, 0, 1 << 32);
        assert_eq!(
            labels.freeze(),
            Err(FlatLayoutError::DistanceTooWide {
                vertex: 1,
                distance: 1 << 32
            })
        );
    }

    #[test]
    #[should_panic(expected = "u32 lane")]
    fn sequential_driver_panics_on_a_distance_past_the_u32_lane() {
        // The `# Panics` precondition of `with_order`: the edge alone is
        // a label distance of 2^32.
        let g = hl_graph::builder::graph_from_weighted_edges(2, &[(0, 1, 1 << 32)]).unwrap();
        let _ = PrunedLandmarkLabeling::with_order(&g, vec![0, 1]);
    }

    #[test]
    fn exact_on_path() {
        let g = generators::path(10);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_grid_all_orders() {
        let g = generators::grid(5, 6);
        for hl in [
            PrunedLandmarkLabeling::by_degree(&g),
            PrunedLandmarkLabeling::by_random_order(&g, 1),
            PrunedLandmarkLabeling::by_betweenness(&g, 10, 2).unwrap(),
            PrunedLandmarkLabeling::with_order(&g, order::by_closeness(&g).unwrap()),
            PrunedLandmarkLabeling::with_order(&g, order::by_bfs_level(&g)),
        ] {
            assert!(verify_exact(&g, hl.labeling()).unwrap().is_exact());
        }
    }

    #[test]
    fn exact_on_weighted_grid() {
        let g = generators::weighted_grid(6, 6, 13);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn exact_on_disconnected_graph() {
        let g = hl_graph::builder::graph_from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let report = verify_exact(&g, &hl).unwrap();
        assert!(
            report.is_exact(),
            "infinity must round-trip for separated pairs"
        );
    }

    #[test]
    fn star_labels_are_tiny() {
        // On a star, processing the center first gives every leaf a
        // two-hub label {center, self}.
        let g = generators::star(50);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert!(hl.max_hubs() <= 2);
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn tree_labels_logarithmic_scale() {
        let g = generators::balanced_binary_tree(7); // 255 vertices
        let hl = PrunedLandmarkLabeling::by_betweenness(&g, 32, 3)
            .unwrap()
            .into_labeling();
        // Heuristic orders on a balanced tree should stay well below n/2.
        assert!(hl.average_hubs() < 24.0, "avg = {}", hl.average_hubs());
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
    }

    #[test]
    fn first_vertex_in_order_hits_everything() {
        let g = generators::cycle(9);
        let pll = PrunedLandmarkLabeling::by_degree(&g);
        let first = pll.order()[0];
        let hl = pll.labeling();
        for v in 0..9u32 {
            assert!(
                hl.hubs_of(v).contains(&first),
                "first-order vertex is a universal hub"
            );
        }
    }

    #[test]
    fn zero_weight_edges_handled() {
        let g = hl_graph::builder::graph_from_weighted_edges(4, &[(0, 1, 0), (1, 2, 3), (2, 3, 0)])
            .unwrap();
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        assert!(verify_exact(&g, &hl).unwrap().is_exact());
        assert_eq!(hl.query(0, 3), 3);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rejects_bad_order() {
        let g = generators::path(3);
        let _ = PrunedLandmarkLabeling::with_order(&g, vec![0, 0, 1]);
    }

    #[test]
    fn random_order_deterministic() {
        let g = generators::connected_gnm(30, 15, 4);
        let a = PrunedLandmarkLabeling::by_random_order(&g, 9).into_labeling();
        let b = PrunedLandmarkLabeling::by_random_order(&g, 9).into_labeling();
        assert_eq!(a, b);
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
        // Where `with_order` panics, `build_with_order` reports: a 2^32
        // edge is a 2^32 label distance, at any thread count.
        let g =
            hl_graph::builder::graph_from_weighted_edges(3, &[(0, 1, 1), (1, 2, 1 << 32)]).unwrap();
        for cfg in [BuildConfig::sequential(), BuildConfig::with_threads(2)] {
            let err = build_with_order(&g, vec![1, 0, 2], cfg).unwrap_err();
            assert_eq!(
                err,
                BuildError::Arena(FlatLayoutError::DistanceTooWide {
                    vertex: 2,
                    distance: 1 << 32
                })
            );
            assert!(err.to_string().contains("u32"));
        }
    }

    #[test]
    fn sequential_config_matches_classic_pll() {
        // `with_order` is this driver at one thread, so the reference is
        // `canonical_hhl`, which shares no code with it.
        let g = generators::connected_gnm(60, 60, 3);
        let order = order::by_degree(&g);
        let out = build_with_order(&g, order.clone(), BuildConfig::sequential()).unwrap();
        assert_eq!(out.labeling, canonical_hhl(&g, &order).unwrap());
        assert_eq!(out.labeling, sequential_flat(&g, &order));
    }

    #[test]
    fn batching_never_changes_output() {
        let g = generators::connected_gnm(80, 90, 5);
        let order = order::by_degree(&g);
        let reference = canonical_hhl(&g, &order).unwrap();
        assert_eq!(sequential_flat(&g, &order), reference);
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
        let order = order::by_degree(&g);
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
        let order = order::by_degree(&g);
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
    fn accounting_is_pinned() {
        // (wave_pops, wave_pruned, label entries) as a search that scans
        // every pop counts them: a vertex the committed prefix covers
        // outright is still one pop and one prune, at every thread count.
        let rows = [
            (
                generators::connected_gnm(300, 450, 7),
                [(17505, 9522, 7983), (23507, 12423, 7983)],
            ),
            (
                generators::grid_with_shortcuts(10, 12, 20, 3),
                [(3371, 1403, 1968), (4571, 1830, 1968)],
            ),
        ];
        for (g, pinned) in rows {
            for (threads, expected) in [1, 2].into_iter().zip(pinned) {
                let order = order::by_degree(&g);
                let out = build_with_order(&g, order, BuildConfig::with_threads(threads)).unwrap();
                let stats = out.stats;
                let got = (
                    stats.wave_pops,
                    stats.wave_pruned,
                    out.labeling.num_entries(),
                );
                assert_eq!(got, expected, "{threads} threads");
            }
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = hl_graph::builder::graph_from_edges(1, &[]).unwrap();
        let out = build_with_order(&g, vec![0], BuildConfig::with_threads(4)).unwrap();
        assert_eq!(out.labeling.num_entries(), 1); // the self-entry
    }

    #[test]
    fn pruning_hit_rate_is_pruned_over_popped() {
        let stats = |wave_pops, wave_pruned| BuildStats {
            threads: 1,
            order: "explicit".into(),
            wave_pops,
            wave_pruned,
        };
        assert!((stats(100, 75).pruning_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(stats(0, 0).pruning_hit_rate(), 0.0, "no division by zero");
    }
}
