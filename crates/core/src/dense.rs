//! `DenseLabeling` — a ranked arena with its common hubset as a table.
//!
//! The paper's upper bound (Theorem 4.1) gives every vertex one shared
//! hubset `S` plus a few hubs of its own, and so does the random-threshold
//! scheme of [`crate::random_threshold`]. On a frequency-ranked arena
//! ([`crate::freq`]) PLL's labels look the same: the first ranks are in
//! most labels. Those hubs are stored here as an `n × K` table of `u8`
//! cells, row `v` holding `d(v, h)` in column `h` for every hub `h < K`
//! (255 where `h` is not in `v`'s label), and every entry ranked
//! `K` or higher stays in a remainder [`FlatLabeling`]:
//!
//! ```text
//! rows: [d(0,0) .. d(0,K-1) | d(1,0) .. d(1,K-1) | ...]   (n · K u8 cells)
//! rest: the arena's entries with hub >= K, hub ids unchanged
//! ```
//!
//! A query is the smaller of two joins: the two rows added cell by cell
//! with a saturating `u8` sum and folded with `min` (lane sums the
//! compiler turns into vector adds and mins, with no branch and no
//! lookup), and [`crate::label`]'s hybrid join of the two remainders.
//!
//! **How K is chosen.** The table is as wide as it can be without costing
//! more than the arena entries it holds: K is the longest prefix of
//! columns with `n · K ≤ 8 · cells`, `cells` the labels' entries in those
//! columns (8 bytes each in a flat arena). So the split never grows the
//! heap, and within that budget every column it takes turns merge work
//! into lane sums, the cheapest part of a join. On a ranked arena the
//! columns' fill does not rise along the ranks, so neither does the
//! prefix's density, and the columns that fit are a prefix. K then stops
//! at the first column holding a distance of 128 or more, so two cells
//! sum to at most 254 and the saturating sum reaches 255 only when a side
//! has no hub.
//!
//! The rule that minimizes the heap instead (a column goes in when its
//! own fill is at least `n / 8`) takes fewer columns and leaves bytes per
//! entry a property of each graph's hub profile: over 120 seeds of one
//! 2,048-vertex random graph it read 3.87–4.11 B, where the budget rule
//! reads 8.04–8.05 B.
//!
//! **A column moves whole or stays whole.** If `(u, h)` sat in the table
//! and `(v, h)` in the remainder, the common hub `h` would be in neither
//! join, and where `h` is the only hub on a shortest `u–v` path the
//! answer would be wrong. So a column with one wide distance ends the
//! table instead of spilling that entry.
//!
//! With K = 0 the table is empty and every query is the remainder's join,
//! exactly [`FlatLabeling::query`].
//!
//! # Example
//!
//! ```
//! use hl_graph::generators;
//! use hl_core::pll::PrunedLandmarkLabeling;
//! use hl_core::{freq, DenseLabeling};
//!
//! let g = generators::grid(8, 8);
//! let mut ranked = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
//! freq::reorder_by_hub_frequency(&mut ranked);
//! let dense = DenseLabeling::split(ranked.clone());
//! assert!(dense.prefix_hubs() > 0);
//! assert_eq!(dense.num_entries(), ranked.num_entries());
//! assert_eq!(dense.query(0, 63), 14);
//! assert_eq!(dense.pairs_of(9).collect::<Vec<_>>(), ranked.pairs_of(9).collect::<Vec<_>>());
//! ```

use hl_graph::{Distance, NodeId, INFINITY};

use crate::flat::FlatLabeling;
use crate::label::{self, Slots};

/// The cell of a hub that is not in the row's label.
const NO_HUB: u8 = u8::MAX;

/// The widest distance a cell holds: two of them sum to 254, below
/// [`NO_HUB`].
const WIDEST: u32 = 127;

/// A labeling as an `n × K` table of its first K hub columns plus a
/// remainder arena of every other entry; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseLabeling {
    /// Columns in the table: hubs `0..k`.
    k: usize,
    /// `n` rows of `k` cells; [`NO_HUB`] where a hub is absent.
    rows: Vec<u8>,
    /// Every entry whose hub is `k` or higher.
    rest: FlatLabeling,
}

/// K for `flat`: how many leading hub columns go into the table, as many
/// as cost no more than the flat bytes of the entries they hold
/// (`n · K ≤ 8 · cells`), up to the first column that holds a distance
/// above [`WIDEST`].
fn table_width(flat: &FlatLabeling) -> usize {
    let n = flat.num_nodes();
    let mut fill = vec![0usize; n];
    let mut wide = vec![false; n];
    for (&h, &d) in flat.raw_hubs().iter().zip(flat.raw_dists()) {
        fill[h as usize] += 1;
        wide[h as usize] |= d > WIDEST;
    }
    let mut cells = 0;
    fill.iter()
        .zip(&wide)
        .zip(1..)
        .take_while(|&((&fill, &wide), k)| {
            cells += fill;
            n * k <= 8 * cells && !wide
        })
        .count()
}

/// The table half of a join: the least saturating sum of two rows'
/// cells, [`NO_HUB`] when the rows share no hub.
#[inline]
fn table_join(a: &[u8], b: &[u8]) -> u8 {
    a.iter()
        .zip(b)
        .fold(NO_HUB, |m, (&x, &y)| m.min(x.saturating_add(y)))
}

/// A table result as a distance: [`NO_HUB`] is no common hub.
#[inline]
fn widen(cell: u8) -> Distance {
    if cell == NO_HUB {
        INFINITY
    } else {
        Distance::from(cell)
    }
}

impl DenseLabeling {
    /// Splits `flat` at K columns, chosen from `flat` alone as the module
    /// docs say. After one counting pass, a second pass writes each
    /// vertex's entries below K into its row and moves the rest of its run
    /// down in place, so the table is the only new allocation. Every query
    /// answer is `flat`'s.
    pub fn split(mut flat: FlatLabeling) -> DenseLabeling {
        let k = table_width(&flat);
        let mut rows = vec![NO_HUB; flat.num_nodes() * k];
        flat.drain_hubs_below(k as NodeId, |v, hubs, dists| {
            let row = &mut rows[v * k..(v + 1) * k];
            for (&h, &d) in hubs.iter().zip(dists) {
                // Every distance in the first k columns is at most WIDEST.
                row[h as usize] = d as u8;
            }
        });
        DenseLabeling {
            k,
            rows,
            rest: flat,
        }
    }

    /// K: the hub columns in the table, hubs `0..K`.
    pub fn prefix_hubs(&self) -> usize {
        self.k
    }

    /// Table cells that hold a distance: the table's share of
    /// [`DenseLabeling::num_entries`].
    pub fn filled_cells(&self) -> usize {
        self.rows.iter().filter(|&&cell| cell != NO_HUB).count()
    }

    /// Bytes of the table, one a cell: `n · K`.
    pub fn table_bytes(&self) -> usize {
        self.rows.len()
    }

    /// The remainder arena: every entry ranked K or higher, hub ids
    /// unchanged.
    pub fn remainder(&self) -> &FlatLabeling {
        &self.rest
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.rest.num_nodes()
    }

    /// The paper's label size `Σ_v |S_v|`: filled cells plus remainder
    /// entries, the entry count of the arena that was split.
    pub fn num_entries(&self) -> usize {
        self.filled_cells() + self.rest.num_entries()
    }

    /// Heap footprint in bytes: the table plus the remainder arena
    /// ([`FlatLabeling::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.rows.len() + self.rest.heap_bytes()
    }

    fn row(&self, v: NodeId) -> &[u8] {
        let v = v as usize;
        &self.rows[v * self.k..(v + 1) * self.k]
    }

    /// Vertex `v`'s `(hub, distance)` pairs in increasing hub order: its
    /// filled cells, then its remainder run.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn pairs_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Distance)> + '_ {
        let cells = self.row(v).iter().zip(0..);
        let cells = cells.filter(|&(&d, _)| d != NO_HUB);
        cells
            .map(|(&d, h)| (h, Distance::from(d)))
            .chain(self.rest.pairs_of(v))
    }

    /// The two joins of `u, v`, the remainder's through `slots` when the
    /// caller holds the thread's scratch.
    #[inline]
    fn join(&self, slots: Option<&mut Slots>, u: NodeId, v: NodeId) -> Distance {
        let rest = label::join_absolute::<false>(
            slots,
            self.rest.hubs_of(u),
            self.rest.dists_of(u),
            self.rest.hubs_of(v),
            self.rest.dists_of(v),
        )
        .0;
        widen(table_join(self.row(u), self.row(v))).min(rest)
    }

    /// Answers the distance query `u, v`: the least of the table join
    /// and the remainder join, [`INFINITY`] when the labels share no hub.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn query(&self, u: NodeId, v: NodeId) -> Distance {
        self.join(None, u, v)
    }

    /// Answers `pairs[i]` into `out[i]` as [`DenseLabeling::query`] would,
    /// back to back, with the thread's join scratch borrowed once for the
    /// whole slice.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or a vertex is out of range.
    pub fn query_many(&self, pairs: &[(NodeId, NodeId)], out: &mut [Distance]) {
        assert_eq!(pairs.len(), out.len(), "one output slot per pair");
        label::with_scratch(|slots| {
            for (&(u, v), d) in pairs.iter().zip(out) {
                *d = self.join(Some(&mut *slots), u, v);
            }
        });
    }

    /// Like [`DenseLabeling::query`] but also reports the hub realizing
    /// the minimum — the smallest such hub on a tie, as
    /// [`FlatLabeling::query_with_witness`] does; `None` when the labels
    /// share no hub.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn query_with_witness(&self, u: NodeId, v: NodeId) -> Option<(Distance, NodeId)> {
        let sums = self.row(u).iter().zip(self.row(v)).zip(0..);
        let table = sums
            .map(|((&x, &y), h)| (x.saturating_add(y), h))
            .filter(|&(d, _)| d != NO_HUB)
            .min()
            .map(|(d, h)| (Distance::from(d), h));
        // Table hubs rank below every remainder hub, so a tie keeps the
        // table's.
        table
            .into_iter()
            .chain(self.rest.query_with_witness(u, v))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::{generators, Graph};

    /// Splits `flat` and checks every pair: the dense join, its batch and
    /// its witness against the flat join, and the labels round-trip.
    fn split_and_check(flat: &FlatLabeling) -> DenseLabeling {
        let dense = DenseLabeling::split(flat.clone());
        let n = flat.num_nodes() as NodeId;
        assert_eq!(dense.num_nodes(), flat.num_nodes());
        assert_eq!(dense.num_entries(), flat.num_entries());
        assert_eq!(dense.table_bytes(), flat.num_nodes() * dense.prefix_hubs());
        assert_eq!(
            dense.heap_bytes(),
            dense.table_bytes() + dense.remainder().heap_bytes()
        );
        assert!(dense
            .remainder()
            .raw_hubs()
            .iter()
            .all(|&h| h as usize >= dense.prefix_hubs()));
        let pairs: Vec<(NodeId, NodeId)> =
            (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
        let mut batch = vec![0; pairs.len()];
        dense.query_many(&pairs, &mut batch);
        for (&(u, v), &got) in pairs.iter().zip(&batch) {
            let want = flat.query(u, v);
            assert_eq!(got, want, "query_many d({u},{v})");
            assert_eq!(dense.query(u, v), want, "query d({u},{v})");
            assert_eq!(
                dense.query_with_witness(u, v),
                flat.query_with_witness(u, v),
                "witness of ({u},{v})"
            );
        }
        for v in 0..n {
            let want: Vec<_> = flat.pairs_of(v).collect();
            assert_eq!(dense.pairs_of(v).collect::<Vec<_>>(), want, "label of {v}");
        }
        dense
    }

    fn ranked(g: &Graph) -> FlatLabeling {
        let mut flat = PrunedLandmarkLabeling::by_degree(g).into_labeling();
        freq::reorder_by_hub_frequency(&mut flat);
        flat
    }

    fn lists(lists: Vec<Vec<(NodeId, Distance)>>) -> FlatLabeling {
        FlatLabeling::from_pair_lists(lists).unwrap()
    }

    #[test]
    fn zero_and_one_vertex() {
        let empty = split_and_check(&FlatLabeling::new());
        assert_eq!((empty.prefix_hubs(), empty.heap_bytes()), (0, 8));
        let one = split_and_check(&lists(vec![vec![(0, 0)]]));
        assert_eq!(one.prefix_hubs(), 1);
        assert_eq!(one.filled_cells(), 1);
        assert_eq!(one.remainder().num_entries(), 0);
        assert_eq!(one.query(0, 0), 0);
    }

    #[test]
    fn k_is_zero_when_the_first_column_costs_more_than_it_holds_and_the_join_is_flat() {
        // Hub 0 is in 1 of 9 labels: its column's 9 bytes are more than
        // the 8 its one entry takes flat, so the table stops there, before
        // hub 1's, which is in 3 (hubs 0 and 1 together would fit,
        // 2 · 9 ≤ 8 · 4, but the table is a prefix of the ranks).
        let mut labels: Vec<Vec<(NodeId, Distance)>> = (0..9).map(|v| vec![(v, 0)]).collect();
        labels[0] = vec![(0, 0), (1, 2)];
        labels[3].push((1, 4));
        let flat = lists(labels);
        let dense = split_and_check(&flat);
        assert_eq!(dense.prefix_hubs(), 0);
        assert_eq!(dense.remainder(), &flat);
        assert_eq!(dense.heap_bytes(), flat.heap_bytes());
        assert_eq!(dense.query(0, 3), 6);
        assert_eq!(dense.query(2, 3), INFINITY);
    }

    /// Twenty vertices, the first four labeled, with `wide` the distance
    /// from vertex 2 to hub 1, which is vertex 1's only hub. Hubs 0 and 1
    /// are in 3 labels each and hub 2 in vertex 3's alone, so two columns
    /// fit (2 · 20 ≤ 8 · 6 cells) and three do not (3 · 20 > 8 · 7): K is
    /// at most 2 and hub 2 is ranked K or higher.
    fn column_one_holds(wide: Distance) -> FlatLabeling {
        let mut labels = vec![
            vec![(0, 0), (1, 3)],
            vec![(1, 0)],
            vec![(0, 1), (1, wide)],
            vec![(0, 2), (2, 0)],
        ];
        labels.resize(20, Vec::new());
        lists(labels)
    }

    #[test]
    fn a_column_holding_127_moves_into_the_table() {
        let dense = split_and_check(&column_one_holds(127));
        assert_eq!(dense.prefix_hubs(), 2);
        assert_eq!(dense.filled_cells(), 6);
        // The answer comes from hub 1, K - 1, in the table...
        assert_eq!(dense.query(1, 2), 127);
        assert_eq!(dense.query_with_witness(1, 2), Some((127, 1)));
        // ...and from hub 2, ranked K, in the remainder.
        assert_eq!(
            dense.remainder().pairs_of(3).collect::<Vec<_>>(),
            vec![(2, 0)]
        );
        assert_eq!(dense.query_with_witness(3, 3), Some((0, 2)));
        assert_eq!(dense.query(0, 2), 1);
    }

    #[test]
    fn a_column_holding_128_stays_whole_in_the_remainder() {
        // Vertex 1's only hub is hub 1, so d(1, 2) = 128 needs (2, 1, 128)
        // and (1, 1, 0) on one side of the split. Spilling the wide entry
        // alone would leave (1, 1, 0) in the table and answer INFINITY.
        let dense = split_and_check(&column_one_holds(128));
        assert_eq!(dense.prefix_hubs(), 1);
        assert_eq!(dense.query(1, 2), 128);
        assert_eq!(dense.query_with_witness(1, 2), Some((128, 1)));
        // Vertex 1 has no hub below K: an empty row, every answer from
        // the remainder.
        assert_eq!(dense.row(1), &[NO_HUB]);
        assert_eq!(dense.query(1, 0), 3);
        assert_eq!(dense.query(1, 3), INFINITY);
        // And a wide rank-0 column leaves the table empty.
        let flat = lists(vec![vec![(0, 0)], vec![(0, 200), (1, 0)]]);
        let dense = split_and_check(&flat);
        assert_eq!(dense.prefix_hubs(), 0);
        assert_eq!(dense.query(0, 1), 200);
    }

    #[test]
    fn two_cells_of_127_sum_below_no_hub() {
        let dense = split_and_check(&lists(vec![vec![(0, 127)], vec![(0, 127)]]));
        // Both columns fit (2 · 2 ≤ 8 · 2), hub 1's empty.
        assert_eq!(dense.prefix_hubs(), 2);
        assert_eq!(dense.query(0, 1), 254);
    }

    #[test]
    fn disconnected_pairs_are_infinity() {
        // Two disjoint 3x3 grids.
        let base = generators::grid(3, 3);
        let n = base.num_nodes() as NodeId;
        let mut edges: Vec<(NodeId, NodeId)> = base.edges().map(|(u, v, _)| (u, v)).collect();
        edges.extend(base.edges().map(|(u, v, _)| (u + n, v + n)));
        let g = hl_graph::builder::graph_from_edges(2 * n as usize, &edges).unwrap();
        let dense = split_and_check(&ranked(&g));
        assert!(dense.prefix_hubs() > 0);
        assert_eq!(dense.query(0, n), INFINITY);
        assert_eq!(dense.query_with_witness(0, n), None);
    }

    #[test]
    fn seeded_families_answer_as_flat_and_bfs() {
        let families: Vec<(&str, Graph)> = vec![
            ("gnm", generators::connected_gnm(150, 300, 7)),
            ("grid", generators::grid(11, 12)),
            ("rmat", generators::rmat(7, 400, 3)),
            ("power-law", generators::power_law_configuration(150, 25, 5)),
            ("weighted grid", generators::weighted_grid(9, 9, 4)),
        ];
        for (name, g) in families {
            let flat = ranked(&g);
            let dense = split_and_check(&flat);
            assert!(dense.prefix_hubs() > 0, "{name}: K = 0");
            for s in (0..g.num_nodes() as NodeId).step_by(13) {
                let truth = hl_graph::dijkstra::shortest_path_distances(&g, s);
                for (t, &d) in truth.iter().enumerate() {
                    assert_eq!(dense.query(s, t as NodeId), d, "{name}: d({s},{t})");
                }
            }
        }
    }

    #[test]
    fn k_is_the_widest_prefix_within_the_flat_bytes_on_a_ranked_arena() {
        let flat = ranked(&generators::connected_gnm(300, 900, 2));
        let k = table_width(&flat);
        let fill = freq::hub_frequencies(&flat);
        let n = flat.num_nodes() as u64;
        let cells = |k: usize| fill[..k].iter().sum::<u64>();
        assert!(n * k as u64 <= 8 * cells(k));
        assert!(
            n * (k as u64 + 1) > 8 * cells(k + 1),
            "column {k} fits but is not in the table"
        );
        // Each column below K fits with those before it, and some of the
        // columns in the table cost more than their own entries flat.
        assert!((1..=k).all(|j| n * j as u64 <= 8 * cells(j)));
        assert!(8 * fill[k - 1] < n);
        assert!(flat.raw_dists().iter().all(|&d| d <= WIDEST));
        let dense = DenseLabeling::split(flat.clone());
        assert!(dense.heap_bytes() <= flat.heap_bytes());
    }
}
