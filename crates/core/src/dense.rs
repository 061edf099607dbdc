//! `DenseLabeling` — the served layout: an arena ranked by hub
//! frequency, its common hubset as a table and the rest as a remainder.
//!
//! The paper's upper bound (Theorem 4.1) gives every vertex one shared
//! hubset `S` plus a few hubs of its own, and so does the random-threshold
//! scheme of [`crate::random_threshold`]. PLL's labels look the same once
//! hubs are numbered by how many labels hold them, since the first
//! vertices of its order are hubs of nearly all of `V`. So
//! [`DenseLabeling::from_flat`] renumbers the hubs of a store's arena by
//! **fill**: the hub in the most labels becomes rank 0, the next rank 1,
//! and so on, ties broken by store id. The hubs every label shares are
//! then the first ranks, and they are stored as an `n × K` table of `u8`
//! cells, row `v` holding `d(v, h)` in column `h` for every rank `h < K`
//! (255 where `h` is not in `v`'s label). Every entry ranked `K` or higher
//! stays in a remainder [`FlatLabeling`], whose small ranks are also the
//! hub ids the join's scratch covers ([`crate::label`]: ids below 4,096
//! are scattered and gathered, not merged):
//!
//! ```text
//! rows:   [d(0,0) .. d(0,K-1) | d(1,0) .. d(1,K-1) | ...]   (n · K u8 cells)
//! rest:   the arena's entries ranked K or higher, in rank ids
//! unrank: unrank[rank] = the store's id of that hub       (n u32)
//! ```
//!
//! A query is the smaller of two joins: the two rows added cell by cell
//! with a saturating `u8` sum and folded with `min` (lane sums the
//! compiler turns into vector adds and mins, with no branch and no
//! lookup), and [`crate::label`]'s hybrid join of the two remainders. The
//! ranking is a bijection on hub ids and both endpoints of a query go
//! through it, so **every distance answer is the store's**. Witnesses
//! ([`DenseLabeling::query_with_witness`]) are ranks;
//! [`DenseLabeling::unrank`] names them in store ids, and
//! [`DenseLabeling::label_of`] answers in store ids, ascending.
//!
//! **How K is chosen.** The table is as wide as it can be without costing
//! more than the arena entries it holds: K is the longest prefix of
//! ranks with `n · K ≤ 8 · cells`, `cells` the labels' entries in those
//! columns (8 bytes each in a flat arena). So the split never grows the
//! heap, and within that budget every column it takes turns merge work
//! into lane sums, the cheapest part of a join. The columns' fill does
//! not rise along the ranks, so neither does the prefix's density, and
//! the columns that fit are a prefix. K then stops at the first column
//! holding a distance of 128 or more, so two cells sum to at most 254 and
//! the saturating sum reaches 255 only when a side has no hub.
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
//! exactly [`FlatLabeling::query`] on the ranked arena.
//!
//! **Two ways in.** [`DenseLabeling::from_flat`] lays out an arena it is
//! handed, in place. [`DenseLabeling::from_two_passes`] lays out a
//! labeling that is never held whole, a store file walked twice run by
//! run, through the same counting and placing steps: a daemon's mount
//! then holds the layout, not the flat arena beside it.
//!
//! # Example
//!
//! ```
//! use hl_graph::generators;
//! use hl_core::pll::PrunedLandmarkLabeling;
//! use hl_core::DenseLabeling;
//!
//! let g = generators::grid(8, 8);
//! let flat = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
//! let dense = DenseLabeling::from_flat(flat.clone());
//! assert!(dense.prefix_hubs() > 0);
//! assert_eq!(dense.num_entries(), flat.num_entries());
//! assert_eq!(dense.query(0, 63), 14);
//! assert_eq!(dense.label_of(9), flat.pairs_of(9).collect::<Vec<_>>());
//! ```

use std::cmp::Reverse;

use hl_graph::{Distance, NodeId, INFINITY};

use crate::flat::{check_offsets, check_run, FlatLabeling, FlatLayoutError};
use crate::label::{self, Slots};

/// The cell of a hub that is not in the row's label.
const NO_HUB: u8 = u8::MAX;

/// The widest distance a cell holds: two of them sum to 254, below
/// [`NO_HUB`].
const WIDEST: u32 = 127;

/// What a walk of [`DenseLabeling::from_two_passes`] hands each run to:
/// the run's hubs and distances in store ids.
pub type RunSink<'a, E> = dyn FnMut(&[NodeId], &[u32]) -> Result<(), E> + 'a;

/// A labeling ranked by hub fill, as an `n × K` table of its first K rank
/// columns plus a remainder arena of every other entry; see the module
/// docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseLabeling {
    /// Columns in the table: ranks `0..k`.
    k: usize,
    /// `n` rows of `k` cells; [`NO_HUB`] where a hub is absent.
    rows: Vec<u8>,
    /// Every entry ranked `k` or higher, in rank ids.
    rest: FlatLabeling,
    /// `unrank[rank]` is the store's id of hub `rank`.
    unrank: Vec<NodeId>,
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

/// The counting step of a layout: each hub's fill, and whether its column
/// holds a distance above [`WIDEST`].
struct Counts {
    fill: Vec<usize>,
    wide: Vec<bool>,
}

impl Counts {
    fn new(n: usize) -> Counts {
        Counts {
            fill: vec![0; n],
            wide: vec![false; n],
        }
    }

    /// Counts the entries `hubs` at `dists`, every hub below `n`.
    fn add(&mut self, hubs: &[NodeId], dists: &[u32]) {
        for (&h, &d) in hubs.iter().zip(dists) {
            self.fill[h as usize] += 1;
            self.wide[h as usize] |= d > WIDEST;
        }
    }

    /// The ranking these counts give: hubs by fill, ties by store id, K
    /// the longest prefix of ranks within the flat bytes of its entries
    /// and cut at the first wide column, and the entries ranked K or
    /// higher.
    fn rank(self) -> Ranking {
        let Counts { fill, wide } = self;
        let n = fill.len();
        let mut unrank: Vec<NodeId> = (0..n as NodeId).collect();
        unrank.sort_unstable_by_key(|&h| (Reverse(fill[h as usize]), h));
        let mut cells = 0;
        let k = unrank
            .iter()
            .zip(1..)
            .take_while(|&(&h, k)| {
                cells += fill[h as usize];
                n * k <= 8 * cells && !wide[h as usize]
            })
            .count();
        let in_table: usize = unrank[..k].iter().map(|&h| fill[h as usize]).sum();
        let mut rank = vec![0 as NodeId; n];
        for (&h, r) in unrank.iter().zip(0..) {
            rank[h as usize] = r;
        }
        Ranking {
            k,
            rank,
            unrank,
            rest_entries: fill.iter().sum::<usize>() - in_table,
        }
    }
}

/// A layout's ranking: K, each store id's rank and its inverse, and the
/// remainder's length.
struct Ranking {
    k: usize,
    rank: Vec<NodeId>,
    unrank: Vec<NodeId>,
    /// Entries ranked K or higher.
    rest_entries: usize,
}

impl Ranking {
    /// The placing step of a layout, one run at a time: remaps the run
    /// `hubs` at `dists` to ranks, writes its ranks below K into `row`,
    /// and gathers the rest in `run` (a buffer the size of the longest
    /// label), sorted: the entries that belong to the remainder. Also
    /// returns whether every distance written into the row fits a cell,
    /// which a caller that cannot vouch for the counts checks.
    fn place<'r>(
        &self,
        hubs: &[NodeId],
        dists: &[u32],
        row: &mut [u8],
        run: &'r mut Vec<(NodeId, u32)>,
    ) -> (bool, &'r [(NodeId, u32)]) {
        run.clear();
        let mut narrow = true;
        for (&h, &d) in hubs.iter().zip(dists) {
            let r = self.rank[h as usize];
            match row.get_mut(r as usize) {
                Some(cell) => {
                    *cell = d as u8;
                    narrow &= d <= WIDEST;
                }
                None => run.push((r, d)),
            }
        }
        run.sort_unstable_by_key(|&(h, _)| h);
        (narrow, run)
    }
}

impl From<FlatLabeling> for DenseLabeling {
    /// [`DenseLabeling::from_flat`].
    fn from(flat: FlatLabeling) -> DenseLabeling {
        DenseLabeling::from_flat(flat)
    }
}

impl DenseLabeling {
    /// Ranks, splits and keeps the inverse of `flat`, an arena in store
    /// ids, as the module docs say. The counting step gives each hub's
    /// fill and whether its column holds a distance above 127, and from
    /// them the ranking and K. One pass over the runs then places each:
    /// remapped to ranks, its ranks below K written into the vertex's row
    /// and the rest sorted and moved down in place, so the table is the
    /// only new arena-sized allocation. Every query answer is `flat`'s.
    pub fn from_flat(flat: FlatLabeling) -> DenseLabeling {
        let FlatLabeling {
            mut offsets,
            mut hubs,
            mut dists,
        } = flat;
        let n = offsets.len() - 1;
        let mut counts = Counts::new(n);
        counts.add(&hubs, &dists);
        let ranking = counts.rank();
        let k = ranking.k;
        let mut rows = vec![NO_HUB; n * k];
        let mut run = Vec::new();
        let (mut start, mut kept) = (0, 0);
        for v in 0..n {
            let end = offsets[v + 1] as usize;
            let row = &mut rows[v * k..(v + 1) * k];
            let (_, rest) = ranking.place(&hubs[start..end], &dists[start..end], row, &mut run);
            for &(h, d) in rest {
                (hubs[kept], dists[kept]) = (h, d);
                kept += 1;
            }
            offsets[v + 1] = kept as u64;
            start = end;
        }
        hubs.truncate(kept);
        dists.truncate(kept);
        hubs.shrink_to_fit();
        dists.shrink_to_fit();
        DenseLabeling {
            k,
            rows,
            rest: FlatLabeling {
                offsets,
                hubs,
                dists,
            },
            unrank: ranking.unrank,
        }
    }

    /// The layout [`DenseLabeling::from_flat`] gives a labeling that is
    /// never held whole: one read twice, run by run, as a store file is.
    /// `offsets` bounds the runs of an arena of `entries` entries. `walk`
    /// hands every vertex's run, in vertex order, to the sink it is given,
    /// as `(hubs, dists)` in store ids; it is called twice. Each run is
    /// checked as [`FlatLabeling::from_raw_parts`] checks it. The first
    /// pass counts, which gives the ranking, K and the remainder's exact
    /// length; the second places every run into the table and the
    /// remainder, allocated at those sizes, and keeps none of the flat
    /// lanes. A second pass whose runs do not fit the first's counts
    /// (more remainder entries, a wide cell, a run of another length)
    /// ends in [`FlatLayoutError::RunsChanged`], never in a panic or a
    /// half-built layout; an error of `walk`'s own ends the layout as it
    /// is returned.
    ///
    /// # Errors
    ///
    /// A [`FlatLayoutError`] for offsets or a run that breaks an arena
    /// invariant, or for a second pass that differs from the first, and
    /// whatever `walk` returns.
    pub fn from_two_passes<E: From<FlatLayoutError>>(
        offsets: &[u64],
        entries: usize,
        mut walk: impl FnMut(&mut RunSink<'_, E>) -> Result<(), E>,
    ) -> Result<DenseLabeling, E> {
        check_offsets(offsets, entries, entries)?;
        let n = offsets.len() - 1;
        // The run the walk hands over next must be vertex `v`'s: as long
        // as its span, and an arena's run.
        let fits = |v: usize, hubs: &[NodeId], dists: &[u32]| {
            let span = offsets.get(v..v + 2).map(|w| w[1] - w[0]);
            if span != Some(hubs.len() as u64) || hubs.len() != dists.len() {
                return Err(FlatLayoutError::RunsChanged { vertex: v });
            }
            check_run(v, hubs, n)
        };
        let mut counts = Counts::new(n);
        let mut v = 0;
        walk(&mut |hubs, dists| {
            fits(v, hubs, dists)?;
            counts.add(hubs, dists);
            v += 1;
            Ok(())
        })?;
        if v != n {
            return Err(FlatLayoutError::RunsChanged { vertex: v }.into());
        }
        let ranking = counts.rank();
        let (k, rest_entries) = (ranking.k, ranking.rest_entries);
        let mut rows = vec![NO_HUB; n * k];
        let mut rest = FlatLabeling::with_capacity(n, rest_entries);
        let mut run = Vec::new();
        let mut v = 0;
        walk(&mut |hubs, dists| {
            fits(v, hubs, dists)?;
            let row = &mut rows[v * k..(v + 1) * k];
            let (narrow, others) = ranking.place(hubs, dists, row, &mut run);
            if !narrow || rest.hubs.len() + others.len() > rest_entries {
                return Err(FlatLayoutError::RunsChanged { vertex: v }.into());
            }
            rest.hubs.extend(others.iter().map(|&(h, _)| h));
            rest.dists.extend(others.iter().map(|&(_, d)| d));
            rest.offsets.push(rest.hubs.len() as u64);
            v += 1;
            Ok(())
        })?;
        if v != n || rest.hubs.len() != rest_entries {
            return Err(FlatLayoutError::RunsChanged { vertex: v }.into());
        }
        Ok(DenseLabeling {
            k,
            rows,
            rest,
            unrank: ranking.unrank,
        })
    }

    /// K: the rank columns in the table, ranks `0..K`.
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

    /// The remainder arena: every entry ranked K or higher, in rank ids.
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

    /// Heap footprint of the served labels in bytes: the table plus the
    /// remainder arena ([`FlatLabeling::heap_bytes`]), never more than
    /// the arena that was split. `unrank`, 4 B a vertex, is not counted.
    pub fn heap_bytes(&self) -> usize {
        self.rows.len() + self.rest.heap_bytes()
    }

    /// The store's id of every rank: `unrank()[rank]`, a permutation of
    /// `0..n`.
    pub fn unrank(&self) -> &[NodeId] {
        &self.unrank
    }

    /// Vertex `v`'s label as the store holds it: `(hub, distance)` pairs
    /// in store ids, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label_of(&self, v: NodeId) -> Vec<(NodeId, Distance)> {
        let unrank = |(h, d): (NodeId, Distance)| (self.unrank[h as usize], d);
        let mut label: Vec<_> = self.pairs_of(v).map(unrank).collect();
        label.sort_unstable();
        label
    }

    fn row(&self, v: NodeId) -> &[u8] {
        let v = v as usize;
        &self.rows[v * self.k..(v + 1) * self.k]
    }

    /// Vertex `v`'s `(rank, distance)` pairs in increasing rank order:
    /// its filled cells, then its remainder run.
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

    /// Like [`DenseLabeling::query`] but also reports the rank of the hub
    /// realizing the minimum — the smallest such rank on a tie, as
    /// [`FlatLabeling::query_with_witness`] does on the ranked arena;
    /// `None` when the labels share no hub.
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
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::{generators, Graph};

    /// `flat` ranked, split and unranked the naive way, step by step:
    /// rank by a sort of the fills, remap every label and sort it again,
    /// take ranks while they fit the flat bytes of their entries and hold
    /// no distance above 127, then deal each entry to the table or the
    /// remainder.
    fn reference(flat: &FlatLabeling) -> DenseLabeling {
        let n = flat.num_nodes();
        let mut fill = vec![0; n];
        for &h in flat.raw_hubs() {
            fill[h as usize] += 1;
        }
        let mut unrank: Vec<NodeId> = (0..n as NodeId).collect();
        unrank.sort_by_key(|&h| (Reverse(fill[h as usize]), h));
        let mut rank = vec![0; n];
        for (r, &h) in unrank.iter().enumerate() {
            rank[h as usize] = r as NodeId;
        }
        let ranked: Vec<Vec<(NodeId, Distance)>> = (0..n as NodeId)
            .map(|v| {
                let mut label: Vec<_> = flat
                    .pairs_of(v)
                    .map(|(h, d)| (rank[h as usize], d))
                    .collect();
                label.sort();
                label
            })
            .collect();
        let cells = |k: usize| unrank[..k].iter().map(|&h| fill[h as usize]).sum::<usize>();
        let narrow = |r: usize| {
            ranked
                .iter()
                .flatten()
                .all(|&(h, d)| h as usize != r || d <= 127)
        };
        let k = (0..n)
            .take_while(|&r| n * (r + 1) <= 8 * cells(r + 1) && narrow(r))
            .count();
        let mut rows = vec![NO_HUB; n * k];
        let mut rest = Vec::new();
        for (v, label) in ranked.into_iter().enumerate() {
            let (table, others): (Vec<_>, Vec<_>) =
                label.into_iter().partition(|&(h, _)| (h as usize) < k);
            for (h, d) in table {
                rows[v * k + h as usize] = u8::try_from(d).unwrap();
            }
            rest.push(others);
        }
        DenseLabeling {
            k,
            rows,
            rest: FlatLabeling::from_pair_lists(rest).unwrap(),
            unrank,
        }
    }

    /// Builds the served layout of `flat`, an arena in store ids, holds it
    /// to [`reference`], and checks every pair: the dense join and its
    /// batch against the flat join, its witness (a rank, a hub both store
    /// labels hold at the answer's sum; `flat`'s own witness when the
    /// ranking is the identity), and every label back in store ids.
    fn split_and_check(flat: &FlatLabeling) -> DenseLabeling {
        let dense = DenseLabeling::from_flat(flat.clone());
        assert_eq!(dense, reference(flat), "the one pass against the reference");
        assert_eq!(two_passes(flat), Ok(dense.clone()), "the two passes");
        let n = flat.num_nodes() as NodeId;
        assert_eq!(dense.num_nodes(), flat.num_nodes());
        assert_eq!(dense.num_entries(), flat.num_entries());
        assert_eq!(dense.table_bytes(), flat.num_nodes() * dense.prefix_hubs());
        assert_eq!(
            dense.heap_bytes(),
            dense.table_bytes() + dense.remainder().heap_bytes()
        );
        assert!(dense.heap_bytes() <= flat.heap_bytes());
        assert!(dense
            .remainder()
            .raw_hubs()
            .iter()
            .all(|&h| h as usize >= dense.prefix_hubs()));
        let identity = dense.unrank().iter().zip(0..).all(|(&h, r)| h == r);
        let at = |x: NodeId, w: NodeId| flat.pairs_of(x).find(|&(h, _)| h == w).map(|(_, d)| d);
        let pairs: Vec<(NodeId, NodeId)> =
            (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
        let mut batch = vec![0; pairs.len()];
        dense.query_many(&pairs, &mut batch);
        for (&(u, v), &got) in pairs.iter().zip(&batch) {
            let want = flat.query(u, v);
            assert_eq!(got, want, "query_many d({u},{v})");
            assert_eq!(dense.query(u, v), want, "query d({u},{v})");
            let witness = dense.query_with_witness(u, v);
            assert_eq!(
                witness.map(|(d, _)| d),
                flat.query_with_witness(u, v).map(|(d, _)| d)
            );
            if let Some((d, r)) = witness {
                let w = dense.unrank()[r as usize];
                assert_eq!(
                    at(u, w).zip(at(v, w)).map(|(a, b)| a + b),
                    Some(d),
                    "witness of ({u},{v})"
                );
            }
            if identity {
                assert_eq!(
                    witness,
                    flat.query_with_witness(u, v),
                    "witness of ({u},{v})"
                );
            }
        }
        for v in 0..n {
            let want: Vec<_> = flat.pairs_of(v).collect();
            assert_eq!(dense.label_of(v), want, "label of {v}");
        }
        dense
    }

    /// Hands each run of `lists` to `sink`, in order.
    fn walk<E>(lists: &[Vec<(NodeId, u32)>], sink: &mut RunSink<'_, E>) -> Result<(), E> {
        lists.iter().try_for_each(|run| {
            let (hubs, dists): (Vec<NodeId>, Vec<u32>) = run.iter().copied().unzip();
            sink(&hubs, &dists)
        })
    }

    fn runs(flat: &FlatLabeling) -> Vec<Vec<(NodeId, u32)>> {
        let n = flat.num_nodes() as NodeId;
        let run = |v| {
            flat.hubs_of(v)
                .iter()
                .copied()
                .zip(flat.dists_of(v).iter().copied())
        };
        (0..n).map(|v| run(v).collect()).collect()
    }

    /// `flat` laid out by [`DenseLabeling::from_two_passes`], whose walk
    /// hands over `flat`'s runs on the first pass and `second`'s on the
    /// second.
    fn two_passes_over(
        flat: &FlatLabeling,
        second: &[Vec<(NodeId, u32)>],
    ) -> Result<DenseLabeling, FlatLayoutError> {
        let first = runs(flat);
        let mut pass = 0;
        DenseLabeling::from_two_passes(flat.raw_offsets(), flat.num_entries(), |sink| {
            pass += 1;
            walk(if pass == 1 { &first } else { second }, sink)
        })
    }

    fn two_passes(flat: &FlatLabeling) -> Result<DenseLabeling, FlatLayoutError> {
        two_passes_over(flat, &runs(flat))
    }

    fn built(g: &Graph) -> FlatLabeling {
        PrunedLandmarkLabeling::by_degree(g).into_labeling()
    }

    fn lists(lists: Vec<Vec<(NodeId, Distance)>>) -> FlatLabeling {
        FlatLabeling::from_pair_lists(lists).unwrap()
    }

    /// The served labels, table and remainder merged back into one arena
    /// in rank ids.
    fn ranked_arena(dense: &DenseLabeling) -> FlatLabeling {
        let n = dense.num_nodes() as NodeId;
        lists((0..n).map(|v| dense.pairs_of(v).collect()).collect())
    }

    /// A seeded gnm on vertices 0..59 plus vertex 59 joined to every
    /// third of them: the highest degree, so the hottest hub has the
    /// highest id and ranking moves it from last to first.
    fn hottest_hub_last(seed: u64) -> FlatLabeling {
        let g = generators::connected_gnm(59, 60, seed);
        let mut edges: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        edges.extend((0..59).step_by(3).map(|v| (v, 59)));
        built(&hl_graph::builder::graph_from_edges(60, &edges).unwrap())
    }

    /// 24 vertices, eight labeled. Hubs 4 and 1 are in three labels each,
    /// hub 2 in two and hubs 0, 3, 5, 6 and 7 in one, so the ranks are
    /// 1, 4, 2, 0, 3, 5, 6, 7 and then the empty columns by id. Two
    /// columns fit (2 · 24 ≤ 8 · 6 cells) and three do not (3 · 24 >
    /// 8 · 8): K = 2, and hub 2 leads the remainder.
    fn tied() -> FlatLabeling {
        let mut labels: Vec<Vec<(NodeId, Distance)>> = (0..8).map(|v| vec![(v, 0)]).collect();
        labels[0].extend([(1, 1), (4, 2)]);
        labels[3].extend([(1, 2), (2, 1), (4, 1)]);
        labels.resize(24, Vec::new());
        lists(labels)
    }

    /// Fixtures for the layout tests: three built arenas, the ranking's
    /// edge cases, and a column too wide for the table.
    fn arenas() -> [(&'static str, FlatLabeling); 6] {
        [
            ("gnm", built(&generators::connected_gnm(150, 300, 7))),
            ("rmat", built(&generators::rmat(7, 400, 3))),
            ("grid", built(&generators::grid(11, 12))),
            ("hottest hub last", hottest_hub_last(3)),
            ("ties", tied()),
            ("wide column", column_one_holds(128)),
        ]
    }

    #[test]
    fn the_one_pass_layout_equals_the_naive_reference() {
        for (name, flat) in arenas() {
            let dense = DenseLabeling::from_flat(flat.clone());
            assert_eq!(dense, reference(&flat), "{name}");
            let ranked = ranked_arena(&dense);
            assert_eq!(
                DenseLabeling::from_flat(ranked.clone()),
                reference(&ranked),
                "{name}, ranked"
            );
        }
    }

    #[test]
    fn a_second_pass_that_does_not_fit_the_first_is_refused() {
        // K = 2, and hub 2, ranked K, is the remainder's one entry.
        let flat = column_one_holds(127);
        let changed = |v: usize, run: Vec<(NodeId, u32)>| {
            let mut lists = runs(&flat);
            lists[v] = run;
            lists
        };
        let mut short = runs(&flat);
        short.pop();
        let mut long = runs(&flat);
        long.push(Vec::new());
        for (name, second, vertex) in [
            ("a wide cell", changed(2, vec![(0, 1), (1, 128)]), 2),
            // Vertex 1's entry takes the remainder's one slot, so vertex
            // 3's finds none.
            ("one more remainder entry", changed(1, vec![(2, 0)]), 3),
            (
                "one fewer remainder entry",
                changed(3, vec![(0, 2), (1, 0)]),
                20,
            ),
            ("a run of another length", changed(1, Vec::new()), 1),
            ("a run missing", short, 19),
            ("a run too many", long, 20),
        ] {
            assert_eq!(
                two_passes_over(&flat, &second),
                Err(FlatLayoutError::RunsChanged { vertex }),
                "{name}"
            );
        }
        // A run that breaks an arena invariant is refused as such.
        assert_eq!(
            two_passes_over(&flat, &changed(0, vec![(1, 3), (0, 0)])),
            Err(FlatLayoutError::UnsortedHubs { vertex: 0 })
        );
        let mut lists = runs(&flat);
        lists[2][1].0 = 20;
        let err = DenseLabeling::from_two_passes(flat.raw_offsets(), flat.num_entries(), |sink| {
            walk(&lists, sink)
        });
        assert_eq!(
            err,
            Err(FlatLayoutError::HubOutOfRange { vertex: 2, hub: 20 })
        );
        // Offsets that do not bound the entries are refused before a walk.
        let err = DenseLabeling::from_two_passes(flat.raw_offsets(), 99, |_| -> Result<(), _> {
            unreachable!("walked over offsets that do not bound the entries")
        });
        assert!(matches!(
            err,
            Err(FlatLayoutError::FinalOffsetMismatch { .. })
        ));
    }

    #[test]
    fn remap_preserves_every_query() {
        for (_, flat) in arenas() {
            split_and_check(&flat);
        }
    }

    #[test]
    fn ranking_a_ranked_arena_is_the_identity() {
        for (name, flat) in arenas() {
            let dense = DenseLabeling::from_flat(flat);
            // Ranked once more, the served arena is its own layout.
            let again = split_and_check(&ranked_arena(&dense));
            assert!(
                again.unrank().iter().zip(0..).all(|(&h, r)| h == r),
                "{name}: unrank not the identity"
            );
            assert_eq!(again.remainder(), dense.remainder(), "{name}");
            assert_eq!(again.rows, dense.rows, "{name}");
        }
    }

    #[test]
    fn rank_is_a_bijection_sorted_by_frequency() {
        for flat in [built(&generators::connected_gnm(60, 90, 0xFEED)), tied()] {
            let dense = DenseLabeling::from_flat(flat.clone());
            let mut fill = vec![0; flat.num_nodes()];
            for &h in flat.raw_hubs() {
                fill[h as usize] += 1;
            }
            let order = dense.unrank();
            let mut seen = vec![false; order.len()];
            for &old in order {
                assert!(!seen[old as usize], "order repeats {old}");
                seen[old as usize] = true;
            }
            assert_eq!(order.len(), flat.num_nodes());
            // Fill is non-increasing along the ranks, ties by store id.
            assert!(order.windows(2).all(|w| {
                let (a, b) = (fill[w[0] as usize], fill[w[1] as usize]);
                a > b || (a == b && w[0] < w[1])
            }));
        }
        let dense = DenseLabeling::from_flat(tied());
        assert_eq!(dense.unrank()[..9], [1, 4, 2, 0, 3, 5, 6, 7, 8]);
        assert_eq!(dense.prefix_hubs(), 2);
        assert_eq!(
            dense.remainder().pairs_of(3).collect::<Vec<_>>(),
            vec![(2, 1), (4, 0)]
        );
    }

    #[test]
    fn the_hottest_hub_moves_from_last_to_rank_zero() {
        let flat = hottest_hub_last(3);
        let dense = split_and_check(&flat);
        assert_eq!(dense.unrank()[0], 59);
        assert!(dense.prefix_hubs() > 0);
        // Rank 0 is in vertex 59's row at distance 0.
        assert_eq!(dense.pairs_of(59).next(), Some((0, 0)));
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
        // Seventeen vertices, each its own hub, and hub 0, the most
        // frequent, in vertex 1's label too: its column's 17 bytes are
        // more than the 16 its two entries take flat, and no later column
        // is fuller, so the table is empty.
        let mut labels: Vec<Vec<(NodeId, Distance)>> = (0..17).map(|v| vec![(v, 0)]).collect();
        labels[1].insert(0, (0, 2));
        let flat = lists(labels);
        let dense = split_and_check(&flat);
        assert_eq!(dense.prefix_hubs(), 0);
        assert_eq!(dense.remainder(), &flat);
        assert_eq!(dense.heap_bytes(), flat.heap_bytes());
        assert_eq!(dense.query(1, 0), 2);
        assert_eq!(dense.query(2, 3), INFINITY);
    }

    /// Twenty vertices, the first four labeled, with `wide` the distance
    /// from vertex 2 to hub 1, which is vertex 1's only hub. Hubs 0 and 1
    /// are in 3 labels each and hub 2 in vertex 3's alone, so they are
    /// ranks 0, 1 and 2, two columns fit (2 · 20 ≤ 8 · 6 cells) and three
    /// do not (3 · 20 > 8 · 7): K is at most 2 and hub 2 is ranked K or
    /// higher.
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
        let dense = split_and_check(&built(&g));
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
            let dense = split_and_check(&built(&g));
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
        let flat = built(&generators::connected_gnm(300, 900, 2));
        let dense = DenseLabeling::from_flat(flat.clone());
        let k = dense.prefix_hubs();
        let mut by_id = vec![0u64; flat.num_nodes()];
        for &h in flat.raw_hubs() {
            by_id[h as usize] += 1;
        }
        let fill: Vec<u64> = dense.unrank().iter().map(|&h| by_id[h as usize]).collect();
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
        assert!(dense.heap_bytes() <= flat.heap_bytes());
    }
}
