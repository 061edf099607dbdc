//! Hub labelings (2-hop covers) — the primary object of the paper
//! *Hardness of exact distance queries in sparse graphs through hub
//! labeling* (Kosowski, Uznański, Viennot; PODC 2019).
//!
//! A **hub labeling** assigns to every vertex `v` a hubset `S_v ⊆ V`
//! together with the exact distances `d(v, h)` for `h ∈ S_v`, such that for
//! every pair `u, v` some common hub `w ∈ S_u ∩ S_v` lies on a shortest
//! `u–v` path. Distance queries are then resolved as
//! `min_{w ∈ S_u ∩ S_v} d(u, w) + d(w, v)` by joining two sorted lists.
//!
//! The crate provides:
//!
//! * [`label`] — the join query kernel (a galloping merge, or a
//!   scatter–gather through a per-thread hub-indexed scratch);
//! * [`flat`] — [`FlatLabeling`], the single-arena CSR layout every
//!   construction returns and every store, daemon and analysis reads;
//! * [`compact`] — [`CompactLabeling`], the byte-tuned lanes of the v2c
//!   store flavor (u16/u32 distance lanes, delta-coded hub ids);
//! * [`freq`] — hub-frequency label reordering, a layout pass that moves
//!   hot hubs to the front of every run;
//! * [`cover`] — verification that a labeling answers every query exactly;
//! * [`minimize`], [`hierarchical`] — post-hoc hub removal, and the
//!   canonical hierarchical labeling with its hierarchy check;
//! * [`pll`] — Pruned Landmark Labeling (the canonical practical
//!   construction, exact by design): the one pruned search and its one
//!   driver, batches of roots on std threads, which [`approx`] runs at
//!   one thread (slack-pruned approximate labels, the hub half of
//!   [`corrected`]);
//! * [`greedy`] — the greedy 2-hop cover of Cohen et al. for small graphs;
//! * [`random_threshold`] — the `O(n/D · log D)`-far-hubs construction in
//!   the style of Alstrup et al. (ADKP16), the baseline the paper
//!   discusses for sparse graphs;
//! * [`rs_based`] — **the construction of Theorem 4.1**, which routes
//!   covering through induced matchings and yields average hubset size
//!   `O(n / RS(n)^{1/c})` on bounded-degree graphs;
//! * [`monotone`] — monotone hubsets and the `S*` ancestor-closure
//!   accounting used by the lower bound of Theorem 2.1;
//! * [`tree`] — centroid-decomposition labeling with `O(log n)` hubs per
//!   vertex on trees, and [`separator_labeling`] for graphs with small
//!   separators;
//! * [`order`], [`stats`] — vertex orderings and size statistics.
//!
//! # Example
//!
//! ```
//! use hl_graph::generators;
//! use hl_core::pll::PrunedLandmarkLabeling;
//! use hl_core::cover::verify_exact;
//!
//! let g = generators::grid(4, 4);
//! let labeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
//! assert!(verify_exact(&g, &labeling).unwrap().is_exact());
//! assert_eq!(labeling.query(0, 15), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod compact;
pub mod corrected;
pub mod cover;
pub mod flat;
pub mod freq;
pub mod greedy;
pub mod hierarchical;
pub mod label;
pub mod minimize;
pub mod monotone;
pub mod order;
pub mod pll;
pub mod random_threshold;
pub mod rs_based;
pub mod separator_labeling;
pub mod stats;
pub mod tree;

pub use compact::{CompactDists, CompactLabeling, HubDeltas, NarrowLane};
pub use flat::{FlatLabeling, FlatLayoutError};
pub use order::{OrderError, VertexOrder};
pub use stats::LabelingStats;
