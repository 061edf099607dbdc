//! `hl-build` — parallel, ordering-aware Pruned Landmark Labeling
//! construction for million-vertex graphs.
//!
//! The single-threaded PLL in `hl_core::pll` tops out at stress-test
//! sizes; every scale experiment around the paper (*Hardness of exact
//! distance queries in sparse graphs through hub labeling*, Kosowski–
//! Uznański–Viennot, PODC 2019) needs labelings over graphs far bigger
//! than that. This crate runs `hl_core::pll`'s one-root pruned search
//! and label accumulator from a batch/commit pipeline on std threads
//! (the workspace is dependency-free) whose output is **bit-identical to
//! sequential PLL** for the same vertex order, at any thread count:
//!
//! * [`pipeline`] — the batch/commit pipeline ([`build_with_order`],
//!   [`build_with_strategy`], [`BuildConfig`], [`BuildOutput`]); the
//!   module docs carry the determinism argument;
//! * [`stats`] — [`BuildStats`] telemetry: per-batch timings and entry
//!   counts, and the pruning hit rate;
//! * [`error`] — [`BuildError`].
//!
//! Ordering strategies come from `hl_core::order` behind the
//! [`VertexOrder`](hl_core::VertexOrder) trait (degree, sampled
//! betweenness); any other permutation goes through [`build_with_order`].
//!
//! # Example
//!
//! ```
//! use hl_build::{build_with_strategy, BuildConfig};
//! use hl_core::order::DegreeOrder;
//! use hl_graph::generators;
//!
//! let g = generators::connected_gnm(200, 300, 7);
//! let out = build_with_strategy(&g, &DegreeOrder, BuildConfig::with_threads(2)).unwrap();
//! assert_eq!(out.labeling.query(0, 1), out.labeling.query(1, 0));
//! assert_eq!(out.stats.label_entries(), out.labeling.num_entries());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod pipeline;
pub mod stats;

pub use error::BuildError;
pub use pipeline::{build_with_order, build_with_strategy, BuildConfig, BuildOutput};
pub use stats::{BatchStats, BuildStats};
