//! `hl-build` — the name under which the benchmark and `hubserve` link
//! the PLL driver, which lives in [`hl_core::pll`].
//!
//! This crate defines nothing: it re-exports the driver's entry points
//! ([`build_with_order`], [`build_with_strategy`]) and its types
//! ([`BuildConfig`], [`BuildOutput`], [`BuildStats`], [`BuildError`]).
//! The driver runs PLL's pruned searches in batches on std threads, and
//! its output is bit-identical to sequential PLL for the same vertex
//! order at any thread count; [`hl_core::pll`]'s module doc carries the
//! argument. This crate's `tests/parallel_equivalence.rs` holds every
//! entry point to `hl_core::hierarchical::canonical_hhl`.
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
//! assert_eq!(out.stats.threads, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hl_core::pll::{
    build_with_order, build_with_strategy, BuildConfig, BuildError, BuildOutput, BuildStats,
};
