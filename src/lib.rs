//! Facade crate for the reproduction of *Hardness of Exact Distance Queries
//! in Sparse Graphs Through Hub Labeling* (Kosowski, Uznański, Viennot;
//! PODC 2019).
//!
//! Re-exports every workspace crate under one roof so examples,
//! integration tests and downstream users can depend on a single package:
//!
//! * [`graph`] — CSR graph substrate, traversal, generators, transforms;
//! * [`core`] — hub labelings and all constructions (PLL, greedy,
//!   random-threshold, the Theorem 4.1 RS-based algorithm, centroid trees);
//! * [`build`] — the name `benchmark/` and `hubserve` link PLL's one
//!   driver under: re-exports of `core::pll`'s parallel, ordering-aware
//!   construction (bit-identical to sequential PLL);
//! * [`rs`] — Behrend sets, Ruzsa–Szemerédi graphs, induced matchings;
//! * [`lowerbound`] — the `H_{b,ℓ}` / `G_{b,ℓ}` gadgets of Theorem 2.1,
//!   Lemma 2.2 verification and hub-size accounting;
//! * [`sumindex`] — the Sum-Index problem and the Theorem 1.6 reduction;
//! * [`labeling`] — bit-level distance labeling schemes;
//! * [`oracles`] — ALT and Contraction Hierarchies baselines;
//! * [`server`] — binary label store, worker-pool query engine, metrics;
//! * [`net`] — the HLNP TCP wire protocol, serving daemon and client.
//!
//! # Quickstart
//!
//! ```
//! use hub_labeling::graph::generators;
//! use hub_labeling::core::pll::PrunedLandmarkLabeling;
//!
//! let g = generators::grid(4, 4);
//! let labels = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
//! assert_eq!(labels.query(0, 15), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hl_build as build;
pub use hl_core as core;
pub use hl_graph as graph;
pub use hl_labeling as labeling;
pub use hl_lowerbound as lowerbound;
pub use hl_net as net;
pub use hl_oracles as oracles;
pub use hl_rs as rs;
pub use hl_server as server;
pub use hl_sumindex as sumindex;
