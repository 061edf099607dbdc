//! Graph substrate for the hub-labeling reproduction.
//!
//! This crate provides the undirected graph representation and the classical
//! algorithms every other crate in the workspace builds upon:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation of an
//!   undirected graph with `u64` edge weights (weight `0` is allowed, which
//!   the degree-reduction transform of the paper requires).
//! * [`GraphBuilder`] — incremental, validating construction.
//! * Traversal: [`bfs`], [`dijkstra`] (plus bounded, targeted, bidirectional
//!   and path-counting variants), [`apsp`] dense all-pairs matrices and
//!   canonical shortest-path trees ([`sptree`]).
//! * [`generators`] — deterministic and seeded random graph families used by
//!   the experiments (paths, trees, grids, sparse random graphs, …).
//! * [`transform`] — the degree-reduction gadget from the proof of
//!   Theorem 1.4 and integer-weight edge subdivision.
//! * [`properties`] — connectivity, eccentricities, diameter.
//!
//! # Example
//!
//! ```
//! use hl_graph::{GraphBuilder, dijkstra::shortest_path_distances};
//!
//! # fn main() -> Result<(), hl_graph::GraphError> {
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 1)?;
//! b.add_edge(1, 2, 2)?;
//! b.add_edge(2, 3, 1)?;
//! let g = b.build();
//! let dist = shortest_path_distances(&g, 0);
//! assert_eq!(dist[3], 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apsp;
pub mod bfs;
pub mod builder;
pub mod dijkstra;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod properties;
pub mod rng;
pub mod separator;
pub mod sptree;
pub mod sync;
pub mod transform;
pub mod unionfind;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{Graph, NodeId, Weight, INFINITY};

/// Distance value used throughout the workspace (`u64`, with
/// [`INFINITY`] = `u64::MAX` denoting "unreachable").
pub type Distance = u64;
