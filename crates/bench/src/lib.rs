//! Shared infrastructure for `hubtool` and the `experiments`
//! table generator: plain-text table rendering and the graph-family zoo
//! used across experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod families;
pub mod table;

pub use families::{family_graph, Family};
pub use table::Table;
