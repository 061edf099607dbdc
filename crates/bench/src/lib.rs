//! Shared infrastructure for the `experiments` table generator:
//! plain-text table rendering. The graph families it sweeps are
//! `hl_graph::families`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table;

pub use table::Table;
