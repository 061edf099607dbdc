//! Serving layer for hub labelings: a versioned binary label store, a
//! thread-safe query engine with an LRU cache, and serving metrics.
//!
//! The rest of the workspace is about *constructing* labelings and proving
//! bounds on their size; this crate is about *answering queries from them*
//! at volume. The pieces:
//!
//! - [`store`] / [`store_v2`]: the on-disk binary formats — γ-coded v1
//!   ([`store::LabelStore`] encodes, [`store::decode`] decodes), the
//!   arena-verbatim v2 and its compact-lane v2c flavor (one codec,
//!   [`store_v2::V2Store`]) — with corruption
//!   detection: truncation, bad magic, checksum mismatches and crafted
//!   bodies surface as typed [`store::StoreError`]s, never as wrong
//!   distances.
//! - [`any_store`]: [`AnyStore`], the one mount record — a file of any
//!   format, validated and decoded into the flat arena a daemon serves,
//!   plus the size facts `hubserve stats` prints.
//! - [`engine`]: [`engine::QueryEngine`], a shared read-only
//!   [`hl_core::FlatLabeling`] arena behind a reloadable epoch cell — a
//!   store decodes straight into it. Queries run on the caller's threads;
//!   single queries go through a sharded LRU cache.
//! - [`cache`]: the [`cache::ShardedLruCache`] used by the engine.
//! - [`metrics`]: atomic counters and a latency histogram with
//!   p50/p95/p99 snapshots ([`metrics::Metrics`]).
//!
//! The `hubserve` binary (in `hl-net`, which also adds the TCP serving
//! stack on top of this crate) wires these into a CLI: `build` a store
//! from a graph, `query` it over a line protocol, print its `stats`,
//! `convert` it between formats, and `serve` it over the network.

#![forbid(unsafe_code)]

pub mod any_store;
pub mod cache;
pub mod engine;
pub mod metrics;
pub mod store;
pub mod store_v2;

pub use any_store::AnyStore;
pub use cache::{CacheStats, ShardedLruCache};
pub use engine::{EngineError, QueryEngine};
pub use metrics::{LatencyHistogram, Metrics, MetricsSnapshot};
pub use store::{LabelStore, StoreError};
pub use store_v2::{CompactStore, FlatStore, V2Store};
