//! K-way sharded serving for hub labelings.
//!
//! A single `hubserve` daemon holds the whole label arena in memory;
//! past a few hundred million label entries that stops being a deployment
//! option. This crate splits one labeling across a fleet of ordinary
//! daemons without giving up *exact* answers:
//!
//! - [`partition()`]: splits a [`hl_core::FlatLabeling`] into `k`
//!   full-width shard labelings routed by `v % k`. Each shard serializes
//!   to a perfectly ordinary HLBS store that `hubserve serve` mounts
//!   unmodified, and hub ids stay global so labels from different shards
//!   still merge-join.
//! - [`router`]: [`ShardRouter`], a client that makes the fleet behave
//!   as one oracle — same-shard pairs are answered server-side by the
//!   owning daemon, cross-shard pairs by fetching the two labels (HLNP
//!   `Label` frames, one per vertex) and merge-joining locally.
//!
//! The `hl-shard` binary wires these together: `hl-shard partition`
//! emits the shard stores, `hl-shard query` drives a running fleet from
//! pair lists.
//!
//! The 2-hop-cover property survives partitioning untouched: a query
//! `(u, v)` needs only `L(u)` and `L(v)`, so *any* assignment of whole
//! vertices to shards preserves exactness — the paper's lower bounds
//! (see `PAPER.md`) bound total label size, not where labels live.

#![forbid(unsafe_code)]

pub mod error;
pub mod partition;
pub mod router;

pub use error::ShardError;
pub use partition::{partition, shard_of};
pub use router::ShardRouter;
