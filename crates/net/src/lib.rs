//! TCP serving stack for hub labelings: the HLNP wire protocol, a
//! serving daemon, and a blocking client library.
//!
//! `hl-server` answers distance queries in-process; this crate puts a
//! network boundary in front of it, std-only and offline like the rest
//! of the workspace:
//!
//! - [`wire`]: versioned length-prefixed binary frames — handshake
//!   ([`wire::ServerHello`]/[`wire::ClientHello`]), requests
//!   ([`wire::Request`]), responses ([`wire::Response`]) and typed error
//!   frames. Checked reads everywhere, mirroring the HLBS store
//!   discipline: truncated, oversized or trailing-byte frames are typed
//!   errors, never panics.
//! - [`server`]: [`server::NetServer`], the daemon behind
//!   `hubserve serve` — one event-driven readiness loop (`poll(2)` via
//!   [`hl_sys`]) over nonblocking sockets and a bounded worker pool
//!   completing requests out of order, around a socket-free
//!   per-connection state machine (`conn.rs`) that owns every protocol
//!   decision: framing, backpressure, the three deadlines, graceful
//!   drain; metrics into the engine's existing [`hl_server::Metrics`].
//! - [`client`]: [`client::NetClient`], a blocking protocol-v1 client
//!   with connect and request timeouts, bounded retry with
//!   deterministic jittered backoff, and batch pipelining.
//! - [`mux`]: [`mux::MuxClient`], the protocol-v2 client — many
//!   concurrent in-flight requests on one connection, correlated by
//!   request id, each with its own deadline and no head-of-line
//!   blocking.
//! - [`faults`]: deterministic fault injection — a seeded
//!   [`faults::FaultPlan`] scripts byte-level corruption, length-prefix
//!   lies, truncations, slow-loris pacing and stalls against any
//!   transport — or into the connection state machine itself on a
//!   virtual clock ([`faults::PureConn`]) — replayable from the seed.
//!
//! - [`cli`]: the flag cursor and `u v` pair-line helpers the
//!   command-line tools share.
//!
//! Two binaries ride on top: `hubserve` (build/query/stats/serve/
//! convert/reload) and `hlnp-fuzz`, a seeded protocol fuzzer that
//! hammers a live server with planned faults while liveness probes
//! assert exact answers. Throughput and latency against a live daemon
//! are measured by the repo's one benchmark, `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
mod conn;
pub mod error;
pub mod faults;
pub mod mux;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, NetClient};
pub use error::NetError;
pub use faults::{FaultKind, FaultPlan, Outcome, Step};
pub use mux::MuxClient;
pub use server::{NetServer, ServerConfig, StopHandle};
pub use wire::{
    ErrorCode, Request, Response, WireError, MAX_PROTOCOL_VERSION, PROTOCOL_V2, PROTOCOL_VERSION,
};
