//! The crate-wide error type for client and server operations.

use std::fmt;
use std::io;

use hl_graph::{Distance, NodeId};
use hl_server::MetricsSnapshot;

use crate::wire::{ErrorCode, Response, WireError};

/// Everything the TCP stack can fail with, on either side of the socket.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure: connect, bind, read, write, timeout.
    Io(io::Error),
    /// A frame failed to read or decode.
    Wire(WireError),
    /// The handshake did not complete (bad magic, wrong version, or the
    /// peer closed early).
    Handshake(String),
    /// The server answered with a typed error frame.
    Remote {
        /// Machine-readable cause from the wire.
        code: ErrorCode,
        /// Human-readable detail from the wire.
        message: String,
    },
    /// The server answered, but with the wrong response kind.
    UnexpectedResponse {
        /// What the request called for.
        expected: &'static str,
        /// What actually arrived.
        got: String,
    },
    /// Every reconnect attempt failed; holds the final error.
    RetriesExhausted {
        /// Total attempts made (first try plus retries).
        attempts: u32,
        /// The error the last attempt died with.
        last: Box<NetError>,
    },
    /// A request's wait ran out with no response; other requests on the
    /// same connection are unaffected.
    RequestTimeout {
        /// The request id that went unanswered.
        request_id: u64,
        /// How long the caller was willing to wait.
        waited: std::time::Duration,
    },
    /// The connection died (EOF, a socket error, or a frame that broke
    /// framing or decoding); every in-flight and future request on it
    /// fails with this. The reason is a rendered copy of the original
    /// error, shared by all waiters.
    ConnectionDead(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
            NetError::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            NetError::UnexpectedResponse { expected, got } => {
                write!(f, "expected {expected} response, got {got}")
            }
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            NetError::RequestTimeout { request_id, waited } => {
                write!(f, "request {request_id} unanswered after {waited:?}")
            }
            NetError::ConnectionDead(reason) => {
                write!(f, "connection is dead: {reason}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            NetError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        match e {
            // Socket errors keep their i/o identity so retry policy can
            // tell a dead connection from a protocol violation.
            WireError::Io(io) => NetError::Io(io),
            other => NetError::Wire(other),
        }
    }
}

impl NetError {
    /// `true` for failures a fresh connection might fix: a socket error
    /// (the handshake's too), a connection the driver found dead (EOF, a
    /// socket error, or a frame that breaks framing or decoding), a wait
    /// that ran out, and `Busy`. A refused or malformed handshake
    /// (`Handshake`, `Wire`), a typed server error and an answer of the
    /// wrong kind are not retryable.
    /// [`crate::NetClient`] retries on a fresh connection; a
    /// [`crate::MuxClient`] never retries by itself.
    pub fn is_retryable(&self) -> bool {
        match self {
            NetError::Io(_) | NetError::ConnectionDead(_) | NetError::RequestTimeout { .. } => true,
            NetError::Remote { code, .. } => *code == ErrorCode::Busy,
            NetError::Handshake(_)
            | NetError::Wire(_)
            | NetError::UnexpectedResponse { .. }
            | NetError::RetriesExhausted { .. } => false,
        }
    }
}

/// The one place a [`Response`] becomes a typed result. Each `into_*`
/// returns the payload of the kind the request called for, maps a typed
/// error frame to [`NetError::Remote`] and any other kind to
/// [`NetError::UnexpectedResponse`]; both clients and the shard router
/// unwrap through these.
impl Response {
    fn unexpected(self, expected: &'static str) -> NetError {
        match self {
            Response::Error { code, message } => NetError::Remote { code, message },
            other => NetError::UnexpectedResponse {
                expected,
                got: format!("{other:?}"),
            },
        }
    }

    /// The answer to `Ping`.
    pub fn into_pong(self) -> Result<(), NetError> {
        match self {
            Response::Pong => Ok(()),
            other => Err(other.unexpected("Pong")),
        }
    }

    /// The answer to `Query`.
    pub fn into_distance(self) -> Result<Distance, NetError> {
        match self {
            Response::Distance(d) => Ok(d),
            other => Err(other.unexpected("Distance")),
        }
    }

    /// The answer to a `QueryBatch` of `sent` pairs.
    pub fn into_distance_batch(self, sent: usize) -> Result<Vec<Distance>, NetError> {
        match self {
            Response::DistanceBatch(ds) if ds.len() == sent => Ok(ds),
            Response::DistanceBatch(ds) => Err(wrong_len("DistanceBatch", ds.len(), sent)),
            other => Err(other.unexpected("DistanceBatch")),
        }
    }

    /// The answer to `Label`: sorted `(hub, dist)` pairs.
    pub fn into_label(self) -> Result<Vec<(NodeId, Distance)>, NetError> {
        match self {
            Response::Label(pairs) => Ok(pairs),
            other => Err(other.unexpected("Label")),
        }
    }

    /// The answer to a `LabelBatch` of `sent` vertices.
    pub fn into_label_batch(self, sent: usize) -> Result<Vec<Vec<(NodeId, Distance)>>, NetError> {
        match self {
            Response::LabelBatch(labels) if labels.len() == sent => Ok(labels),
            Response::LabelBatch(labels) => Err(wrong_len("LabelBatch", labels.len(), sent)),
            other => Err(other.unexpected("LabelBatch")),
        }
    }

    /// The answer to `Metrics`.
    pub fn into_metrics(self) -> Result<MetricsSnapshot, NetError> {
        match self {
            Response::Metrics(s) => Ok(s),
            other => Err(other.unexpected("Metrics")),
        }
    }

    /// The answer to `Reload`: the new epoch serial and node count.
    pub fn into_reload_ack(self) -> Result<(u64, u64), NetError> {
        match self {
            Response::ReloadAck { epoch, num_nodes } => Ok((epoch, num_nodes)),
            other => Err(other.unexpected("ReloadAck")),
        }
    }

    /// The answer to `Shutdown`.
    pub fn into_shutdown_ack(self) -> Result<(), NetError> {
        match self {
            Response::ShutdownAck => Ok(()),
            other => Err(other.unexpected("ShutdownAck")),
        }
    }
}

/// A batch answer of the right kind but the wrong length.
fn wrong_len(expected: &'static str, got: usize, sent: usize) -> NetError {
    NetError::UnexpectedResponse {
        expected,
        got: format!("{expected} of {got} (sent {sent})"),
    }
}
