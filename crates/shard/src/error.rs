//! The one error type every sharding operation funnels into.

use std::error::Error;
use std::fmt;

use hl_graph::NodeId;
use hl_net::NetError;

/// Everything that can go wrong partitioning or routing.
#[derive(Debug)]
pub enum ShardError {
    /// A shard daemon failed at the network layer.
    Net(NetError),
    /// Partitioning or routing was asked for zero shards.
    NoShards,
    /// A queried vertex is outside the labeled range.
    NodeOutOfRange {
        /// The offending vertex.
        v: NodeId,
        /// Number of vertices the sharded labeling covers.
        num_nodes: u64,
    },
    /// The shard fleet disagrees about the world: every shard store is
    /// full-width, so every daemon must report the same vertex count.
    ShardMismatch {
        /// Index of the disagreeing shard.
        shard: usize,
        /// What shard 0 reported.
        expected: u64,
        /// What this shard reported.
        got: u64,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Net(e) => write!(f, "network error: {e}"),
            ShardError::NoShards => write!(f, "shard count must be at least 1"),
            ShardError::NodeOutOfRange { v, num_nodes } => {
                write!(f, "node {v} out of range (labeling covers {num_nodes})")
            }
            ShardError::ShardMismatch {
                shard,
                expected,
                got,
            } => write!(
                f,
                "shard {shard} serves {got} vertices but shard 0 serves {expected}; \
                 the fleet is not serving one partitioned store"
            ),
        }
    }
}

impl Error for ShardError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for ShardError {
    fn from(e: NetError) -> Self {
        ShardError::Net(e)
    }
}
