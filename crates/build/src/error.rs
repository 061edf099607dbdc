//! Typed errors for the parallel construction pipeline.

use hl_core::{FlatLayoutError, OrderError};

/// Everything that can go wrong while building a labeling in parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The requested ordering strategy could not produce an order.
    Order(OrderError),
    /// `threads == 0` — the pipeline needs at least one worker.
    ZeroThreads,
    /// The supplied order is not a permutation of the vertex set.
    NotAPermutation,
    /// A worker thread panicked; the build result would be incomplete.
    WorkerPanicked,
    /// The labels do not fit the arena: a label distance exceeds the
    /// `u32` distance lane ([`FlatLayoutError::DistanceTooWide`]).
    Arena(FlatLayoutError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Order(e) => write!(f, "ordering failed: {e}"),
            BuildError::ZeroThreads => write!(f, "parallel build needs at least one thread"),
            BuildError::NotAPermutation => {
                write!(f, "vertex order must be a permutation of 0..n")
            }
            BuildError::WorkerPanicked => write!(f, "a build worker panicked"),
            BuildError::Arena(e) => write!(f, "labels do not fit the arena: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Order(e) => Some(e),
            BuildError::Arena(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OrderError> for BuildError {
    fn from(e: OrderError) -> Self {
        BuildError::Order(e)
    }
}

impl From<FlatLayoutError> for BuildError {
    fn from(e: FlatLayoutError) -> Self {
        BuildError::Arena(e)
    }
}
