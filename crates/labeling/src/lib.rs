//! Bit-level distance labeling schemes.
//!
//! A *distance labeling* assigns each vertex a binary string such that the
//! exact distance between any pair is a function of their two labels alone.
//! This crate provides the bit plumbing ([`bits`]), the scheme abstraction
//! ([`scheme`]), and three concrete schemes:
//!
//! * [`hub_scheme`] — hub labelings compressed into γ-coded bit labels
//!   (the route every state-of-the-art construction takes, per §1.1 of the
//!   paper);
//! * [`full_vector`] — the trivial `n·log(diam)`-bit baseline;
//! * [`tree_scheme`] — the `O(log² n)`-bit centroid scheme for trees.
//!
//! The Sum-Index reduction (Theorem 1.6) consumes these labels as protocol
//! messages: any scheme with `L`-bit labels yields a Sum-Index protocol
//! with `L + O(log n)`-bit messages, which is how the paper converts
//! communication lower bounds into labeling lower bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod full_vector;
pub mod hub_scheme;
pub mod packed;
pub mod scheme;
pub mod tree_scheme;

pub use bits::{BitReader, BitVec, BitWriter};
pub use scheme::{BitLabel, DistanceLabelingScheme, SchemeStats};
