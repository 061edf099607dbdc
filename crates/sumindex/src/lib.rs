//! The Sum-Index communication problem (Definition 1.5) and the reduction
//! from distance labeling of sparse graphs (Theorem 1.6).
//!
//! In Sum-Index, Alice holds a shared word `S ∈ {0,1}^m` and an index `a`,
//! Bob holds the same `S` and an index `b`; both send one simultaneous
//! message to a referee who must output `S_{(a+b) mod m}`. The best known
//! protocol (Ambainis 1996) costs `O(m·log^{0.25}m / 2^{√log m})` bits; the
//! best lower bound is `Ω(√m)`.
//!
//! Theorem 1.6 shows distance labels *are* Sum-Index messages: Alice and
//! Bob deterministically build the pruned gadget `G'_{b,ℓ}` from `S`
//! (middle vertex `v_{ℓ,y}` is kept iff `S_{repr(y)} = 1`), label it with
//! any distance labeling scheme, and send the labels of `v_{0,2x}` /
//! `v_{2ℓ,2z}`. The referee decodes one exact distance and reads the bit
//! off Observation 3.1. Hence labels of `β` bits give a protocol of
//! `β + O(log m)` bits — so lower bounds on `SUMINDEX` transfer to labels.
//!
//! * [`problem`] — instances and ground truth;
//! * [`repr`] — the `(s/2)`-ary digit codec between indices and grid
//!   vectors;
//! * [`naive`] — the trivial `m + O(log m)`-bit protocol;
//! * [`protocol`] — the paper's protocol, end to end: one type, built on
//!   `H'_{b,ℓ}` under any labeling scheme or on the max-degree-3
//!   `G'_{b,ℓ}` with middle-core labels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod naive;
pub mod problem;
pub mod protocol;
pub mod repr;

pub use problem::SumIndexInstance;
pub use protocol::{GraphProtocol, ProtocolCosts};
