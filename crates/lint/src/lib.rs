//! `hublint` — dependency-free static analysis for the hub-labeling
//! workspace.
//!
//! The workspace decodes bit-packed, length-prefixed labels from bytes it
//! does not trust, and corruption must be a *typed error, never a wrong
//! answer, a hang or a panic*. Most of that contract is enforced by stock
//! tools — clippy's restriction lints ban `unwrap`/`expect`/`panic!`,
//! prints and `process::exit` in library targets, rustc's `unsafe_code`
//! lint bans `unsafe`, and `cargo build --locked --offline` bans registry
//! dependencies (all wired in `scripts/check.sh`). `hublint` keeps the
//! four dataflow rules no stock lint covers: `cast-truncation`,
//! `swallowed-result`, `lock-order` and `untrusted-length-alloc`.
//!
//! A small Rust tokenizer (raw strings, char literals, nested block
//! comments, lifetimes) feeds a lightweight item parser ([`ast`]) that
//! extracts function signatures, struct fields and body token ranges; a
//! workspace join over those facts ([`resolve`]) powers the rules, so
//! they never fire inside strings or comments. Justified exceptions are
//! declared per line with `// lint:allow(rule): reason` and surfaced in
//! the lint summary.
//!
//! See `DESIGN.md` ("Static analysis") for the invariant table and the
//! reasoning behind this split.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod output;
pub mod resolve;
pub mod rules;
pub mod tokenizer;
pub mod waivers;
pub mod workspace;

pub use engine::{lint_workspace, LintReport};
pub use rules::{Diagnostic, FileContext};
pub use workspace::DiscoverError;
