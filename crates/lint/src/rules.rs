//! Rule vocabulary: the diagnostic type, file classification, the rule
//! names, and the token helpers the semantic layer is built from.
//!
//! Four rules, all semantic dataflow rules implemented in
//! [`crate::resolve`] over the [`crate::ast`] item layer:
//!
//! | rule                     | scope        | fires on |
//! |--------------------------|--------------|----------|
//! | `cast-truncation`        | library code | narrowing `as` on decode-tainted values |
//! | `swallowed-result`       | library code | `let _ =` / `.ok();` on workspace `Result` calls |
//! | `lock-order`             | workspace    | cycles in the lock-acquisition graph |
//! | `untrusted-length-alloc` | library code | allocations sized by unchecked decoded lengths |
//!
//! "Library code" is everything under a crate's `src/` except `src/bin/`
//! and `src/main.rs`; files under `tests/`, `benches/` and `examples/` are
//! exempt, as are `#[cfg(test)]` modules (inline blocks and out-of-line
//! `#[cfg(test)] mod x;` files). The panic, print, `process::exit`,
//! `unsafe` and offline-dependency invariants are not rules here: clippy,
//! rustc and `cargo --locked --offline` enforce them (`scripts/check.sh`).

use crate::tokenizer::{Tok, TokKind};

/// How a file participates in the lint pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileContext {
    /// Library source: the rules apply.
    Lib,
    /// Everything else — binaries (`src/bin/`, `src/main.rs`), tests,
    /// benches, examples, stray top-level files: exempt.
    NonLib,
}

/// One finding, before waiver resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule name (`lock-order`, …).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// All known rule names (for waiver validation).
pub const RULE_NAMES: [&str; 4] = [
    "cast-truncation",
    "swallowed-result",
    "lock-order",
    "untrusted-length-alloc",
];

pub(crate) fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

pub(crate) fn punct_at(toks: &[Tok], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// If `i` starts a `#[cfg(test)]`-attributed item, returns the token index
/// just past that item (skipping it). Also records `mod name;` targets.
pub(crate) fn cfg_test_item_end(
    toks: &[Tok],
    i: usize,
    test_mods: &mut Vec<String>,
) -> Option<usize> {
    // Match `# [ cfg ( … test … ) ]` — also covers `cfg(all(test, …))`.
    if punct_at(toks, i) != Some('#') || punct_at(toks, i + 1) != Some('[') {
        return None;
    }
    if ident_at(toks, i + 2) != Some("cfg") {
        return None;
    }
    let attr_end = matching_close(toks, i + 1, '[', ']')?;
    // `cfg(test)` / `cfg(all(test, …))` gate the item to test builds;
    // `cfg(not(test))` is live library code and must stay linted.
    let ident_in_attr = |name: &str| {
        toks[i + 2..attr_end]
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == name))
    };
    if !ident_in_attr("test") || ident_in_attr("not") {
        return None;
    }

    // Skip any further attributes on the same item.
    let mut j = attr_end + 1;
    while punct_at(toks, j) == Some('#') && punct_at(toks, j + 1) == Some('[') {
        j = matching_close(toks, j + 1, '[', ']')? + 1;
    }

    // Out-of-line `mod name;`: exempt the module's file instead.
    if ident_at(toks, j) == Some("mod") && punct_at(toks, j + 2) == Some(';') {
        if let Some(name) = ident_at(toks, j + 1) {
            test_mods.push(name.to_string());
        }
        return Some(j + 3);
    }

    // Otherwise skip to the end of the item's brace block (or its `;` for
    // block-less items), whichever comes first at nesting depth zero.
    let mut k = j;
    while k < toks.len() {
        match punct_at(toks, k) {
            Some(';') => return Some(k + 1),
            Some('{') => return Some(matching_close(toks, k, '{', '}')? + 1),
            _ => k += 1,
        }
    }
    Some(k)
}

/// Index of the `close` punct matching the `open` punct at `start`.
pub(crate) fn matching_close(toks: &[Tok], start: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = start;
    while k < toks.len() {
        match punct_at(toks, k) {
            Some(c) if c == open => depth += 1,
            Some(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        k += 1;
    }
    None
}
