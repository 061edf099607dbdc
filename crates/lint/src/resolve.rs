//! Workspace-level semantic rules over the [`crate::ast`] layer.
//!
//! Four rule families, all driven by facts joined across every library
//! file in the workspace:
//!
//! - **cast-truncation** — a narrowing `as` cast (`u64 as usize`,
//!   `usize as u32`, `u32 as u16`, …) applied to a value tainted by a
//!   decode seed. Seeds are calls that produce attacker-controlled
//!   integers (`from_le_bytes`, the `BitReader::try_read_*` family, the
//!   wire `Cursor` readers); taint propagates through `let` bindings and
//!   simple assignments inside one function body. `T::try_from` is the sanctioned narrowing and never
//!   fires.
//! - **swallowed-result** — `let _ = f(...)` or a `f(...).ok();`
//!   statement where `f` resolves to a *workspace* function or method
//!   returning `Result`. Std calls never fire because resolution only
//!   consults workspace signatures; macros never fire because the `!`
//!   breaks the call shape.
//! - **lock-order** — the workspace lock graph. An acquisition is
//!   `lock_unpoisoned(&self.field)` / `self.field.lock()` (and the
//!   method-selected form `lock_unpoisoned(self.pick(..))`); a lock is
//!   held to the end of its `let` statement's enclosing block, or to the
//!   end of the statement for a temporary guard. Locks acquired — directly
//!   or through calls resolved via `self`/typed-field receivers — while
//!   another lock is held become edges; any strongly-connected component
//!   is a deadlock risk and is reported once, at its earliest witness.
//! - **untrusted-length-alloc** — `Vec::with_capacity(n)` / `.reserve(n)`
//!   / `vec![x; n]` where `n` is tainted and no earlier `if`/`while`/
//!   `assert!` condition compares a tainted value (the cap-check shape).
//!
//! Everything here is deliberately intra-procedural except the two joins
//! that need the workspace: the `Result`-signature tables and the lock
//! graph. The approximations (taint per-body, one guard blesses later
//! allocations in the same body, receiver typing only through `self` and
//! typed fields) are chosen so the real decode paths lint precisely while
//! hot-path index arithmetic stays waiver-free.

use std::collections::{HashMap, HashSet};

use crate::ast::{FileAst, FnDef};
use crate::rules::{ident_at, matching_close, punct_at, Diagnostic};
use crate::tokenizer::{Tok, TokKind};

/// One library file, ready for semantic analysis.
#[derive(Debug)]
pub struct SemFile {
    /// Workspace-relative path.
    pub rel: String,
    /// Significant tokens.
    pub toks: Vec<Tok>,
    /// Parsed items.
    pub ast: FileAst,
}

struct FnSeed {
    name: &'static str,
    /// Known output width in bits; `None` means "derive from a
    /// `u64::`-style path prefix" (defaulting to 64).
    width: Option<u16>,
    /// When set, the seed only applies in files whose path ends with this.
    file_suffix: Option<&'static str>,
}

/// Calls whose integer results are attacker-controlled.
const FN_SEEDS: &[FnSeed] = &[
    // Raw little/big-endian field decodes: the bytes came from outside.
    FnSeed {
        name: "from_le_bytes",
        width: None,
        file_suffix: None,
    },
    FnSeed {
        name: "from_be_bytes",
        width: None,
        file_suffix: None,
    },
    // The HLBS parsers' wrappers around those decodes: `read_u64` reads a
    // header or table field, `read_le` one section element (the v2
    // codec's `Lane` method), and `parse_header` hands the v2 parser its
    // `(flags, n, e)` — the counts every section length derives from.
    FnSeed {
        name: "read_u64",
        width: Some(64),
        file_suffix: None,
    },
    FnSeed {
        name: "read_le",
        width: None,
        file_suffix: None,
    },
    FnSeed {
        name: "parse_header",
        width: Some(64),
        file_suffix: Some("server/src/store_v2.rs"),
    },
    // Checked γ-decode readers over untrusted bit streams.
    FnSeed {
        name: "try_read_gamma",
        width: Some(64),
        file_suffix: None,
    },
    FnSeed {
        name: "try_read_gamma0",
        width: Some(64),
        file_suffix: None,
    },
    FnSeed {
        name: "try_read_unary",
        width: Some(64),
        file_suffix: None,
    },
    FnSeed {
        name: "try_read_bits",
        width: Some(64),
        file_suffix: None,
    },
    // HLNP wire cursor readers (names too generic to seed globally).
    FnSeed {
        name: "u8",
        width: Some(8),
        file_suffix: Some("net/src/wire.rs"),
    },
    FnSeed {
        name: "u16",
        width: Some(16),
        file_suffix: Some("net/src/wire.rs"),
    },
    FnSeed {
        name: "u32",
        width: Some(32),
        file_suffix: Some("net/src/wire.rs"),
    },
    FnSeed {
        name: "u64",
        width: Some(64),
        file_suffix: Some("net/src/wire.rs"),
    },
];

/// Width in bits a value of this primitive type may carry (as a source).
/// `usize` is 64: the value may have been produced on a 64-bit target.
fn src_width(ty: &str) -> Option<u16> {
    match ty {
        "u8" => Some(8),
        "u16" => Some(16),
        "u32" => Some(32),
        "u64" => Some(64),
        "usize" => Some(64),
        _ => None,
    }
}

/// Width a cast target is *guaranteed* to hold. `usize` is 32: the code
/// may run on a 32-bit target, so `u64 as usize` narrows while
/// `u32 as usize` does not.
fn tgt_floor(ty: &str) -> Option<u16> {
    match ty {
        "u8" => Some(8),
        "u16" => Some(16),
        "u32" => Some(32),
        "u64" => Some(64),
        "usize" => Some(32),
        _ => None,
    }
}

/// A lock's identity: `Owner.field` or `Owner.method()`.
type LockId = String;

/// Facts joined across the workspace before any rule runs.
struct Facts {
    /// Names of workspace functions *without* a self parameter that
    /// return `Result` (free and associated functions).
    result_free: HashSet<String>,
    /// Names of workspace methods (with self) that return `Result`.
    result_methods: HashSet<String>,
    /// `(owner struct, field)` pairs whose type mentions `Mutex`.
    mutex_fields: HashSet<(String, String)>,
    /// `(owner struct, field)` → head type ident, wrappers stripped.
    field_types: HashMap<(String, String), String>,
    /// `(self type, method name)` → global fn indices.
    methods_of: HashMap<(String, String), Vec<usize>>,
    /// free/associated fn name → global fn indices.
    free_of: HashMap<String, Vec<usize>>,
}

impl Facts {
    fn build(files: &[SemFile]) -> Facts {
        let mut f = Facts {
            result_free: HashSet::new(),
            result_methods: HashSet::new(),
            mutex_fields: HashSet::new(),
            field_types: HashMap::new(),
            methods_of: HashMap::new(),
            free_of: HashMap::new(),
        };
        let mut idx = 0usize;
        for file in files {
            for s in &file.ast.structs {
                for fld in &s.fields {
                    if fld.ty_idents.iter().any(|t| t == "Mutex") {
                        f.mutex_fields.insert((s.name.clone(), fld.name.clone()));
                    }
                    let head = fld
                        .ty_idents
                        .iter()
                        .find(|t| !matches!(t.as_str(), "Arc" | "Rc" | "Box" | "Option"))
                        .cloned();
                    if let Some(h) = head {
                        f.field_types.insert((s.name.clone(), fld.name.clone()), h);
                    }
                }
            }
            for fd in &file.ast.fns {
                if fd.returns_result {
                    if fd.has_self_param {
                        f.result_methods.insert(fd.name.clone());
                    } else {
                        f.result_free.insert(fd.name.clone());
                    }
                }
                if fd.has_self_param {
                    if let Some(ty) = &fd.self_ty {
                        f.methods_of
                            .entry((ty.clone(), fd.name.clone()))
                            .or_default()
                            .push(idx);
                    }
                } else {
                    f.free_of.entry(fd.name.clone()).or_default().push(idx);
                }
                idx += 1;
            }
        }
        f
    }
}

/// One lock acquisition inside a function body.
struct Acquire {
    lock: LockId,
    tok: usize,
    line: u32,
    /// Token index past which the guard is certainly dead.
    scope_end: usize,
}

/// One call site that might transitively acquire locks.
struct CallSite {
    /// Resolved global fn indices (empty when unresolvable).
    targets: Vec<usize>,
    tok: usize,
    line: u32,
}

/// Per-function lock facts, indexed like the global fn list.
#[derive(Default)]
struct FnLockInfo {
    file: usize,
    acquires: Vec<Acquire>,
    calls: Vec<CallSite>,
}

impl FnLockInfo {
    fn new(file: usize) -> Self {
        FnLockInfo {
            file,
            acquires: Vec::new(),
            calls: Vec::new(),
        }
    }
}

/// Runs every semantic rule over the given library files.
pub fn semantic_scan(files: &[SemFile]) -> Vec<Diagnostic> {
    let facts = Facts::build(files);
    let mut out = Vec::new();
    let mut lock_infos: Vec<FnLockInfo> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for fd in &file.ast.fns {
            let mut info = FnLockInfo::new(fi);
            if fd.body.is_some() {
                let mut scan = BodyScan::new(file, fd, &facts);
                scan.run(&mut out, &mut info);
            }
            lock_infos.push(info);
        }
    }
    lock_order_rule(&lock_infos, files, &mut out);
    out
}

/// One pass over one function body: taint, casts, allocations, swallowed
/// results, and lock-acquisition extraction.
struct BodyScan<'a> {
    file: &'a SemFile,
    fd: &'a FnDef,
    facts: &'a Facts,
    /// Tainted local variables → width in bits.
    taint: HashMap<String, u16>,
    /// Token index of the most recent tainted-comparison guard.
    last_guard: Option<usize>,
}

impl<'a> BodyScan<'a> {
    fn new(file: &'a SemFile, fd: &'a FnDef, facts: &'a Facts) -> Self {
        BodyScan {
            file,
            fd,
            facts,
            taint: HashMap::new(),
            last_guard: None,
        }
    }

    fn toks(&self) -> &'a [Tok] {
        &self.file.toks
    }

    fn run(&mut self, out: &mut Vec<Diagnostic>, info: &mut FnLockInfo) {
        let Some((open, close)) = self.fd.body else {
            return;
        };
        let toks = self.toks();
        let mut i = open + 1;
        while i < close {
            match ident_at(toks, i) {
                Some("let") => {
                    let handled = self.on_let(i, close, out);
                    i = handled.max(i + 1);
                    continue;
                }
                Some("if") | Some("while") => self.on_condition(i, close),
                Some("as") => self.on_cast(i, out),
                Some("with_capacity") => self.on_alloc_call(i, close, out),
                Some("reserve") | Some("reserve_exact")
                    if punct_at(toks, i.wrapping_sub(1)) == Some('.') =>
                {
                    self.on_alloc_call(i, close, out);
                }
                Some("vec") => self.on_vec_macro(i, close, out),
                Some("ok") => self.on_ok_statement(i, open, close, out),
                Some("lock_unpoisoned") => self.on_lock_unpoisoned(i, open, close, info),
                Some("lock") => self.on_dot_lock(i, open, close, info),
                Some(name) if name.starts_with("assert") || name.starts_with("debug_assert") => {
                    self.on_assert_macro(i, close);
                }
                Some(_) => {
                    self.on_assign(i, open, close);
                    self.on_possible_call(i, info);
                }
                None => {}
            }
            i += 1;
        }
    }

    // ---- taint -----------------------------------------------------

    /// Handles a `let` statement (including `if let` / `while let` /
    /// `let _ =`). Returns the index to resume from.
    fn on_let(&mut self, i: usize, close: usize, out: &mut Vec<Diagnostic>) -> usize {
        let toks = self.toks();
        let in_condition = matches!(
            ident_at(toks, i.wrapping_sub(1)),
            Some("if") | Some("while")
        );

        // Find the `=` at depth 0, bounded by the statement.
        let mut eq = None;
        let mut colon = None;
        let mut depth = 0usize;
        let mut k = i + 1;
        while k < close {
            match punct_at(toks, k) {
                Some('(') | Some('[') | Some('{') | Some('<') => depth += 1,
                Some(')') | Some(']') | Some('}') | Some('>') => depth = depth.saturating_sub(1),
                Some(';') if depth == 0 => return k + 1, // `let x;`
                Some(':') if depth == 0 && colon.is_none() => {
                    // `::` is a path, a single `:` is the type annotation.
                    let part_of_path = punct_at(toks, k + 1) == Some(':')
                        || punct_at(toks, k.wrapping_sub(1)) == Some(':');
                    if !part_of_path {
                        colon = Some(k);
                    }
                }
                // An `=` that is not part of `==`, `<=`, `>=`, `!=`, `=>`.
                Some('=')
                    if depth == 0
                        && punct_at(toks, k + 1) != Some('=')
                        && punct_at(toks, k + 1) != Some('>')
                        && !matches!(
                            punct_at(toks, k.wrapping_sub(1)),
                            Some('=') | Some('<') | Some('>') | Some('!')
                        ) =>
                {
                    eq = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(eq) = eq else { return i + 1 };

        // Expression span: to the `;` at depth 0 (or `{` for `if let`).
        let mut depth = 0usize;
        let mut end = eq + 1;
        while end < close {
            match punct_at(toks, end) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth = depth.saturating_sub(1),
                Some('{') if in_condition && depth == 0 => break,
                Some('{') => depth += 1,
                Some('}') => depth = depth.saturating_sub(1),
                Some(';') if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }

        // `let _ = EXPR;` — the swallowed-result shape.
        if ident_at(toks, i + 1) == Some("_") && eq == i + 2 {
            self.check_swallow(eq + 1, end, toks[i].line, out);
            return i + 3;
        }

        // Bindings: idents between `let` and the annotation/`=`,
        // excluding keywords and Uppercase pattern constructors.
        let bind_end = colon.unwrap_or(eq);
        let mut bindings = Vec::new();
        for b in i + 1..bind_end {
            if let Some(name) = ident_at(toks, b) {
                if matches!(name, "mut" | "ref" | "_") {
                    continue;
                }
                if name.starts_with(char::is_uppercase) {
                    continue;
                }
                bindings.push(name.to_string());
            }
        }

        // Width hint from the annotation (`let k: u32 = …`).
        let anno_width =
            colon.and_then(|c| (c + 1..eq).find_map(|t| ident_at(toks, t).and_then(src_width)));

        let w = self.expr_taint(eq + 1, end, anno_width);
        for b in bindings {
            match w {
                Some((width, _)) => {
                    self.taint.insert(b, width);
                }
                None => {
                    self.taint.remove(&b);
                }
            }
        }
        // Do not skip the expression: casts/allocs inside it must still
        // be scanned by the main loop.
        i + 1
    }

    /// `x = expr;` at statement start re-taints (or clears) `x`.
    fn on_assign(&mut self, i: usize, open: usize, close: usize) {
        let toks = self.toks();
        if punct_at(toks, i + 1) != Some('=') || punct_at(toks, i + 2) == Some('=') {
            return;
        }
        let at_start = i == open + 1
            || matches!(
                punct_at(toks, i.wrapping_sub(1)),
                Some(';') | Some('{') | Some('}')
            );
        if !at_start {
            return;
        }
        let name = match ident_at(toks, i) {
            Some(n) => n.to_string(),
            None => return,
        };
        let end = statement_end(toks, i, close);
        let hi = if end > 0 && punct_at(toks, end - 1) == Some(';') {
            end - 1
        } else {
            end
        };
        match self.expr_taint(i + 2, hi, None) {
            Some((w, _)) => {
                self.taint.insert(name, w);
            }
            None => {
                self.taint.remove(&name);
            }
        }
    }

    /// Taint of an expression span: max width over tainted atoms, with
    /// `try_from` / trailing-cast width clamping and `.min(`/`.clamp(`
    /// laundering. Returns the width and the name of the atom behind it.
    fn expr_taint(&self, lo: usize, hi: usize, anno_width: Option<u16>) -> Option<(u16, String)> {
        let toks = self.toks();
        // `.min(` / `.clamp(` bound the value: launder.
        for t in lo..hi {
            if matches!(ident_at(toks, t), Some("min") | Some("clamp"))
                && punct_at(toks, t.wrapping_sub(1)) == Some('.')
                && punct_at(toks, t + 1) == Some('(')
            {
                return None;
            }
        }
        let (mut width, name) = self.span_atoms(lo, hi)?;
        // `P::try_from(x)` clamps to P's width (checked conversion).
        for t in lo..hi {
            if ident_at(toks, t) == Some("try_from")
                && punct_at(toks, t.wrapping_sub(1)) == Some(':')
            {
                if let Some(w) = ident_at(toks, t.wrapping_sub(3)).and_then(src_width) {
                    width = width.min(w);
                }
            }
            if ident_at(toks, t) == Some("try_into") {
                if let Some(w) = anno_width {
                    width = width.min(w);
                }
            }
        }
        // Trailing `… as T` clamps to T's source width.
        if hi >= 2 && ident_at(toks, hi - 2) == Some("as") {
            if let Some(w) = ident_at(toks, hi - 1).and_then(src_width) {
                width = width.min(w);
            }
        }
        Some((width, name))
    }

    /// Widest tainted atom (variable, seed call) in a span.
    fn span_atoms(&self, lo: usize, hi: usize) -> Option<(u16, String)> {
        let toks = self.toks();
        let mut best: Option<(u16, String)> = None;
        let mut consider = |w: u16, name: &str| {
            if best.as_ref().is_none_or(|(bw, _)| w > *bw) {
                best = Some((w, name.to_string()));
            }
        };
        for t in lo..hi.min(toks.len()) {
            let Some(name) = ident_at(toks, t) else {
                continue;
            };
            let after_dot = punct_at(toks, t.wrapping_sub(1)) == Some('.');
            let is_call = punct_at(toks, t + 1) == Some('(');
            if is_call {
                if let Some(w) = self.seed_call_width(t) {
                    consider(w, name);
                }
                continue;
            }
            if after_dot {
                // A field access is never a tainted atom.
                continue;
            }
            if let Some(&w) = self.taint.get(name) {
                consider(w, name);
            }
        }
        best
    }

    /// If the call at token `t` is a taint seed, its output width.
    fn seed_call_width(&self, t: usize) -> Option<u16> {
        let toks = self.toks();
        let name = ident_at(toks, t)?;
        for s in FN_SEEDS {
            if s.name != name {
                continue;
            }
            if let Some(suffix) = s.file_suffix {
                if !self.file.rel.ends_with(suffix) {
                    continue;
                }
            }
            return Some(s.width.unwrap_or_else(|| {
                // `u32::from_le_bytes` → 32; bare call defaults to 64.
                if punct_at(toks, t.wrapping_sub(1)) == Some(':') {
                    ident_at(toks, t.wrapping_sub(3))
                        .and_then(src_width)
                        .unwrap_or(64)
                } else {
                    64
                }
            }));
        }
        None
    }

    // ---- cast-truncation -------------------------------------------

    fn on_cast(&mut self, i: usize, out: &mut Vec<Diagnostic>) {
        let toks = self.toks();
        let Some(target) = ident_at(toks, i + 1) else {
            return;
        };
        let Some(floor) = tgt_floor(target) else {
            return;
        };
        let start = cast_source_start(toks, i);
        let Some((w, root)) = self.span_atoms(start, i) else {
            return;
        };
        if w > floor {
            out.push(Diagnostic {
                rule: "cast-truncation",
                file: self.file.rel.clone(),
                line: toks[i].line,
                message: format!(
                    "narrowing `as {target}` on untrusted decoded value `{root}` \
                     (~{w}-bit); convert with {target}::try_from and a typed error"
                ),
            });
        }
    }

    // ---- untrusted-length-alloc ------------------------------------

    /// `with_capacity(ARG)` / `.reserve(ARG)` at token `i`.
    fn on_alloc_call(&mut self, i: usize, close: usize, out: &mut Vec<Diagnostic>) {
        let toks = self.toks();
        if punct_at(toks, i + 1) != Some('(') {
            return;
        }
        let Some(end) = matching_close(toks, i + 1, '(', ')') else {
            return;
        };
        self.check_alloc(i, i + 2, end.min(close), out);
    }

    /// `vec![EXPR; ARG]` at token `i`.
    fn on_vec_macro(&mut self, i: usize, close: usize, out: &mut Vec<Diagnostic>) {
        let toks = self.toks();
        if punct_at(toks, i + 1) != Some('!') || punct_at(toks, i + 2) != Some('[') {
            return;
        }
        let Some(end) = matching_close(toks, i + 2, '[', ']') else {
            return;
        };
        let mut depth = 0usize;
        for k in i + 3..end.min(close) {
            match punct_at(toks, k) {
                Some('(') | Some('[') | Some('{') => depth += 1,
                Some(')') | Some(']') | Some('}') => depth = depth.saturating_sub(1),
                Some(';') if depth == 0 => {
                    self.check_alloc(i, k + 1, end.min(close), out);
                    return;
                }
                _ => {}
            }
        }
    }

    fn check_alloc(&mut self, site: usize, lo: usize, hi: usize, out: &mut Vec<Diagnostic>) {
        let Some((_, root)) = self.span_atoms(lo, hi) else {
            return;
        };
        if self.last_guard.is_some_and(|g| g < site) {
            return;
        }
        let toks = self.toks();
        out.push(Diagnostic {
            rule: "untrusted-length-alloc",
            file: self.file.rel.clone(),
            line: toks[site].line,
            message: format!(
                "allocation sized by untrusted decoded value `{root}` with no \
                 preceding cap check"
            ),
        });
    }

    /// `if`/`while` conditions: a comparison mentioning a tainted value
    /// counts as a cap check for everything after it in this body.
    fn on_condition(&mut self, i: usize, close: usize) {
        let toks = self.toks();
        let mut depth = 0usize;
        let mut end = i + 1;
        while end < close {
            match punct_at(toks, end) {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth = depth.saturating_sub(1),
                Some('{') if depth == 0 => break,
                Some('{') => depth += 1,
                Some('}') => depth = depth.saturating_sub(1),
                _ => {}
            }
            end += 1;
        }
        self.record_guard(i + 1, end);
    }

    /// `assert!(…)` / `debug_assert!(…)` bodies count like conditions.
    fn on_assert_macro(&mut self, i: usize, close: usize) {
        let toks = self.toks();
        if punct_at(toks, i + 1) != Some('!') || punct_at(toks, i + 2) != Some('(') {
            return;
        }
        let Some(end) = matching_close(toks, i + 2, '(', ')') else {
            return;
        };
        self.record_guard(i + 3, end.min(close));
    }

    fn record_guard(&mut self, lo: usize, hi: usize) {
        let toks = self.toks();
        let has_cmp = (lo..hi).any(|k| {
            matches!(punct_at(toks, k), Some('<') | Some('>'))
                && !matches!(
                    punct_at(toks, k.wrapping_sub(1)),
                    Some('-') | Some('=') | Some(':') | Some('<') | Some('>')
                )
                && punct_at(toks, k + 1) != Some('>')
        });
        if has_cmp && self.span_atoms(lo, hi).is_some() {
            self.last_guard = Some(hi);
        }
    }

    // ---- swallowed-result ------------------------------------------

    /// The expression of a `let _ = …;` statement.
    fn check_swallow(&self, lo: usize, hi: usize, line: u32, out: &mut Vec<Diagnostic>) {
        if let Some(callee) = self.discarded_result_callee(lo, hi) {
            out.push(Diagnostic {
                rule: "swallowed-result",
                file: self.file.rel.clone(),
                line,
                message: format!(
                    "Result returned by `{callee}` is silently discarded; \
                     handle or propagate it (or waive with a reason)"
                ),
            });
        }
    }

    /// `recv().ok();` as a bare statement.
    fn on_ok_statement(&self, i: usize, open: usize, close: usize, out: &mut Vec<Diagnostic>) {
        let toks = self.toks();
        if punct_at(toks, i.wrapping_sub(1)) != Some('.')
            || punct_at(toks, i + 1) != Some('(')
            || punct_at(toks, i + 2) != Some(')')
            || punct_at(toks, i + 3) != Some(';')
        {
            return;
        }
        // Statement must not be a `let` (those go through check_swallow).
        let mut s = i;
        while s > open {
            if matches!(punct_at(toks, s - 1), Some(';') | Some('{') | Some('}')) {
                break;
            }
            s -= 1;
        }
        if ident_at(toks, s) == Some("let") {
            return;
        }
        let _ = close;
        if let Some(callee) = self.result_callee_ending_at(i - 2) {
            out.push(Diagnostic {
                rule: "swallowed-result",
                file: self.file.rel.clone(),
                line: toks[i].line,
                message: format!(
                    "Result returned by `{callee}` is discarded via .ok(); \
                     handle or propagate it (or waive with a reason)"
                ),
            });
        }
    }

    /// The workspace `Result`-returning callee whose value the span
    /// `[lo, hi)` discards, if any.
    fn discarded_result_callee(&self, lo: usize, hi: usize) -> Option<String> {
        let toks = self.toks();
        let mut end = hi;
        while end > lo && punct_at(toks, end - 1) == Some('?') {
            end -= 1;
        }
        if end <= lo {
            return None;
        }
        self.result_callee_ending_at(end - 1)
    }

    /// Resolves the call whose closing `)` sits at `last`, against the
    /// workspace `Result` tables. `.ok()` tails recurse to the receiver.
    fn result_callee_ending_at(&self, last: usize) -> Option<String> {
        let toks = self.toks();
        if punct_at(toks, last) != Some(')') {
            return None;
        }
        let open = matching_open(toks, last, '(', ')')?;
        let callee = ident_at(toks, open.checked_sub(1)?)?;
        let before = open.checked_sub(2);
        let is_method = before.is_some_and(|b| punct_at(toks, b) == Some('.'));
        if callee == "ok" && is_method {
            // `f(...).ok()` — the discarded Result is the receiver's.
            return open
                .checked_sub(3)
                .and_then(|r| self.result_callee_ending_at(r));
        }
        let known = if is_method {
            self.facts.result_methods.contains(callee)
        } else {
            // Free or path call (`send(..)`, `Type::parse(..)`).
            self.facts.result_free.contains(callee)
        };
        known.then(|| callee.to_string())
    }

    // ---- lock-order fact extraction --------------------------------

    /// `lock_unpoisoned(&self.field)` / `lock_unpoisoned(self.pick(..))`.
    fn on_lock_unpoisoned(&self, i: usize, open: usize, close: usize, info: &mut FnLockInfo) {
        let toks = self.toks();
        if punct_at(toks, i + 1) != Some('(') {
            return;
        }
        let Some(end) = matching_close(toks, i + 1, '(', ')') else {
            return;
        };
        let mut a = i + 2;
        if punct_at(toks, a) == Some('&') {
            a += 1;
        }
        let Some(lock) = self.lock_id_of_path(a, end) else {
            return;
        };
        self.push_acquire(lock, i, open, close, info);
    }

    /// `self.field.lock()` (receiver walked back from the `.`).
    fn on_dot_lock(&self, i: usize, open: usize, close: usize, info: &mut FnLockInfo) {
        let toks = self.toks();
        if punct_at(toks, i.wrapping_sub(1)) != Some('.') || punct_at(toks, i + 1) != Some('(') {
            return;
        }
        // Receiver: `self . f1 [. f2]` directly before the `.lock`.
        let mut fields = Vec::new();
        let mut k = i - 1;
        loop {
            let Some(prev) = k.checked_sub(1) else { return };
            let Some(name) = ident_at(toks, prev) else {
                return;
            };
            if name == "self" {
                break;
            }
            fields.push(name.to_string());
            let Some(dot) = prev.checked_sub(1) else {
                return;
            };
            if punct_at(toks, dot) != Some('.') {
                return;
            }
            k = dot;
        }
        fields.reverse();
        let Some(lock) = self.field_chain_lock_id(&fields) else {
            return;
        };
        self.push_acquire(lock, i, open, close, info);
    }

    /// Lock id for an argument path `self . X …` in `[a, end)`.
    fn lock_id_of_path(&self, a: usize, end: usize) -> Option<LockId> {
        let toks = self.toks();
        if ident_at(toks, a) != Some("self") || punct_at(toks, a + 1) != Some('.') {
            return None;
        }
        let name = ident_at(toks, a + 2)?;
        let owner = self.fd.self_ty.clone().unwrap_or_default();
        if punct_at(toks, a + 3) == Some('(') {
            // Method-selected lock (`self.shard(key)`).
            return Some(format!("{owner}.{name}()"));
        }
        if a + 3 < end && punct_at(toks, a + 3) == Some('.') {
            // `self.a.b` chain.
            let inner = ident_at(toks, a + 4)?;
            return self.field_chain_lock_id(&[name.to_string(), inner.to_string()]);
        }
        self.field_chain_lock_id(std::slice::from_ref(&name.to_string()))
    }

    /// Lock id for `self.<f1>.<f2>…`: the final field must be a known
    /// `Mutex` field; its owner is resolved through typed fields where
    /// possible.
    fn field_chain_lock_id(&self, fields: &[String]) -> Option<LockId> {
        let last = fields.last()?;
        let mut owner = self.fd.self_ty.clone().unwrap_or_default();
        for f in &fields[..fields.len() - 1] {
            owner = self
                .facts
                .field_types
                .get(&(owner.clone(), f.clone()))
                .cloned()
                .unwrap_or_default();
        }
        if self
            .facts
            .mutex_fields
            .contains(&(owner.clone(), last.clone()))
        {
            return Some(format!("{owner}.{last}"));
        }
        // Fall back to any struct with a mutex field of this name.
        self.facts
            .mutex_fields
            .iter()
            .find(|(_, f)| f == last)
            .map(|(o, f)| format!("{o}.{f}"))
    }

    fn push_acquire(
        &self,
        lock: LockId,
        i: usize,
        open: usize,
        close: usize,
        info: &mut FnLockInfo,
    ) {
        let toks = self.toks();
        let bound = {
            let mut s = i;
            while s > open && !matches!(punct_at(toks, s - 1), Some(';') | Some('{') | Some('}')) {
                s -= 1;
            }
            // A `*` before the acquisition means the guard is a deref'd
            // temporary (`let x = *self.a.lock()…;`), not a held binding.
            ident_at(toks, s) == Some("let") && !(s..i).any(|k| punct_at(toks, k) == Some('*'))
        };
        let scope_end = if bound {
            enclosing_block_close(toks, open, close, i)
        } else {
            statement_end(toks, i, close)
        };
        info.acquires.push(Acquire {
            lock,
            tok: i,
            line: toks[i].line,
            scope_end,
        });
    }

    /// Records resolvable calls (for transitive lock sets).
    fn on_possible_call(&self, i: usize, info: &mut FnLockInfo) {
        let toks = self.toks();
        let name = match ident_at(toks, i) {
            Some(n) => n,
            None => return,
        };
        if punct_at(toks, i + 1) != Some('(') {
            return;
        }
        if matches!(
            name,
            "if" | "while"
                | "for"
                | "match"
                | "return"
                | "loop"
                | "move"
                | "fn"
                | "lock"
                | "lock_unpoisoned"
        ) {
            return;
        }
        let is_method = punct_at(toks, i.wrapping_sub(1)) == Some('.');
        let targets: Vec<usize> = if is_method {
            let recv = i.checked_sub(2);
            let self_ty = self.fd.self_ty.as_deref().unwrap_or("");
            match recv.and_then(|r| ident_at(toks, r)) {
                Some("self") => self
                    .facts
                    .methods_of
                    .get(&(self_ty.to_string(), name.to_string()))
                    .cloned()
                    .unwrap_or_default(),
                Some(field)
                    if recv.is_some_and(|r| {
                        r >= 2
                            && punct_at(toks, r - 1) == Some('.')
                            && ident_at(toks, r - 2) == Some("self")
                    }) =>
                {
                    match self
                        .facts
                        .field_types
                        .get(&(self_ty.to_string(), field.to_string()))
                    {
                        Some(ty) => self
                            .facts
                            .methods_of
                            .get(&(ty.clone(), name.to_string()))
                            .cloned()
                            .unwrap_or_default(),
                        None => Vec::new(),
                    }
                }
                _ => Vec::new(),
            }
        } else {
            self.facts.free_of.get(name).cloned().unwrap_or_default()
        };
        if !targets.is_empty() {
            info.calls.push(CallSite {
                targets,
                tok: i,
                line: toks[i].line,
            });
        }
    }
}

/// Leftmost token of the postfix chain that is the source of the cast
/// whose `as` keyword sits at `as_idx`.
fn cast_source_start(toks: &[Tok], as_idx: usize) -> usize {
    let mut j = match as_idx.checked_sub(1) {
        Some(j) => j,
        None => return as_idx,
    };
    let mut start = as_idx;
    loop {
        match &toks.get(j).map(|t| &t.kind) {
            Some(TokKind::Punct('?')) | Some(TokKind::Punct('.')) => {}
            Some(TokKind::Punct(')')) => match matching_open(toks, j, '(', ')') {
                Some(o) => {
                    start = o;
                    j = o;
                }
                None => return start,
            },
            Some(TokKind::Punct(']')) => match matching_open(toks, j, '[', ']') {
                Some(o) => {
                    start = o;
                    j = o;
                }
                None => return start,
            },
            Some(TokKind::Punct(':')) => {
                // Only `::` path separators continue the chain.
                if !(j >= 1 && punct_at(toks, j - 1) == Some(':'))
                    && punct_at(toks, j + 1) != Some(':')
                {
                    return start;
                }
            }
            Some(TokKind::Ident(_)) | Some(TokKind::Num) => {
                start = j;
                // Continue only through `.`/`::` connectors.
                match j.checked_sub(1).and_then(|p| punct_at(toks, p)) {
                    Some('.') | Some(':') => {}
                    _ => return start,
                }
            }
            _ => return start,
        }
        match j.checked_sub(1) {
            Some(n) => j = n,
            None => return start,
        }
    }
}

/// Index of the `open` punct matching the `close` punct at `end`.
fn matching_open(toks: &[Tok], end: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = end;
    loop {
        match punct_at(toks, k) {
            Some(c) if c == close => depth += 1,
            Some(c) if c == open => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        k = k.checked_sub(1)?;
    }
}

/// End (exclusive) of the statement containing token `i`: the next `;`
/// with brackets balanced, bounded by the body's closing brace.
fn statement_end(toks: &[Tok], i: usize, close: usize) -> usize {
    let mut depth = 0isize;
    let mut k = i;
    while k < close {
        match punct_at(toks, k) {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            Some(';') if depth == 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    close
}

/// Closing-brace index of the innermost block containing token `i`.
fn enclosing_block_close(toks: &[Tok], open: usize, close: usize, i: usize) -> usize {
    let mut stack = vec![close];
    let mut k = open + 1;
    while k < i {
        match punct_at(toks, k) {
            Some('{') => {
                if let Some(c) = matching_close(toks, k, '{', '}') {
                    stack.push(c);
                }
            }
            Some('}') if stack.len() > 1 && stack.last().copied() == Some(k) => {
                stack.pop();
            }
            _ => {}
        }
        k += 1;
    }
    // Drop any block that already closed before `i`.
    while stack.len() > 1 && stack.last().copied().is_some_and(|c| c < i) {
        stack.pop();
    }
    stack.last().copied().unwrap_or(close)
}

/// Builds the workspace lock graph and reports its cycles.
fn lock_order_rule(infos: &[FnLockInfo], files: &[SemFile], out: &mut Vec<Diagnostic>) {
    // Transitive lock sets per function (fixpoint over the call graph).
    let n = infos.len();
    let mut sets: Vec<HashSet<LockId>> = infos
        .iter()
        .map(|f| f.acquires.iter().map(|a| a.lock.clone()).collect())
        .collect();
    for _ in 0..n.min(32) {
        let mut changed = false;
        for (f, info) in infos.iter().enumerate() {
            for c in &info.calls {
                for &t in &c.targets {
                    if t == f {
                        continue;
                    }
                    let add: Vec<LockId> = sets[t].difference(&sets[f]).cloned().collect();
                    if !add.is_empty() {
                        sets[f].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: lock A (held) → lock B (acquired while A held), with the
    // earliest witness per edge.
    let mut edges: HashMap<(LockId, LockId), (String, u32)> = HashMap::new();
    let mut witness = |a: &LockId, b: &LockId, file: &str, line: u32| {
        if a == b {
            return; // re-acquisition of the same id is usually a shard
        }
        let key = (a.clone(), b.clone());
        let w = (file.to_string(), line);
        match edges.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if w < *e.get() {
                    *e.get_mut() = w;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(w);
            }
        }
    };
    for info in infos {
        let rel = &files[info.file].rel;
        for a in &info.acquires {
            for b in &info.acquires {
                if b.tok > a.tok && b.tok < a.scope_end {
                    witness(&a.lock, &b.lock, rel, b.line);
                }
            }
            for c in &info.calls {
                if c.tok > a.tok && c.tok < a.scope_end {
                    for &t in &c.targets {
                        for l in &sets[t] {
                            witness(&a.lock, l, rel, c.line);
                        }
                    }
                }
            }
        }
    }

    // Cycle detection: an edge is cyclic iff its head reaches its tail.
    let mut succ: HashMap<&LockId, Vec<&LockId>> = HashMap::new();
    for (a, b) in edges.keys() {
        succ.entry(a).or_default().push(b);
    }
    let reaches = |from: &LockId, to: &LockId| -> bool {
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if seen.insert(x.clone()) {
                if let Some(next) = succ.get(x) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    type Edge<'a> = (&'a (LockId, LockId), &'a (String, u32));
    let cyclic: Vec<Edge> = edges.iter().filter(|((a, b), _)| reaches(b, a)).collect();
    if cyclic.is_empty() {
        return;
    }

    // Group mutually-reachable locks into components; one diagnostic per
    // component at its earliest witness.
    let mut locks: Vec<&LockId> = cyclic.iter().flat_map(|((a, b), _)| [a, b]).collect();
    locks.sort();
    locks.dedup();
    let mut assigned: HashSet<LockId> = HashSet::new();
    let mut diags = Vec::new();
    for &l in &locks {
        if assigned.contains(l) {
            continue;
        }
        let mut comp: Vec<&LockId> = locks
            .iter()
            .copied()
            .filter(|&m| reaches(l, m) && reaches(m, l))
            .collect();
        comp.sort();
        for m in &comp {
            assigned.insert((*m).clone());
        }
        let w = cyclic
            .iter()
            .filter(|((a, b), _)| comp.contains(&a) && comp.contains(&b))
            .map(|(_, w)| (*w).clone())
            .min();
        if let Some((file, line)) = w {
            let names: Vec<String> = comp.iter().map(|s| s.to_string()).collect();
            diags.push(Diagnostic {
                rule: "lock-order",
                file,
                line,
                message: format!(
                    "locks {{{}}} are acquired in inconsistent orders; \
                     establish one global acquisition order",
                    names.join(", ")
                ),
            });
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out.extend(diags);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;
    use crate::tokenizer::tokenize;

    fn scan_named(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let sem: Vec<SemFile> = files
            .iter()
            .map(|(rel, src)| {
                let t = tokenize(src);
                let ast = parse_file(&t);
                SemFile {
                    rel: rel.to_string(),
                    toks: t.tokens,
                    ast,
                }
            })
            .collect();
        semantic_scan(&sem)
    }

    fn scan(src: &str) -> Vec<Diagnostic> {
        scan_named(&[("src/lib.rs", src)])
    }

    #[test]
    fn narrowing_cast_on_decoded_value_fires() {
        let d = scan("fn f(b: [u8; 8]) -> u32 { let n = u64::from_le_bytes(b); n as u32 }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "cast-truncation");
        assert!(d[0].message.contains("`n`"));
    }

    #[test]
    fn widening_cast_is_clean() {
        assert!(
            scan("fn f(b: [u8; 4]) -> usize { let n = u32::from_le_bytes(b); n as usize }")
                .is_empty()
        );
        assert!(
            scan("fn f(b: [u8; 4]) -> u64 { let n = u32::from_le_bytes(b); n as u64 }").is_empty()
        );
    }

    #[test]
    fn u64_to_usize_is_narrowing() {
        let d = scan("fn f(b: [u8; 8]) -> usize { u64::from_le_bytes(b) as usize }");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "cast-truncation");
    }

    #[test]
    fn untainted_casts_are_ignored() {
        assert!(scan("fn f(x: u64) -> u32 { x as u32 }").is_empty());
        assert!(scan("fn f(v: &[u8]) -> u32 { v.len() as u32 }").is_empty());
    }

    #[test]
    fn try_from_launders_the_width() {
        let src = "fn f(b: [u8; 8]) -> Option<u32> { let n = u64::from_le_bytes(b); let k = u32::try_from(n).ok()?; Some(k) }";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn v2_header_counts_stay_tainted_through_parse_header() {
        // The v2 parser gets `n`/`e` as a tuple from `parse_header`, with
        // no `from_le_bytes` in its own body: the seed keeps them tainted.
        let src = "fn parse(bytes: &[u8]) -> Result<Vec<u64>, E> {\n let (flags, n, e) = parse_header(bytes)?;\n Ok(vec![0u64; n as usize])\n}";
        let d = scan_named(&[("crates/server/src/store_v2.rs", src)]);
        assert!(
            d.iter()
                .any(|d| d.rule == "untrusted-length-alloc" && d.line == 3),
            "{d:?}"
        );
        assert!(scan_named(&[("crates/graph/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn swallowed_result_on_workspace_fn() {
        let src = "fn fallible() -> Result<(), String> { Ok(()) }\nfn g() { let _ = fallible(); }";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "swallowed-result");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("`fallible`"));
    }

    #[test]
    fn ok_statement_fires_and_macros_do_not() {
        let src = "fn fallible() -> Result<(), String> { Ok(()) }\nfn g() {\n fallible().ok();\n let _ = write!(x, \"y\");\n}";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn std_calls_and_non_result_fns_are_clean() {
        let src = "fn pure() -> u32 { 1 }\nfn g(h: std::thread::JoinHandle<()>) { let _ = h.join(); let _ = pure(); }";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn result_discarded_through_let_underscore_with_question() {
        // `let _ = f()?;` still uses the value; but a plain discard of a
        // cross-file workspace fn fires.
        let d = scan_named(&[
            (
                "src/a.rs",
                "pub fn send(x: u32) -> Result<(), E> { Ok(()) }",
            ),
            ("src/b.rs", "fn g() { let _ = send(1); }"),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "src/b.rs");
    }

    #[test]
    fn tainted_alloc_without_guard_fires() {
        let src = "fn f(b: [u8; 4]) -> Vec<u32> { let n = u32::from_le_bytes(b); let mut v = Vec::with_capacity(n as usize); v }";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "untrusted-length-alloc");
    }

    #[test]
    fn guarded_alloc_is_clean() {
        let src = "fn f(b: [u8; 4], cap: usize) -> Vec<u32> {\n let n = u32::from_le_bytes(b);\n if n as usize > cap { return Vec::new(); }\n let mut v = Vec::with_capacity(n as usize); v }";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn tainted_reserve_and_vec_macro_fire() {
        let src = "fn f(b: [u8; 4], v: &mut Vec<u8>) { let n = u32::from_le_bytes(b); v.reserve(n as usize); }";
        assert_eq!(scan(src).len(), 1);
        let src2 =
            "fn f(b: [u8; 4]) -> Vec<u8> { let n = u32::from_le_bytes(b); vec![0u8; n as usize] }";
        assert_eq!(scan(src2).len(), 1);
    }

    #[test]
    fn untainted_alloc_is_ignored() {
        assert!(scan("fn f(k: usize) -> Vec<u8> { Vec::with_capacity(k) }").is_empty());
    }

    #[test]
    fn min_launders_alloc_taint() {
        let src = "fn f(b: [u8; 4]) -> Vec<u8> { let n = (u32::from_le_bytes(b) as usize).min(1024); Vec::with_capacity(n) }";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn lock_order_cycle_is_reported_once_at_earliest_witness() {
        let src = "use std::sync::Mutex;\npub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\nimpl Pair {\n pub fn ab(&self) -> u32 {\n  let g = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n  let h = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n  *g + *h\n }\n pub fn ba(&self) -> u32 {\n  let g = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n  let h = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n  *g + *h\n }\n}";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lock-order");
        assert_eq!(d[0].line, 6, "earliest second-lock witness");
        assert!(d[0].message.contains("Pair.a"));
        assert!(d[0].message.contains("Pair.b"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "use std::sync::Mutex;\npub struct Pair { a: Mutex<u32>, b: Mutex<u32> }\nimpl Pair {\n pub fn ab(&self) -> u32 { let g = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let h = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner); *g + *h }\n pub fn ab2(&self) -> u32 { let g = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let h = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner); *g - *h }\n}";
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn cross_method_lock_cycle_through_self_calls() {
        let src = "use std::sync::Mutex;\npub struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n fn take_a(&self) -> u32 { let g = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner); *g }\n pub fn outer(&self) {\n  let g = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n  let _x = self.take_a();\n }\n pub fn other(&self) {\n  let g = self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n  let h = self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n  *g + *h;\n }\n}";
        let d = scan(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lock-order");
    }

    #[test]
    fn temporary_guard_does_not_hold_across_statements() {
        // A temporary guard dies at the end of its statement, so the
        // second acquisition is not nested and no cycle exists.
        let src = "use std::sync::Mutex;\npub struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n pub fn ab(&self) -> u32 { let x = *self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let y = *self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner); x + y }\n pub fn ba(&self) -> u32 { let x = *self.b.lock().unwrap_or_else(std::sync::PoisonError::into_inner); let y = *self.a.lock().unwrap_or_else(std::sync::PoisonError::into_inner); x + y }\n}";
        let d = scan(src);
        assert!(d.is_empty(), "{d:?}");
    }
}
