//! A lightweight item parser over the token stream.
//!
//! The semantic rules (cast-truncation, swallowed-result, lock-order,
//! untrusted-length-alloc) need more than token patterns: they need to
//! know which functions return `Result`, which struct fields are
//! `Mutex`es, and where each function body begins and ends. This module
//! recovers exactly that — and nothing more — from [`Tokenized`] output:
//! function *signatures* plus opaque body token ranges, and struct
//! *field* names with flattened type idents. It is not a Rust parser;
//! generics, lifetimes and attributes are skipped, bodies are never
//! descended into here, `#[cfg(test)]` items are excluded, and the names
//! of out-of-line `#[cfg(test)] mod x;` declarations are recorded so the
//! engine can exempt their files.

use crate::rules::{cfg_test_item_end, ident_at, matching_close, punct_at};
use crate::tokenizer::{Tok, TokKind, Tokenized};

/// One parsed function: signature facts plus its body token range.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` self type, if any.
    pub self_ty: Option<String>,
    /// `true` when the first parameter is (some form of) `self`.
    pub has_self_param: bool,
    /// `true` when the return type mentions `Result`.
    pub returns_result: bool,
    /// Token index range `[open_brace, close_brace]` of the body.
    /// `None` for body-less trait method declarations.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// One named struct field with the identifiers of its type, flattened
/// (`Vec<Mutex<LruShard>>` → `["Vec", "Mutex", "LruShard"]`).
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// All identifiers appearing in the field's type, in order.
    pub ty_idents: Vec<String>,
    /// 1-based line of the field name.
    pub line: u32,
}

/// One struct with named fields (tuple and unit structs are skipped —
/// no rule needs them).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Named fields.
    pub fields: Vec<FieldDef>,
}

/// Everything the semantic rules need from one file.
#[derive(Debug, Clone, Default)]
pub struct FileAst {
    /// Functions (free, impl and trait) outside `#[cfg(test)]`.
    pub fns: Vec<FnDef>,
    /// Braced structs outside `#[cfg(test)]`.
    pub structs: Vec<StructDef>,
    /// Module names declared as `#[cfg(test)] mod name;` — their backing
    /// files (`name.rs` / `name/mod.rs`) are test context.
    pub test_mods: Vec<String>,
}

/// Parses one tokenized file into item facts.
pub fn parse_file(tokens: &Tokenized) -> FileAst {
    let mut ast = FileAst::default();
    let mut test_mods = Vec::new();
    parse_items(
        &tokens.tokens,
        0,
        tokens.tokens.len(),
        None,
        &mut ast,
        &mut test_mods,
    );
    ast.test_mods = test_mods;
    ast
}

fn parse_items(
    toks: &[Tok],
    mut i: usize,
    end: usize,
    self_ty: Option<&str>,
    ast: &mut FileAst,
    test_mods: &mut Vec<String>,
) {
    while i < end {
        if let Some(skip) = cfg_test_item_end(toks, i, test_mods) {
            i = skip;
            continue;
        }
        match ident_at(toks, i) {
            Some("fn") => i = parse_fn(toks, i, end, self_ty, ast),
            Some("struct") => i = parse_struct(toks, i, end, ast),
            Some("impl") | Some("trait") => {
                let Some(open) = find_punct(toks, i + 1, end, '{') else {
                    i += 1;
                    continue;
                };
                let Some(close) = matching_close(toks, open, '{', '}') else {
                    break;
                };
                let ty = if ident_at(toks, i) == Some("impl") {
                    impl_self_ty(toks, i + 1, open)
                } else {
                    // `trait Name` / `trait Name: Bound` — the name is next.
                    ident_at(toks, i + 1).map(str::to_string)
                };
                parse_items(
                    toks,
                    open + 1,
                    close.min(end),
                    ty.as_deref(),
                    ast,
                    test_mods,
                );
                i = close + 1;
            }
            Some("mod") => {
                // Inline `mod x { … }` recurses; `mod x;` is just skipped.
                if punct_at(toks, i + 2) == Some('{') {
                    let Some(close) = matching_close(toks, i + 2, '{', '}') else {
                        break;
                    };
                    parse_items(toks, i + 3, close.min(end), None, ast, test_mods);
                    i = close + 1;
                } else {
                    i += 3;
                }
            }
            Some("enum") | Some("union") => {
                // Skip the whole item; no rule needs enum variants.
                match find_punct(toks, i + 1, end, '{')
                    .and_then(|o| matching_close(toks, o, '{', '}'))
                {
                    Some(close) => i = close + 1,
                    None => i += 1,
                }
            }
            Some("type") | Some("use") | Some("const") | Some("static") => {
                // Skip to the terminating `;` at brace depth 0, so `fn`
                // appearing in a fn-pointer type alias is never mistaken
                // for an item.
                i = skip_to_semi(toks, i + 1, end);
            }
            Some("macro_rules") => {
                // `macro_rules! name { … }` — the body is token soup.
                match find_punct(toks, i + 1, end, '{')
                    .and_then(|o| matching_close(toks, o, '{', '}'))
                {
                    Some(close) => i = close + 1,
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
}

/// Parses a `fn` item starting at `i` (the `fn` keyword); returns the
/// index just past it.
fn parse_fn(toks: &[Tok], i: usize, end: usize, self_ty: Option<&str>, ast: &mut FileAst) -> usize {
    let line = toks[i].line;
    let Some(name) = ident_at(toks, i + 1) else {
        return i + 1;
    };
    let name = name.to_string();

    // Find the parameter list: the first `(` at angle-bracket depth 0
    // (skipping generic parameters, where `Fn(..)` bounds sit at depth ≥ 1).
    let mut j = i + 2;
    let mut angle = 0usize;
    let open_paren = loop {
        if j >= end {
            return j;
        }
        match punct_at(toks, j) {
            Some('<') => angle += 1,
            Some('>') => angle = angle.saturating_sub(1),
            Some('(') if angle == 0 => break j,
            Some('{') | Some(';') => return j, // malformed; bail out
            _ => {}
        }
        j += 1;
    };
    let Some(close_paren) = matching_close(toks, open_paren, '(', ')') else {
        return open_paren + 1;
    };

    // `self` in the first parameter slot (before the first top-level `,`).
    let mut has_self_param = false;
    let mut depth = 0usize;
    for k in open_paren + 1..close_paren {
        match punct_at(toks, k) {
            Some('(') | Some('[') | Some('<') => depth += 1,
            Some(')') | Some(']') | Some('>') => depth = depth.saturating_sub(1),
            Some(',') if depth == 0 => break,
            _ => {
                if ident_at(toks, k) == Some("self") {
                    has_self_param = true;
                }
            }
        }
    }

    // Return type: idents between `->` and the body `{` / `;` / `where`.
    let mut returns_result = false;
    let mut k = close_paren + 1;
    if punct_at(toks, k) == Some('-') && punct_at(toks, k + 1) == Some('>') {
        k += 2;
        while k < end {
            match &toks[k].kind {
                TokKind::Punct('{') | TokKind::Punct(';') => break,
                TokKind::Ident(s) if s == "where" => break,
                TokKind::Ident(s) if s == "Result" => returns_result = true,
                _ => {}
            }
            k += 1;
        }
    }

    // Body: first `{` at brace depth 0 before a `;` (trait declarations
    // end at `;` without a body). Where-clauses contain no braces.
    let mut body = None;
    let mut b = close_paren + 1;
    let after = loop {
        if b >= end {
            break b;
        }
        match punct_at(toks, b) {
            Some(';') => break b + 1,
            Some('{') => {
                let Some(close) = matching_close(toks, b, '{', '}') else {
                    break end;
                };
                body = Some((b, close));
                break close + 1;
            }
            _ => b += 1,
        }
    };

    ast.fns.push(FnDef {
        name,
        self_ty: self_ty.map(str::to_string),
        has_self_param,
        returns_result,
        body,
        line,
    });
    after
}

/// Parses a `struct` item starting at `i`; returns the index just past it.
fn parse_struct(toks: &[Tok], i: usize, end: usize, ast: &mut FileAst) -> usize {
    let Some(name) = ident_at(toks, i + 1) else {
        return i + 1;
    };
    let name = name.to_string();
    // Walk to `{` (named fields), `(` (tuple — skip to `;`) or `;` (unit).
    let mut j = i + 2;
    let mut angle = 0usize;
    loop {
        if j >= end {
            return j;
        }
        match punct_at(toks, j) {
            Some('<') => angle += 1,
            Some('>') => angle = angle.saturating_sub(1),
            Some(';') if angle == 0 => return j + 1,
            Some('(') if angle == 0 => return skip_to_semi(toks, j, end),
            Some('{') if angle == 0 => break,
            _ => {}
        }
        j += 1;
    }
    let open = j;
    let Some(close) = matching_close(toks, open, '{', '}') else {
        return end;
    };

    let mut fields = Vec::new();
    let mut k = open + 1;
    while k < close {
        // Skip attributes and visibility: `#[…]`, `pub`, `pub(crate)`.
        if punct_at(toks, k) == Some('#') && punct_at(toks, k + 1) == Some('[') {
            match matching_close(toks, k + 1, '[', ']') {
                Some(e) => k = e + 1,
                None => break,
            }
            continue;
        }
        if ident_at(toks, k) == Some("pub") {
            k += 1;
            if punct_at(toks, k) == Some('(') {
                match matching_close(toks, k, '(', ')') {
                    Some(e) => k = e + 1,
                    None => break,
                }
            }
            continue;
        }
        // `name : TYPE ,` — collect the type's idents up to the next
        // top-level comma.
        let (Some(fname), Some(':')) = (ident_at(toks, k), punct_at(toks, k + 1)) else {
            k += 1;
            continue;
        };
        let line = toks[k].line;
        let mut ty_idents = Vec::new();
        let mut t = k + 2;
        let mut depth = 0usize;
        while t < close {
            match &toks[t].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => {
                    depth = depth.saturating_sub(1)
                }
                TokKind::Punct(',') if depth == 0 => break,
                TokKind::Ident(s) => ty_idents.push(s.clone()),
                _ => {}
            }
            t += 1;
        }
        fields.push(FieldDef {
            name: fname.to_string(),
            ty_idents,
            line,
        });
        k = t + 1;
    }
    ast.structs.push(StructDef { name, fields });
    close + 1
}

/// The self type of an `impl` header: the last depth-0 ident after `for`
/// if present (`impl Display for WireError` → `WireError`), otherwise the
/// first depth-0 ident after the generics (`impl<T> Foo<T>` → `Foo`).
fn impl_self_ty(toks: &[Tok], start: usize, open_brace: usize) -> Option<String> {
    let mut angle = 0usize;
    let mut after_for = false;
    let mut head: Option<String> = None;
    let mut tail: Option<String> = None;
    for tok in toks.iter().take(open_brace).skip(start) {
        match &tok.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle = angle.saturating_sub(1),
            TokKind::Ident(s) if angle == 0 => {
                if s == "for" {
                    after_for = true;
                    tail = None;
                } else if s == "where" {
                    break;
                } else if after_for {
                    tail = Some(s.clone());
                } else if s != "dyn" && s != "mut" {
                    head.get_or_insert_with(|| s.clone());
                    tail = Some(s.clone());
                }
            }
            _ => {}
        }
    }
    if after_for {
        tail
    } else {
        // `crate::foo::Bar` → Bar (the last path segment).
        tail.or(head)
    }
}

fn find_punct(toks: &[Tok], start: usize, end: usize, want: char) -> Option<usize> {
    (start..end.min(toks.len())).find(|&k| punct_at(toks, k) == Some(want))
}

/// Skips to just past the next `;` at brace/paren/bracket depth 0.
fn skip_to_semi(toks: &[Tok], start: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut k = start;
    while k < end {
        match punct_at(toks, k) {
            Some('{') | Some('(') | Some('[') => depth += 1,
            Some('}') | Some(')') | Some(']') => depth = depth.saturating_sub(1),
            Some(';') if depth == 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn parse(src: &str) -> FileAst {
        parse_file(&tokenize(src))
    }

    #[test]
    fn free_fn_signature_facts() {
        let a = parse("pub fn read(path: &str) -> Result<Vec<u8>, Error> { body() }\nfn plain(x: u32) -> u32 { x }");
        assert_eq!(a.fns.len(), 2);
        assert_eq!(a.fns[0].name, "read");
        assert!(a.fns[0].returns_result);
        assert!(!a.fns[0].has_self_param);
        assert!(a.fns[0].self_ty.is_none());
        assert!(a.fns[0].body.is_some());
        assert!(!a.fns[1].returns_result);
    }

    #[test]
    fn impl_methods_get_self_ty_and_self_param() {
        let a = parse("impl<T> Store<T> { fn get(&self, k: u64) -> Result<T, E> { x } fn make() -> Self { y } }");
        assert_eq!(a.fns.len(), 2);
        assert_eq!(a.fns[0].self_ty.as_deref(), Some("Store"));
        assert!(a.fns[0].has_self_param);
        assert!(a.fns[0].returns_result);
        assert!(!a.fns[1].has_self_param);
    }

    #[test]
    fn trait_impl_takes_type_after_for() {
        let a = parse("impl fmt::Display for WireError { fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { ok } }");
        assert_eq!(a.fns[0].self_ty.as_deref(), Some("WireError"));
        assert!(a.fns[0].returns_result, "fmt::Result counts as Result");
    }

    #[test]
    fn trait_decl_without_body() {
        let a = parse("trait Codec { fn encode(&self) -> Vec<u8>; fn decode(b: &[u8]) -> Result<Self, E> { d(b) } }");
        assert_eq!(a.fns.len(), 2);
        assert_eq!(a.fns[0].self_ty.as_deref(), Some("Codec"));
        assert!(a.fns[0].body.is_none());
        assert!(a.fns[1].body.is_some());
    }

    #[test]
    fn struct_fields_with_flattened_types() {
        let a = parse("pub struct Cache { pub shards: Vec<Mutex<Shard>>, mask: u64, #[doc(hidden)] pub(crate) tag: String }");
        assert_eq!(a.structs.len(), 1);
        let s = &a.structs[0];
        assert_eq!(s.name, "Cache");
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[0].name, "shards");
        assert_eq!(s.fields[0].ty_idents, vec!["Vec", "Mutex", "Shard"]);
        assert_eq!(s.fields[2].name, "tag");
    }

    #[test]
    fn tuple_and_unit_structs_are_skipped_cleanly() {
        let a = parse("struct P(u32, u32);\nstruct U;\nfn after() {}");
        assert!(a.structs.is_empty());
        assert_eq!(a.fns.len(), 1);
        assert_eq!(a.fns[0].name, "after");
    }

    #[test]
    fn cfg_test_items_are_excluded() {
        let a = parse("fn live() {}\n#[cfg(test)]\nmod tests { fn helper() -> Result<(), E> { x } }\nfn live2() {}");
        let names: Vec<&str> = a.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live", "live2"]);
    }

    #[test]
    fn cfg_test_out_of_line_mod_is_recorded() {
        let a = parse("#[cfg(test)]\nmod proptests;\nmod live;\nfn f() {}");
        assert_eq!(a.test_mods, vec!["proptests"]);
        assert_eq!(a.fns.len(), 1);
    }

    #[test]
    fn fn_pointer_type_alias_is_not_an_item_fn() {
        let a = parse("type Hook = fn(u32) -> u32;\nfn real() {}");
        assert_eq!(a.fns.len(), 1);
        assert_eq!(a.fns[0].name, "real");
    }

    #[test]
    fn generic_fn_bound_paren_is_not_the_param_list() {
        let a = parse("fn apply<F: Fn(u32) -> u32>(f: F, x: u32) -> u32 { f(x) }");
        assert_eq!(a.fns.len(), 1);
        assert_eq!(a.fns[0].name, "apply");
        assert!(!a.fns[0].has_self_param);
        assert!(!a.fns[0].returns_result);
    }

    #[test]
    fn inline_mod_items_are_found() {
        let a = parse("mod inner { pub fn f() -> Result<(), E> { g() } }");
        assert_eq!(a.fns.len(), 1);
        assert!(a.fns[0].returns_result);
    }

    #[test]
    fn body_range_brackets_the_braces() {
        let t = tokenize("fn f() { a(); }");
        let a = parse_file(&t);
        let (open, close) = a.fns[0].body.expect("has body");
        assert_eq!(punct_of(&t.tokens[open]), Some('{'));
        assert_eq!(punct_of(&t.tokens[close]), Some('}'));
        assert!(close > open);
    }

    fn punct_of(t: &Tok) -> Option<char> {
        match t.kind {
            TokKind::Punct(c) => Some(c),
            _ => None,
        }
    }
}
