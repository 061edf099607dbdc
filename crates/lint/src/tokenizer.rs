//! A small, tolerant Rust tokenizer for lint purposes.
//!
//! The rules in this crate fire on *token* patterns (`. unwrap (`,
//! `panic !`, `process :: exit`), never on raw text, so occurrences inside
//! string literals, char literals and comments are invisible to them. The
//! tricky lexical corners that make naive regex linting wrong are all
//! handled here:
//!
//! - raw strings `r"…"` / `r#"…"#` (any number of hashes), where `\` is
//!   not an escape and an embedded `"` does not close the literal;
//! - byte and C strings `b"…"`, `br#"…"#`, `c"…"`, `cr#"…"#`;
//! - char literals, including `'"'`, `'\''` and `'\u{1F600}'`;
//! - lifetimes (`'a`, `'static`, `'_`) which share their sigil with char
//!   literals;
//! - nested block comments `/* /* */ */`;
//! - raw identifiers `r#type` (which share their prefix with raw strings).
//!
//! The tokenizer never fails: malformed input (an unterminated string at
//! EOF, say) is consumed to the end of the file. It does not need to be a
//! full lexer — numbers, operators and punctuation are kept only precisely
//! enough that the interesting identifiers land on the right lines.

/// The kinds of significant (non-comment) tokens the rules look at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (raw identifiers are stored without `r#`).
    Ident(String),
    /// A single punctuation character (`.`, `!`, `#`, `[`, `{`, `:`, …).
    Punct(char),
    /// Any string literal (normal, raw, byte, C). Contents are discarded.
    Str,
    /// A char or byte-char literal. Contents are discarded.
    Char,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// A numeric literal (integer or the digits around a float's dot).
    Num,
}

/// One significant token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What the token is.
    pub kind: TokKind,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

/// One comment with enough context to host waiver directives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommentTok {
    /// Full comment text including the `//` or `/* */` delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (differs for block comments).
    pub end_line: u32,
    /// `true` when nothing but whitespace precedes the comment on its line.
    pub starts_line: bool,
}

/// The output of [`tokenize`]: significant tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Tokenized {
    /// Significant tokens in source order.
    pub tokens: Vec<Tok>,
    /// Comments in source order (for waiver extraction).
    pub comments: Vec<CommentTok>,
}

/// Tokenizes `src`. Never fails; see the module docs for guarantees.
pub fn tokenize(src: &str) -> Tokenized {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    /// Whether a token or comment has already started on the current line.
    line_has_content: bool,
    out: Tokenized,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            i: 0,
            line: 1,
            line_has_content: false,
            out: Tokenized::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.line_has_content = false;
        }
        c.into()
    }

    fn push(&mut self, kind: TokKind, line: u32) {
        self.out.tokens.push(Tok { kind, line });
    }

    fn run(mut self) -> Tokenized {
        while let Some(c) = self.peek(0) {
            if c == '\n' || c.is_whitespace() {
                self.bump();
                continue;
            }
            let starts_line = !self.line_has_content;
            self.line_has_content = true;
            let line = self.line;
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(line, starts_line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line, starts_line),
                '"' => self.string_literal(line),
                '\'' => self.char_or_lifetime(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ if is_ident_start(c) => self.ident_or_prefixed_literal(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32, starts_line: bool) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(CommentTok {
            text,
            line,
            end_line: line,
            starts_line,
        });
    }

    fn block_comment(&mut self, line: u32, starts_line: bool) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(CommentTok {
            text,
            line,
            end_line: self.line,
            starts_line,
        });
    }

    /// Consumes a normal (escaped) string literal whose opening `"` is at
    /// the cursor.
    fn string_literal(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump(); // whatever is escaped, including `"` and `\`
            } else if c == '"' {
                break;
            }
        }
        self.push(TokKind::Str, line);
    }

    /// Consumes a raw string literal: the cursor sits on `r` (the caller
    /// already stripped any `b`/`c` prefix) and `hashes` hash signs follow
    /// before the opening quote.
    fn raw_string_literal(&mut self, line: u32, hashes: usize) {
        self.bump(); // the `r`
        for _ in 0..hashes {
            self.bump();
        }
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '"' && (0..hashes).all(|k| self.peek(k) == Some('#')) {
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokKind::Str, line);
    }

    /// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal).
    /// The cursor sits on the opening `'`.
    fn char_or_lifetime(&mut self, line: u32) {
        if self.peek(1) == Some('\\') {
            // Escaped char literal: skip `'`, `\`, the escape head, then
            // scan to the closing quote (covers `'\''` and `'\u{…}'`).
            self.bump();
            self.bump();
            self.bump();
            while let Some(c) = self.bump() {
                if c == '\'' {
                    break;
                }
            }
            self.push(TokKind::Char, line);
        } else if self.peek(2) == Some('\'') && self.peek(1) != Some('\'') {
            // Plain one-char literal, including `'"'` and `'('`.
            self.bump();
            self.bump();
            self.bump();
            self.push(TokKind::Char, line);
        } else {
            // Lifetime: `'` followed by an identifier (or `'_`).
            self.bump();
            while let Some(c) = self.peek(0) {
                if is_ident_continue(c) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Lifetime, line);
        }
    }

    fn number(&mut self, line: u32) {
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, line);
    }

    /// An identifier — unless it is the prefix of a string/char literal
    /// (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"`, `b'…'`) or a raw
    /// identifier (`r#type`).
    fn ident_or_prefixed_literal(&mut self, line: u32) {
        let c = self.peek(0).unwrap_or(' ');

        // Raw string prefixes: optional b/c, then r, then hashes, then `"`.
        let raw_at = match c {
            'r' => Some(0),
            'b' | 'c' if self.peek(1) == Some('r') => Some(1),
            _ => None,
        };
        if let Some(off) = raw_at {
            let mut hashes = 0usize;
            while self.peek(off + 1 + hashes) == Some('#') {
                hashes += 1;
            }
            if self.peek(off + 1 + hashes) == Some('"') {
                for _ in 0..off {
                    self.bump(); // the b/c prefix
                }
                self.raw_string_literal(line, hashes);
                return;
            }
            // `r#ident` (raw identifier): strip `r#` and lex the name.
            if off == 0 && hashes == 1 && self.peek(2).is_some_and(is_ident_start) {
                self.bump();
                self.bump();
                self.ident(line);
                return;
            }
        }

        // Normal-string / byte-char prefixes.
        if (c == 'b' || c == 'c') && self.peek(1) == Some('"') {
            self.bump();
            self.string_literal(line);
            return;
        }
        if c == 'b' && self.peek(1) == Some('\'') {
            self.bump();
            self.char_or_lifetime(line);
            return;
        }

        self.ident(line);
    }

    fn ident(&mut self, line: u32) {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident(name), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn plain_tokens_with_lines() {
        let t = tokenize("let x = 1;\nfoo.bar();\n");
        let lines: Vec<u32> = t.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines[0], 1);
        assert!(t.tokens.iter().any(|t| t.line == 2));
        assert_eq!(idents("let x = 1;"), vec!["let", "x"]);
    }

    #[test]
    fn string_contents_are_invisible() {
        assert_eq!(idents(r#"let s = "call unwrap() here";"#), vec!["let", "s"]);
    }

    #[test]
    fn raw_string_with_hashes_and_embedded_quote() {
        // r#"…"# — the embedded quote must not close the literal.
        let src = "let s = r#\"she said \"unwrap()\" loudly\"#; after";
        assert_eq!(idents(src), vec!["let", "s", "after"]);
    }

    #[test]
    fn raw_string_backslash_is_not_escape() {
        // In r"…\" the backslash does not escape the closing quote.
        let src = "let s = r\"tail\\\"; x";
        assert_eq!(idents(src), vec!["let", "s", "x"]);
    }

    #[test]
    fn byte_and_c_strings() {
        assert_eq!(
            idents(r#"let s = b"unwrap()"; done"#),
            vec!["let", "s", "done"]
        );
        assert_eq!(
            idents("let s = br#\"panic!\"#; done"),
            vec!["let", "s", "done"]
        );
        assert_eq!(idents(r#"let s = c"exit"; done"#), vec!["let", "s", "done"]);
    }

    #[test]
    fn char_literal_with_double_quote() {
        // '"' must be a char literal, not the start of a string.
        let src = "let c = '\"'; let after = 1;";
        assert_eq!(idents(src), vec!["let", "c", "let", "after"]);
    }

    #[test]
    fn escaped_quote_char_literal() {
        let src = r"let c = '\''; trailing";
        assert_eq!(idents(src), vec!["let", "c", "trailing"]);
    }

    #[test]
    fn unicode_escape_char_literal() {
        let src = r"let c = '\u{1F600}'; trailing";
        assert_eq!(idents(src), vec!["let", "c", "trailing"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str, y: &'static u8, z: &'_ i8) {}";
        let t = tokenize(src);
        let lifetimes = t
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 4, "<'a> declaration plus 'a, 'static, '_ uses");
        assert!(idents(src).contains(&"str".to_string()));
    }

    #[test]
    fn lifetime_then_char_literal_mix() {
        // `'a` is a lifetime even when a real char literal follows.
        let src = "let x: &'a u8 = &1; let c = 'q';";
        let t = tokenize(src);
        assert_eq!(
            t.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            1
        );
        assert_eq!(
            t.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            1
        );
    }

    #[test]
    fn nested_block_comments() {
        let src = "before /* outer /* inner unwrap() */ still outer */ after";
        assert_eq!(idents(src), vec!["before", "after"]);
        let t = tokenize(src);
        assert_eq!(t.comments.len(), 1);
        assert!(t.comments[0].text.contains("inner unwrap()"));
    }

    #[test]
    fn block_comment_line_spans() {
        let src = "a\n/* one\ntwo\nthree */\nb";
        let t = tokenize(src);
        assert_eq!(t.comments[0].line, 2);
        assert_eq!(t.comments[0].end_line, 4);
        assert_eq!(t.tokens[1].line, 5);
    }

    #[test]
    fn line_comment_capture_and_position() {
        let src = "code(); // trailing note\n// lint:allow(swallowed-result): reason\nmore();";
        let t = tokenize(src);
        assert_eq!(t.comments.len(), 2);
        assert!(!t.comments[0].starts_line);
        assert!(t.comments[1].starts_line);
        assert_eq!(t.comments[1].line, 2);
        assert!(t.comments[1].text.contains("lint:allow"));
    }

    #[test]
    fn raw_identifier_is_an_ident_not_a_raw_string() {
        assert_eq!(
            idents("let r#type = 1; r#match"),
            vec!["let", "type", "match"]
        );
    }

    #[test]
    fn unterminated_string_consumes_to_eof_without_panicking() {
        let t = tokenize("let s = \"never closed...");
        assert!(t.tokens.iter().any(|t| t.kind == TokKind::Str));
    }

    #[test]
    fn hash_bang_attr_tokens() {
        let t = tokenize("#![forbid(unsafe_code)]");
        let kinds: Vec<&TokKind> = t.tokens.iter().map(|t| &t.kind).collect();
        assert_eq!(kinds[0], &TokKind::Punct('#'));
        assert_eq!(kinds[1], &TokKind::Punct('!'));
        assert!(matches!(kinds[3], TokKind::Ident(s) if s == "forbid"));
    }
}
