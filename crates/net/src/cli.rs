//! The little the command-line tools (`hubserve`, `hlnp-fuzz`,
//! `hl-shard`) share: a flag-value cursor and the `u v` pair-line format.

use std::fmt::Display;
use std::io::Write;
use std::str::FromStr;

use hl_graph::{Distance, NodeId, INFINITY};

/// A cursor over command-line arguments: iterating yields each argument,
/// and the `match` arm that recognises a flag pulls the flag's value
/// through [`Flags::value`] or [`Flags::parsed`].
pub struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

impl<'a> Flags<'a> {
    /// Starts at the first of `args`.
    pub fn new(args: &'a [String]) -> Self {
        Flags(args.iter())
    }

    /// The value following flag `name`.
    pub fn value(&mut self, name: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{name} needs a value"))
    }

    /// The value following flag `name`, parsed as a `T`.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value(name)?
            .parse()
            .map_err(|e| format!("{name}: {e}"))
    }
}

/// Parses one `u v` line against `n` vertices; blank lines and `#`
/// comments yield `None`.
pub fn parse_pair(line: &str, n: u64) -> Result<Option<(NodeId, NodeId)>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut it = line.split_whitespace();
    let (Some(u), Some(v), None) = (it.next(), it.next(), it.next()) else {
        return Err(format!("expected 'u v', got '{line}'"));
    };
    let u: NodeId = u.parse().map_err(|_| format!("bad vertex id '{u}'"))?;
    let v: NodeId = v.parse().map_err(|_| format!("bad vertex id '{v}'"))?;
    if u64::from(u) >= n || u64::from(v) >= n {
        return Err(format!(
            "vertex out of range in '{line}' (valid ids are 0..{n})"
        ));
    }
    Ok(Some((u, v)))
}

/// Writes one `u v <distance>` answer line, `inf` for unreachable.
pub fn print_answer(out: &mut impl Write, u: NodeId, v: NodeId, d: Distance) -> Result<(), String> {
    let r = if d == INFINITY {
        writeln!(out, "{u} {v} inf")
    } else {
        writeln!(out, "{u} {v} {d}")
    };
    r.map_err(|e| e.to_string())
}
