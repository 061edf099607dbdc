//! The little the command-line tools (`hubserve`, `hlnp-fuzz`,
//! `hl-shard`) share beyond the exit rule of [`hl_graph::exit`]: a
//! flag-value cursor, and the `u v` pair-line format with the loop that
//! answers it.

use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::str::FromStr;

use hl_graph::exit::CliError;
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
pub fn print_answer(out: &mut impl Write, u: NodeId, v: NodeId, d: Distance) -> io::Result<()> {
    if d == INFINITY {
        writeln!(out, "{u} {v} inf")
    } else {
        writeln!(out, "{u} {v} {d}")
    }
}

/// Answers `u v` pair lines on `out`: a pairs file is read whole and
/// handed to `batch` as one call, otherwise stdin is answered line by
/// line through `single` as lines arrive, and what is answered is flushed
/// whenever no whole line is left to read. Both closures take `oracle`,
/// so one may need it mutably without the other holding it.
pub fn answer_pairs<O, E: Display>(
    out: &mut impl Write,
    oracle: &mut O,
    pairs_path: Option<&str>,
    n: u64,
    batch: impl FnOnce(&mut O, &[(NodeId, NodeId)]) -> Result<Vec<Distance>, E>,
    single: impl Fn(&mut O, NodeId, NodeId) -> Result<Distance, E>,
) -> Result<(), CliError> {
    match pairs_path {
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let mut pairs = Vec::new();
            for line in BufReader::new(file).lines() {
                let line = line.map_err(|e| e.to_string())?;
                pairs.extend(parse_pair(&line, n)?);
            }
            let distances = batch(oracle, &pairs).map_err(|e| e.to_string())?;
            for (&(u, v), &d) in pairs.iter().zip(&distances) {
                print_answer(out, u, v, d)?;
            }
        }
        None => {
            let mut stdin = BufReader::new(io::stdin().lock());
            let mut line = String::new();
            loop {
                // The next read may block on the writer: flush first, so a
                // client waiting on its answers sees them.
                if !stdin.buffer().contains(&b'\n') {
                    out.flush()?;
                }
                line.clear();
                if stdin.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                    break;
                }
                if let Some((u, v)) = parse_pair(&line, n)? {
                    let d = single(oracle, u, v).map_err(|e| e.to_string())?;
                    print_answer(out, u, v, d)?;
                }
            }
        }
    }
    Ok(())
}
