//! The little the command-line tools (`hubserve`, `hlnp-fuzz`,
//! `hl-shard`) share: a flag-value cursor, the exit-code rule, and the
//! `u v` pair-line format with the loop that answers it.

use std::fmt::Display;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
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

/// Why a command failed, which decides its exit code. A `String` error
/// converts to [`CliError::Runtime`], so `?` on the work's own failures
/// needs no annotation; argument errors are wrapped where they are found.
#[derive(Debug)]
pub enum CliError {
    /// The arguments were wrong — exit 2, for a subcommand's own
    /// arguments exactly as for a missing or unknown subcommand.
    Usage(String),
    /// The arguments were fine and the work failed — exit 1.
    Runtime(String),
}

impl CliError {
    /// An argument error, as the `Err` a command returns.
    pub fn usage<T>(message: impl Into<String>) -> Result<T, CliError> {
        Err(CliError::Usage(message.into()))
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Runtime(message)
    }
}

/// The tail of every `main`: reports a failure as `<tool>: <message>` on
/// stderr and turns the outcome into the process exit code.
#[expect(
    clippy::print_stderr,
    reason = "this is the command-line tools' shared `main` tail; stderr is where a CLI reports why it failed"
)]
pub fn exit_code(tool: &str, result: Result<(), CliError>) -> ExitCode {
    let (message, code) = match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => (message, 2),
        Err(CliError::Runtime(message)) => (message, 1),
    };
    eprintln!("{tool}: {message}");
    ExitCode::from(code)
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

/// Answers `u v` pair lines on stdout: a pairs file is read whole and
/// handed to `batch` as one call, otherwise stdin is answered line by
/// line through `single` as lines arrive. Both closures take `oracle`,
/// so one may need it mutably without the other holding it.
pub fn answer_pairs<O, E: Display>(
    oracle: &mut O,
    pairs_path: Option<&str>,
    n: u64,
    batch: impl FnOnce(&mut O, &[(NodeId, NodeId)]) -> Result<Vec<Distance>, E>,
    single: impl Fn(&mut O, NodeId, NodeId) -> Result<Distance, E>,
) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
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
                print_answer(&mut out, u, v, d)?;
            }
        }
        None => {
            for line in std::io::stdin().lock().lines() {
                let line = line.map_err(|e| e.to_string())?;
                if let Some((u, v)) = parse_pair(&line, n)? {
                    let d = single(oracle, u, v).map_err(|e| e.to_string())?;
                    print_answer(&mut out, u, v, d)?;
                }
            }
        }
    }
    out.flush().map_err(|e| e.to_string())
}
