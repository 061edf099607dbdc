//! Plain-text edge-list serialization (a DIMACS-like format).
//!
//! Format: a header line `p <num_nodes> <num_edges>` followed by one
//! `e <u> <v> <w>` line per undirected edge. Lines starting with `c` are
//! comments. This keeps experiment artifacts diffable and lets users feed
//! their own graphs to the binaries.

use std::io::{BufRead, Write};

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;

/// Writes `g` in edge-list format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_edge_list<W: Write>(g: &Graph, mut out: W) -> std::io::Result<()> {
    writeln!(out, "p {} {}", g.num_nodes(), g.num_edges())?;
    for (u, v, w) in g.edges() {
        writeln!(out, "e {u} {v} {w}")?;
    }
    Ok(())
}

/// Reads a graph in edge-list format.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] on malformed input and
/// propagates node-range/self-loop errors from the builder. I/O errors are
/// folded into `InvalidParameters` with the underlying message.
pub fn read_edge_list<R: BufRead>(input: R) -> Result<Graph, GraphError> {
    let bad = |msg: &str, line_no: usize| GraphError::InvalidParameters {
        reason: format!("{msg} (line {line_no})"),
    };
    let mut builder: Option<GraphBuilder> = None;
    let mut declared_edges = 0usize;
    let mut seen_edges = 0usize;
    for (i, line) in input.lines().enumerate() {
        let line = line.map_err(|e| GraphError::InvalidParameters {
            reason: format!("read failure: {e}"),
        })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                if builder.is_some() {
                    return Err(bad("duplicate header", i + 1));
                }
                let n: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("header needs a node count", i + 1))?;
                declared_edges = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("header needs an edge count", i + 1))?;
                builder = Some(GraphBuilder::with_capacity(n, declared_edges));
            }
            Some("e") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| bad("edge before header", i + 1))?;
                let u: u32 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("edge needs endpoints", i + 1))?;
                let v: u32 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("edge needs endpoints", i + 1))?;
                let w: u64 = match parts.next() {
                    None => 1,
                    Some(t) => t.parse().map_err(|_| bad("bad weight", i + 1))?,
                };
                b.add_edge(u, v, w)?;
                seen_edges += 1;
            }
            Some(tok) => return Err(bad(&format!("unknown record '{tok}'"), i + 1)),
            None => unreachable!("empty lines are skipped"),
        }
    }
    let builder = builder.ok_or_else(|| GraphError::InvalidParameters {
        reason: "missing header line".into(),
    })?;
    if seen_edges != declared_edges {
        return Err(GraphError::InvalidParameters {
            reason: format!("header declared {declared_edges} edges, found {seen_edges}"),
        });
    }
    Ok(builder.build())
}

/// Serializes to an in-memory string (convenience for tests and tools).
pub fn to_string(g: &Graph) -> String {
    let mut buf = Vec::new();
    #[expect(
        clippy::expect_used,
        reason = "the io::Write impl for Vec<u8> never errors"
    )]
    write_edge_list(g, &mut buf).expect("io::Write for Vec<u8> is infallible");
    String::from_utf8_lossy(&buf).into_owned()
}

/// Parses from a string (convenience for tests and tools).
///
/// # Errors
///
/// Same as [`read_edge_list`].
pub fn from_str(s: &str) -> Result<Graph, GraphError> {
    read_edge_list(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_weighted() {
        let g = generators::weighted_grid(4, 5, 9);
        let text = to_string(&g);
        let h = from_str(&text).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn roundtrip_unit() {
        let g = generators::grid(3, 3);
        let h = from_str(&to_string(&g)).unwrap();
        assert_eq!(g, h);
        assert!(h.is_unit_weighted());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "c hello\n\np 3 2\nc mid comment\ne 0 1 5\ne 1 2 7\n";
        let g = from_str(text).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.edge_weight(1, 2), Some(7));
    }

    #[test]
    fn default_weight_is_one() {
        let g = from_str("p 2 1\ne 0 1\n").unwrap();
        assert!(g.is_unit_weighted());
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(from_str("").is_err(), "missing header");
        assert!(from_str("e 0 1 1\n").is_err(), "edge before header");
        assert!(
            from_str("p 2 1\np 2 1\ne 0 1 1\n").is_err(),
            "duplicate header"
        );
        assert!(from_str("p 2 2\ne 0 1 1\n").is_err(), "edge count mismatch");
        assert!(from_str("p x 1\ne 0 1 1\n").is_err(), "bad node count");
        assert!(from_str("p 2 1\ne 0 5 1\n").is_err(), "node out of range");
        assert!(from_str("p 2 1\nq 0 1\n").is_err(), "unknown record");
        assert!(from_str("p 2 1\ne 0 1 zz\n").is_err(), "bad weight");
    }

    #[test]
    fn error_mentions_line_number() {
        let err = from_str("p 2 1\nq 0 1\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }
}
