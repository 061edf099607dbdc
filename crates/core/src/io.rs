//! Plain-text serialization of hub labelings.
//!
//! Format: header `hl <num_nodes> <total_hubs>`, then one line per vertex:
//! `l <v> <k> <h1> <d1> … <hk> <dk>`. Comment lines start with `c`.
//! Companion to [`hl_graph::io`] so labelings can be built once and
//! queried by other tooling.

use std::io::{BufRead, Write};

use hl_graph::GraphError;

use crate::label::{HubLabel, HubLabeling};

/// Writes `labeling` in text form.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_labeling<W: Write>(labeling: &HubLabeling, mut out: W) -> std::io::Result<()> {
    writeln!(out, "hl {} {}", labeling.num_nodes(), labeling.total_hubs())?;
    for v in 0..labeling.num_nodes() as u32 {
        let label = labeling.label(v);
        write!(out, "l {v} {}", label.len())?;
        for (h, d) in label.iter() {
            write!(out, " {h} {d}")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Reads a labeling written by [`write_labeling`].
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] on malformed input.
pub fn read_labeling<R: BufRead>(input: R) -> Result<HubLabeling, GraphError> {
    let bad = |msg: &str, line_no: usize| GraphError::InvalidParameters {
        reason: format!("{msg} (line {line_no})"),
    };
    let mut labels: Option<Vec<HubLabel>> = None;
    let mut declared_hubs = 0usize;
    let mut seen_hubs = 0usize;
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
            Some("hl") => {
                if labels.is_some() {
                    return Err(bad("duplicate header", i + 1));
                }
                let n: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("header needs a node count", i + 1))?;
                declared_hubs = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("header needs a hub count", i + 1))?;
                labels = Some(vec![HubLabel::new(); n]);
            }
            Some("l") => {
                let labels = labels
                    .as_mut()
                    .ok_or_else(|| bad("label before header", i + 1))?;
                let v: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("label needs a vertex id", i + 1))?;
                if v >= labels.len() {
                    return Err(bad("vertex id out of range", i + 1));
                }
                let k: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad("label needs a hub count", i + 1))?;
                let mut pairs = Vec::with_capacity(k);
                for _ in 0..k {
                    let h: u32 = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("truncated hub list", i + 1))?;
                    let d: u64 = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("truncated hub list", i + 1))?;
                    pairs.push((h, d));
                }
                if parts.next().is_some() {
                    return Err(bad("trailing tokens on label line", i + 1));
                }
                seen_hubs += pairs.len();
                labels[v] = HubLabel::from_pairs(pairs);
            }
            Some(tok) => return Err(bad(&format!("unknown record '{tok}'"), i + 1)),
            None => unreachable!("empty lines are skipped"),
        }
    }
    let labels = labels.ok_or_else(|| GraphError::InvalidParameters {
        reason: "missing header line".into(),
    })?;
    if seen_hubs != declared_hubs {
        return Err(GraphError::InvalidParameters {
            reason: format!("header declared {declared_hubs} hubs, found {seen_hubs}"),
        });
    }
    Ok(HubLabeling::from_labels(labels))
}

/// Serializes to a string (convenience).
pub fn to_string(labeling: &HubLabeling) -> String {
    let mut buf = Vec::new();
    #[expect(
        clippy::expect_used,
        reason = "the io::Write impl for Vec<u8> never errors"
    )]
    write_labeling(labeling, &mut buf).expect("io::Write for Vec<u8> is infallible");
    String::from_utf8_lossy(&buf).into_owned()
}

/// Parses from a string (convenience).
///
/// # Errors
///
/// Same as [`read_labeling`].
pub fn from_str(s: &str) -> Result<HubLabeling, GraphError> {
    read_labeling(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    #[test]
    fn roundtrip_pll_labeling() {
        let g = generators::connected_gnm(40, 20, 3);
        let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let text = to_string(&hl);
        assert_eq!(from_str(&text).unwrap(), hl);
    }

    #[test]
    fn roundtrip_with_empty_labels() {
        let hl = HubLabeling::empty(3);
        assert_eq!(from_str(&to_string(&hl)).unwrap(), hl);
    }

    #[test]
    fn comments_ignored() {
        let text = "c a labeling\nhl 2 2\nl 0 1 0 0\nc mid\nl 1 1 1 0\n";
        let hl = from_str(text).unwrap();
        assert_eq!(hl.num_nodes(), 2);
        assert_eq!(hl.label(1).distance_to_hub(1), Some(0));
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(from_str("").is_err());
        assert!(from_str("l 0 0\n").is_err(), "label before header");
        assert!(from_str("hl 1 0\nhl 1 0\n").is_err(), "duplicate header");
        assert!(from_str("hl 1 1\nl 0 0\n").is_err(), "hub count mismatch");
        assert!(
            from_str("hl 1 1\nl 5 1 0 0\n").is_err(),
            "vertex out of range"
        );
        assert!(from_str("hl 1 1\nl 0 1 0\n").is_err(), "truncated pair");
        assert!(
            from_str("hl 1 1\nl 0 1 0 0 9\n").is_err(),
            "trailing tokens"
        );
        assert!(from_str("hl 1 1\nz\n").is_err(), "unknown record");
    }
}
