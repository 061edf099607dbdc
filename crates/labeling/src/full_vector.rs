//! The trivial distance labeling: every vertex stores its full distance
//! row. `n·⌈log(diam+2)⌉` bits per label — the baseline all sublinear
//! schemes are measured against.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use hl_graph::dijkstra::shortest_path_distances;
use hl_graph::{Distance, Graph, GraphError, NodeId, INFINITY};

use crate::bits::{BitReader, BitWriter};
use crate::scheme::{BitLabel, DistanceLabelingScheme};

/// Full-distance-vector scheme.
///
/// Label format: γ(id+1), γ(n+1), γ(width+1), then `n` fixed-width
/// entries (`diam+1` encodes "unreachable"). Decoding uses only the *first*
/// label's vector, indexed by the second label's id.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullVectorScheme;

impl DistanceLabelingScheme for FullVectorScheme {
    fn name(&self) -> &'static str {
        "full-vector"
    }

    fn encode(&self, g: &Graph) -> Result<Vec<BitLabel>, GraphError> {
        let n = g.num_nodes();
        // Width: enough for max finite distance + the sentinel.
        let mut rows = Vec::with_capacity(n);
        let mut max_d = 0u64;
        for v in (0..=NodeId::MAX).take(n) {
            let d = shortest_path_distances(g, v);
            for &x in &d {
                if x != INFINITY {
                    max_d = max_d.max(x);
                }
            }
            rows.push(d);
        }
        let sentinel = max_d + 1;
        let width = 64 - sentinel.leading_zeros();
        let mut labels = Vec::with_capacity(n);
        for (v, row) in rows.iter().enumerate() {
            let mut w = BitWriter::new();
            w.write_gamma0(v as u64);
            w.write_gamma0(n as u64);
            w.write_gamma0(width as u64);
            for &x in row {
                w.write_bits(if x == INFINITY { sentinel } else { x }, width);
            }
            w.write_bits(sentinel, width.max(1)); // trailing sentinel value for decoding
            labels.push(BitLabel::new(w.into_bits()));
        }
        Ok(labels)
    }

    fn decode(&self, u: &BitLabel, v: &BitLabel) -> Distance {
        // Read v's id, then index u's row.
        let mut rv = BitReader::new(v.bits());
        let v_id = rv.read_gamma0();
        let mut ru = BitReader::new(u.bits());
        let _u_id = ru.read_gamma0();
        let n = ru.read_gamma0();
        let width = u32::try_from(ru.read_gamma0()).unwrap_or(u32::MAX);
        debug_assert!(v_id < n);
        for _ in 0..v_id {
            ru.read_bits(width);
        }
        let raw = ru.read_bits(width);
        // Recover the sentinel: it is stored after the row; but cheaper, the
        // sentinel is the max encodable "diam+1" — we re-read it from the
        // trailing slot.
        for _ in v_id + 1..n {
            ru.read_bits(width);
        }
        let sentinel = ru.read_bits(width.max(1));
        if raw == sentinel {
            INFINITY
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{verify_scheme, SchemeStats};
    use hl_graph::generators;

    #[test]
    fn exact_on_families() {
        for g in [
            generators::path(9),
            generators::grid(4, 5),
            generators::weighted_grid(4, 4, 7),
            generators::connected_gnm(25, 12, 1),
        ] {
            assert_eq!(verify_scheme(&FullVectorScheme, &g).unwrap(), 0);
        }
    }

    #[test]
    fn exact_on_disconnected() {
        let g = hl_graph::builder::graph_from_edges(6, &[(0, 1), (3, 4)]).unwrap();
        assert_eq!(verify_scheme(&FullVectorScheme, &g).unwrap(), 0);
    }

    #[test]
    fn label_sizes_linear_in_n() {
        let g = generators::path(50);
        let labels = FullVectorScheme.encode(&g).unwrap();
        let stats = SchemeStats::of(&labels);
        // width = ceil(log2(50)) = 6 bits, 51 slots, plus headers.
        assert!(stats.average_bits >= 50.0 * 6.0);
        assert!(stats.average_bits <= 50.0 * 8.0 + 40.0);
    }
}
