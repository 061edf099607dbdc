//! Seeded request streams and the BFS answer oracle.
//!
//! The program under test only ever sees generated inputs: a stream is a
//! function of `(traffic, n, seed)` alone, so equal seeds give
//! byte-identical streams. One request in [`CHECK_EVERY`] starts at one
//! of [`NUM_SOURCES`] seeded BFS sources; every answer to such a request
//! is compared with the BFS distance.

use hl_graph::bfs::bfs_distances;
use hl_graph::rng::Xorshift64;
use hl_graph::{Distance, Graph, NodeId};

/// Requests in one stream; windows cycle through it.
pub const STREAM_LEN: usize = 1 << 20;
/// BFS sources the oracle holds truth for.
pub const NUM_SOURCES: usize = 64;
/// One request in this many starts at an oracle source.
pub const CHECK_EVERY: usize = 16;
/// Marks a stream position whose answer the oracle cannot check. Not
/// `INFINITY`, which is a legitimate answer.
pub const UNCHECKED: Distance = Distance::MAX - 1;
/// Distinct pairs behind the Zipf stream.
pub const ZIPF_POOL: usize = 1 << 20;

/// How a workload draws its pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Independent uniform pairs: almost every request misses the
    /// engine's LRU.
    Uniform,
    /// Zipf(1.0) ranks over a fixed pool of [`ZIPF_POOL`] pairs: the
    /// LRU's hit path.
    Zipf,
    /// Uniform pairs with `u % 2 != v % 2`: always cross-shard at K=2.
    CrossShard,
}

/// Inverse-CDF sampler for Zipf(`s`) over ranks `0..n`.
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-s);
            cumulative.push(total);
        }
        ZipfSampler { cumulative }
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Xorshift64) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let x = rng.gen_f64() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// A generated request stream plus what the oracle expects at each
/// position ([`UNCHECKED`] where it holds no truth).
pub struct Stream {
    pub pairs: Vec<(NodeId, NodeId)>,
    pub expected: Vec<Distance>,
    pub sources: Vec<NodeId>,
}

fn draw_sources(n: usize, rng: &mut Xorshift64) -> Vec<NodeId> {
    (0..NUM_SOURCES)
        .map(|_| rng.gen_index(n) as NodeId)
        .collect()
}

/// A partner for `u`: uniform, never `u` itself, and on the other side
/// of the `v % 2` partition when `cross` (n is even for every store).
fn draw_partner(u: NodeId, n: usize, cross: bool, rng: &mut Xorshift64) -> NodeId {
    let v = rng.gen_index(n) as NodeId;
    if cross {
        if v % 2 == u % 2 {
            v ^ 1
        } else {
            v
        }
    } else if v == u {
        (u + 1) % n as NodeId
    } else {
        v
    }
}

impl Stream {
    /// Generates `len` requests over `n` vertices. `expected` starts
    /// all-[`UNCHECKED`]; [`Stream::attach_truth`] fills it once the
    /// graph exists.
    pub fn generate(traffic: Traffic, n: usize, seed: u64, len: usize) -> Stream {
        assert!(
            n >= 4 && n.is_multiple_of(2),
            "stores have an even vertex count"
        );
        let mut rng = Xorshift64::seed_from_u64(seed ^ 0x7061_6972_7374_726d); // "pairstrm"
        let sources = draw_sources(n, &mut rng);
        let cross = traffic == Traffic::CrossShard;
        let pairs = match traffic {
            Traffic::Uniform | Traffic::CrossShard => (0..len)
                .map(|i| {
                    let u = if i % CHECK_EVERY == 0 {
                        sources[rng.gen_index(NUM_SOURCES)]
                    } else {
                        rng.gen_index(n) as NodeId
                    };
                    (u, draw_partner(u, n, cross, &mut rng))
                })
                .collect(),
            Traffic::Zipf => {
                // The pool is a pure function of (seed, rank): the same
                // rank is the same pair every time it is drawn, which is
                // what makes the stream cacheable.
                let pool_pair = |rank: usize| {
                    let mut r = Xorshift64::seed_from_u64(seed ^ (rank as u64).rotate_left(24));
                    let u = if rank.is_multiple_of(CHECK_EVERY) {
                        sources[r.gen_index(NUM_SOURCES)]
                    } else {
                        r.gen_index(n) as NodeId
                    };
                    (u, draw_partner(u, n, false, &mut r))
                };
                let zipf = ZipfSampler::new(ZIPF_POOL, 1.0);
                (0..len).map(|_| pool_pair(zipf.sample(&mut rng))).collect()
            }
        };
        Stream {
            pairs,
            expected: vec![UNCHECKED; len],
            sources,
        }
    }

    /// The next `n` stream positions from `cursor`, wrapping to the start
    /// rather than splitting a call across the end.
    pub fn take(&self, cursor: &mut usize, n: usize) -> std::ops::Range<usize> {
        assert!(n <= self.pairs.len(), "stream shorter than one call");
        if *cursor + n > self.pairs.len() {
            *cursor = 0;
        }
        let range = *cursor..*cursor + n;
        *cursor += n;
        range
    }

    /// The first `n` requests as a stream of their own, truth included.
    pub fn prefix(&self, n: usize) -> Stream {
        Stream {
            pairs: self.pairs[..n].to_vec(),
            expected: self.expected[..n].to_vec(),
            sources: self.sources.clone(),
        }
    }

    /// The same requests with nothing to check: for operations whose
    /// answers are not distances.
    pub fn unchecked(mut self) -> Stream {
        self.expected.fill(UNCHECKED);
        self
    }

    /// BFSes from every source and records the true distance at each
    /// position whose `u` is a source. Returns how many positions are
    /// checkable.
    pub fn attach_truth(&mut self, g: &Graph) -> usize {
        let mut row_of = vec![usize::MAX; g.num_nodes()];
        let mut truth = Vec::with_capacity(self.sources.len());
        for &s in &self.sources {
            if row_of[s as usize] == usize::MAX {
                row_of[s as usize] = truth.len();
                truth.push(bfs_distances(g, s));
            }
        }
        let mut checkable = 0;
        for (slot, &(u, v)) in self.expected.iter_mut().zip(&self.pairs) {
            let row = row_of[u as usize];
            if row != usize::MAX {
                *slot = truth[row][v as usize];
                checkable += 1;
            }
        }
        checkable
    }
}

/// Per-phase answer accounting. An error, a timeout, a `Busy` frame and
/// a wrong distance all count as failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Requests that returned no answer at all.
    pub errors: u64,
    /// Answers the oracle could check.
    pub checked: u64,
    /// Checked answers that disagreed with BFS.
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed()
    }

    /// Files `answers` against the oracle's `expected` for the same
    /// stream positions.
    #[inline]
    pub fn note_answers(&mut self, answers: &[Distance], expected: &[Distance]) {
        debug_assert_eq!(answers.len(), expected.len());
        self.attempted += answers.len() as u64;
        for (&got, &want) in answers.iter().zip(expected) {
            if want != UNCHECKED {
                self.checked += 1;
                self.wrong += u64::from(got != want);
            }
        }
    }

    /// Files `n` requests that produced no answer.
    pub fn note_errors(&mut self, n: usize) {
        self.attempted += n as u64;
        self.errors += n as u64;
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.checked += other.checked;
        self.wrong += other.wrong;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::generators;

    fn bytes(s: &Stream) -> Vec<u8> {
        s.pairs
            .iter()
            .flat_map(|&(u, v)| u.to_le_bytes().into_iter().chain(v.to_le_bytes()))
            .collect()
    }

    #[test]
    fn streams_repeat_for_equal_seeds_and_differ_otherwise() {
        for traffic in [Traffic::Uniform, Traffic::Zipf, Traffic::CrossShard] {
            let a = Stream::generate(traffic, 2048, 1, 4096);
            let b = Stream::generate(traffic, 2048, 1, 4096);
            let c = Stream::generate(traffic, 2048, 2, 4096);
            assert_eq!(bytes(&a), bytes(&b), "{traffic:?}");
            assert_eq!(a.sources, b.sources);
            assert_ne!(bytes(&a), bytes(&c), "{traffic:?}");
        }
    }

    #[test]
    fn zipf_sampler_repeats_and_is_skewed() {
        let zipf = ZipfSampler::new(1 << 12, 1.0);
        let draw = |seed| {
            let mut rng = Xorshift64::seed_from_u64(seed);
            (0..10_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        assert!(a.iter().all(|&r| r < 1 << 12));
        // H(64)/H(4096) ≈ 0.53 of the mass sits on the first 64 ranks.
        let head = a.iter().filter(|&&r| r < 64).count();
        assert!((4500..6100).contains(&head), "head share {head}/10000");
    }

    #[test]
    fn cross_shard_pairs_always_cross() {
        let s = Stream::generate(Traffic::CrossShard, 2048, 3, 4096);
        assert!(s
            .pairs
            .iter()
            .all(|&(u, v)| u % 2 != v % 2 && (v as usize) < 2048));
    }

    #[test]
    fn one_request_in_sixteen_is_checkable_and_checked_against_bfs() {
        let g = generators::connected_gnm(256, 512, 9);
        let mut s = Stream::generate(Traffic::Uniform, 256, 9, 4096);
        let checkable = s.attach_truth(&g);
        assert!(checkable >= 4096 / CHECK_EVERY);
        let answers: Vec<Distance> = s
            .pairs
            .iter()
            .map(|&(u, v)| hl_graph::bfs::bfs_distance_between(&g, u, v))
            .collect();
        let mut tally = Tally::default();
        tally.note_answers(&answers, &s.expected);
        assert_eq!(
            (tally.attempted, tally.checked, tally.wrong),
            (4096, checkable as u64, 0)
        );

        // One wrong answer at a checkable position is one failure.
        let at = s.expected.iter().position(|&e| e != UNCHECKED).unwrap();
        let mut bad = answers.clone();
        bad[at] += 1;
        let mut tally = Tally::default();
        tally.note_answers(&bad, &s.expected);
        assert_eq!((tally.wrong, tally.failed(), tally.ok()), (1, 1, 4095));
    }
}
