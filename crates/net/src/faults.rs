//! Deterministic fault injection for HLNP transports.
//!
//! A fuzzer that cannot replay its findings is a rumor mill. Everything
//! here is therefore *planned before it touches a socket*: a seeded
//! [`FaultPlan`] turns a clean byte stream (one or more well-formed
//! frames) into a [`Step`] script — sends, pauses, a disconnect — and
//! the same seed always yields the same script. The script is pure data;
//! [`apply_script`] then plays it against any [`Write`] transport, and
//! [`apply_script_pure`] into the daemon's connection state machine with
//! no transport at all.
//!
//! The fault kinds mirror what real traffic does to a server at scale:
//!
//! - [`FaultKind::BitFlip`] — frame bytes corrupted in flight (or by a
//!   confused client).
//! - [`FaultKind::Truncate`] — a peer dying mid-frame.
//! - [`FaultKind::LengthLieOverCap`], [`FaultKind::LengthLieZero`],
//!   [`FaultKind::LengthLieOffByOne`] — length prefixes that promise too
//!   much, nothing, or almost the truth.
//! - [`FaultKind::HandshakeGarbage`] — a peer that was never speaking
//!   HLNP at all.
//! - [`FaultKind::SlowLoris`] — one byte at a time, each one fast enough
//!   to look alive, the whole never finishing.
//! - [`FaultKind::Stall`] — a long mid-frame silence, then completion.
//!
//! Protocol v2 (multiplexed) adds id-aware kinds, enumerated separately
//! in [`FaultKind::MUX`] so [`FaultKind::ALL`]'s indices — and with
//! them every recorded v1 campaign seed — stay stable:
//!
//! - [`FaultKind::MuxChunkedInterleave`] — a many-frame stream delivered
//!   in arbitrary chunks with pauses, so partial frames from many
//!   request ids straddle every read.
//! - [`FaultKind::MuxDuplicateId`] — one frame sent twice, id and all.
//! - [`FaultKind::MuxReorderedIds`] — whole frames shuffled, so ids hit
//!   the server in neither submission nor monotonic order.
//! - [`FaultKind::MuxIdBitFlip`] — a bit flipped inside one frame's
//!   8-byte id field: a valid request under a phantom id.
//! - [`FaultKind::MuxShortIdFrame`] — an injected frame whose payload is
//!   shorter than an id; the server must answer `Malformed` on id 0 and
//!   keep the connection.
//!
//! The `hlnp-fuzz` binary drives these into a [`PureConn`] and against a
//! live [`crate::NetServer`] interleaved with clean liveness probes; see
//! `DESIGN.md`'s limits contract for the expected outcome of each kind.

use std::io::Write;
use std::sync::atomic::AtomicU16;
use std::time::{Duration, Instant};

use hl_graph::rng::Xorshift64;
use hl_server::QueryEngine;

use crate::conn::{response_frame, Conn, READ_CHUNK};
use crate::server::{execute, ServerConfig};
use crate::wire::{split_frames, Request};

/// One scripted action against a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Write these bytes (and flush).
    Send(Vec<u8>),
    /// Sleep this long before the next step.
    Pause(Duration),
    /// Stop here and drop the connection; later steps never run.
    Disconnect,
}

/// The kinds of injected faults. `ALL` enumerates them for samplers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip 1–4 random bits somewhere in the stream.
    BitFlip,
    /// Send a strict prefix of the stream, then disconnect.
    Truncate,
    /// Rewrite the first length prefix to exceed any sane frame cap.
    LengthLieOverCap,
    /// Rewrite the first length prefix to zero.
    LengthLieZero,
    /// Rewrite the first length prefix one off the truth, then disconnect.
    LengthLieOffByOne,
    /// Replace the stream with bytes that were never HLNP.
    HandshakeGarbage,
    /// Send the stream one byte at a time with a pause before each, and
    /// disconnect before it completes.
    SlowLoris,
    /// Send half the stream, go silent for a while, then send the rest.
    Stall,
    /// Deliver the whole stream, but in random-sized chunks with pauses
    /// between them, so frames from many ids arrive interleaved with
    /// partial frames across read boundaries.
    MuxChunkedInterleave,
    /// Send every frame once, then one of them a second time (same id).
    MuxDuplicateId,
    /// Send all frames, whole, in a shuffled order.
    MuxReorderedIds,
    /// Flip one bit inside one frame's request-id field.
    MuxIdBitFlip,
    /// Inject a frame whose payload is 1–7 bytes: too short to carry a
    /// v2 request id at all.
    MuxShortIdFrame,
}

impl FaultKind {
    /// Every *v1* fault kind, in a fixed order (the sampler indexes into
    /// it — appending or reordering here would silently change what every
    /// recorded campaign seed replays, so the mux kinds live in
    /// [`FaultKind::MUX`] instead).
    pub const ALL: [FaultKind; 8] = [
        FaultKind::BitFlip,
        FaultKind::Truncate,
        FaultKind::LengthLieOverCap,
        FaultKind::LengthLieZero,
        FaultKind::LengthLieOffByOne,
        FaultKind::HandshakeGarbage,
        FaultKind::SlowLoris,
        FaultKind::Stall,
    ];

    /// The multiplexing-specific (protocol v2) fault kinds, in a fixed
    /// order of their own.
    pub const MUX: [FaultKind; 5] = [
        FaultKind::MuxChunkedInterleave,
        FaultKind::MuxDuplicateId,
        FaultKind::MuxReorderedIds,
        FaultKind::MuxIdBitFlip,
        FaultKind::MuxShortIdFrame,
    ];

    /// Short stable name, for logs and campaign records.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Truncate => "truncate",
            FaultKind::LengthLieOverCap => "length-lie-over-cap",
            FaultKind::LengthLieZero => "length-lie-zero",
            FaultKind::LengthLieOffByOne => "length-lie-off-by-one",
            FaultKind::HandshakeGarbage => "handshake-garbage",
            FaultKind::SlowLoris => "slow-loris",
            FaultKind::Stall => "stall",
            FaultKind::MuxChunkedInterleave => "mux-chunked-interleave",
            FaultKind::MuxDuplicateId => "mux-duplicate-id",
            FaultKind::MuxReorderedIds => "mux-reordered-ids",
            FaultKind::MuxIdBitFlip => "mux-id-bit-flip",
            FaultKind::MuxShortIdFrame => "mux-short-id-frame",
        }
    }
}

/// Tunables for script generation. The defaults are sized for an
/// in-process fuzz loop: pauses long enough to *be* a stall against a
/// server with sub-second frame budgets, short enough that thousands of
/// iterations finish in seconds.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Pause before each slow-loris byte.
    pub loris_pace: Duration,
    /// Ceiling on slow-loris bytes actually sent (the point is the
    /// pacing, not the payload).
    pub loris_max_bytes: usize,
    /// Length of the mid-frame silence for [`FaultKind::Stall`].
    pub stall: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            loris_pace: Duration::from_millis(40),
            loris_max_bytes: 12,
            stall: Duration::from_millis(120),
        }
    }
}

/// A seeded fault planner. Same seed, same sequence of scripts.
#[derive(Debug)]
pub struct FaultPlan {
    rng: Xorshift64,
    config: FaultConfig,
}

impl FaultPlan {
    /// Creates a planner with default [`FaultConfig`].
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: Xorshift64::seed_from_u64(seed),
            config: FaultConfig::default(),
        }
    }

    /// Creates a planner with explicit tunables.
    pub fn with_config(seed: u64, config: FaultConfig) -> Self {
        FaultPlan {
            rng: Xorshift64::seed_from_u64(seed),
            config,
        }
    }

    /// Draws the next fault kind, uniformly over [`FaultKind::ALL`].
    pub fn pick_kind(&mut self) -> FaultKind {
        FaultKind::ALL[self.rng.gen_index(FaultKind::ALL.len())]
    }

    /// Draws the next multiplexing fault kind, uniformly over
    /// [`FaultKind::MUX`].
    pub fn pick_mux_kind(&mut self) -> FaultKind {
        FaultKind::MUX[self.rng.gen_index(FaultKind::MUX.len())]
    }

    /// Builds the script for `kind` against `clean`, a byte stream that
    /// starts at a frame boundary (length prefix first). An empty
    /// `clean` degenerates to garbage-or-disconnect scripts; nothing
    /// here panics on any input.
    pub fn script(&mut self, kind: FaultKind, clean: &[u8]) -> Vec<Step> {
        match kind {
            FaultKind::BitFlip => self.bit_flip(clean),
            FaultKind::Truncate => self.truncate(clean),
            FaultKind::LengthLieOverCap => self.length_lie(clean, LengthLie::OverCap),
            FaultKind::LengthLieZero => self.length_lie(clean, LengthLie::Zero),
            FaultKind::LengthLieOffByOne => self.length_lie(clean, LengthLie::OffByOne),
            FaultKind::HandshakeGarbage => self.garbage(),
            FaultKind::SlowLoris => self.slow_loris(clean),
            FaultKind::Stall => self.stall(clean),
            FaultKind::MuxChunkedInterleave => self.mux_chunked(clean),
            FaultKind::MuxDuplicateId => self.mux_duplicate(clean),
            FaultKind::MuxReorderedIds => self.mux_reorder(clean),
            FaultKind::MuxIdBitFlip => self.mux_id_flip(clean),
            FaultKind::MuxShortIdFrame => self.mux_short_id(clean),
        }
    }

    fn bit_flip(&mut self, clean: &[u8]) -> Vec<Step> {
        let mut bytes = clean.to_vec();
        if !bytes.is_empty() {
            let flips = 1 + self.rng.gen_index(4);
            for _ in 0..flips {
                let at = self.rng.gen_index(bytes.len());
                bytes[at] ^= 1 << self.rng.gen_index(8);
            }
        }
        vec![Step::Send(bytes), Step::Disconnect]
    }

    fn truncate(&mut self, clean: &[u8]) -> Vec<Step> {
        // A strict prefix: at least the cut loses one byte.
        let keep = if clean.is_empty() {
            0
        } else {
            self.rng.gen_index(clean.len())
        };
        vec![Step::Send(clean[..keep].to_vec()), Step::Disconnect]
    }

    fn length_lie(&mut self, clean: &[u8], lie: LengthLie) -> Vec<Step> {
        let mut bytes = clean.to_vec();
        if bytes.len() >= 4 {
            let truth = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let lied = match lie {
                // Far over any sane cap, but not u32::MAX every time —
                // vary it so off-by-one cap checks get exercised too.
                LengthLie::OverCap => u32::MAX - (self.rng.gen_u64_below(1 << 16) as u32),
                LengthLie::Zero => 0,
                LengthLie::OffByOne => {
                    if self.rng.gen_bool() {
                        truth.wrapping_add(1)
                    } else {
                        truth.wrapping_sub(1)
                    }
                }
            };
            bytes[..4].copy_from_slice(&lied.to_le_bytes());
        }
        vec![Step::Send(bytes), Step::Disconnect]
    }

    fn garbage(&mut self) -> Vec<Step> {
        let len = 1 + self.rng.gen_index(64);
        let bytes = (0..len).map(|_| self.rng.next_u64() as u8).collect();
        vec![Step::Send(bytes), Step::Disconnect]
    }

    fn slow_loris(&mut self, clean: &[u8]) -> Vec<Step> {
        // One byte per pause, never the whole stream: the signature of a
        // loris is that the frame cannot complete.
        let n = clean
            .len()
            .saturating_sub(1)
            .min(self.config.loris_max_bytes);
        let mut steps = Vec::with_capacity(2 * n + 1);
        for &b in &clean[..n] {
            steps.push(Step::Pause(self.config.loris_pace));
            steps.push(Step::Send(vec![b]));
        }
        steps.push(Step::Disconnect);
        steps
    }

    fn stall(&mut self, clean: &[u8]) -> Vec<Step> {
        let half = clean.len() / 2;
        vec![
            Step::Send(clean[..half].to_vec()),
            Step::Pause(self.config.stall),
            Step::Send(clean[half..].to_vec()),
        ]
    }

    fn mux_chunked(&mut self, clean: &[u8]) -> Vec<Step> {
        // Everything arrives, in order, but split at arbitrary points
        // with brief pauses between — so nearly every read the server
        // does ends mid-frame, with several ids' frames in flight.
        let mut steps = Vec::new();
        let mut at = 0usize;
        while at < clean.len() {
            let take = 1 + self.rng.gen_index(16.min(clean.len() - at));
            steps.push(Step::Send(clean[at..at + take].to_vec()));
            at += take;
            if at < clean.len() {
                steps.push(Step::Pause(Duration::from_millis(1)));
            }
        }
        steps
    }

    fn mux_duplicate(&mut self, clean: &[u8]) -> Vec<Step> {
        let frames = frames_of(clean);
        if frames.is_empty() {
            return vec![Step::Disconnect];
        }
        // Whole stream first, then one frame again — same bytes, same
        // request id. The server answers both (it keeps no id table);
        // the *client* must survive the surplus response.
        let again = frames[self.rng.gen_index(frames.len())].clone();
        let mut steps: Vec<Step> = frames.into_iter().map(Step::Send).collect();
        steps.push(Step::Send(again));
        steps
    }

    fn mux_reorder(&mut self, clean: &[u8]) -> Vec<Step> {
        let mut frames = frames_of(clean);
        // Fisher–Yates off the seeded rng: whole frames stay intact,
        // but ids reach the server in neither submission nor monotonic
        // order.
        for i in (1..frames.len()).rev() {
            let j = self.rng.gen_index(i + 1);
            frames.swap(i, j);
        }
        frames.into_iter().map(Step::Send).collect()
    }

    fn mux_id_flip(&mut self, clean: &[u8]) -> Vec<Step> {
        let mut frames = frames_of(clean);
        // A v2 frame's request id is payload bytes 0..8, i.e. frame
        // bytes 4..12 (after the length prefix). Flip one bit of one id
        // in a frame long enough to hold one; if none is, the stream
        // goes out clean.
        let candidates: Vec<usize> = (0..frames.len())
            .filter(|&i| frames[i].len() >= 12)
            .collect();
        if !candidates.is_empty() {
            let at = candidates[self.rng.gen_index(candidates.len())];
            let byte = 4 + self.rng.gen_index(8);
            frames[at][byte] ^= 1 << self.rng.gen_index(8);
        }
        frames.into_iter().map(Step::Send).collect()
    }

    fn mux_short_id(&mut self, clean: &[u8]) -> Vec<Step> {
        // A complete, honestly-framed runt: 1–7 payload bytes, too few
        // to carry a request id. The server must answer Malformed on
        // id 0 and keep serving the surrounding frames.
        let n = 1 + self.rng.gen_index(7);
        let mut runt = u32::try_from(n).unwrap_or(7).to_le_bytes().to_vec();
        for _ in 0..n {
            runt.push(self.rng.next_u64() as u8);
        }
        let mut frames = frames_of(clean);
        let at = self.rng.gen_index(frames.len() + 1);
        frames.insert(at, runt);
        frames.into_iter().map(Step::Send).collect()
    }
}

/// Splits a stream into whole frames (length prefix included), through
/// the one splitter with no cap. A tail that is not a complete frame — a
/// short prefix, a length running past the end of the input, or an empty
/// frame (the one prefix an uncapped split refuses) and all after it — is
/// kept as one final partial chunk, so the concatenation of the output
/// is always exactly the input.
fn frames_of(clean: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut rest = clean;
    let split = split_frames(clean, u32::MAX, |payload| {
        let (frame, tail) = rest.split_at(4 + payload.len());
        frames.push(frame.to_vec());
        rest = tail;
        true
    });
    if split.is_err() || !rest.is_empty() {
        frames.push(rest.to_vec());
    }
    frames
}

enum LengthLie {
    OverCap,
    Zero,
    OffByOne,
}

/// What playing a script against a transport amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every step ran; the script did not ask for a disconnect.
    Completed,
    /// The script ended with [`Step::Disconnect`]; the caller should now
    /// drop the transport.
    Disconnected,
    /// The peer stopped accepting bytes first (reset or close). For a
    /// fault campaign this is a *pass*: the server cut us off.
    PeerClosed,
}

/// Plays `steps` against `w`. Write failures are not errors here — a
/// peer hanging up on a hostile stream is the defense working — so the
/// result distinguishes them as [`Outcome::PeerClosed`] instead.
pub fn apply_script<W: Write>(w: &mut W, steps: &[Step]) -> Outcome {
    for step in steps {
        match step {
            Step::Send(bytes) => {
                if w.write_all(bytes).and_then(|_| w.flush()).is_err() {
                    return Outcome::PeerClosed;
                }
            }
            Step::Pause(d) => std::thread::sleep(*d),
            Step::Disconnect => return Outcome::Disconnected,
        }
    }
    Outcome::Completed
}

/// One connection of the daemon's own state machine (`conn.rs`)
/// with no daemon around it: no socket, no thread, and a virtual clock
/// only the driver moves, so a thirty-second slow-loris costs
/// microseconds and every read boundary, completion order and deadline
/// is the driver's to choose ([`apply_script_pure`] draws them from a
/// seed; `conn.rs`'s tests enumerate them). Requests the machine hands
/// out wait in a run queue until the driver completes one through the
/// daemon's real `execute`; bytes the machine queues reach the output
/// only as the peer reads them.
#[derive(Clone)]
pub struct PureConn<'a> {
    config: &'a ServerConfig,
    engine: &'a QueryEngine,
    pub(crate) conn: Conn,
    /// The virtual clock; only the caller moves it.
    pub(crate) now: Instant,
    /// Requests handed out to the pool and not yet completed.
    pub(crate) running: Vec<(u64, u16, Request)>,
    /// Every completion frame the pool produced, in completion order.
    pub(crate) completed: Vec<Vec<u8>>,
    /// Every byte the peer has read so far.
    pub(crate) output: Vec<u8>,
    /// The loop saw the machine finished or expired and dropped it.
    dropped: bool,
}

impl<'a> PureConn<'a> {
    /// Accepts a connection at `now` while `serving` others are held.
    pub fn accept(
        config: &'a ServerConfig,
        engine: &'a QueryEngine,
        serving: usize,
        now: Instant,
    ) -> Self {
        PureConn {
            config,
            engine,
            conn: Conn::accept(config, engine, config.store_version, serving, now),
            now,
            running: Vec::new(),
            completed: Vec::new(),
            output: Vec::new(),
            dropped: false,
        }
    }

    /// The socket delivers `chunk` (one `read(2)` worth, at most 16 KiB).
    pub(crate) fn send(&mut self, chunk: &[u8]) {
        self.conn
            .on_bytes(self.config, self.engine, chunk, self.now);
        self.pull();
    }

    /// The pool finishes the `i`-th running request.
    pub(crate) fn complete(&mut self, i: usize) {
        let (id, version, request) = self.running.remove(i);
        let store_version = AtomicU16::new(self.config.store_version);
        let response = execute(self.engine, &store_version, request);
        let (framed, is_error) = response_frame(version, id, &response, self.config.max_frame_len);
        if !self.dropped {
            self.conn.on_completion(self.engine, &framed, is_error);
            self.pull();
        }
        self.completed.push(framed);
    }

    fn pull(&mut self) {
        while let Some(job) = self.conn.next_job(self.config, self.engine) {
            self.running.push(job);
        }
    }

    /// The loop's write pass: the peer's socket takes up to `max` queued
    /// bytes (taking none while bytes wait blocks the write), and the
    /// loop drops the connection if it is now finished or expired.
    pub(crate) fn read(&mut self, max: usize) {
        if self.dropped {
            return;
        }
        let n = max.min(self.conn.writable().len());
        self.output.extend_from_slice(&self.conn.writable()[..n]);
        match n {
            0 if !self.conn.writable().is_empty() => self.conn.write_blocked(self.now),
            _ => self.conn.wrote(n),
        }
        self.dropped = self.conn.is_finished() || self.expired();
    }

    /// A deadline has passed: the daemon drops the connection silently.
    pub fn expired(&self) -> bool {
        self.conn.expired(self.config, self.now)
    }

    /// The invariants that hold after every step: no limit is exceeded,
    /// and what the peer has read is whole frames so far — the greeting,
    /// then responses — among them every completion fed back, each once,
    /// in the order it was fed.
    pub(crate) fn check(&self) -> Result<(), String> {
        if !self.conn.within_limits(self.config) {
            return Err("a per-connection limit was exceeded".to_string());
        }
        let mut fed = self.completed.iter().peekable();
        for frame in frames_of(&self.output).iter().skip(1) {
            if fed.peek() == Some(&frame) {
                fed.next();
            }
        }
        let unread = self.conn.writable().len();
        match fed.next() {
            Some(lost) if unread == 0 && !self.conn.is_finished() => Err(format!(
                "completion {lost:02x?} was fed back and never written, or written out of order"
            )),
            _ => Ok(()),
        }
    }

    /// Runs the connection to quiescence — every running request
    /// completes, the peer reads everything — then checks that every
    /// request handed out was answered, or the connection closed.
    pub(crate) fn settle(&mut self) -> Result<(), String> {
        while !self.running.is_empty() {
            self.complete(0);
        }
        self.read(usize::MAX);
        self.check()
    }
}

/// The second backend for a [`Step`] script: plays it into a
/// [`PureConn`], delivering each [`Step::Send`] in seeded chunk sizes,
/// completing running requests in seeded order and letting the peer read
/// seeded amounts (or, one script in eight, nothing at all) between
/// chunks, checking the machine's invariants after every step. [`Step::Pause`]
/// advances the virtual clock. [`Outcome::PeerClosed`] means the machine
/// closed or expired the connection before the script ran out.
pub fn apply_script_pure(
    conn: &mut PureConn<'_>,
    steps: &[Step],
    rng: &mut Xorshift64,
) -> Result<Outcome, String> {
    let reads = rng.gen_index(8) != 0;
    let turn = |conn: &mut PureConn<'_>, rng: &mut Xorshift64| {
        for _ in 0..rng.gen_index(conn.running.len() + 1) {
            conn.complete(rng.gen_index(conn.running.len()));
        }
        conn.read(if reads { rng.gen_index(4096) } else { 0 });
        conn.check()
    };
    for step in steps {
        match step {
            Step::Send(bytes) => {
                let mut at = 0usize;
                while at < bytes.len() {
                    if conn.conn.is_finished() || conn.expired() {
                        return Ok(Outcome::PeerClosed);
                    }
                    if conn.conn.wants_read() {
                        let take = 1 + rng.gen_index((bytes.len() - at).min(READ_CHUNK));
                        conn.send(&bytes[at..at + take]);
                        at += take;
                    } else if !reads && conn.running.is_empty() {
                        // Neither side will move again before a deadline.
                        return Ok(Outcome::PeerClosed);
                    }
                    turn(conn, rng)?;
                }
            }
            Step::Pause(d) => {
                conn.now += *d;
                turn(conn, rng)?;
            }
            Step::Disconnect => {
                conn.conn.on_eof();
                break;
            }
        }
    }
    if conn.expired() {
        return Ok(Outcome::PeerClosed);
    }
    if reads {
        conn.settle()?;
    }
    Ok(match steps.last() {
        Some(Step::Disconnect) => Outcome::Disconnected,
        _ => Outcome::Completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{write_frame, Request};
    use std::io;

    fn clean_stream() -> Vec<u8> {
        let mut buf = Vec::new();
        // Unwraps are fine in tests; Vec writes cannot fail.
        write_frame(&mut buf, &Request::Query { u: 3, v: 9 }.encode()).unwrap();
        write_frame(&mut buf, &Request::Ping.encode()).unwrap();
        buf
    }

    /// A clean v2 stream: four mux-wrapped query frames, ids 1..=4.
    fn mux_clean_stream() -> Vec<u8> {
        let mut buf = Vec::new();
        for id in 1..=4u64 {
            let inner = Request::Query { u: 3, v: 9 }.encode();
            write_frame(&mut buf, &crate::wire::encode_mux(id, &inner)).unwrap();
        }
        buf
    }

    #[test]
    fn same_seed_same_scripts() {
        let clean = clean_stream();
        let mut a = FaultPlan::new(42);
        let mut b = FaultPlan::new(42);
        for _ in 0..50 {
            let (ka, kb) = (a.pick_kind(), b.pick_kind());
            assert_eq!(ka, kb);
            assert_eq!(a.script(ka, &clean), b.script(kb, &clean));
        }
        let mux = mux_clean_stream();
        for _ in 0..50 {
            let (ka, kb) = (a.pick_mux_kind(), b.pick_mux_kind());
            assert_eq!(ka, kb);
            assert!(FaultKind::MUX.contains(&ka));
            assert_eq!(a.script(ka, &mux), b.script(kb, &mux));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let clean = clean_stream();
        let mut a = FaultPlan::new(1);
        let mut b = FaultPlan::new(2);
        let sa: Vec<_> = (0..20)
            .map(|_| a.script(FaultKind::BitFlip, &clean))
            .collect();
        let sb: Vec<_> = (0..20)
            .map(|_| b.script(FaultKind::BitFlip, &clean))
            .collect();
        assert_ne!(sa, sb);
    }

    fn sent_bytes(steps: &[Step]) -> Vec<u8> {
        let mut out = Vec::new();
        for s in steps {
            if let Step::Send(b) = s {
                out.extend_from_slice(b);
            }
        }
        out
    }

    #[test]
    fn scripts_have_their_kinds_shape() {
        let clean = clean_stream();
        let mut plan = FaultPlan::new(7);

        let flip = plan.script(FaultKind::BitFlip, &clean);
        let flipped = sent_bytes(&flip);
        assert_eq!(flipped.len(), clean.len());
        assert_ne!(flipped, clean, "bit flip must change something");

        let trunc = plan.script(FaultKind::Truncate, &clean);
        assert!(sent_bytes(&trunc).len() < clean.len());
        assert_eq!(trunc.last(), Some(&Step::Disconnect));

        let zero = plan.script(FaultKind::LengthLieZero, &clean);
        assert_eq!(&sent_bytes(&zero)[..4], &[0, 0, 0, 0]);

        let over = plan.script(FaultKind::LengthLieOverCap, &clean);
        let prefix = &sent_bytes(&over)[..4];
        let lied = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
        assert!(lied > crate::wire::DEFAULT_MAX_FRAME_LEN);

        let off = plan.script(FaultKind::LengthLieOffByOne, &clean);
        let prefix = &sent_bytes(&off)[..4];
        let truth = u32::from_le_bytes([clean[0], clean[1], clean[2], clean[3]]);
        let lied = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
        assert!(lied == truth + 1 || lied == truth - 1);

        let loris = plan.script(FaultKind::SlowLoris, &clean);
        assert!(loris.iter().any(|s| matches!(s, Step::Pause(_))));
        assert!(
            sent_bytes(&loris).len() < clean.len(),
            "a loris never finishes its frame"
        );
        assert_eq!(loris.last(), Some(&Step::Disconnect));

        let stall = plan.script(FaultKind::Stall, &clean);
        assert_eq!(sent_bytes(&stall), clean, "a stall still delivers");
        assert!(stall.iter().any(|s| matches!(s, Step::Pause(_))));
    }

    #[test]
    fn mux_scripts_have_their_kinds_shape() {
        let clean = mux_clean_stream();
        let frames = frames_of(&clean);
        assert_eq!(frames.len(), 4, "test stream is four whole frames");
        let mut plan = FaultPlan::new(11);

        // Chunked interleave: every byte, in order, across many sends.
        let chunked = plan.script(FaultKind::MuxChunkedInterleave, &clean);
        assert_eq!(sent_bytes(&chunked), clean);
        let sends = chunked
            .iter()
            .filter(|s| matches!(s, Step::Send(_)))
            .count();
        assert!(sends > 1, "chunking must actually split the stream");

        // Duplicate: the clean stream, then one of its frames again.
        let dup = plan.script(FaultKind::MuxDuplicateId, &clean);
        let sent = sent_bytes(&dup);
        assert_eq!(&sent[..clean.len()], &clean[..]);
        let extra = &sent[clean.len()..];
        assert!(
            frames.iter().any(|f| f[..] == *extra),
            "the surplus bytes must be one of the original frames"
        );

        // Reorder: the same frames as a multiset, each one intact.
        let reordered = plan.script(FaultKind::MuxReorderedIds, &clean);
        let mut got: Vec<Vec<u8>> = reordered
            .iter()
            .filter_map(|s| match s {
                Step::Send(b) => Some(b.clone()),
                _ => None,
            })
            .collect();
        let mut want = frames.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want);

        // Id flip: same length, exactly one byte changed, and that byte
        // sits inside some frame's id field (frame bytes 4..12).
        let flipped = sent_bytes(&plan.script(FaultKind::MuxIdBitFlip, &clean));
        assert_eq!(flipped.len(), clean.len());
        let diffs: Vec<usize> = (0..clean.len())
            .filter(|&i| flipped[i] != clean[i])
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one byte flips");
        let frame_len = frames[0].len();
        assert!(
            (4..12).contains(&(diffs[0] % frame_len)),
            "flip lands in an id field"
        );

        // Short-id injection: one extra complete frame of 1–7 payload
        // bytes; removing it recovers the original frames.
        let runted = sent_bytes(&plan.script(FaultKind::MuxShortIdFrame, &clean));
        let grew = runted.len() - clean.len();
        assert!(
            (5..=11).contains(&grew),
            "runt is 4-byte prefix + 1..=7 payload"
        );
        let reframed = frames_of(&runted);
        assert_eq!(reframed.len(), 5);
        let originals: Vec<&Vec<u8>> = reframed.iter().filter(|f| f.len() != grew).collect();
        assert_eq!(originals.len(), 4);
    }

    #[test]
    fn frames_of_keeps_every_byte() {
        // Two good frames, then a lying tail that claims more than the
        // input holds: the tail comes back as one partial chunk.
        let mut buf = clean_stream();
        let good = frames_of(&buf).len();
        buf.extend_from_slice(&[200, 0, 0, 0, 0xAA]);
        let frames = frames_of(&buf);
        assert_eq!(frames.len(), good + 1);
        assert_eq!(frames.last().unwrap(), &vec![200, 0, 0, 0, 0xAA]);
        let rejoined: Vec<u8> = frames.concat();
        assert_eq!(rejoined, buf);
        assert!(frames_of(&[]).is_empty());
        assert_eq!(frames_of(&[1, 2]), vec![vec![1, 2]]);
    }

    #[test]
    fn scripts_survive_degenerate_inputs() {
        let mut plan = FaultPlan::new(9);
        for kind in FaultKind::ALL.into_iter().chain(FaultKind::MUX) {
            for input in [&[][..], &[0x01][..], &[1, 2, 3][..]] {
                let steps = plan.script(kind, input);
                // Playing against a sink must also never fail.
                let mut sink = Vec::new();
                let _ = apply_script(&mut sink, &steps);
            }
        }
    }

    #[test]
    fn apply_reports_peer_close() {
        /// A writer that refuses everything, like a reset socket.
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "reset"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let steps = vec![Step::Send(vec![1, 2, 3]), Step::Disconnect];
        assert_eq!(apply_script(&mut Closed, &steps), Outcome::PeerClosed);
        let mut ok = Vec::new();
        assert_eq!(apply_script(&mut ok, &steps), Outcome::Disconnected);
        let steps = vec![Step::Send(vec![1])];
        assert_eq!(apply_script(&mut ok, &steps), Outcome::Completed);
    }
}
