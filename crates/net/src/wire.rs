//! The HLNP wire protocol: versioned, length-prefixed binary frames.
//!
//! Every frame on the wire is a 4-byte little-endian payload length
//! followed by the payload; the payload's first byte is an opcode and the
//! rest is the message body. All integers are little-endian, mirroring
//! the HLBS store format.
//!
//! ```text
//! [len: u32][opcode: u8][body: len-1 bytes]
//! ```
//!
//! A connection opens with a handshake: the server sends [`ServerHello`]
//! (magic, *highest* protocol version it speaks, store format version,
//! node count), the client answers with [`ClientHello`] naming the
//! version it wants to speak — any version from 1 up to the server's
//! ceiling — and the connection speaks that version from then on. The
//! server closes with a typed [`Response::Error`] frame on a version it
//! does not speak; the client closes with [`WireError::Version`] when
//! the server's ceiling is below what the client requires.
//!
//! Version 1 is lock-step: the payload is exactly one [`Request`] or
//! [`Response`], answered strictly in order. Version 2 multiplexes: the
//! payload is `[request_id: u64][v1 payload]` ([`encode_mux`] /
//! [`split_mux`]), many requests may be in flight at once, and responses
//! complete in *any* order, correlated by id — error frames included.
//!
//! Decoding follows the label-store discipline: every read is
//! length-checked, a short body is a typed error (never a panic), a
//! frame longer than the negotiated cap is rejected before it is
//! buffered, and a body with trailing bytes is malformed — a frame must
//! decode exactly.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use hl_graph::Distance;
use hl_server::MetricsSnapshot;

/// Handshake magic: "Hub Label Net Protocol".
pub const MAGIC: [u8; 4] = *b"HLNP";
/// The original lock-step protocol: requests answered strictly in order,
/// one frame payload per [`Request`]/[`Response`].
pub const PROTOCOL_VERSION: u16 = 1;
/// The multiplexed protocol: every request/response payload is prefixed
/// with a little-endian `request_id: u64` (see [`encode_mux`] /
/// [`split_mux`]), responses may complete out of order, and error frames
/// carry the id of the request they answer.
pub const PROTOCOL_V2: u16 = 2;
/// The highest protocol version this module speaks. A [`ServerHello`]
/// advertises this as its ceiling; the client picks any version up to it
/// in its [`ClientHello`] and the connection speaks that version.
pub const MAX_PROTOCOL_VERSION: u16 = PROTOCOL_V2;
/// Default cap on a frame payload. A `QueryBatch` of 64k pairs fits with
/// room to spare; anything larger is a protocol violation, not load.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;
/// Largest batch a single `QueryBatch` frame may carry.
pub const MAX_BATCH_LEN: u32 = (DEFAULT_MAX_FRAME_LEN - 16) / 8;
/// Largest store path a `Reload` frame may carry. Paths are server-local
/// filenames, not data; anything longer is a protocol violation.
pub const MAX_RELOAD_PATH_LEN: u32 = 4096;
/// Largest vertex list a single `LabelBatch` frame may carry. The
/// *response* is the real frame-size risk (each label multiplies), so
/// routers chunk label fetches well below this.
pub const MAX_LABEL_BATCH_LEN: u32 = (DEFAULT_MAX_FRAME_LEN - 16) / 4;

// Opcodes. Handshake frames are 0x0_, requests 0x1_, responses 0x9_,
// and the error response stands alone at 0xEE.
const OP_SERVER_HELLO: u8 = 0x01;
const OP_CLIENT_HELLO: u8 = 0x02;
const OP_PING: u8 = 0x10;
const OP_QUERY: u8 = 0x11;
const OP_QUERY_BATCH: u8 = 0x12;
const OP_METRICS: u8 = 0x13;
const OP_SHUTDOWN: u8 = 0x14;
const OP_RELOAD: u8 = 0x15;
const OP_LABEL: u8 = 0x16;
const OP_LABEL_BATCH: u8 = 0x17;
const OP_PONG: u8 = 0x90;
const OP_DISTANCE: u8 = 0x91;
const OP_DISTANCE_BATCH: u8 = 0x92;
const OP_METRICS_SNAPSHOT: u8 = 0x93;
const OP_SHUTDOWN_ACK: u8 = 0x94;
const OP_RELOAD_ACK: u8 = 0x95;
const OP_LABEL_RESP: u8 = 0x96;
const OP_LABEL_BATCH_RESP: u8 = 0x97;
const OP_ERROR: u8 = 0xEE;

/// Typed error codes carried by [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A query named a vertex outside the labeling.
    NodeOutOfRange,
    /// The request frame did not decode.
    Malformed,
    /// The request frame exceeded the server's frame cap.
    FrameTooLarge,
    /// The client's protocol version is not spoken here.
    VersionMismatch,
    /// The server is at its connection cap.
    Busy,
    /// The server is draining and no longer answers queries.
    ShuttingDown,
    /// Anything else (engine failure, i/o while answering).
    Internal,
    /// The request decoded but names an operation this server refuses
    /// to perform (e.g. remote shutdown with
    /// `allow_remote_shutdown = false`).
    Unsupported,
}

/// Wire number, variant and display name of every error code, in the
/// variants' declaration order: `ERROR_CODES[code as usize]` is its row.
const ERROR_CODES: [(u16, ErrorCode, &str); 8] = [
    (1, ErrorCode::NodeOutOfRange, "node-out-of-range"),
    (2, ErrorCode::Malformed, "malformed-frame"),
    (3, ErrorCode::FrameTooLarge, "frame-too-large"),
    (4, ErrorCode::VersionMismatch, "version-mismatch"),
    (5, ErrorCode::Busy, "busy"),
    (6, ErrorCode::ShuttingDown, "shutting-down"),
    (7, ErrorCode::Internal, "internal"),
    (8, ErrorCode::Unsupported, "unsupported"),
];

impl ErrorCode {
    /// Wire representation.
    pub fn as_u16(self) -> u16 {
        ERROR_CODES[self as usize].0
    }

    /// Decodes a wire error code.
    pub fn from_u16(code: u16) -> Option<Self> {
        ERROR_CODES
            .iter()
            .find(|row| row.0 == code)
            .map(|row| row.1)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(ERROR_CODES[*self as usize].2)
    }
}

/// Everything that can go wrong reading or decoding frames.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/stream failure (includes timeouts).
    Io(io::Error),
    /// A frame declared a payload longer than the cap.
    FrameTooLarge {
        /// Declared payload length.
        len: u32,
        /// The enforced cap.
        max: u32,
    },
    /// A zero-length payload (every frame needs at least an opcode).
    EmptyFrame,
    /// The body ended before a field did.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually left in the body.
        available: usize,
    },
    /// The body kept going after the message ended.
    TrailingBytes(usize),
    /// The handshake magic was wrong — not an HLNP peer.
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version we do not.
    Version {
        /// The version this module speaks.
        ours: u16,
        /// The version the peer announced.
        theirs: u16,
    },
    /// An opcode this decoder does not know.
    UnknownOpcode(u8),
    /// A structurally valid frame with nonsense content (bad error code,
    /// batch length over the cap, non-UTF-8 error text, ...).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
            WireError::EmptyFrame => write!(f, "empty frame (no opcode)"),
            WireError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            WireError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after message body")
            }
            WireError::BadMagic(m) => write!(f, "bad handshake magic {m:?}: not an HLNP peer"),
            WireError::Version { ours, theirs } => {
                write!(
                    f,
                    "protocol version mismatch: we speak {ours}, peer speaks {theirs}"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Invalid(msg) => write!(f, "invalid frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Checked sequential reader over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    /// Opens a handshake payload: its opcode must be `op`, then the magic.
    fn hello(payload: &'a [u8], op: u8) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let got = c.u8()?;
        if got != op {
            return Err(WireError::UnknownOpcode(got));
        }
        let magic = c.array()?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        Ok(c)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n);
        let slice = end.and_then(|end| self.buf.get(self.at..end));
        let slice = slice.ok_or(WireError::Truncated {
            needed: n,
            available: self.remaining(),
        })?;
        self.at += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut bytes = [0u8; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads `count: u32` then `count` elements of at least `elem_bytes`
    /// each. The count is attacker-controlled, so this — the only place a
    /// decoded count sizes an allocation — first holds it to `cap`
    /// (`(limit, what, unit)`, where the protocol has one) and to the
    /// bytes actually present: a 5-byte frame cannot demand a 1 MiB `Vec`.
    fn list<T>(
        &mut self,
        elem_bytes: usize,
        cap: Option<(u32, &str, &str)>,
        read: impl Fn(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.u32()?;
        if let Some((limit, what, unit)) = cap.filter(|cap| count > cap.0) {
            return Err(WireError::Invalid(format!(
                "{what} of {count} {unit} exceeds cap of {limit}"
            )));
        }
        // Saturating: on a 32-bit target an overflowing product must read
        // as "more than is present", not wrap to something that fits.
        let count = usize::try_from(count).unwrap_or(usize::MAX);
        let needed = count.saturating_mul(elem_bytes);
        if needed > self.remaining() {
            return Err(WireError::Truncated {
                needed,
                available: self.remaining(),
            });
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// Reads `len: u32` then `len` bytes of UTF-8, `len` at most `cap`.
    fn string(&mut self, cap: Option<u32>, what: &str) -> Result<String, WireError> {
        let len = self.u32()?;
        if let Some(cap) = cap.filter(|&cap| len > cap) {
            return Err(WireError::Invalid(format!(
                "{what} of {len} bytes exceeds cap of {cap}"
            )));
        }
        let bytes = self.take(usize::try_from(len).unwrap_or(usize::MAX))?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Invalid(format!("{what} is not UTF-8")))
    }

    /// Bytes left in the body.
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.at)
    }

    /// The body must be fully consumed: trailing bytes are an error.
    fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

/// Writes one frame body — the opcode, then its fields, little-endian —
/// into one allocation that [`Body::op`] sizes exactly.
struct Body(Vec<u8>);

impl Body {
    /// Opens a body of `len` bytes after the opcode.
    fn op(op: u8, len: usize) -> Self {
        let mut out = Vec::with_capacity(1 + len);
        out.push(op);
        Body(out)
    }

    /// The finished payload; `&mut self` so it can end a chain that
    /// started on the temporary [`Body::op`] returned.
    fn done(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.0)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.extend_from_slice(bytes);
        self
    }

    fn u16(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// A count or length beyond `u32` saturates instead of truncating;
    /// the resulting length mismatch (and the frame-size cap) makes the
    /// peer reject the frame rather than misread it.
    fn count(&mut self, n: usize) -> &mut Self {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX))
    }

    /// `count: u32` then every item, as [`Cursor::list`] reads them.
    fn list<T>(
        &mut self,
        items: &[T],
        put: impl for<'b> Fn(&'b mut Self, &T) -> &'b mut Self,
    ) -> &mut Self {
        items.iter().fold(self.count(items.len()), put)
    }
}

/// One label on the wire: `(hub: u32, dist: u64)` entries.
const LABEL_ENTRY_BYTES: usize = 12;

fn put_label<'a>(body: &'a mut Body, label: &[(u32, Distance)]) -> &'a mut Body {
    body.list(label, |b, &(hub, d)| b.u32(hub).u64(d))
}

fn read_label(c: &mut Cursor<'_>) -> Result<Vec<(u32, Distance)>, WireError> {
    c.list(LABEL_ENTRY_BYTES, None, |c| Ok((c.u32()?, c.u64()?)))
}

/// Assembles one frame in one allocation: `[len: u32][id: u64]?[body]`,
/// the id present exactly when the connection speaks protocol v2. Every
/// frame this crate puts on a socket is built here.
///
/// A frame beyond `u32` saturates its length prefix instead of truncating
/// it, like every count this module encodes: the receiver's frame cap then
/// rejects the frame rather than misreading it.
pub fn frame(id: Option<u64>, body: &[u8]) -> Vec<u8> {
    let len = body.len() + id.map_or(0, |_| 8);
    let mut framed = Vec::with_capacity(4 + len);
    framed.extend_from_slice(&u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes());
    if let Some(id) = id {
        framed.extend_from_slice(&id.to_le_bytes());
    }
    framed.extend_from_slice(body);
    framed
}

/// Decodes a frame's 4-byte length prefix and tests it — the one place
/// that happens, and *before* the body is buffered, so an adversarial
/// prefix cannot balloon memory: every frame needs at least an opcode,
/// and none may exceed the receiver's cap.
pub fn frame_len(prefix: [u8; 4], max: u32) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix);
    if len == 0 {
        return Err(WireError::EmptyFrame);
    }
    if len > max {
        return Err(WireError::FrameTooLarge { len, max });
    }
    Ok(len as usize)
}

/// Writes one frame (length prefix + payload) to `w` as a single write,
/// so a framed message never straddles two TCP segments needlessly.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    w.write_all(&frame(None, payload))?;
    w.flush()?;
    Ok(())
}

/// Reads one frame payload from `r`, its length checked by [`frame_len`]
/// first. Partial reads are handled by `read_exact`; a peer that stops
/// mid-frame surfaces as [`WireError::Io`] (timeout or unexpected EOF).
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> Result<Vec<u8>, WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let mut payload = vec![0u8; frame_len(len_bytes, max_len)?];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// A transport whose per-call read/write timeouts can be re-armed, which
/// is what whole-frame deadlines are built from.
///
/// Plain socket timeouts reset on *every* byte: a peer trickling one byte
/// per `timeout - ε` keeps a connection (and its server slot) alive
/// forever — the slow-loris attack. [`read_frame_deadline`] and
/// [`write_frame_deadline`] instead budget the whole frame, shrinking the
/// socket timeout toward the deadline on each iteration.
pub trait DeadlineIo: Read + Write {
    /// Caps the next read call at `timeout`.
    fn limit_read_timeout(&mut self, timeout: Duration) -> io::Result<()>;
    /// Caps the next write call at `timeout`.
    fn limit_write_timeout(&mut self, timeout: Duration) -> io::Result<()>;
}

impl DeadlineIo for TcpStream {
    fn limit_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }

    fn limit_write_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        self.set_write_timeout(Some(timeout))
    }
}

fn deadline_expired(what: &str) -> WireError {
    WireError::Io(io::Error::new(
        io::ErrorKind::TimedOut,
        format!("{what}: whole-frame deadline exceeded"),
    ))
}

/// `true` for the error kinds a timed-out socket read/write reports.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fills `buf` from `r`, giving up at `deadline`. Each loop iteration
/// re-arms the socket timeout with the time left, so a peer dribbling
/// bytes cannot extend the total beyond the budget.
fn read_exact_deadline<R: DeadlineIo>(
    r: &mut R,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(deadline_expired("read"));
        }
        r.limit_read_timeout(left.max(Duration::from_millis(1)))?;
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(deadline_expired("read")),
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame like [`read_frame`], but with two time budgets: the
/// connection may sit idle (no frame started) for up to `idle_budget`,
/// and once the first byte of a frame arrives the *entire* frame — length
/// prefix and payload — must complete within `frame_budget`. Expiry of
/// either surfaces as [`WireError::Io`] with [`io::ErrorKind::TimedOut`].
pub fn read_frame_deadline<R: DeadlineIo>(
    r: &mut R,
    max_len: u32,
    idle_budget: Duration,
    frame_budget: Duration,
) -> Result<Vec<u8>, WireError> {
    // Wait for the first byte under the idle budget alone.
    r.limit_read_timeout(idle_budget.max(Duration::from_millis(1)))?;
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed before a frame",
                )))
            }
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    // A frame has begun: the rest of it races the frame budget.
    let deadline = Instant::now() + frame_budget;
    let mut rest = [0u8; 3];
    read_exact_deadline(r, &mut rest, deadline)?;
    let prefix = [first[0], rest[0], rest[1], rest[2]];
    let mut payload = vec![0u8; frame_len(prefix, max_len)?];
    read_exact_deadline(r, &mut payload, deadline)?;
    Ok(payload)
}

/// Writes one frame like [`write_frame`], but bounds the *whole* write
/// (all partial writes included) by `budget`, so a peer that stops
/// draining its receive buffer cannot pin the writer past the deadline.
pub fn write_frame_deadline<W: DeadlineIo>(
    w: &mut W,
    payload: &[u8],
    budget: Duration,
) -> Result<(), WireError> {
    write_all_deadline(w, &frame(None, payload), budget)
}

/// Writes already-framed bytes (see [`frame`]) within `budget`.
pub fn write_all_deadline<W: DeadlineIo>(
    w: &mut W,
    framed: &[u8],
    budget: Duration,
) -> Result<(), WireError> {
    let deadline = Instant::now() + budget;
    let mut written = 0;
    while written < framed.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(deadline_expired("write"));
        }
        w.limit_write_timeout(left.max(Duration::from_millis(1)))?;
        match w.write(&framed[written..]) {
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes mid-frame",
                )))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(deadline_expired("write")),
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    w.flush()?;
    Ok(())
}

/// Prefixes `inner` (an encoded [`Request`] or [`Response`]) with the
/// little-endian request id, producing a protocol-v2 frame payload.
pub fn encode_mux(request_id: u64, inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + inner.len());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(inner);
    out
}

/// Splits a protocol-v2 frame payload into its request id and the inner
/// v1 payload. A payload too short to even hold the id (or holding
/// nothing after it) is [`WireError::Truncated`] — the peer broke the
/// mux framing, but the *frame boundary* is intact, so the connection
/// can answer with a typed error and keep serving.
pub fn split_mux(payload: &[u8]) -> Result<(u64, &[u8]), WireError> {
    let id = Cursor::new(payload).u64()?;
    let inner = &payload[8..];
    if inner.is_empty() {
        return Err(WireError::EmptyFrame);
    }
    Ok((id, inner))
}

/// First frame on a connection, server to client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// The *highest* protocol version the server speaks; the client may
    /// pick this or anything lower (down to 1) in its [`ClientHello`].
    pub protocol_version: u16,
    /// Format version of the label store being served (HLBS version).
    pub store_version: u16,
    /// Number of vertices the served labeling covers.
    pub num_nodes: u64,
}

impl ServerHello {
    /// Encodes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        Body::op(OP_SERVER_HELLO, 16)
            .bytes(&MAGIC)
            .u16(self.protocol_version)
            .u16(self.store_version)
            .u64(self.num_nodes)
            .done()
    }

    /// Decodes a frame payload; checks magic but *not* the version, so
    /// the caller can render a precise mismatch error.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::hello(payload, OP_SERVER_HELLO)?;
        let hello = ServerHello {
            protocol_version: c.u16()?,
            store_version: c.u16()?,
            num_nodes: c.u64()?,
        };
        c.finish()?;
        Ok(hello)
    }
}

/// Second frame on a connection, client to server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// The protocol version this connection will speak — the client's
    /// pick, at most the [`ServerHello`]'s advertised ceiling.
    pub protocol_version: u16,
}

impl ClientHello {
    /// Encodes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        Body::op(OP_CLIENT_HELLO, 6)
            .bytes(&MAGIC)
            .u16(self.protocol_version)
            .done()
    }

    /// Decodes a frame payload, checking magic.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::hello(payload, OP_CLIENT_HELLO)?;
        let hello = ClientHello {
            protocol_version: c.u16()?,
        };
        c.finish()?;
        Ok(hello)
    }
}

/// A client request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One distance query.
    Query {
        /// Source vertex.
        u: u32,
        /// Target vertex.
        v: u32,
    },
    /// Many distance queries answered in one frame.
    QueryBatch(Vec<(u32, u32)>),
    /// Ask for the server's metrics snapshot.
    Metrics,
    /// Ask the daemon to drain and exit.
    Shutdown,
    /// Ask the daemon to swap in a new store from a path on *its own*
    /// filesystem — zero-downtime reload. Gated server-side like remote
    /// shutdown; the daemon fully validates the file before the swap, so
    /// a bad path or corrupt store is a typed error and the old epoch
    /// keeps serving.
    Reload {
        /// Store path as the server sees it.
        path: String,
    },
    /// Fetch one vertex's label — the building block of sharded serving:
    /// a router joins two labels fetched from their owning shards.
    Label {
        /// The vertex whose label to ship.
        v: u32,
    },
    /// Fetch many labels in one frame.
    LabelBatch(Vec<u32>),
}

impl Request {
    /// Encodes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Ping => Body::op(OP_PING, 0).done(),
            Request::Query { u, v } => Body::op(OP_QUERY, 8).u32(*u).u32(*v).done(),
            Request::QueryBatch(pairs) => Body::op(OP_QUERY_BATCH, 4 + pairs.len() * 8)
                .list(pairs, |b, &(u, v)| b.u32(u).u32(v))
                .done(),
            Request::Metrics => Body::op(OP_METRICS, 0).done(),
            Request::Shutdown => Body::op(OP_SHUTDOWN, 0).done(),
            Request::Reload { path } => Body::op(OP_RELOAD, 4 + path.len())
                .count(path.len())
                .bytes(path.as_bytes())
                .done(),
            Request::Label { v } => Body::op(OP_LABEL, 4).u32(*v).done(),
            Request::LabelBatch(vs) => Body::op(OP_LABEL_BATCH, 4 + vs.len() * 4)
                .list(vs, |b, &v| b.u32(v))
                .done(),
        }
    }

    /// Decodes a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            OP_PING => Request::Ping,
            OP_QUERY => Request::Query {
                u: c.u32()?,
                v: c.u32()?,
            },
            OP_QUERY_BATCH => {
                let cap = (MAX_BATCH_LEN, "batch", "pairs");
                Request::QueryBatch(c.list(8, Some(cap), |c| Ok((c.u32()?, c.u32()?)))?)
            }
            OP_METRICS => Request::Metrics,
            OP_SHUTDOWN => Request::Shutdown,
            OP_RELOAD => Request::Reload {
                path: c.string(Some(MAX_RELOAD_PATH_LEN), "reload path")?,
            },
            OP_LABEL => Request::Label { v: c.u32()? },
            OP_LABEL_BATCH => {
                let cap = (MAX_LABEL_BATCH_LEN, "label batch", "vertices");
                Request::LabelBatch(c.list(4, Some(cap), Cursor::u32)?)
            }
            op => return Err(WireError::UnknownOpcode(op)),
        };
        c.finish()?;
        Ok(req)
    }
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Query`].
    Distance(Distance),
    /// Answer to [`Request::QueryBatch`], in request order.
    DistanceBatch(Vec<Distance>),
    /// Answer to [`Request::Metrics`].
    Metrics(MetricsSnapshot),
    /// Answer to [`Request::Shutdown`]; the connection closes after.
    ShutdownAck,
    /// Answer to [`Request::Reload`]: the swap happened.
    ReloadAck {
        /// The new epoch serial now being served.
        epoch: u64,
        /// Vertex count of the newly served store.
        num_nodes: u64,
    },
    /// Answer to [`Request::Label`]: the vertex's `(hub, distance)`
    /// pairs in increasing hub order.
    Label(Vec<(u32, Distance)>),
    /// Answer to [`Request::LabelBatch`], labels in request order.
    LabelBatch(Vec<Vec<(u32, Distance)>>),
    /// Typed failure; the server never closes a live connection without
    /// one except on socket death.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Pong => Body::op(OP_PONG, 0).done(),
            Response::Distance(d) => Body::op(OP_DISTANCE, 8).u64(*d).done(),
            Response::DistanceBatch(ds) => Body::op(OP_DISTANCE_BATCH, 4 + ds.len() * 8)
                .list(ds, |b, &d| b.u64(d))
                .done(),
            Response::Metrics(s) => {
                let words = s.to_words();
                let mut body = Body::op(OP_METRICS_SNAPSHOT, words.len() * 8);
                words.iter().fold(&mut body, |b, &word| b.u64(word)).done()
            }
            Response::ShutdownAck => Body::op(OP_SHUTDOWN_ACK, 0).done(),
            Response::ReloadAck { epoch, num_nodes } => Body::op(OP_RELOAD_ACK, 16)
                .u64(*epoch)
                .u64(*num_nodes)
                .done(),
            Response::Label(label) => {
                let len = 4 + label.len() * LABEL_ENTRY_BYTES;
                put_label(&mut Body::op(OP_LABEL_RESP, len), label).done()
            }
            Response::LabelBatch(labels) => {
                let label_len = |l: &Vec<_>| 4 + l.len() * LABEL_ENTRY_BYTES;
                let len = 4 + labels.iter().map(label_len).sum::<usize>();
                Body::op(OP_LABEL_BATCH_RESP, len)
                    .list(labels, |b, label| put_label(b, label))
                    .done()
            }
            Response::Error { code, message } => Body::op(OP_ERROR, 6 + message.len())
                .u16(code.as_u16())
                .count(message.len())
                .bytes(message.as_bytes())
                .done(),
        }
    }

    /// Decodes a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            OP_PONG => Response::Pong,
            OP_DISTANCE => Response::Distance(c.u64()?),
            OP_DISTANCE_BATCH => {
                let cap = (MAX_BATCH_LEN, "batch", "distances");
                Response::DistanceBatch(c.list(8, Some(cap), Cursor::u64)?)
            }
            OP_METRICS_SNAPSHOT => {
                let mut words = [0u64; 14];
                for word in &mut words {
                    *word = c.u64()?;
                }
                Response::Metrics(MetricsSnapshot::from_words(words))
            }
            OP_SHUTDOWN_ACK => Response::ShutdownAck,
            OP_RELOAD_ACK => Response::ReloadAck {
                epoch: c.u64()?,
                num_nodes: c.u64()?,
            },
            OP_LABEL_RESP => Response::Label(read_label(&mut c)?),
            // Each label is at least its own 4-byte count.
            OP_LABEL_BATCH_RESP => Response::LabelBatch(c.list(4, None, read_label)?),
            OP_ERROR => {
                let raw = c.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| WireError::Invalid(format!("unknown error code {raw}")))?;
                let message = c.string(None, "error text")?;
                Response::Error { code, message }
            }
            op => return Err(WireError::UnknownOpcode(op)),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Query { u: 3, v: 99 });
        roundtrip_req(Request::QueryBatch(vec![]));
        roundtrip_req(Request::QueryBatch(vec![(0, 1), (7, 7), (u32::MAX, 0)]));
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Reload {
            path: "/data/stores/rmat1m.hlbs".into(),
        });
        roundtrip_req(Request::Label { v: 12345 });
        roundtrip_req(Request::LabelBatch(vec![]));
        roundtrip_req(Request::LabelBatch(vec![0, 7, u32::MAX]));
    }

    #[test]
    fn label_and_reload_responses_roundtrip() {
        roundtrip_resp(Response::ReloadAck {
            epoch: 3,
            num_nodes: 1_048_576,
        });
        roundtrip_resp(Response::Label(vec![]));
        roundtrip_resp(Response::Label(vec![(0, 0), (9, u64::MAX)]));
        roundtrip_resp(Response::LabelBatch(vec![]));
        roundtrip_resp(Response::LabelBatch(vec![
            vec![(0, 0), (3, 2)],
            vec![],
            vec![(7, 1)],
        ]));
    }

    #[test]
    fn reload_path_lies_are_rejected() {
        // Declared path length over the cap.
        let mut payload = vec![0x15u8]; // OP_RELOAD
        payload.extend_from_slice(&(MAX_RELOAD_PATH_LEN + 1).to_le_bytes());
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Invalid(_))
        ));
        // Declared length longer than the body.
        let mut payload = vec![0x15u8];
        payload.extend_from_slice(&100u32.to_le_bytes());
        payload.extend_from_slice(b"short");
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
        // Non-UTF-8 path bytes.
        let mut payload = vec![0x15u8];
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn label_count_lies_are_rejected_before_allocation() {
        // A Label response declaring far more entries than the body holds.
        let mut payload = vec![0x96u8]; // OP_LABEL_RESP
        payload.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert!(matches!(
            Response::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
        // An outer LabelBatch count with no inner bodies behind it.
        let mut payload = vec![0x97u8]; // OP_LABEL_BATCH_RESP
        payload.extend_from_slice(&1_000_000u32.to_le_bytes());
        assert!(matches!(
            Response::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
        // A LabelBatch request with a lying vertex count.
        let mut payload = vec![0x17u8]; // OP_LABEL_BATCH
        payload.extend_from_slice(&50u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::Distance(0));
        roundtrip_resp(Response::Distance(u64::MAX));
        roundtrip_resp(Response::DistanceBatch(vec![1, 2, 3]));
        roundtrip_resp(Response::ShutdownAck);
        roundtrip_resp(Response::Error {
            code: ErrorCode::NodeOutOfRange,
            message: "node 42 out of range".into(),
        });
        let snap = MetricsSnapshot {
            single_queries: 1,
            batches: 2,
            batch_queries: 3,
            cache_hits: 4,
            cache_misses: 5,
            decode_errors: 6,
            connections_opened: 7,
            connections_rejected: 8,
            net_requests: 9,
            net_errors: 10,
            latency_count: 11,
            p50_ns: 12,
            p95_ns: 13,
            p99_ns: 14,
        };
        roundtrip_resp(Response::Metrics(snap));
    }

    #[test]
    fn hellos_roundtrip() {
        let sh = ServerHello {
            protocol_version: PROTOCOL_VERSION,
            store_version: 1,
            num_nodes: 12_000,
        };
        assert_eq!(ServerHello::decode(&sh.encode()).unwrap(), sh);
        let ch = ClientHello {
            protocol_version: PROTOCOL_VERSION,
        };
        assert_eq!(ClientHello::decode(&ch.encode()).unwrap(), ch);
    }

    #[test]
    fn mux_framing_roundtrips_and_rejects_short_payloads() {
        let inner = Request::Query { u: 3, v: 9 }.encode();
        let framed = encode_mux(0xDEAD_BEEF_CAFE_F00D, &inner);
        let (id, body) = split_mux(&framed).unwrap();
        assert_eq!(id, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(
            Request::decode(body).unwrap(),
            Request::Query { u: 3, v: 9 }
        );

        // Extreme ids survive the round trip.
        for id in [0u64, 1, u64::MAX] {
            let framed = encode_mux(id, &Response::Pong.encode());
            assert_eq!(split_mux(&framed).unwrap().0, id);
        }

        // Shorter than the id itself: typed truncation, never a panic.
        for cut in 0..8 {
            assert!(matches!(
                split_mux(&framed[..cut]),
                Err(WireError::Truncated { .. })
            ));
        }
        // Exactly the id with no inner payload: an empty message.
        assert!(matches!(
            split_mux(&framed[..8]),
            Err(WireError::EmptyFrame)
        ));
    }

    #[test]
    fn truncated_bodies_are_typed_errors() {
        let full = Request::Query { u: 5, v: 9 }.encode();
        for cut in 0..full.len() {
            let err = Request::decode(&full[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not decode");
        }
        let full = Response::Error {
            code: ErrorCode::Internal,
            message: "boom".into(),
        }
        .encode();
        for cut in 1..full.len() {
            assert!(Response::decode(&full[..cut]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn batch_length_lies_are_rejected() {
        // Declared count larger than the body actually carries.
        let mut payload = vec![0x12u8]; // OP_QUERY_BATCH
        payload.extend_from_slice(&10u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 8]); // only one pair present
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
        // Declared count over the protocol cap.
        let mut payload = vec![0x12u8];
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(matches!(
            Request::decode(&[0x7f]),
            Err(WireError::UnknownOpcode(0x7f))
        ));
        assert!(matches!(
            Response::decode(&[0x00]),
            Err(WireError::UnknownOpcode(0x00))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut payload = ServerHello {
            protocol_version: 1,
            store_version: 1,
            num_nodes: 5,
        }
        .encode();
        payload[1] = b'X';
        assert!(matches!(
            ServerHello::decode(&payload),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn batch_count_checked_before_allocation() {
        // A 5-byte DistanceBatch frame declaring MAX_BATCH_LEN entries:
        // the decoder must reject it from the byte count alone (Truncated)
        // rather than reserving count * 8 bytes first.
        let mut payload = vec![0x92u8]; // OP_DISTANCE_BATCH
        payload.extend_from_slice(&MAX_BATCH_LEN.to_le_bytes());
        assert!(matches!(
            Response::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
        let mut payload = vec![0x12u8]; // OP_QUERY_BATCH
        payload.extend_from_slice(&MAX_BATCH_LEN.to_le_bytes());
        assert!(matches!(
            Request::decode(&payload),
            Err(WireError::Truncated { .. })
        ));
    }

    /// Test transport: serves reads from a buffer one byte at a time with
    /// a fixed delay per byte (a slow-loris peer when the delay is large),
    /// and accepts writes one byte at a time with the same delay. The
    /// timeout hooks are no-ops — the deadline logic being tested must
    /// bound total time by itself via the wall clock.
    struct TricklePeer {
        data: Vec<u8>,
        at: usize,
        delay: std::time::Duration,
        written: Vec<u8>,
    }

    impl TricklePeer {
        fn new(data: Vec<u8>, delay: std::time::Duration) -> Self {
            TricklePeer {
                data,
                at: 0,
                delay,
                written: Vec::new(),
            }
        }
    }

    impl Read for TricklePeer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(self.delay);
            if self.at >= self.data.len() {
                return Ok(0); // peer closed
            }
            buf[0] = self.data[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    impl Write for TricklePeer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            std::thread::sleep(self.delay);
            if buf.is_empty() {
                return Ok(0);
            }
            self.written.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl DeadlineIo for TricklePeer {
        fn limit_read_timeout(&mut self, _: Duration) -> io::Result<()> {
            Ok(())
        }

        fn limit_write_timeout(&mut self, _: Duration) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn deadline_read_accepts_a_dribbled_frame_within_budget() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping.encode()).unwrap();
        let mut peer = TricklePeer::new(buf, Duration::from_millis(0));
        let payload = read_frame_deadline(
            &mut peer,
            64,
            Duration::from_secs(1),
            Duration::from_secs(1),
        )
        .unwrap();
        assert_eq!(payload, Request::Ping.encode());
    }

    #[test]
    fn deadline_read_cuts_off_a_slow_loris_peer() {
        // 36 bytes at 10 ms/byte is 360 ms of trickle; a 60 ms frame
        // budget must cut it off near the budget, not ride it out.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 32]).unwrap();
        let mut peer = TricklePeer::new(buf, Duration::from_millis(10));
        let started = Instant::now();
        let err = read_frame_deadline(
            &mut peer,
            64,
            Duration::from_secs(1),
            Duration::from_millis(60),
        );
        let elapsed = started.elapsed();
        match err {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_millis(300),
            "deadline must bound the whole frame, took {elapsed:?}"
        );
    }

    #[test]
    fn deadline_write_cuts_off_a_stalled_peer() {
        let mut peer = TricklePeer::new(Vec::new(), Duration::from_millis(10));
        let started = Instant::now();
        let err = write_frame_deadline(&mut peer, &[0u8; 32], Duration::from_millis(60));
        let elapsed = started.elapsed();
        match err {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::TimedOut),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(elapsed < Duration::from_millis(300));
    }

    #[test]
    fn deadline_write_delivers_within_budget() {
        let mut peer = TricklePeer::new(Vec::new(), Duration::from_millis(0));
        write_frame_deadline(&mut peer, &Request::Ping.encode(), Duration::from_secs(1)).unwrap();
        let mut expect = Vec::new();
        write_frame(&mut expect, &Request::Ping.encode()).unwrap();
        assert_eq!(peer.written, expect);
    }

    #[test]
    fn frame_io_roundtrip_and_caps() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping.encode()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).unwrap(), Request::Ping.encode());

        // Oversized declared length is rejected before buffering.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let mut r = &huge[..];
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_LEN),
            Err(WireError::FrameTooLarge { .. })
        ));

        // Zero-length frame is rejected.
        let zero = 0u32.to_le_bytes();
        let mut r = &zero[..];
        assert!(matches!(read_frame(&mut r, 64), Err(WireError::EmptyFrame)));

        // A frame cut mid-body is an i/o error, not a hang or panic.
        let mut cut = Vec::new();
        write_frame(&mut cut, &[1, 2, 3, 4]).unwrap();
        cut.truncate(6);
        let mut r = &cut[..];
        assert!(matches!(read_frame(&mut r, 64), Err(WireError::Io(_))));
    }

    #[test]
    fn frame_is_the_layout_both_protocol_versions_read() {
        // Pinned bytes: [len u32 LE][id u64 LE, v2 only][body].
        assert_eq!(frame(None, &[0xAA, 0xBB]), [2, 0, 0, 0, 0xAA, 0xBB]);
        assert_eq!(
            frame(Some(0x0102), &[0xAA]),
            [9, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0xAA]
        );
        // v2: what `read_frame` + `split_mux` take apart again.
        let body = Request::Query { u: 3, v: 9 }.encode();
        let framed = frame(Some(77), &body);
        let payload = read_frame(&mut &framed[..], 64).unwrap();
        assert_eq!(payload, encode_mux(77, &body));
        assert_eq!(split_mux(&payload).unwrap(), (77, &body[..]));
        // The boundaries of the one length check.
        let declared = |len: u32| frame_len(len.to_le_bytes(), 8);
        assert!(matches!(declared(0), Err(WireError::EmptyFrame)));
        assert_eq!(declared(1).unwrap(), 1);
        assert_eq!(declared(8).unwrap(), 8);
        assert!(matches!(
            declared(9),
            Err(WireError::FrameTooLarge { len: 9, max: 8 })
        ));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Asserts `encoded` is exactly the bytes `golden` spells (spaces are
    /// for the reader) in one exactly-sized allocation, and hands back
    /// those literal bytes for the caller to decode.
    fn pinned(encoded: Vec<u8>, golden: &str) -> Vec<u8> {
        let golden = golden.replace(' ', "");
        assert_eq!(hex(&encoded), golden);
        assert_eq!(encoded.capacity(), encoded.len(), "{golden}");
        let digits = |i| u8::from_str_radix(&golden[i..i + 2], 16).unwrap();
        (0..golden.len()).step_by(2).map(digits).collect()
    }

    /// The wire is pinned byte for byte, one literal per opcode: the
    /// round-trip tests above would all pass a symmetric move of a field.
    #[test]
    fn golden_bytes_pin_every_opcode() {
        let req = |r: Request, golden: &str| {
            assert_eq!(Request::decode(&pinned(r.encode(), golden)).unwrap(), r);
        };
        req(Request::Ping, "10");
        req(Request::Query { u: 3, v: 258 }, "11 03000000 02010000");
        req(
            Request::QueryBatch(vec![(1, 2), (u32::MAX, 0)]),
            "12 02000000 01000000 02000000 ffffffff 00000000",
        );
        req(Request::Metrics, "13");
        req(Request::Shutdown, "14");
        let path = String::from("/s.hlbs");
        req(Request::Reload { path }, "15 07000000 2f732e686c6273");
        req(Request::Label { v: 258 }, "16 02010000");
        let vs = vec![7, 1 << 16];
        req(Request::LabelBatch(vs), "17 02000000 07000000 00000100");

        let resp = |r: Response, golden: &str| {
            assert_eq!(Response::decode(&pinned(r.encode(), golden)).unwrap(), r);
        };
        resp(Response::Pong, "90");
        resp(
            Response::Distance(0x0102_0304_0506_0708),
            "91 0807060504030201",
        );
        resp(
            Response::DistanceBatch(vec![1, u64::MAX]),
            "92 02000000 0100000000000000 ffffffffffffffff",
        );
        let snap = MetricsSnapshot {
            single_queries: 1,
            batches: 2,
            batch_queries: 3,
            cache_hits: 4,
            cache_misses: 5,
            decode_errors: 6,
            connections_opened: 7,
            connections_rejected: 8,
            net_requests: 9,
            net_errors: 10,
            latency_count: 11,
            p50_ns: 12,
            p95_ns: 13,
            p99_ns: 14,
        };
        let words: String = (1..=14u64).map(|w| hex(&w.to_le_bytes())).collect();
        resp(Response::Metrics(snap), &format!("93 {words}"));
        resp(Response::ShutdownAck, "94");
        let (epoch, num_nodes) = (3, 4096);
        resp(
            Response::ReloadAck { epoch, num_nodes },
            "95 0300000000000000 0010000000000000",
        );
        let label = vec![(5, 9)];
        resp(
            Response::Label(label),
            "96 01000000 05000000 0900000000000000",
        );
        resp(
            Response::LabelBatch(vec![vec![(1, 2)], vec![]]),
            "97 02000000 01000000 01000000 0200000000000000 00000000",
        );
        let (code, message) = (ErrorCode::Busy, String::from("full"));
        resp(
            Response::Error { code, message },
            "ee 0500 04000000 66756c6c",
        );

        let sh = ServerHello {
            protocol_version: 2,
            store_version: 1,
            num_nodes: 2048,
        };
        let bytes = pinned(sh.encode(), "01 484c4e50 0200 0100 0008000000000000");
        assert_eq!(ServerHello::decode(&bytes).unwrap(), sh);
        let protocol_version = 2;
        let ch = ClientHello { protocol_version };
        let bytes = pinned(ch.encode(), "02 484c4e50 0200");
        assert_eq!(ClientHello::decode(&bytes).unwrap(), ch);

        // One v2-framed frame: [len][id][body].
        let query = Request::Query { u: 1, v: 2 };
        let framed = pinned(
            frame(Some(7), &query.encode()),
            "11000000 0700000000000000 11 01000000 02000000",
        );
        let (id, body) = split_mux(&framed[4..]).unwrap();
        assert_eq!((id, Request::decode(body).unwrap()), (7, query));

        // Every error code's number and name.
        for (n, code, name) in [
            (1, ErrorCode::NodeOutOfRange, "node-out-of-range"),
            (2, ErrorCode::Malformed, "malformed-frame"),
            (3, ErrorCode::FrameTooLarge, "frame-too-large"),
            (4, ErrorCode::VersionMismatch, "version-mismatch"),
            (5, ErrorCode::Busy, "busy"),
            (6, ErrorCode::ShuttingDown, "shutting-down"),
            (7, ErrorCode::Internal, "internal"),
            (8, ErrorCode::Unsupported, "unsupported"),
        ] {
            assert_eq!((code.as_u16(), ErrorCode::from_u16(n)), (n, Some(code)));
            assert_eq!(code.to_string(), name);
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(9), None);
    }
}
