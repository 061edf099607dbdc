//! What the protocol-v2 client decides — request ids, response slots,
//! the outbox, framing and the dead state — as a plain state machine with
//! no socket, no lock, no thread and no clock read.
//!
//! [`crate::MuxClient`] drives it: it reports what the socket delivered
//! ([`ClientConn::received`]), a broken transport ([`ClientConn::kill`])
//! and a waiter that gave up ([`ClientConn::abandon`]), and is told when
//! to write ([`ClientConn::submit`]), what to write
//! ([`ClientConn::take_outbox`]) and what an id holds
//! ([`ClientConn::take`]). A deadline belongs to one wait, not to a
//! request, so it stays with the driver.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::error::NetError;
use crate::wire::{frame, split_frames, split_mux, Request, Response};

/// A submit that brings the outbox to this many bytes asks for a write.
pub(crate) const OUTBOX_FLUSH: usize = 16 * 1024;
/// Inbound room grown past this for a long frame is freed once it is
/// filed. Smaller growth is kept: a stream of long labels (64 KiB on the
/// paper's h:2,5 gadget) would otherwise free and regrow it every time.
const KEEP_INBOUND: usize = 256 * 1024;

/// What a request id holds now.
#[derive(Debug, PartialEq)]
pub(crate) enum Held {
    /// Its response, handed over once: the id is resolved.
    Answer(Response),
    /// Nothing yet, on a live connection.
    Waiting,
    /// The reason the connection died, handed over once: resolved.
    Dead(String),
    /// Nothing in flight: never submitted, or resolved or abandoned.
    Unknown,
}

/// The client's side of one protocol-v2 connection, past the handshake.
#[derive(Default)]
pub(crate) struct ClientConn {
    /// Ids issued so far. Each id is one more than the last, so the first
    /// is 1 (0 is the server's "could not even parse an id" sentinel) and
    /// none repeats on a connection.
    issued: u64,
    /// One entry per request in flight: `None` until its response lands.
    /// Resolving or abandoning an id removes its entry, which is what
    /// makes a late response droppable instead of deliverable.
    slots: HashMap<u64, Option<Response>>,
    /// Framed requests not yet handed to the driver, oldest first.
    pub(crate) outbox: Vec<u8>,
    /// The start of a response frame not yet whole.
    inbound: Vec<u8>,
    max_frame_len: u32,
    /// Why the connection died; the first reason sticks.
    dead: Option<String>,
}

impl ClientConn {
    /// A connection whose handshake is done, taking response frames of up
    /// to `max_frame_len` payload bytes.
    pub(crate) fn new(max_frame_len: u32) -> ClientConn {
        let fresh = ClientConn::default();
        ClientConn {
            max_frame_len,
            ..fresh
        }
    }

    /// Requests submitted and neither resolved nor abandoned.
    pub(crate) fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// Frames `request` under a fresh id onto the outbox. Returns the id,
    /// and whether the outbox has reached [`OUTBOX_FLUSH`] bytes, so the
    /// driver must write it now.
    pub(crate) fn submit(&mut self, request: &Request) -> Result<(u64, bool), NetError> {
        if let Some(reason) = &self.dead {
            return Err(NetError::ConnectionDead(reason.clone()));
        }
        self.issued += 1;
        let id = self.issued;
        self.slots.insert(id, None);
        self.outbox
            .extend_from_slice(&frame(Some(id), &request.encode()));
        Ok((id, self.outbox.len() >= OUTBOX_FLUSH))
    }

    /// The framed requests not yet written, for one write.
    pub(crate) fn take_outbox(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.outbox)
    }

    /// Takes bytes the socket delivered and files every whole response in
    /// the slot of the request it answers; a partial frame stays buffered.
    /// A response to an id not in flight (an abandoned request's late
    /// answer, or a server duplicate) is dropped. A frame that breaks v2
    /// framing or does not decode makes every id on the stream
    /// untrustworthy, so it kills the connection; frames before it stay
    /// filed.
    pub(crate) fn received(&mut self, bytes: &[u8]) {
        if self.dead.is_some() {
            return;
        }
        let mut buf = std::mem::take(&mut self.inbound);
        buf.extend_from_slice(bytes);
        let mut broke = None;
        let split = split_frames(&buf, self.max_frame_len, |payload| {
            match decode_response(payload) {
                Ok((id, response)) => {
                    if let Some(slot) = self.slots.get_mut(&id) {
                        *slot = Some(response);
                    }
                    true
                }
                Err(reason) => {
                    broke = Some(reason);
                    false
                }
            }
        });
        match (split, broke) {
            (Ok(at), None) => {
                buf.drain(..at);
                buf.shrink_to(KEEP_INBOUND);
                self.inbound = buf;
            }
            (Err(e), _) => {
                self.kill(format!("reading response frame: {e}"));
            }
            (_, Some(reason)) => {
                self.kill(reason);
            }
        }
    }

    /// What `id` holds now. An answer or the connection's death is handed
    /// over once, and the id leaves the slot table with it.
    pub(crate) fn take(&mut self, id: u64) -> Held {
        let Entry::Occupied(mut slot) = self.slots.entry(id) else {
            return Held::Unknown;
        };
        if let Some(response) = slot.get_mut().take() {
            slot.remove();
            return Held::Answer(response);
        }
        match &self.dead {
            Some(reason) => {
                slot.remove();
                Held::Dead(reason.clone())
            }
            None => Held::Waiting,
        }
    }

    /// Gives up on `id`: its slot goes, and a response that still comes
    /// is dropped on arrival.
    pub(crate) fn abandon(&mut self, id: u64) {
        self.slots.remove(&id);
    }

    /// Marks the connection dead; the first reason sticks. The outbox and
    /// any partial frame are void, every later submit fails, and every id
    /// in flight without an answer resolves [`Held::Dead`]. Returns the
    /// error every request now gets.
    pub(crate) fn kill(&mut self, reason: String) -> NetError {
        self.outbox = Vec::new();
        self.inbound = Vec::new();
        NetError::ConnectionDead(self.dead.get_or_insert(reason).clone())
    }
}

/// One v2 response payload as `(request id, response)`, or the rendered
/// reason it breaks the protocol.
fn decode_response(payload: &[u8]) -> Result<(u64, Response), String> {
    let (id, inner) =
        split_mux(payload).map_err(|e| format!("response frame missing request id: {e}"))?;
    let response =
        Response::decode(inner).map_err(|e| format!("decoding response for request {id}: {e}"))?;
    Ok((id, response))
}

#[cfg(test)]
mod tests {
    //! The machine fed bytes: no socket, no thread. The last test pipes it
    //! into the daemon's own machine (`faults::PureConn`) over in-memory
    //! bytes, the client half of DESIGN's limits contract in virtual time.

    use std::time::Instant;

    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::rng::Xorshift64;
    use hl_graph::{bfs, generators, Distance, NodeId};
    use hl_server::QueryEngine;

    use super::*;
    use crate::conn::READ_CHUNK;
    use crate::faults::PureConn;
    use crate::server::ServerConfig;
    use crate::wire::{ClientHello, ErrorCode, DEFAULT_MAX_FRAME_LEN, PROTOCOL_V2};

    fn fresh() -> ClientConn {
        ClientConn::new(DEFAULT_MAX_FRAME_LEN)
    }

    fn query(c: &mut ClientConn, u: NodeId, v: NodeId) -> u64 {
        c.submit(&Request::Query { u, v }).unwrap().0
    }

    /// The answer the daemon would frame for request `id`.
    fn answer(id: u64, response: &Response) -> Vec<u8> {
        frame(Some(id), &response.encode())
    }

    #[test]
    fn answers_arriving_in_reverse_order_are_filed_exactly() {
        let mut c = fresh();
        let (a, b) = (query(&mut c, 1, 2), query(&mut c, 3, 4));
        assert_eq!((a, b), (1, 2), "ids count from 1");
        c.received(&answer(b, &Response::Distance(34)));
        assert_eq!(c.take(a), Held::Waiting);
        c.received(&answer(a, &Response::Distance(12)));
        assert_eq!(c.take(b), Held::Answer(Response::Distance(34)));
        assert_eq!(c.take(a), Held::Answer(Response::Distance(12)));
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.take(a), Held::Unknown, "an answer is handed over once");
    }

    #[test]
    fn a_cut_inside_the_prefix_or_the_id_keeps_the_partial_frame() {
        for cut in [2, 9] {
            let mut c = fresh();
            let (x, y) = (query(&mut c, 9, 1), query(&mut c, 2, 3));
            let whole = answer(y, &Response::Distance(23));
            c.received(&whole[..cut]);
            assert_eq!(c.inbound.len(), cut, "half a frame kept");
            // x's wait times out meanwhile; the frame stays whole.
            c.abandon(x);
            assert_eq!(c.take(y), Held::Waiting);
            c.received(&whole[cut..]);
            assert_eq!(c.take(y), Held::Answer(Response::Distance(23)));
            assert!(c.inbound.is_empty());
            c.received(&answer(x, &Response::Distance(91)));
            assert_eq!(c.take(x), Held::Unknown, "a late answer is dropped");
            assert_eq!(c.in_flight(), 0);
        }
    }

    #[test]
    fn a_long_frame_grows_the_inbound_buffer_and_its_room_is_freed() {
        let long = Response::LabelBatch(vec![vec![(1, 2); 64 * 1024]]);
        let mut c = fresh();
        let id = query(&mut c, 1, 1);
        let whole = answer(id, &long);
        assert!(
            whole.len() > 2 * KEEP_INBOUND,
            "the frame must outgrow what the buffer keeps"
        );
        let cut = whole.len() - 5;
        for piece in whole[..cut].chunks(READ_CHUNK) {
            c.received(piece);
        }
        assert_eq!(c.inbound.len(), cut, "the buffer grows to hold the frame");
        c.received(&whole[cut..]);
        assert_eq!(c.take(id), Held::Answer(long));
        assert!(c.inbound.is_empty());
        assert!(
            c.inbound.capacity() <= KEEP_INBOUND,
            "the long frame's room is freed"
        );
    }

    #[test]
    fn eof_mid_frame_fails_the_pending_ids_but_delivers_the_filed_ones() {
        let mut c = fresh();
        let (a, b, d) = (
            query(&mut c, 4, 4),
            query(&mut c, 5, 5),
            query(&mut c, 6, 6),
        );
        let cut = answer(b, &Response::Distance(0));
        c.received(&answer(a, &Response::Distance(44)));
        c.received(&cut[..cut.len() / 2]);
        c.kill("reading response frame: peer closed".to_string());
        for id in [b, d] {
            assert!(matches!(c.take(id), Held::Dead(r) if r.contains("peer closed")));
        }
        assert_eq!(c.take(a), Held::Answer(Response::Distance(44)));
        assert!(matches!(
            c.submit(&Request::Ping),
            Err(NetError::ConnectionDead(_))
        ));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn a_frame_that_breaks_framing_kills_after_filing_the_frames_before_it() {
        let over = (DEFAULT_MAX_FRAME_LEN + 1).to_le_bytes();
        for broken in [&over[..], &[0, 0, 0, 0], &answer(7, &Response::Pong)[..8]] {
            let mut c = fresh();
            let (a, b) = (query(&mut c, 1, 1), query(&mut c, 2, 2));
            let mut bytes = answer(a, &Response::Distance(1));
            if broken.len() == 8 {
                // A whole frame too short to carry an id.
                bytes.extend_from_slice(&frame(None, &broken[4..]));
            } else {
                bytes.extend_from_slice(broken);
            }
            c.received(&bytes);
            assert!(matches!(c.take(b), Held::Dead(_)), "{broken:?}");
            assert_eq!(c.take(a), Held::Answer(Response::Distance(1)));
        }
    }

    #[test]
    fn the_submit_that_fills_the_outbox_asks_for_a_write() {
        let mut c = fresh();
        let one = answer(1, &Response::Pong).len() - 1 + Request::Ping.encode().len();
        let fill = OUTBOX_FLUSH.div_ceil(one);
        for k in 1..fill {
            assert_eq!(c.submit(&Request::Ping).unwrap(), (k as u64, false));
            assert_eq!(c.outbox.len(), k * one, "submit {k} only queues");
        }
        assert_eq!(c.submit(&Request::Ping).unwrap(), (fill as u64, true));
        assert_eq!(c.take_outbox().len(), fill * one);
        assert!(c.outbox.is_empty());
        assert!(!c.submit(&Request::Ping).unwrap().1);
    }

    /// Where a pipe run ends.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum End {
        /// Every byte reaches both ends: every id not abandoned answers.
        Clean,
        /// The client sends an empty frame: the daemon voids the
        /// connection, answers under id 0 and closes.
        Void,
        /// The daemon drains: what it handed out is answered, the rest
        /// dropped, then it closes.
        Drain,
        /// The connection drops at a seeded byte of the daemon's output.
        Cut,
    }

    /// One client, one daemon connection and the bytes between them.
    struct Pipe<'a> {
        server: PureConn<'a>,
        client: ClientConn,
        /// Bytes the client wrote that the daemon has not read yet.
        to_server: Vec<u8>,
        /// How much of the daemon's output the client has been handed.
        seen: usize,
        rng: Xorshift64,
    }

    impl Pipe<'_> {
        /// The client writes its outbox; the daemon reads a seeded cut of
        /// the bytes waiting, or all of them.
        fn push(&mut self, all: bool) {
            self.to_server.extend(self.client.take_outbox());
            while self.server.conn.wants_read() && !self.to_server.is_empty() {
                let most = self.to_server.len().min(READ_CHUNK);
                let take = if all {
                    most
                } else {
                    1 + self.rng.gen_index(most)
                };
                self.server.send(&self.to_server[..take]);
                self.to_server.drain(..take);
                if !all {
                    break;
                }
            }
        }

        /// The daemon writes a seeded amount, or everything, and the client
        /// reads a seeded cut of what has arrived, or all of it.
        fn pull(&mut self, all: bool) {
            let there = if all {
                self.server.read(usize::MAX);
                self.server.output.len() - self.seen
            } else {
                self.server.read(1 + self.rng.gen_index(512));
                self.rng.gen_index(self.server.output.len() - self.seen + 1)
            };
            let bytes = &self.server.output[self.seen..self.seen + there];
            self.client.received(bytes);
            self.seen += there;
        }
    }

    /// How often each way of resolving came up, over every seed.
    #[derive(Default, Debug)]
    struct Tally {
        answered: usize,
        busy: usize,
        abandoned: usize,
        dead: usize,
    }

    /// Resolves `id` if it holds anything: a right answer to `request`
    /// (or `Busy`), or the connection's death when `may_die`. Returns
    /// whether it resolved, and checks it resolves only once.
    fn resolve(
        c: &mut ClientConn,
        id: u64,
        request: &Request,
        truth: &[Vec<Distance>],
        may_die: bool,
        tally: &mut Tally,
    ) -> bool {
        match (c.take(id), request) {
            (Held::Waiting, _) if !may_die => return false,
            (Held::Dead(_), _) if may_die => tally.dead += 1,
            (
                Held::Answer(Response::Error {
                    code: ErrorCode::Busy,
                    ..
                }),
                Request::Query { .. },
            ) => tally.busy += 1,
            (Held::Answer(Response::Distance(d)), &Request::Query { u, v }) => {
                assert_eq!(d, truth[u as usize][v as usize], "{u}-{v}");
                tally.answered += 1;
            }
            (Held::Answer(Response::Pong), Request::Ping) => tally.answered += 1,
            (held, _) => panic!("id {id} ({request:?}) holds {held:?}"),
        }
        assert_eq!(c.take(id), Held::Unknown, "id {id} resolved twice");
        true
    }

    /// One seeded run: submits, cuts in both directions, completion order
    /// and abandons drawn from `seed`, then the ending it draws.
    fn pipe_run(
        seed: u64,
        config: &ServerConfig,
        engine: &QueryEngine,
        truth: &[Vec<Distance>],
        tally: &mut Tally,
    ) {
        let mut server = PureConn::accept(config, engine, 0, Instant::now());
        // The handshake `dial` makes: read the greeting, answer v2.
        server.read(usize::MAX);
        let seen = server.output.len();
        let protocol_version = PROTOCOL_V2;
        server.send(&frame(None, &ClientHello { protocol_version }.encode()));
        let mut p = Pipe {
            server,
            client: fresh(),
            to_server: Vec::new(),
            seen,
            rng: Xorshift64::seed_from_u64(seed),
        };
        let n = truth.len();
        let end = [End::Clean, End::Void, End::Drain, End::Cut][p.rng.gen_index(4)];
        let mut left = 1 + p.rng.gen_index(24);
        let mut asked = std::collections::BTreeMap::new();
        let mut abandoned = Vec::new();
        while left > 0 || p.rng.gen_index(16) != 0 {
            match p.rng.gen_index(5) {
                0 if left > 0 => {
                    let (u, v) = (p.rng.gen_index(n), p.rng.gen_index(n));
                    let request = match p.rng.gen_index(8) {
                        0 => Request::Ping,
                        _ => Request::Query {
                            u: u as NodeId,
                            v: v as NodeId,
                        },
                    };
                    let (id, _) = p.client.submit(&request).unwrap();
                    asked.insert(id, request);
                    left -= 1;
                }
                1 => p.push(false),
                2 if !p.server.running.is_empty() => {
                    let i = p.rng.gen_index(p.server.running.len());
                    p.server.complete(i);
                }
                3 => p.pull(false),
                4 if !asked.is_empty() => {
                    let i = p.rng.gen_index(asked.len());
                    let (&id, request) = asked.iter().nth(i).unwrap();
                    if p.rng.gen_index(4) == 0 {
                        p.client.abandon(id);
                        abandoned.push(id);
                        asked.remove(&id);
                    } else if resolve(&mut p.client, id, request, truth, false, tally) {
                        asked.remove(&id);
                    }
                }
                _ => {}
            }
            p.server.check().unwrap();
        }
        match end {
            End::Clean => {}
            End::Void => p.client.outbox.extend_from_slice(&[0; 4]),
            End::Drain => p.server.conn.begin_drain(),
            End::Cut => {}
        }
        if end == End::Cut {
            p.pull(false);
        } else {
            p.push(true);
            p.server.settle().unwrap();
            p.pull(true);
            assert_eq!(p.server.conn.is_finished(), end != End::Clean, "{end:?}");
        }
        if end != End::Clean {
            p.client
                .kill("reading response frame: peer closed".to_string());
        }
        for (id, request) in &asked {
            assert!(resolve(
                &mut p.client,
                *id,
                request,
                truth,
                end != End::Clean,
                tally
            ));
        }
        for id in abandoned {
            assert_eq!(p.client.take(id), Held::Unknown, "abandoned id {id}");
            tally.abandoned += 1;
        }
        assert_eq!(p.client.in_flight(), 0, "seed {seed}");
    }

    /// Both ends in one pipe: over 1,000 seeds, every id the client hands
    /// out resolves exactly once — a BFS-exact answer, `Busy`, an abandon
    /// or the connection's death — and none is left in flight.
    #[test]
    fn every_id_resolves_exactly_once_against_the_daemons_machine() {
        let g = generators::grid(4, 4);
        let labeling = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
        let engine = QueryEngine::new(labeling, 1).unwrap();
        let config = ServerConfig {
            max_inflight_per_conn: 2,
            ..ServerConfig::default()
        };
        let n = g.num_nodes() as NodeId;
        let truth: Vec<Vec<Distance>> = (0..n)
            .map(|u| {
                (0..n)
                    .map(|v| bfs::bfs_distance_between(&g, u, v))
                    .collect()
            })
            .collect();
        let mut tally = Tally::default();
        for seed in 0..1000 {
            pipe_run(seed, &config, &engine, &truth, &mut tally);
        }
        println!("{tally:?}");
        assert!(
            tally.answered > 0 && tally.busy > 0 && tally.abandoned > 0 && tally.dead > 0,
            "every way of resolving must come up: {tally:?}"
        );
    }
}
