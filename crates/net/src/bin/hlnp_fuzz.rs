//! `hlnp-fuzz` — seeded, bounded fuzzer for the HLNP serving stack.
//!
//! ```text
//! hlnp-fuzz [--seed S] [--iters N] [--nodes N] [--probe-every K]
//!           [--max-seconds T]
//! ```
//!
//! Three campaigns, all driven from one seed so any finding replays
//! exactly:
//!
//! 1. **Network**: a live [`NetServer`] over a real labeling is hammered
//!    with `--iters` connections, each playing a [`FaultPlan`] script —
//!    bit flips, truncations, length-prefix lies, handshake garbage,
//!    slow-loris pacing, mid-frame stalls. Every `--probe-every`
//!    iterations a clean [`NetClient`] probe asserts *exact* distances
//!    against BFS ground truth: the server must stay both alive and
//!    correct while being abused.
//! 2. **Mux**: the same live server under protocol-v2 abuse. Each
//!    iteration handshakes v2 cleanly, then plays a mux-specific
//!    [`FaultKind::MUX`] script — many-id streams chopped into
//!    arbitrary chunks, duplicate ids, shuffled frames, id-field bit
//!    flips, runt frames too short for an id. Clean [`MuxClient`]
//!    probes submit a window of queries and reap them newest-first,
//!    asserting BFS-exact answers under out-of-order completion. A
//!    handshake matrix then pins the negotiation: hello 1 serves v1
//!    framing, hello 2 serves v2 framing, hello 3 gets a typed
//!    `VersionMismatch`, garbage gets a typed `Malformed` — and the
//!    rejections close the connection.
//! 3. **Store**: all three serialized HLBS images take abuse. The v1
//!    (γ-coded) image gets seeded byte flips (the checksum's job),
//!    crafted flips with a refreshed checksum (the decoder's job), and
//!    random truncations. The v2 images — flat flavor, then the compact
//!    flavor (v2c) of the same labeling — additionally get per-section
//!    crafted flips with *that section's* checksum and the table
//!    checksum both refreshed, plus misaligned-section-offset mutations;
//!    because every v2 byte sits under a checksum or the zero-padding
//!    rule, a blind flip that parses anyway is itself a defect. Every
//!    image goes through `AnyStore::parse`, the path a daemon mounts by;
//!    whatever parses is walked label by label in its native arena and
//!    joined with and without a witness.
//! 4. **Wire**: random payloads through every frame decoder.
//!
//! Any panic, hang, wrong answer, or silently-accepted corruption is a
//! defect. Exit codes: 0 clean, 1 defect found, 2 usage or the
//! `--max-seconds` wall-clock guard fired (a hang somewhere in the
//! stack).

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::CompactLabeling;
use hl_graph::rng::Xorshift64;
use hl_graph::{bfs, generators, Distance, NodeId};
use hl_net::cli::Flags;
use hl_net::faults::{apply_script, FaultConfig, FaultKind, FaultPlan, Outcome};
use hl_net::wire::{
    encode_mux, read_frame, split_mux, write_frame, ClientHello, ErrorCode, Request, Response,
    ServerHello, DEFAULT_MAX_FRAME_LEN, MAX_PROTOCOL_VERSION, PROTOCOL_V2, PROTOCOL_VERSION,
};
use hl_net::{ClientConfig, MuxClient, NetClient, NetServer, ServerConfig};
use hl_server::{store, store_v2, AnyStore, CompactStore, FlatStore, LabelStore, QueryEngine};

struct Opts {
    seed: u64,
    iters: usize,
    nodes: usize,
    probe_every: usize,
    max_seconds: u64,
}

const USAGE: &str =
    "usage: hlnp-fuzz [--seed S] [--iters N] [--nodes N] [--probe-every K] [--max-seconds T]";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        seed: 5,
        iters: 10_000,
        nodes: 256,
        probe_every: 32,
        // Sized for the default 10k-iteration profile on a slow shared
        // core — the v1 + mux network campaigns alone are ~6 minutes
        // there. CI passes an explicit, tighter guard.
        max_seconds: 900,
    };
    let mut flags = Flags::new(args);
    while let Some(arg) = flags.next() {
        match arg {
            "--seed" => opts.seed = flags.parsed(arg)?,
            "--iters" => opts.iters = flags.parsed(arg)?,
            "--nodes" => opts.nodes = flags.parsed(arg)?,
            "--probe-every" => opts.probe_every = flags.parsed(arg)?,
            "--max-seconds" => opts.max_seconds = flags.parsed(arg)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.nodes < 8 {
        return Err("--nodes must be at least 8".to_string());
    }
    if opts.probe_every == 0 {
        return Err("--probe-every must be positive".to_string());
    }
    Ok(opts)
}

/// A defect (exit 1) or the wall-clock guard (exit 2).
enum Failure {
    Defect(String),
    Timeout(String),
}

#[derive(Default)]
struct Summary {
    fault_iterations: usize,
    by_kind: Vec<(FaultKind, usize)>,
    peer_closed: usize,
    probes: usize,
    probe_queries: usize,
    mux_fault_iterations: usize,
    mux_probes: usize,
    mux_probe_queries: usize,
    handshake_matrix_rounds: usize,
    store_mutations: usize,
    store_parses_survived: usize,
    store_v2_mutations: usize,
    store_v2_parses_survived: usize,
    wire_decodes: usize,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(s) => {
            println!(
                "hlnp-fuzz: clean. {} fault iterations ({} cut off by the server), \
                 {} probes / {} exact answers verified, {} mux fault iterations, \
                 {} mux probes / {} out-of-order answers verified, \
                 {} handshake matrix rounds, {} v1 store mutations \
                 ({} parsed anyway, none panicked), {} v2 store mutations \
                 ({} parsed anyway, none panicked), {} wire decodes.",
                s.fault_iterations,
                s.peer_closed,
                s.probes,
                s.probe_queries,
                s.mux_fault_iterations,
                s.mux_probes,
                s.mux_probe_queries,
                s.handshake_matrix_rounds,
                s.store_mutations,
                s.store_parses_survived,
                s.store_v2_mutations,
                s.store_v2_parses_survived,
                s.wire_decodes,
            );
            let kinds: Vec<String> = s
                .by_kind
                .iter()
                .map(|(k, n)| format!("{}={}", k.name(), n))
                .collect();
            println!("hlnp-fuzz: kind mix: {}", kinds.join(" "));
            ExitCode::SUCCESS
        }
        Err(Failure::Defect(msg)) => {
            eprintln!("hlnp-fuzz: DEFECT (seed {}): {msg}", opts.seed);
            ExitCode::from(1)
        }
        Err(Failure::Timeout(msg)) => {
            eprintln!(
                "hlnp-fuzz: wall-clock guard ({}s) fired: {msg}",
                opts.max_seconds
            );
            ExitCode::from(2)
        }
    }
}

fn run(opts: &Opts) -> Result<Summary, Failure> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs(opts.max_seconds);
    let mut summary = Summary::default();

    // Ground truth and the serving stack under test. The store round-trip
    // (labeling -> HLBS bytes -> engine) is deliberate: the same image
    // feeds the store campaign below.
    let g = generators::connected_gnm(opts.nodes, opts.nodes, opts.seed ^ 0x9e37_79b9);
    let hl = PrunedLandmarkLabeling::by_degree(&g).into_labeling();
    let mut store_bytes = Vec::new();
    LabelStore::from_labeling(&hl)
        .write_to(&mut store_bytes)
        .map_err(|e| Failure::Defect(format!("serializing the store: {e}")))?;
    let flat = AnyStore::parse(&store_bytes)
        .and_then(AnyStore::into_flat)
        .map_err(|e| Failure::Defect(format!("decoding the v1 store: {e}")))?;
    let store_v2c_bytes = CompactLabeling::from_flat(&flat)
        .map(|compact| CompactStore::from_compact(compact).encode())
        .map_err(|e| Failure::Defect(format!("serializing the v2c store: {e}")))?;
    let store_v2_bytes = FlatStore::from_flat(flat.clone()).encode();
    let engine = QueryEngine::new(flat, 2)
        .map_err(|e| Failure::Defect(format!("building the engine: {e}")))?;

    let sources: Vec<NodeId> = (0..8.min(opts.nodes) as NodeId).collect();
    let truth: Vec<Vec<Distance>> = sources.iter().map(|&s| bfs::bfs_distances(&g, s)).collect();

    let config = ServerConfig {
        max_connections: 32,
        read_timeout: Duration::from_millis(800),
        write_timeout: Duration::from_secs(1),
        frame_timeout: Duration::from_millis(300),
        max_frame_len: DEFAULT_MAX_FRAME_LEN,
        // Found by this very fuzzer: with remote shutdown on, any
        // mutated frame that happens to decode as the one-byte Shutdown
        // opcode stops the daemon mid-campaign. Reload is equally
        // dangerous: a mutated frame decoding as Reload would swap the
        // served store (or spray error frames about unreadable paths).
        allow_remote_shutdown: false,
        allow_remote_reload: false,
        ..ServerConfig::default()
    };
    let server = NetServer::bind(Arc::new(engine), "127.0.0.1:0", config)
        .map_err(|e| Failure::Defect(format!("binding the server: {e}")))?;
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let server_thread = std::thread::spawn(move || server.serve());

    // Short pauses keep thousands of iterations inside the CI budget
    // while still being long against the server's 300 ms frame budget.
    let fault_config = FaultConfig {
        loris_pace: Duration::from_millis(25),
        loris_max_bytes: 6,
        stall: Duration::from_millis(60),
    };
    let mut plan = FaultPlan::with_config(opts.seed, fault_config);
    let mut rng = Xorshift64::seed_from_u64(opts.seed ^ 0xd1b5_4a32_d192_ed03);
    let mut kind_counts = std::collections::HashMap::new();

    let result = (|| -> Result<(), Failure> {
        for i in 0..opts.iters {
            if Instant::now() > deadline {
                return Err(Failure::Timeout(format!(
                    "network campaign stuck at iteration {i} of {}",
                    opts.iters
                )));
            }
            let mut kind = plan.pick_kind();
            // Timing faults sleep; keep them in the mix but rare enough
            // that iteration counts stay cheap.
            if matches!(kind, FaultKind::SlowLoris | FaultKind::Stall) && rng.gen_index(8) != 0 {
                kind = FaultKind::ALL[rng.gen_index(6)]; // the six cheap kinds lead ALL
            }
            *kind_counts.entry(kind).or_insert(0usize) += 1;
            match fault_iteration(addr, &mut plan, kind, &mut rng, opts.nodes as NodeId) {
                Ok(Outcome::PeerClosed) => summary.peer_closed += 1,
                Ok(_) => {}
                Err(e) => {
                    return Err(Failure::Defect(format!(
                        "iteration {i} ({}): server unreachable — {e}",
                        kind.name()
                    )))
                }
            }
            summary.fault_iterations += 1;
            if i % opts.probe_every == 0 {
                probe(addr, &sources, &truth, &mut rng, opts.seed)?;
                summary.probes += 1;
                summary.probe_queries += PROBE_QUERIES;
            }
        }
        // One last probe after all the abuse.
        probe(addr, &sources, &truth, &mut rng, opts.seed)?;
        summary.probes += 1;
        summary.probe_queries += PROBE_QUERIES;

        // Mux campaign: protocol-v2 abuse against the same live server.
        // Half the v1 iteration count — mux scripts mostly *complete*
        // (no disconnect), so each iteration also drains real answers.
        for i in 0..opts.iters / 2 {
            if Instant::now() > deadline {
                return Err(Failure::Timeout(format!(
                    "mux campaign stuck at iteration {i} of {}",
                    opts.iters / 2
                )));
            }
            let kind = plan.pick_mux_kind();
            *kind_counts.entry(kind).or_insert(0usize) += 1;
            match mux_fault_iteration(addr, &mut plan, kind, &mut rng, opts.nodes as NodeId) {
                Ok(Outcome::PeerClosed) => summary.peer_closed += 1,
                Ok(_) => {}
                Err(e) => {
                    return Err(Failure::Defect(format!(
                        "mux iteration {i} ({}): server unreachable — {e}",
                        kind.name()
                    )))
                }
            }
            summary.mux_fault_iterations += 1;
            if i % opts.probe_every == 0 {
                mux_probe(addr, &sources, &truth, &mut rng)?;
                summary.mux_probes += 1;
                summary.mux_probe_queries += MUX_PROBE_QUERIES;
            }
        }

        // Handshake version matrix, then one last mux probe.
        for _ in 0..8 {
            if Instant::now() > deadline {
                return Err(Failure::Timeout("handshake matrix stuck".to_string()));
            }
            handshake_matrix(addr, &mut rng)?;
            summary.handshake_matrix_rounds += 1;
        }
        mux_probe(addr, &sources, &truth, &mut rng)?;
        summary.mux_probes += 1;
        summary.mux_probe_queries += MUX_PROBE_QUERIES;
        Ok(())
    })();

    stop.stop();
    let serve_result = server_thread.join();
    if let Err(failure) = result {
        // The server's own exit usually explains a dead accept loop.
        return Err(match (failure, serve_result) {
            (Failure::Defect(m), Ok(Err(e))) => {
                Failure::Defect(format!("{m}; server exited with error: {e}"))
            }
            (Failure::Defect(m), Err(_)) => Failure::Defect(format!("{m}; server thread panicked")),
            (f, _) => f,
        });
    }
    match serve_result {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(Failure::Defect(format!("server exited with error: {e}"))),
        Err(_) => return Err(Failure::Defect("server thread panicked".to_string())),
    }

    let mut by_kind: Vec<(FaultKind, usize)> = kind_counts.into_iter().collect();
    by_kind.sort_by_key(|&(k, _)| k.name());
    summary.by_kind = by_kind;

    store_campaign(&store_bytes, opts, deadline, &mut rng, &mut summary)?;
    store_v2_campaign(&store_v2_bytes, opts, deadline, &mut rng, &mut summary)?;
    store_v2_campaign(&store_v2c_bytes, opts, deadline, &mut rng, &mut summary)?;
    wire_campaign(opts, deadline, &mut rng, &mut summary)?;
    Ok(summary)
}

/// One hostile connection: handshake bytes plus a few valid request
/// frames, rewritten by `kind`, then a bounded drain of whatever the
/// server answers. Only failure to *connect* is an error — that means
/// the accept loop is gone.
fn fault_iteration(
    addr: SocketAddr,
    plan: &mut FaultPlan,
    kind: FaultKind,
    rng: &mut Xorshift64,
    num_nodes: NodeId,
) -> std::io::Result<Outcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(300)))?;
    stream.set_write_timeout(Some(Duration::from_secs(1)))?;
    // The server speaks first; its hello is not part of the fault script.
    let _ = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN);

    let clean = clean_request_stream(rng, num_nodes);
    let steps = plan.script(kind, &clean);
    let outcome = apply_script(&mut stream, &steps);

    // Drain responses (typed errors, answers, or EOF) so the iteration
    // observes the server's reaction instead of racing its own reset.
    // Short timeout: on faults the server survives (e.g. a Malformed
    // error frame on a live connection) the drain must not stall the
    // whole campaign waiting for bytes that will never come.
    stream.set_read_timeout(Some(Duration::from_millis(30)))?;
    let mut buf = [0u8; 512];
    for _ in 0..16 {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(outcome)
}

/// A well-formed HLNP byte stream: client hello, then 1–3 requests.
fn clean_request_stream(rng: &mut Xorshift64, num_nodes: NodeId) -> Vec<u8> {
    let mut buf = Vec::new();
    let hello = ClientHello {
        protocol_version: PROTOCOL_VERSION,
    };
    let _ = write_frame(&mut buf, &hello.encode());
    for _ in 0..1 + rng.gen_index(3) {
        let req = match rng.gen_index(3) {
            0 => Request::Ping,
            1 => Request::Query {
                u: rng.gen_index(num_nodes as usize) as NodeId,
                v: rng.gen_index(num_nodes as usize) as NodeId,
            },
            _ => {
                let pairs = (0..1 + rng.gen_index(8))
                    .map(|_| {
                        (
                            rng.gen_index(num_nodes as usize) as NodeId,
                            rng.gen_index(num_nodes as usize) as NodeId,
                        )
                    })
                    .collect();
                Request::QueryBatch(pairs)
            }
        };
        let _ = write_frame(&mut buf, &req.encode());
    }
    buf
}

/// One hostile v2 connection: a *clean* v2 handshake (the matrix covers
/// negotiation abuse), then a multi-id mux request stream rewritten by
/// `kind`, then a bounded drain. Only failure to connect is an error.
fn mux_fault_iteration(
    addr: SocketAddr,
    plan: &mut FaultPlan,
    kind: FaultKind,
    rng: &mut Xorshift64,
    num_nodes: NodeId,
) -> std::io::Result<Outcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(300)))?;
    stream.set_write_timeout(Some(Duration::from_secs(1)))?;
    let _ = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN);
    let hello = ClientHello {
        protocol_version: PROTOCOL_V2,
    };
    if write_frame(&mut stream, &hello.encode()).is_err() {
        return Ok(Outcome::PeerClosed);
    }

    let clean = clean_mux_stream(rng, num_nodes);
    let steps = plan.script(kind, &clean);
    let outcome = apply_script(&mut stream, &steps);

    // Bounded drain: mux scripts mostly complete, so the server answers
    // every well-formed id — read those (and any typed errors) without
    // stalling the campaign on a quiet socket.
    stream.set_read_timeout(Some(Duration::from_millis(30)))?;
    let mut buf = [0u8; 512];
    for _ in 0..16 {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(outcome)
}

/// A well-formed v2 request stream: 2–6 mux-framed requests with
/// distinct ids (the handshake is sent separately, unfaulted).
fn clean_mux_stream(rng: &mut Xorshift64, num_nodes: NodeId) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut id: u64 = 0;
    for _ in 0..2 + rng.gen_index(5) {
        id += 1;
        let req = match rng.gen_index(3) {
            0 => Request::Ping,
            1 => Request::Query {
                u: rng.gen_index(num_nodes as usize) as NodeId,
                v: rng.gen_index(num_nodes as usize) as NodeId,
            },
            _ => {
                let pairs = (0..1 + rng.gen_index(8))
                    .map(|_| {
                        (
                            rng.gen_index(num_nodes as usize) as NodeId,
                            rng.gen_index(num_nodes as usize) as NodeId,
                        )
                    })
                    .collect();
                Request::QueryBatch(pairs)
            }
        };
        let _ = write_frame(&mut buf, &encode_mux(id, &req.encode()));
    }
    buf
}

const MUX_PROBE_QUERIES: usize = 16;

/// A clean [`MuxClient`] submitting a window of queries and reaping them
/// newest-first: liveness, correctness, *and* out-of-order completion
/// in one check. Any error or wrong answer is a defect.
fn mux_probe(
    addr: SocketAddr,
    sources: &[NodeId],
    truth: &[Vec<Distance>],
    rng: &mut Xorshift64,
) -> Result<(), Failure> {
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(2),
        ..ClientConfig::default()
    };
    let client = MuxClient::connect(addr, config)
        .map_err(|e| Failure::Defect(format!("mux probe cannot connect: {e}")))?;
    let n = truth[0].len();
    let mut pending = Vec::with_capacity(MUX_PROBE_QUERIES);
    for _ in 0..MUX_PROBE_QUERIES {
        let si = rng.gen_index(sources.len());
        let v = rng.gen_index(n) as NodeId;
        let id = client
            .submit(&Request::Query { u: sources[si], v })
            .map_err(|e| Failure::Defect(format!("mux probe submit failed: {e}")))?;
        pending.push((id, si, v));
    }
    for (id, si, v) in pending.into_iter().rev() {
        match client.wait(id, Duration::from_secs(2)) {
            Ok(Response::Distance(d)) => {
                let want = truth[si][v as usize];
                if d != want {
                    return Err(Failure::Defect(format!(
                        "mux probe wrong answer: d({}, {v}) = {d}, BFS says {want}",
                        sources[si]
                    )));
                }
            }
            Ok(other) => {
                return Err(Failure::Defect(format!(
                    "mux probe expected a Distance for id {id}, got {other:?}"
                )))
            }
            Err(e) => return Err(Failure::Defect(format!("mux probe wait({id}) failed: {e}"))),
        }
    }
    Ok(())
}

/// Connects and consumes the server hello, asserting it advertises the
/// v2 ceiling. The shared front half of every handshake-matrix case.
fn matrix_connect(addr: SocketAddr) -> Result<TcpStream, Failure> {
    let defect = |m: String| Failure::Defect(format!("handshake matrix: {m}"));
    let mut s = TcpStream::connect(addr).map_err(|e| defect(format!("connect: {e}")))?;
    s.set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| defect(format!("set timeout: {e}")))?;
    s.set_write_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| defect(format!("set timeout: {e}")))?;
    let payload = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN)
        .map_err(|e| defect(format!("reading server hello: {e}")))?;
    let hello =
        ServerHello::decode(&payload).map_err(|e| defect(format!("bad server hello: {e}")))?;
    if hello.protocol_version != MAX_PROTOCOL_VERSION {
        return Err(defect(format!(
            "server hello advertises ceiling {}, want {MAX_PROTOCOL_VERSION}",
            hello.protocol_version
        )));
    }
    Ok(s)
}

/// Reads one response frame and requires a typed error of `code`,
/// followed by the server closing the connection.
fn expect_error_then_close(mut s: TcpStream, code: ErrorCode, case: &str) -> Result<(), Failure> {
    let defect = |m: String| Failure::Defect(format!("handshake matrix [{case}]: {m}"));
    let payload = read_frame(&mut s, DEFAULT_MAX_FRAME_LEN)
        .map_err(|e| defect(format!("reading the rejection: {e}")))?;
    match Response::decode(&payload) {
        Ok(Response::Error { code: got, message }) if got == code => {
            // The server must also hang up: the next read is EOF.
            let mut byte = [0u8; 1];
            match s.read(&mut byte) {
                Ok(0) => {
                    let _ = message;
                    Ok(())
                }
                Ok(_) => Err(defect("server kept talking after the rejection".into())),
                Err(e) => Err(defect(format!("waiting for the close: {e}"))),
            }
        }
        Ok(other) => Err(defect(format!("expected {code:?}, got {other:?}"))),
        Err(e) => Err(defect(format!("undecodable rejection frame: {e}"))),
    }
}

/// One pass of the v1-vs-v2 handshake matrix: hello 1 serves v1
/// framing, hello 2 serves v2 framing, hello 3 draws `VersionMismatch`,
/// and a non-hello first frame draws `Malformed` — both rejections
/// closing the connection.
fn handshake_matrix(addr: SocketAddr, rng: &mut Xorshift64) -> Result<(), Failure> {
    // Hello 1: plain v1 framing; a ping comes back as a bare Pong.
    let mut s = matrix_connect(addr)?;
    let defect = |m: String| Failure::Defect(format!("handshake matrix [v1]: {m}"));
    let hello = ClientHello {
        protocol_version: PROTOCOL_VERSION,
    };
    write_frame(&mut s, &hello.encode()).map_err(|e| defect(format!("hello: {e}")))?;
    write_frame(&mut s, &Request::Ping.encode()).map_err(|e| defect(format!("ping: {e}")))?;
    let payload =
        read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).map_err(|e| defect(format!("pong: {e}")))?;
    match Response::decode(&payload) {
        Ok(Response::Pong) => {}
        other => return Err(defect(format!("expected a bare Pong, got {other:?}"))),
    }
    drop(s);

    // Hello 2: mux framing; the pong comes back under the request's id.
    let mut s = matrix_connect(addr)?;
    let defect = |m: String| Failure::Defect(format!("handshake matrix [v2]: {m}"));
    let hello = ClientHello {
        protocol_version: PROTOCOL_V2,
    };
    write_frame(&mut s, &hello.encode()).map_err(|e| defect(format!("hello: {e}")))?;
    let id = 1 + (rng.next_u64() >> 1);
    write_frame(&mut s, &encode_mux(id, &Request::Ping.encode()))
        .map_err(|e| defect(format!("mux ping: {e}")))?;
    let payload =
        read_frame(&mut s, DEFAULT_MAX_FRAME_LEN).map_err(|e| defect(format!("mux pong: {e}")))?;
    let (got_id, inner) = split_mux(&payload).map_err(|e| defect(format!("split: {e}")))?;
    if got_id != id {
        return Err(defect(format!("pong under id {got_id}, want {id}")));
    }
    match Response::decode(inner) {
        Ok(Response::Pong) => {}
        other => {
            return Err(defect(format!(
                "expected Pong under id {id}, got {other:?}"
            )))
        }
    }
    drop(s);

    // Hello 3: above the ceiling — a typed VersionMismatch, then close.
    let mut s = matrix_connect(addr)?;
    let defect = |m: String| Failure::Defect(format!("handshake matrix [v3]: {m}"));
    let hello = ClientHello {
        protocol_version: MAX_PROTOCOL_VERSION + 1,
    };
    write_frame(&mut s, &hello.encode()).map_err(|e| defect(format!("hello: {e}")))?;
    expect_error_then_close(s, ErrorCode::VersionMismatch, "v3")?;

    // Garbage hello: a first frame that is not a hello at all — typed
    // Malformed, then close. (First byte pinned off the hello opcode so
    // random bytes cannot accidentally spell a valid handshake.)
    let mut s = matrix_connect(addr)?;
    let defect = |m: String| Failure::Defect(format!("handshake matrix [garbage]: {m}"));
    let mut junk = vec![0xFF];
    for _ in 0..rng.gen_index(16) {
        junk.push(rng.next_u64() as u8);
    }
    write_frame(&mut s, &junk).map_err(|e| defect(format!("junk hello: {e}")))?;
    expect_error_then_close(s, ErrorCode::Malformed, "garbage")?;

    Ok(())
}

const PROBE_QUERIES: usize = 4 + 16;

/// A clean client asserting exact BFS distances: the liveness *and*
/// correctness check. Any error or wrong answer here is a defect.
fn probe(
    addr: SocketAddr,
    sources: &[NodeId],
    truth: &[Vec<Distance>],
    rng: &mut Xorshift64,
    seed: u64,
) -> Result<(), Failure> {
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(2),
        max_retries: 2,
        seed,
        ..ClientConfig::default()
    };
    let mut client = NetClient::connect(addr, config)
        .map_err(|e| Failure::Defect(format!("liveness probe cannot connect: {e}")))?;
    let n = truth[0].len();
    for _ in 0..4 {
        let si = rng.gen_index(sources.len());
        let v = rng.gen_index(n) as NodeId;
        let want = truth[si][v as usize];
        let got = client
            .query(sources[si], v)
            .map_err(|e| Failure::Defect(format!("probe query failed: {e}")))?;
        if got != want {
            return Err(Failure::Defect(format!(
                "wrong answer: d({}, {v}) = {got}, BFS says {want}",
                sources[si]
            )));
        }
    }
    let pairs: Vec<(NodeId, NodeId)> = (0..16)
        .map(|_| {
            let si = rng.gen_index(sources.len());
            (sources[si], rng.gen_index(n) as NodeId)
        })
        .collect();
    let got = client
        .query_batch_pipelined(&pairs, 4, 2)
        .map_err(|e| Failure::Defect(format!("probe batch failed: {e}")))?;
    for (&(u, v), &d) in pairs.iter().zip(&got) {
        let si = sources.iter().position(|&s| s == u).unwrap_or(0);
        let want = truth[si][v as usize];
        if d != want {
            return Err(Failure::Defect(format!(
                "wrong batch answer: d({u}, {v}) = {d}, BFS says {want}"
            )));
        }
    }
    Ok(())
}

/// Seeded byte flips (the checksum's job), crafted flips with a
/// refreshed checksum (the decoder's job), and random truncations.
fn store_campaign(
    clean: &[u8],
    opts: &Opts,
    deadline: Instant,
    rng: &mut Xorshift64,
    summary: &mut Summary,
) -> Result<(), Failure> {
    let rounds = (opts.iters / 4).max(64);
    for i in 0..rounds {
        if Instant::now() > deadline {
            return Err(Failure::Timeout(format!(
                "store campaign stuck at round {i} of {rounds}"
            )));
        }
        // Blind flip: whatever it hits, nothing may panic.
        let mut bytes = clean.to_vec();
        let at = rng.gen_index(bytes.len());
        bytes[at] ^= 1 << rng.gen_index(8);
        if check_store_bytes(&bytes)? {
            summary.store_parses_survived += 1;
        }
        summary.store_mutations += 1;

        // Crafted flip: corrupt the body, then make the checksum agree —
        // this is the adversary the checked decoder exists for.
        let mut bytes = clean.to_vec();
        if bytes.len() > store::HEADER_LEN {
            let body = store::HEADER_LEN + rng.gen_index(bytes.len() - store::HEADER_LEN);
            bytes[body] ^= 1 << rng.gen_index(8);
            let sum = store::fnv1a64(&bytes[store::HEADER_LEN..]);
            bytes[24..32].copy_from_slice(&sum.to_le_bytes());
            if check_store_bytes(&bytes)? {
                summary.store_parses_survived += 1;
            }
            summary.store_mutations += 1;
        }

        // Truncation at a random cut.
        let mut bytes = clean.to_vec();
        bytes.truncate(rng.gen_index(bytes.len()));
        if check_store_bytes(&bytes)? {
            summary.store_parses_survived += 1;
        }
        summary.store_mutations += 1;
    }
    Ok(())
}

/// Parses a mutated store of any flavor through the version-sniffing
/// [`AnyStore`] entry point and mounts it in its *native* arena (the path
/// a daemon takes — crafted γ bits reach the checked v1 decoder, and a
/// compact image stays compact, so crafted delta and width flips reach
/// `CompactLabeling::from_raw_parts` and the delta kernel) inside
/// `catch_unwind`, then walks every label and joins a few pairs both
/// ways. Errors are expected; panics, and a `query` that disagrees with
/// `query_with_witness`, are defects. Returns whether it parsed.
fn check_store_bytes(bytes: &[u8]) -> Result<bool, Failure> {
    let walked = panic::catch_unwind(AssertUnwindSafe(|| {
        let Ok(served) = AnyStore::parse(bytes).and_then(AnyStore::into_served) else {
            return Ok(false);
        };
        let n = served.num_nodes() as NodeId;
        for v in 0..n {
            let _ = served.label_of(v);
        }
        for u in 0..n.min(4) {
            for v in [u, (u + 1) % n, n - 1 - u] {
                let d = served.query(u, v);
                let witnessed = served
                    .query_with_witness(u, v)
                    .map_or(hl_graph::INFINITY, |(d, _)| d);
                if d != witnessed {
                    return Err(format!(
                        "query({u}, {v}) = {d} but query_with_witness says {witnessed}"
                    ));
                }
            }
        }
        Ok(true)
    }))
    .map_err(|_| Failure::Defect("panic while parsing/decoding a mutated store".to_string()))?;
    walked.map_err(|m| Failure::Defect(format!("mutated store: {m}")))
}

/// The byte range of the v2 section table record for section `s`.
fn v2_record(s: usize) -> std::ops::Range<usize> {
    // Header layout: table at 32, three 24-byte (offset, len, fnv) records.
    let rec = 32 + s * 24;
    rec..rec + 24
}

/// Refreshes the table checksum at bytes `[24..32)` after a table edit.
fn refresh_v2_table_checksum(bytes: &mut [u8]) {
    let sum = store::fnv1a64(&bytes[32..store_v2::HEADER_LEN]);
    bytes[24..32].copy_from_slice(&sum.to_le_bytes());
}

/// The v2 image under four seeded attacks per round:
///
/// * **blind flip** — every byte is covered by the table checksum, a
///   section checksum, a validated header field, or the zero-padding
///   rule, so a flip that still parses is a defect in itself;
/// * **crafted section flip** — a section body byte is flipped and both
///   that section's checksum record and the table checksum are refreshed,
///   leaving only the structural pass to object (it may legitimately
///   accept, e.g. a flipped distance value is still a valid arena);
/// * **misaligned section offset** — a table record's file offset is
///   nudged off the 64-byte grid with checksums refreshed, which the
///   record validator must reject;
/// * **truncation** — the file must end exactly where `dists` does.
///
/// Everything must come back as a typed error or a clean parse — never a
/// panic.
fn store_v2_campaign(
    clean: &[u8],
    opts: &Opts,
    deadline: Instant,
    rng: &mut Xorshift64,
    summary: &mut Summary,
) -> Result<(), Failure> {
    let rounds = (opts.iters / 4).max(64);
    for i in 0..rounds {
        if Instant::now() > deadline {
            return Err(Failure::Timeout(format!(
                "v2 store campaign stuck at round {i} of {rounds}"
            )));
        }
        // Blind flip: must be rejected, wherever it lands.
        let mut bytes = clean.to_vec();
        let at = rng.gen_index(bytes.len());
        bytes[at] ^= 1 << rng.gen_index(8);
        if check_store_bytes(&bytes)? {
            return Err(Failure::Defect(format!(
                "v2 store accepted a blind flip at byte {at} (round {i})"
            )));
        }
        summary.store_v2_mutations += 1;

        // Crafted flip: corrupt one section body, then make both the
        // section checksum and the table checksum agree.
        let mut bytes = clean.to_vec();
        let s = rng.gen_index(3);
        let rec = v2_record(s);
        let off = u64::from_le_bytes(bytes[rec.start..rec.start + 8].try_into().unwrap_or([0; 8]))
            as usize;
        let len = u64::from_le_bytes(
            bytes[rec.start + 8..rec.start + 16]
                .try_into()
                .unwrap_or([0; 8]),
        ) as usize;
        if len > 0 {
            bytes[off + rng.gen_index(len)] ^= 1 << rng.gen_index(8);
            let sum = store_v2::section_checksum(&bytes[off..off + len]);
            bytes[rec.start + 16..rec.end].copy_from_slice(&sum.to_le_bytes());
            refresh_v2_table_checksum(&mut bytes);
            if check_store_bytes(&bytes)? {
                summary.store_v2_parses_survived += 1;
            }
            summary.store_v2_mutations += 1;
        }

        // Misaligned section offset, with every checksum telling the
        // same lie: only the alignment/bounds validator stands.
        let mut bytes = clean.to_vec();
        let rec = v2_record(rng.gen_index(3));
        let off = u64::from_le_bytes(bytes[rec.start..rec.start + 8].try_into().unwrap_or([0; 8]));
        let nudged = off.wrapping_add(1 + rng.gen_index(store_v2::SECTION_ALIGN - 1) as u64);
        bytes[rec.start..rec.start + 8].copy_from_slice(&nudged.to_le_bytes());
        refresh_v2_table_checksum(&mut bytes);
        if check_store_bytes(&bytes)? {
            return Err(Failure::Defect(format!(
                "v2 store accepted a section offset nudged {off} -> {nudged} (round {i})"
            )));
        }
        summary.store_v2_mutations += 1;

        // Truncation at a random cut.
        let mut bytes = clean.to_vec();
        bytes.truncate(rng.gen_index(bytes.len()));
        if check_store_bytes(&bytes)? {
            return Err(Failure::Defect(format!(
                "v2 store accepted a truncation to {} bytes (round {i})",
                bytes.len()
            )));
        }
        summary.store_v2_mutations += 1;
    }
    Ok(())
}

/// Random payloads through every frame decoder; panics are defects.
fn wire_campaign(
    opts: &Opts,
    deadline: Instant,
    rng: &mut Xorshift64,
    summary: &mut Summary,
) -> Result<(), Failure> {
    for i in 0..opts.iters {
        if Instant::now() > deadline {
            return Err(Failure::Timeout(format!(
                "wire campaign stuck at round {i} of {}",
                opts.iters
            )));
        }
        let len = rng.gen_index(64);
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = Request::decode(&payload);
            let _ = Response::decode(&payload);
            let _ = ServerHello::decode(&payload);
            let _ = ClientHello::decode(&payload);
        }))
        .map_err(|_| {
            Failure::Defect(format!(
                "panic decoding a random {len}-byte payload (round {i})"
            ))
        })?;
        summary.wire_decodes += 1;
    }
    Ok(())
}
