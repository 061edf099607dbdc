//! `hlnp-fuzz` — seeded, bounded fuzzer for the HLNP serving stack.
//!
//! ```text
//! hlnp-fuzz [--seed S] [--iters N] [--nodes N] [--probe-every K]
//!           [--max-seconds T]
//! ```
//!
//! Four campaigns, all driven from one seed so any finding replays
//! exactly:
//!
//! 1. **Pure machine**: the daemon's connection state machine itself
//!    ([`PureConn`]) — no socket, no thread, a virtual clock — plays
//!    10 × `--iters` protocol-v1 [`FaultPlan`] scripts (bit flips,
//!    truncations, length-prefix lies, handshake garbage, slow-loris
//!    pacing, mid-frame stalls) and half as many protocol-v2
//!    [`FaultKind::MUX`] scripts (chopped many-id streams, duplicate
//!    ids, shuffled frames, id-field bit flips, runt frames) after a
//!    clean v2 hello. Every send arrives in seeded chunk sizes, running
//!    requests complete in seeded order through the daemon's real
//!    `execute`, the peer reads seeded amounts or nothing at all, and
//!    every pause is drawn one millisecond to either side of one of the
//!    three deadlines — so the idle, whole-frame and write-stall budgets
//!    fire in some iterations and just fail to in others. After every
//!    step: no limit exceeded, and every completed request's answer
//!    written once, in completion order, unless the connection closed.
//! 2. **Sockets**: the integration check. A live [`NetServer`] over a
//!    real labeling takes `--iters / 10` v1 and `--iters / 20` v2 fault
//!    connections playing the same scripts over TCP with real sleeps.
//!    Every `--probe-every` iterations a clean [`NetClient`] probe (v1)
//!    or a [`MuxClient`] window reaped newest-first (v2) asserts *exact*
//!    distances against BFS ground truth: the server must stay both
//!    alive and correct while being abused.
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
//!    whatever parses is walked label by label in the flat arena every
//!    flavor mounts as and joined with and without a witness.
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
use hl_net::faults::{
    apply_script, apply_script_pure, FaultConfig, FaultKind, FaultPlan, Outcome, PureConn, Step,
};
use hl_net::wire::{
    frame, read_frame, ClientHello, Request, Response, ServerHello, DEFAULT_MAX_FRAME_LEN,
    PROTOCOL_V2, PROTOCOL_VERSION,
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
    /// Pure-machine iterations, protocol v1 then v2.
    pure_iterations: [usize; 2],
    pure_cut_off: usize,
    pure_closed: usize,
    /// Socket iterations, protocol v1 then v2.
    fault_iterations: [usize; 2],
    by_kind: Vec<(FaultKind, usize)>,
    peer_closed: usize,
    probes: usize,
    probe_queries: usize,
    mux_probes: usize,
    mux_probe_queries: usize,
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
                "hlnp-fuzz: clean. pure machine: {} network + {} mux iterations \
                 ({} cut off by a deadline, {} closed by the server); sockets: \
                 {} network + {} mux fault iterations ({} cut off by the server), \
                 {} probes / {} exact answers verified, \
                 {} mux probes / {} out-of-order answers verified; \
                 {} v1 store mutations ({} parsed anyway, none panicked), \
                 {} v2 store mutations ({} parsed anyway, none panicked), \
                 {} wire decodes.",
                s.pure_iterations[0],
                s.pure_iterations[1],
                s.pure_cut_off,
                s.pure_closed,
                s.fault_iterations[0],
                s.fault_iterations[1],
                s.peer_closed,
                s.probes,
                s.probe_queries,
                s.mux_probes,
                s.mux_probe_queries,
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

/// The state every network iteration — pure or socket — draws from.
struct Campaign<'a> {
    opts: &'a Opts,
    deadline: Instant,
    rng: Xorshift64,
    kind_counts: std::collections::HashMap<FaultKind, usize>,
    summary: Summary,
}

impl Campaign<'_> {
    /// Fails the run if the wall-clock guard has fired.
    fn guard(&self, what: &str, i: usize, of: usize) -> Result<(), Failure> {
        if Instant::now() > self.deadline {
            return Err(Failure::Timeout(format!(
                "{what} stuck at iteration {i} of {of}"
            )));
        }
        Ok(())
    }

    /// Draws a fault kind for a `version` connection and its script over
    /// a fresh clean stream. Protocol v2 scripts open with a clean hello
    /// (negotiation abuse is the v1 kinds' job). `rare_timing` keeps the
    /// two kinds that sleep on a real socket to one draw in eight.
    fn script(
        &mut self,
        plan: &mut FaultPlan,
        version: u16,
        rare_timing: bool,
    ) -> (FaultKind, Vec<Step>) {
        let mut kind = match version >= PROTOCOL_V2 {
            true => plan.pick_mux_kind(),
            false => plan.pick_kind(),
        };
        let timing = matches!(kind, FaultKind::SlowLoris | FaultKind::Stall);
        if rare_timing && timing && self.rng.gen_index(8) != 0 {
            kind = FaultKind::ALL[self.rng.gen_index(6)]; // the six cheap kinds lead ALL
        }
        *self.kind_counts.entry(kind).or_insert(0) += 1;
        let clean = clean_stream(&mut self.rng, self.opts.nodes as NodeId, version);
        let mut steps = plan.script(kind, &clean);
        if version >= PROTOCOL_V2 {
            steps.insert(0, Step::Send(hello(version)));
        }
        (kind, steps)
    }

    /// `iters` scripts played into the connection state machine itself,
    /// each with pauses drawn just short of or just past one deadline.
    fn pure(
        &mut self,
        config: &ServerConfig,
        engine: &QueryEngine,
        version: u16,
        iters: usize,
    ) -> Result<(), Failure> {
        let t0 = Instant::now();
        let budgets = [
            config.frame_timeout,
            config.read_timeout,
            config.write_timeout,
        ];
        let ms = Duration::from_millis(1);
        let around = |budget: Duration, past: bool| if past { budget + ms } else { budget - ms };
        const LORIS_BYTES: u32 = 6;
        for i in 0..iters {
            if i % 1024 == 0 {
                self.guard("pure campaign", i, iters)?;
            }
            // A loris's frame has been open for `LORIS_BYTES - 1` paces
            // when its last byte lands.
            let timing = FaultConfig {
                loris_pace: around(
                    config.frame_timeout / (LORIS_BYTES - 1),
                    self.rng.gen_bool(),
                ),
                loris_max_bytes: LORIS_BYTES as usize,
                stall: around(budgets[self.rng.gen_index(3)], self.rng.gen_bool()),
            };
            let mut plan = FaultPlan::with_config(self.rng.next_u64(), timing);
            let (kind, steps) = self.script(&mut plan, version, false);
            let mut conn = PureConn::accept(config, engine, 0, t0);
            match apply_script_pure(&mut conn, &steps, &mut self.rng) {
                Ok(Outcome::PeerClosed) if conn.expired() => self.summary.pure_cut_off += 1,
                Ok(Outcome::PeerClosed) => self.summary.pure_closed += 1,
                Ok(_) => {}
                Err(e) => {
                    return Err(Failure::Defect(format!(
                        "pure v{version} iteration {i} ({}): {e}",
                        kind.name()
                    )))
                }
            }
            self.summary.pure_iterations[usize::from(version >= PROTOCOL_V2)] += 1;
        }
        Ok(())
    }

    /// `iters` hostile connections against the live server at `addr`,
    /// with a BFS-exact clean probe every `--probe-every` iterations and
    /// one more after all the abuse.
    fn sockets(
        &mut self,
        addr: SocketAddr,
        plan: &mut FaultPlan,
        version: u16,
        iters: usize,
        probe: &mut dyn FnMut(&mut Xorshift64, &mut Summary) -> Result<(), Failure>,
    ) -> Result<(), Failure> {
        for i in 0..iters {
            self.guard("socket campaign", i, iters)?;
            let (kind, steps) = self.script(plan, version, true);
            match socket_iteration(addr, &steps) {
                Ok(Outcome::PeerClosed) => self.summary.peer_closed += 1,
                Ok(_) => {}
                Err(e) => {
                    return Err(Failure::Defect(format!(
                        "socket v{version} iteration {i} ({}): server unreachable — {e}",
                        kind.name()
                    )))
                }
            }
            self.summary.fault_iterations[usize::from(version >= PROTOCOL_V2)] += 1;
            if i % self.opts.probe_every == 0 {
                probe(&mut self.rng, &mut self.summary)?;
            }
        }
        probe(&mut self.rng, &mut self.summary)
    }
}

fn run(opts: &Opts) -> Result<Summary, Failure> {
    let deadline = Instant::now() + Duration::from_secs(opts.max_seconds);

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
    let engine = Arc::new(engine);

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
    let mut campaign = Campaign {
        opts,
        deadline,
        rng: Xorshift64::seed_from_u64(opts.seed ^ 0xd1b5_4a32_d192_ed03),
        kind_counts: std::collections::HashMap::new(),
        summary: Summary::default(),
    };

    campaign.pure(&config, &engine, PROTOCOL_VERSION, 10 * opts.iters)?;
    campaign.pure(&config, &engine, PROTOCOL_V2, 10 * opts.iters / 2)?;
    let summary = &campaign.summary;
    if summary.pure_iterations[0] >= 100 && summary.pure_cut_off == 0 {
        return Err(Failure::Defect(
            "no pure iteration was cut off by a deadline".to_string(),
        ));
    }

    let server = NetServer::bind(Arc::clone(&engine), "127.0.0.1:0", config)
        .map_err(|e| Failure::Defect(format!("binding the server: {e}")))?;
    let addr = server.local_addr();
    let stop = server.stop_handle();
    let server_thread = std::thread::spawn(move || server.serve());

    // Short pauses keep the socket iterations inside the CI budget; the
    // pure campaign above is where deadlines are actually crossed.
    let fault_config = FaultConfig {
        loris_pace: Duration::from_millis(25),
        loris_max_bytes: 6,
        stall: Duration::from_millis(60),
    };
    let mut plan = FaultPlan::with_config(opts.seed, fault_config);
    let result = (|| -> Result<(), Failure> {
        campaign.sockets(
            addr,
            &mut plan,
            PROTOCOL_VERSION,
            opts.iters / 10,
            &mut |rng, summary| {
                summary.probes += 1;
                summary.probe_queries += PROBE_QUERIES;
                probe(addr, &sources, &truth, rng, opts.seed)
            },
        )?;
        // Half the v1 count — mux scripts mostly *complete* (no
        // disconnect), so each iteration also drains real answers.
        campaign.sockets(
            addr,
            &mut plan,
            PROTOCOL_V2,
            opts.iters / 20,
            &mut |rng, summary| {
                summary.mux_probes += 1;
                summary.mux_probe_queries += MUX_PROBE_QUERIES;
                mux_probe(addr, &sources, &truth, rng)
            },
        )
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

    let Campaign {
        mut rng,
        kind_counts,
        mut summary,
        ..
    } = campaign;
    let mut by_kind: Vec<(FaultKind, usize)> = kind_counts.into_iter().collect();
    by_kind.sort_by_key(|&(k, _)| k.name());
    summary.by_kind = by_kind;

    store_campaign(&store_bytes, opts, deadline, &mut rng, &mut summary)?;
    store_v2_campaign(&store_v2_bytes, opts, deadline, &mut rng, &mut summary)?;
    store_v2_campaign(&store_v2c_bytes, opts, deadline, &mut rng, &mut summary)?;
    wire_campaign(opts, deadline, &mut rng, &mut summary)?;
    Ok(summary)
}

/// One hostile connection: `steps` played over TCP, then a bounded drain
/// of whatever the server answers. Only failure to *connect* is an error
/// — that means the accept loop is gone.
fn socket_iteration(addr: SocketAddr, steps: &[Step]) -> std::io::Result<Outcome> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(300)))?;
    stream.set_write_timeout(Some(Duration::from_secs(1)))?;
    // The server speaks first; its hello is not part of the fault script.
    let _ = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN);
    let outcome = apply_script(&mut stream, steps);

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

fn hello(version: u16) -> Vec<u8> {
    let protocol_version = version;
    frame(None, &ClientHello { protocol_version }.encode())
}

/// A well-formed HLNP byte stream under `version`. Protocol v1: the
/// client hello, then 1–3 requests. Protocol v2: 2–6 requests with
/// distinct ids (the hello is sent separately, unfaulted).
fn clean_stream(rng: &mut Xorshift64, num_nodes: NodeId, version: u16) -> Vec<u8> {
    let mux = version >= PROTOCOL_V2;
    let (mut buf, count) = match mux {
        true => (Vec::new(), 2 + rng.gen_index(5)),
        false => (hello(version), 1 + rng.gen_index(3)),
    };
    let node = |rng: &mut Xorshift64| rng.gen_index(num_nodes as usize) as NodeId;
    for id in 1..=count as u64 {
        let req = match rng.gen_index(3) {
            0 => Request::Ping,
            1 => Request::Query {
                u: node(rng),
                v: node(rng),
            },
            _ => Request::QueryBatch(
                (0..1 + rng.gen_index(8))
                    .map(|_| (node(rng), node(rng)))
                    .collect(),
            ),
        };
        buf.extend_from_slice(&frame(mux.then_some(id), &req.encode()));
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
/// [`AnyStore`] entry point and mounts it as the flat arena (the path a
/// daemon takes — crafted γ bits reach the checked v1 decoder, crafted
/// delta and width flips reach `CompactLabeling::from_raw_parts` before
/// the compact lanes expand) inside `catch_unwind`, then walks every
/// label and joins a few pairs both ways. Errors are expected; panics,
/// and a `query` that disagrees with `query_with_witness`, are defects.
/// Returns whether it parsed.
fn check_store_bytes(bytes: &[u8]) -> Result<bool, Failure> {
    let walked = panic::catch_unwind(AssertUnwindSafe(|| {
        let Ok(served) = AnyStore::parse(bytes).and_then(AnyStore::into_flat) else {
            return Ok(false);
        };
        let n = served.num_nodes() as NodeId;
        for v in 0..n {
            let _ = (served.hubs_of(v), served.dists_of(v));
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
