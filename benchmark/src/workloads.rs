//! The two canonical stores, the six workloads, and how each is mounted.

use std::collections::VecDeque;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hl_build::{build_with_strategy, BuildConfig};
use hl_core::order::DegreeOrder;
use hl_graph::{generators, Distance, Graph, NodeId};
use hl_net::{ClientConfig, MuxClient, NetClient, Request, Response};
use hl_server::{AnyStore, FlatStore, QueryEngine};
use hl_shard::ShardRouter;

use crate::daemon::Daemon;
use crate::span::{Open, Tracer};
use crate::stream::{Stream, Traffic};

pub type Res<T> = Result<T, String>;

impl Env {
    pub fn nproc(&self) -> usize {
        self.cpus.len()
    }

    /// Every daemon lives here; `run.sh` starts the driver on the next
    /// CPU when there is one.
    pub fn daemon_cpu(&self) -> &str {
        &self.cpus[0]
    }
}

/// Renders any error for a `Res`.
pub fn err(e: impl Display) -> String {
    e.to_string()
}

/// Where a run finds its tools and leaves its files.
pub struct Env {
    pub hubserve: PathBuf,
    /// `benchmark/out`: scratch stores and trace files.
    pub out_dir: PathBuf,
    /// The CPUs `run.sh` found usable (this process is pinned to one of
    /// them). Daemons go on the first.
    pub cpus: Vec<String>,
    pub git_rev: String,
}

/// The two canonical stores every layer is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    /// `connected_gnm(2048, 6145)`: ≈329k entries, ≈160 hubs/vertex,
    /// 3.96 MB flat — fits a 4 MiB L2; long labels relative to `n`.
    Gnm2k,
    /// `rmat(15, 262144)`: ≈1.4M entries, ≈43 hubs/vertex, ≈17 MB flat
    /// — four times L2, short scattered labels.
    Rmat32k,
}

impl Store {
    pub fn name(self) -> &'static str {
        match self {
            Store::Gnm2k => "gnm2k",
            Store::Rmat32k => "rmat32k",
        }
    }

    pub fn nodes(self) -> usize {
        match self {
            Store::Gnm2k => 2048,
            Store::Rmat32k => 1 << 15,
        }
    }

    pub fn generate(self, seed: u64) -> Graph {
        match self {
            Store::Gnm2k => generators::connected_gnm(2048, 6145, seed),
            Store::Rmat32k => generators::rmat(15, 1 << 18, seed),
        }
    }
}

/// The path a workload's requests take into the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// In-process `QueryEngine`: `query`, and `query_batch` of 1024.
    EngineBatch,
    /// In-process `QueryEngine`: `query` only, back to back.
    EngineSingle,
    /// One daemon, one `MuxClient`, `Query` frames, 64 in flight.
    Mux,
    /// One daemon, one HLNP v1 `NetClient`, pipelined batch frames.
    V1,
    /// Two shard daemons behind a `ShardRouter`.
    Router,
}

impl Via {
    /// Which quantile of a run's `tput` windows is its `qps`. This
    /// shared host takes throughput away in phases of seconds to a
    /// minute. An in-process workload sits in one normal state most of
    /// the time, with rare faster and slower episodes, so its windows'
    /// median repeats and their upper tail does not. A workload that
    /// goes through daemons needs both CPUs at once and loses a window
    /// when either is taken, so its slow windows are many and ragged and
    /// only its upper decile repeats. (Ten-minute window series cut into
    /// 15 s runs, spread between quartiles: `engine_resident` 2% by the
    /// median and 10% by the upper decile, `mux_resident` 16% and 8%.)
    pub fn qps_quantile(self) -> f64 {
        match self {
            Via::EngineBatch | Via::EngineSingle => 0.5,
            Via::Mux | Via::V1 | Via::Router => 0.9,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub store: Store,
    pub via: Via,
    pub traffic: Traffic,
}

impl Workload {
    /// The store this workload runs on; the smoke set swaps the large
    /// store for the small one.
    pub fn store(&self, smoke: bool) -> Store {
        if smoke {
            Store::Gnm2k
        } else {
            self.store
        }
    }
}

/// Why each exists is recorded in `BENCHMARK.json` and the README.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "engine_resident",
        store: Store::Gnm2k,
        via: Via::EngineBatch,
        traffic: Traffic::Uniform,
    },
    Workload {
        name: "engine_large",
        store: Store::Rmat32k,
        via: Via::EngineBatch,
        traffic: Traffic::Uniform,
    },
    Workload {
        name: "engine_hot",
        store: Store::Gnm2k,
        via: Via::EngineSingle,
        traffic: Traffic::Zipf,
    },
    Workload {
        name: "mux_resident",
        store: Store::Gnm2k,
        via: Via::Mux,
        traffic: Traffic::Uniform,
    },
    Workload {
        name: "v1_batch_large",
        store: Store::Rmat32k,
        via: Via::V1,
        traffic: Traffic::Uniform,
    },
    Workload {
        name: "router_cross",
        store: Store::Gnm2k,
        via: Via::Router,
        traffic: Traffic::CrossShard,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A mounted system under test, driven closed-loop by one thread.
pub trait Target {
    /// The `lat`-window operation: one request, wait for its reply.
    fn one(&mut self, u: NodeId, v: NodeId) -> Res<Distance>;

    /// The `tput`-window operation at the workload's stated
    /// concurrency: answers `pairs` in order into `out`.
    fn burst(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<Distance>) -> Res<()>;

    /// Pairs per `burst` call.
    fn burst_len(&self) -> usize;

    /// The layer call a `one`/`burst` span is named after.
    fn span_names(&self) -> (&'static str, &'static str);

    /// `one`, with a child span under `root` around each layer call.
    fn one_traced(
        &mut self,
        u: NodeId,
        v: NodeId,
        t: &mut Tracer,
        request: u64,
        root: Open,
    ) -> Res<Distance> {
        let span = t.open(request, root, self.span_names().0);
        let d = self.one(u, v);
        t.close(span);
        d
    }

    /// `burst`, with a child span under `root` around each layer call.
    fn burst_traced(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<Distance>,
        t: &mut Tracer,
        request: u64,
        root: Open,
    ) -> Res<()> {
        let span = t.open(request, root, self.span_names().1);
        let r = self.burst(pairs, out);
        t.close(span);
        r
    }

    /// Daemon processes serving this target (empty in-process).
    fn daemon_pids(&self) -> Vec<u32> {
        Vec::new()
    }
}

/// In-process engine; `batch` picks the `tput` operation.
pub struct EngineTarget {
    pub engine: QueryEngine,
    batch: bool,
}

impl EngineTarget {
    pub fn new(engine: QueryEngine, batch: bool) -> EngineTarget {
        EngineTarget { engine, batch }
    }
}

impl Target for EngineTarget {
    fn one(&mut self, u: NodeId, v: NodeId) -> Res<Distance> {
        self.engine.query(u, v).map_err(err)
    }

    fn burst(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<Distance>) -> Res<()> {
        out.clear();
        if self.batch {
            out.extend(self.engine.query_batch(pairs).map_err(err)?);
        } else {
            for &(u, v) in pairs {
                out.push(self.engine.query(u, v).map_err(err)?);
            }
        }
        Ok(())
    }

    fn burst_len(&self) -> usize {
        1024
    }

    fn span_names(&self) -> (&'static str, &'static str) {
        if self.batch {
            ("hl-server.query", "hl-server.query_batch")
        } else {
            ("hl-server.query", "hl-server.query_x1024")
        }
    }
}

/// Failures must surface, not be retried away.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        max_retries: 0,
        ..ClientConfig::default()
    }
}

/// One daemon behind one `MuxClient`, `inflight` `Query` frames
/// outstanding in the `tput` window.
pub struct MuxTarget {
    pub client: MuxClient,
    pub inflight: usize,
    /// Pairs per `burst`: long enough that filling and draining the
    /// window is a small share of a call.
    pub burst: usize,
    ids: VecDeque<u64>,
    timeout: Duration,
    /// The daemon this target owns, if any: dropped after the client.
    daemon: Option<Daemon>,
}

impl MuxTarget {
    pub fn connect(addr: &str, inflight: usize, daemon: Option<Daemon>) -> Res<MuxTarget> {
        let config = client_config();
        let timeout = config.request_timeout;
        Ok(MuxTarget {
            client: MuxClient::connect(addr, config).map_err(err)?,
            inflight,
            burst: (inflight * 128).clamp(128, 8192),
            ids: VecDeque::with_capacity(inflight),
            timeout,
            daemon,
        })
    }

    fn distance(resp: Response) -> Res<Distance> {
        match resp {
            Response::Distance(d) => Ok(d),
            other => Err(format!("expected Distance, got {other:?}")),
        }
    }

    /// The sliding window; `trace` spans the `submit` and `wait` of the
    /// requests it samples.
    fn pump(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<Distance>,
        mut trace: Sampled<'_>,
    ) -> Res<()> {
        out.clear();
        self.ids.clear();
        let mut next = 0;
        while out.len() < pairs.len() {
            while next < pairs.len() && self.ids.len() < self.inflight {
                let (u, v) = pairs[next];
                let span = trace.open(next, "hl-net.submit");
                let id = self.client.submit(&Request::Query { u, v }).map_err(err);
                trace.close(span);
                self.ids.push_back(id?);
                next += 1;
            }
            let id = self.ids.pop_front().expect("window is non-empty here");
            let span = trace.open(out.len(), "hl-net.wait");
            let resp = self.client.wait(id, self.timeout).map_err(err);
            trace.close(span);
            out.push(Self::distance(resp?)?);
        }
        Ok(())
    }
}

/// The tracer of one traced `tput` call, spanning one request in
/// [`TRACE_EVERY`]; `None` spans nothing.
struct Sampled<'a>(Option<(&'a mut Tracer, u64, Open)>);

impl Sampled<'_> {
    fn open(&mut self, index: usize, name: &'static str) -> Open {
        match &mut self.0 {
            Some((t, request, root)) if index.is_multiple_of(TRACE_EVERY) => {
                t.open(*request, *root, name)
            }
            _ => Open::NONE,
        }
    }

    fn close(&mut self, span: Open) {
        if let Some((t, ..)) = &mut self.0 {
            t.close(span);
        }
    }
}

/// In a `tput` window one request in this many carries spans, so that
/// tracing costs a traced run a percent, not a quarter, of its
/// throughput.
pub const TRACE_EVERY: usize = 16;

impl Target for MuxTarget {
    fn one(&mut self, u: NodeId, v: NodeId) -> Res<Distance> {
        self.client.query(u, v).map_err(err)
    }

    fn burst(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<Distance>) -> Res<()> {
        self.pump(pairs, out, Sampled(None))
    }

    fn burst_len(&self) -> usize {
        self.burst
    }

    fn span_names(&self) -> (&'static str, &'static str) {
        ("hl-net.call", "hl-net.window")
    }

    fn one_traced(
        &mut self,
        u: NodeId,
        v: NodeId,
        t: &mut Tracer,
        request: u64,
        root: Open,
    ) -> Res<Distance> {
        let span = t.open(request, root, "hl-net.submit");
        let id = self.client.submit(&Request::Query { u, v }).map_err(err);
        t.close(span);
        let span = t.open(request, root, "hl-net.wait");
        let resp = id.and_then(|id| self.client.wait(id, self.timeout).map_err(err));
        t.close(span);
        Self::distance(resp?)
    }

    fn burst_traced(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        out: &mut Vec<Distance>,
        t: &mut Tracer,
        request: u64,
        root: Open,
    ) -> Res<()> {
        self.pump(pairs, out, Sampled(Some((t, request, root))))
    }

    fn daemon_pids(&self) -> Vec<u32> {
        self.daemon.iter().map(Daemon::pid).collect()
    }
}

/// One daemon behind one HLNP v1 `NetClient`.
pub struct V1Target {
    client: NetClient,
    daemon: Daemon,
}

impl Target for V1Target {
    fn one(&mut self, u: NodeId, v: NodeId) -> Res<Distance> {
        self.client.query(u, v).map_err(err)
    }

    fn burst(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<Distance>) -> Res<()> {
        out.clear();
        out.extend(
            self.client
                .query_batch_pipelined(pairs, 256, 4)
                .map_err(err)?,
        );
        Ok(())
    }

    /// 32 frames of 256: the four-frame pipeline refills 8 times a call.
    fn burst_len(&self) -> usize {
        8192
    }

    fn span_names(&self) -> (&'static str, &'static str) {
        ("hl-net.v1_query", "hl-net.v1_batch_pipelined")
    }

    fn daemon_pids(&self) -> Vec<u32> {
        vec![self.daemon.pid()]
    }
}

/// Two shard daemons behind a `ShardRouter`.
pub struct RouterTarget {
    router: ShardRouter,
    daemons: Vec<Daemon>,
}

impl RouterTarget {
    pub fn new(router: ShardRouter, daemons: Vec<Daemon>) -> RouterTarget {
        RouterTarget { router, daemons }
    }
}

impl Target for RouterTarget {
    fn one(&mut self, u: NodeId, v: NodeId) -> Res<Distance> {
        self.router.query(u, v).map_err(err)
    }

    fn burst(&mut self, pairs: &[(NodeId, NodeId)], out: &mut Vec<Distance>) -> Res<()> {
        out.clear();
        out.extend(self.router.query_many(pairs).map_err(err)?);
        Ok(())
    }

    /// 64, not 100k: a huge call dedupes to one fetch per vertex and
    /// then measures only the router's local join.
    fn burst_len(&self) -> usize {
        64
    }

    fn span_names(&self) -> (&'static str, &'static str) {
        ("hl-shard.query", "hl-shard.query_many")
    }

    fn daemon_pids(&self) -> Vec<u32> {
        self.daemons.iter().map(Daemon::pid).collect()
    }
}

/// Seconds each set-up stage took, and what the build produced.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    pub generate_s: f64,
    pub build_s: f64,
    pub save_s: f64,
    pub mount_s: f64,
    pub partition_s: f64,
    pub warmup_s: f64,
    pub pruning_hit_rate: f64,
    pub avg_hubs: f64,
}

/// A workload ready for its first measured request.
pub struct Mounted {
    pub target: Box<dyn Target>,
    pub graph: Graph,
    pub stages: Stages,
    /// Label entries served, summed over shards.
    pub entries: u64,
    /// Served arena bytes, summed over shards.
    pub arena_bytes: u64,
    /// The whole labeling as a v2 store.
    pub store_path: PathBuf,
}

/// Runs `f`; its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Runs `f` and adds the seconds it took to a set-up stage.
fn staged<T>(stage: &mut f64, f: impl FnOnce() -> T) -> T {
    let (out, seconds) = timed(f);
    *stage += seconds;
    out
}

/// Starts a daemon on the v2 store of `flat` written to `path`.
fn save_and_spawn(
    flat: hl_core::FlatLabeling,
    path: &Path,
    env: &Env,
    stages: &mut Stages,
) -> Res<Daemon> {
    staged(&mut stages.save_s, || FlatStore::from_flat(flat).save(path)).map_err(err)?;
    staged(&mut stages.mount_s, || Daemon::spawn(env, path))
}

/// Fresh state for one workload: generate the graph, build labels
/// (degree order, one thread), save a v2 store under `dir`, mount it in
/// a fresh engine or fresh daemon(s) with the default cache, then drive
/// `warm` of the workload's own traffic. Nothing is reused across calls.
pub fn mount(
    via: Via,
    store: Store,
    seed: u64,
    env: &Env,
    dir: &Path,
    stream: &Stream,
    warm: Duration,
) -> Res<Mounted> {
    let mut stages = Stages::default();
    let graph = staged(&mut stages.generate_s, || store.generate(seed));
    let built = staged(&mut stages.build_s, || {
        build_with_strategy(&graph, &DegreeOrder, BuildConfig::with_threads(1))
    })
    .map_err(err)?;
    stages.pruning_hit_rate = built.stats.pruning_hit_rate();
    stages.avg_hubs = built.labeling.average_hubs();
    let flat = built.labeling;
    let store_path = dir.join("labels.hlbs");

    let (target, entries, arena_bytes): (Box<dyn Target>, u64, u64) = match via {
        Via::EngineBatch | Via::EngineSingle => {
            staged(&mut stages.save_s, || {
                FlatStore::from_flat(flat).save(&store_path)
            })
            .map_err(err)?;
            let engine = staged(&mut stages.mount_s, || -> Res<QueryEngine> {
                let served = AnyStore::open(&store_path)
                    .map_err(err)?
                    .into_served()
                    .map_err(err)?;
                QueryEngine::new(served, 1).map_err(err)
            })?;
            let (entries, bytes) = (engine.num_entries() as u64, engine.heap_bytes() as u64);
            let batch = via == Via::EngineBatch;
            (Box::new(EngineTarget::new(engine, batch)), entries, bytes)
        }
        Via::Mux | Via::V1 => {
            let daemon = save_and_spawn(flat, &store_path, env, &mut stages)?;
            let (entries, bytes) = (daemon.entries, daemon.arena_bytes);
            let target: Box<dyn Target> =
                staged(&mut stages.mount_s, || -> Res<Box<dyn Target>> {
                    Ok(if via == Via::Mux {
                        Box::new(MuxTarget::connect(&daemon.addr.clone(), 64, Some(daemon))?)
                    } else {
                        let client = NetClient::connect(daemon.addr.as_str(), client_config())
                            .map_err(err)?;
                        Box::new(V1Target { client, daemon })
                    })
                })?;
            (target, entries, bytes)
        }
        Via::Router => {
            let shards =
                staged(&mut stages.partition_s, || hl_shard::partition(&flat, 2)).map_err(err)?;
            staged(&mut stages.save_s, || {
                FlatStore::from_flat(flat).save(&store_path)
            })
            .map_err(err)?;
            let mut daemons = Vec::new();
            for (i, shard) in shards.into_iter().enumerate() {
                let path = dir.join(format!("shard-{i}.hlbs"));
                daemons.push(save_and_spawn(shard, &path, env, &mut stages)?);
            }
            let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
            let router = staged(&mut stages.mount_s, || {
                ShardRouter::connect(&addrs, &client_config())
            })
            .map_err(err)?;
            let entries = daemons.iter().map(|d| d.entries).sum();
            let bytes = daemons.iter().map(|d| d.arena_bytes).sum();
            (Box::new(RouterTarget::new(router, daemons)), entries, bytes)
        }
    };

    let mut mounted = Mounted {
        target,
        graph,
        stages,
        entries,
        arena_bytes,
        store_path,
    };
    let started = Instant::now();
    let mut out = Vec::new();
    let mut cursor = 0;
    let step = mounted.target.burst_len();
    while started.elapsed() < warm {
        let range = stream.take(&mut cursor, step);
        mounted.target.burst(&stream.pairs[range], &mut out)?;
    }
    mounted.stages.warmup_s = started.elapsed().as_secs_f64();
    Ok(mounted)
}
