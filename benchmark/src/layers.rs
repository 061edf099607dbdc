//! The per-layer ladder of a traced run: the workload's own store and
//! pair stream replayed against each layer directly — join, engine,
//! codec, ping, full round trip, router — by timing calls into public
//! functions and reading `/proc` for the daemons. Nothing inside the
//! program is instrumented.

use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use hl_core::{CompactLabeling, FlatLabeling};
use hl_graph::{Distance, NodeId};
use hl_net::wire::{encode_mux, split_mux};
use hl_net::{MuxClient, NetClient, Request, Response};
use hl_server::{AnyStore, CompactStore, FlatStore, LabelStore, QueryEngine};
use hl_shard::ShardRouter;

use crate::daemon::Daemon;
use crate::json::{self, Value};
use crate::procfs::CpuSample;
use crate::run::{lat_loop, tput_window, Prepared};
use crate::span::{summarize, Tracer};
use crate::stats::{median, LatencyRecorder};
use crate::stream::{Stream, Tally, Traffic};
use crate::workloads::{
    client_config, err, timed, EngineTarget, Env, Mounted, MuxTarget, Res, RouterTarget, Store,
    Target, Via, Workload,
};

/// One named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::Obj(vec![
                            ("value".into(), Value::Num(m.value)),
                            ("unit".into(), Value::str(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    pub fn print(&self) {
        for m in &self.0 {
            println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
}

/// Cost of one operation replayed over a pair stream.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Mean over an untimed back-to-back pass.
    pub mean_ns: f64,
    /// Exact percentiles over a second pass with every call timed the
    /// way a `lat` window times it, so they compare with `p50_us`.
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// Replays streams through one layer call at a time and holds every
/// answer to the oracle.
struct Prober {
    slice: Duration,
    /// Requests replayed so far, all answered correctly.
    attempted: u64,
}

impl Prober {
    /// Replays `stream` through `op` for one slice untimed, then one
    /// slice through the `lat` loop. Any failed request is an error: a
    /// layer figure from a run with wrong answers is not a figure.
    fn probe(
        &mut self,
        what: &str,
        stream: &Stream,
        mut op: impl FnMut(NodeId, NodeId) -> Res<Distance>,
    ) -> Res<Timing> {
        let mut tally = Tally::default();
        let mut cursor = 0;
        let started = Instant::now();
        let elapsed = loop {
            for _ in 0..64 {
                let i = stream.take(&mut cursor, 1).start;
                let (u, v) = stream.pairs[i];
                match op(u, v) {
                    Ok(d) => tally.note_answers(&[d], &stream.expected[i..=i]),
                    Err(_) => tally.note_errors(1),
                }
            }
            let elapsed = started.elapsed();
            if elapsed >= self.slice {
                break elapsed;
            }
        };
        let mean_ns = elapsed.as_nanos() as f64 / tally.attempted as f64;
        let mut lat = LatencyRecorder::new();
        lat_loop(stream, &mut cursor, self.slice, &mut lat, &mut tally, op);
        self.settle(what, &tally)?;
        Ok(Timing {
            mean_ns,
            p50_ns: lat.percentile(0.5).unwrap_or(0) as f64,
            p99_ns: lat.percentile(0.99).unwrap_or(0) as f64,
        })
    }

    /// One checked `tput` window of two slices on `target`; answers/s.
    fn tput(&mut self, what: &str, target: &mut dyn Target, stream: &Stream) -> Res<f64> {
        let mut tally = Tally::default();
        let qps = tput_window(target, stream, &mut 0, self.slice * 2, &mut tally, None);
        self.settle(what, &tally)?;
        Ok(qps)
    }

    fn settle(&mut self, what: &str, tally: &Tally) -> Res<()> {
        self.attempted += tally.attempted;
        if tally.failed() == 0 {
            Ok(())
        } else {
            Err(format!(
                "{what}: {} of {} requests failed",
                tally.failed(),
                tally.attempted
            ))
        }
    }
}

/// What the both-CPUs child measured.
struct BothCpus {
    build_s_1t: f64,
    build_s_2t: f64,
    qps_1w: f64,
    qps_2w: f64,
}

/// The driver is pinned to one CPU, so anything that needs both runs in
/// a child of this same binary allowed on all of them.
fn both_cpus(env: &Env, store: Store, seed: u64, slice: Duration) -> Res<BothCpus> {
    let exe = std::env::current_exe().map_err(err)?;
    let out = Command::new("taskset")
        .args(["-c", &env.cpus.join(",")])
        .arg(exe)
        .args(["both-cpus", "--store", store.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &slice.as_secs_f64().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(err)?;
    if !out.status.success() {
        return Err(format!("both-cpus child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let row = json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("both-cpus child: {e}"))?;
    let num = |k: &str| {
        row.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("both-cpus child: no {k}"))
    };
    Ok(BothCpus {
        build_s_1t: num("build_s_1t")?,
        build_s_2t: num("build_s_2t")?,
        qps_1w: num("qps_1w")?,
        qps_2w: num("qps_2w")?,
    })
}

/// `hlbench both-cpus`: one- versus two-thread build and one- versus
/// two-worker batch throughput, unpinned. Prints one JSON line.
pub fn both_cpus_child(store: Store, seed: u64, slice: Duration) -> Res<()> {
    use hl_build::{build_with_strategy, BuildConfig};
    use hl_core::order::DegreeOrder;
    let g = store.generate(seed);
    let build = |threads| {
        timed(|| build_with_strategy(&g, &DegreeOrder, BuildConfig::with_threads(threads)))
    };
    let (one, build_s_1t) = build(1);
    let (two, build_s_2t) = build(2);
    let flat = one.map_err(err)?.labeling;
    if two.map_err(err)?.labeling != flat {
        return Err("the two-thread build differs from the one-thread build".into());
    }
    let stream = Stream::generate(Traffic::Uniform, store.nodes(), seed, 1 << 16);
    let mut prober = Prober {
        slice: slice / 2,
        attempted: 0,
    };
    let mut batch_qps = |workers| -> Res<f64> {
        let engine = QueryEngine::new(flat.clone(), workers).map_err(err)?;
        prober.tput(
            "engine batch",
            &mut EngineTarget::new(engine, true),
            &stream,
        )
    };
    let row = Value::Obj(vec![
        ("build_s_1t".into(), Value::Num(build_s_1t)),
        ("build_s_2t".into(), Value::Num(build_s_2t)),
        ("qps_1w".into(), Value::Num(batch_qps(1)?)),
        ("qps_2w".into(), Value::Num(batch_qps(2)?)),
    ]);
    println!("{row}");
    Ok(())
}

/// Encode and decode of one `Query` and its `Distance` reply as a v2
/// frame payload, both directions: `(ns per query, bytes per query on
/// the wire including the 4-byte length prefixes)`.
fn codec(prober: &mut Prober, unchecked: &Stream) -> Res<(f64, f64)> {
    let mut id = 0u64;
    let mut bytes = 0usize;
    let timing = prober.probe("codec", unchecked, |u, v| {
        id += 1;
        let request = encode_mux(id, &Request::Query { u, v }.encode());
        let (rid, inner) = split_mux(&request).map_err(err)?;
        let Request::Query { u, v } = Request::decode(inner).map_err(err)? else {
            return Err("codec round trip changed the request".into());
        };
        let reply = encode_mux(rid, &Response::Distance(u64::from(u ^ v)).encode());
        let (_, inner) = split_mux(&reply).map_err(err)?;
        bytes = 4 + request.len() + 4 + reply.len();
        match Response::decode(inner).map_err(err)? {
            Response::Distance(d) => Ok(d),
            other => Err(format!("codec round trip gave {other:?}")),
        }
    })?;
    Ok((timing.mean_ns, bytes as f64))
}

/// Distinct vertices and their label bytes on the wire (4-byte count
/// plus 12 bytes an entry, as `Response::Label` encodes them) per pair,
/// averaged over `query_many` calls of `call` pairs. Computed from the
/// label sizes, not captured from the socket.
fn label_traffic(flat: &FlatLabeling, pairs: &[(NodeId, NodeId)], call: usize) -> (f64, f64) {
    let (mut labels, mut bytes, mut counted) = (0usize, 0usize, 0usize);
    for chunk in pairs.chunks_exact(call).take(1024) {
        let mut vs: Vec<NodeId> = chunk.iter().flat_map(|&(u, v)| [u, v]).collect();
        vs.sort_unstable();
        vs.dedup();
        labels += vs.len();
        bytes += vs
            .iter()
            .map(|&v| 4 + 12 * flat.hubs_of(v).len())
            .sum::<usize>();
        counted += call;
    }
    (
        labels as f64 / counted as f64,
        bytes as f64 / counted as f64,
    )
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// One row of the latency budget, in microseconds.
pub struct BudgetRow {
    pub layer: &'static str,
    pub self_us: f64,
}

pub struct Ladder {
    pub metrics: Metrics,
    pub budget: Vec<BudgetRow>,
    /// Requests the ladder replayed and checked. Only the window sweep
    /// may report failures; anywhere else one aborts the ladder.
    pub attempted: u64,
    pub failed: u64,
}

/// Runs every layer probe on the prepared workload's store and stream.
/// Takes the workload over: its target is torn down first, because the
/// ladder mounts each layer fresh.
pub fn ladder(
    w: &Workload,
    store: Store,
    seed: u64,
    env: &Env,
    prepared: Prepared,
    seconds: f64,
) -> Res<Ladder> {
    let mut prober = Prober {
        slice: Duration::from_secs_f64(seconds / 60.0),
        attempted: 0,
    };
    let Prepared {
        mounted,
        stream,
        scratch,
        ..
    } = prepared;
    let Mounted {
        target,
        graph,
        stages,
        store_path,
        ..
    } = mounted;
    drop(target);
    let dir = scratch.path();
    let mut m = Metrics::default();

    let flat = AnyStore::open(&store_path)
        .map_err(err)?
        .into_flat()
        .map_err(err)?;
    let entries = flat.num_entries() as f64;

    // hl-graph, hl-build: the kept set-up's own stages, then both CPUs.
    m.push("hl-graph.generate_s", stages.generate_s, "s");
    m.push("hl-build.build_s", stages.build_s, "s");
    m.push("hl-build.label_entries", entries, "count");
    m.push("hl-build.avg_hubs", stages.avg_hubs, "count");
    m.push(
        "hl-build.pruning_hit_rate",
        stages.pruning_hit_rate,
        "ratio",
    );
    let both = both_cpus(env, store, seed, prober.slice)?;
    m.push("hl-build.build_s_2t", both.build_s_2t, "s");
    m.push(
        "hl-build.parallel_speedup",
        both.build_s_1t / both.build_s_2t,
        "ratio",
    );

    // hl-core: the two arenas, joined directly.
    let (compact, compact_s) = timed(|| CompactLabeling::from_flat(&flat));
    let compact = compact.map_err(err)?;
    let join_flat = prober.probe("flat join", &stream, |u, v| Ok(flat.query(u, v)))?;
    let join_compact = prober.probe("compact join", &stream, |u, v| Ok(compact.query(u, v)))?;
    let sample = &stream.pairs[..1 << 16];
    let entries_per_join = sample
        .iter()
        .map(|&(u, v)| flat.hubs_of(u).len() + flat.hubs_of(v).len())
        .sum::<usize>() as f64
        / sample.len() as f64;
    m.push("hl-core.join_ns.flat", join_flat.mean_ns, "ns");
    m.push("hl-core.join_ns.compact", join_compact.mean_ns, "ns");
    m.push("hl-core.entries_per_join", entries_per_join, "count");
    m.push(
        "hl-core.ns_per_entry.flat",
        join_flat.mean_ns / entries_per_join,
        "ns",
    );
    m.push(
        "hl-core.ns_per_entry.compact",
        join_compact.mean_ns / entries_per_join,
        "ns",
    );
    m.push(
        "hl-core.bytes_per_entry.flat",
        flat.heap_bytes() as f64 / entries,
        "B",
    );
    m.push(
        "hl-core.bytes_per_entry.compact",
        compact.heap_bytes() as f64 / entries,
        "B",
    );
    m.push("hl-core.compact_from_flat_s", compact_s, "s");

    // hl-server: the three store formats, then the engine.
    m.push("hl-server.store_save_s", stages.save_s, "s");
    let v1_path = dir.join("labels.v1.hlbs");
    let v2c_path = dir.join("labels.v2c.hlbs");
    LabelStore::from_flat(&flat).save(&v1_path).map_err(err)?;
    CompactStore::from_compact(compact)
        .save(&v2c_path)
        .map_err(err)?;
    let formats: [(&str, &Path); 3] = [("v1", &v1_path), ("v2", &store_path), ("v2c", &v2c_path)];
    for (name, path) in formats {
        let bytes = std::fs::metadata(path).map_err(err)?.len();
        m.push(&format!("hl-server.store_bytes.{name}"), bytes as f64, "B");
    }
    for (name, path) in formats {
        let (served, s) = timed(|| AnyStore::open(path).and_then(AnyStore::into_served));
        served.map_err(err)?;
        m.push(&format!("hl-server.mount_s.{name}"), s, "s");
    }

    let mut engine = EngineTarget::new(QueryEngine::new(flat.clone(), 1).map_err(err)?, true);
    let single = prober.probe("engine query", &stream, |u, v| engine.one(u, v))?;
    let batch_ns = 1e9 / prober.tput("engine batch", &mut engine, &stream)?;
    m.push("hl-server.engine_single_ns", single.mean_ns, "ns");
    m.push(
        "hl-server.engine_overhead_ns",
        single.mean_ns - join_flat.mean_ns,
        "ns",
    );
    m.push("hl-server.engine_batch_ns_per_query", batch_ns, "ns");
    m.push(
        "hl-server.pool_overhead_ns",
        batch_ns - join_flat.mean_ns,
        "ns",
    );
    drop(engine);

    // The LRU's hit path, on a fresh engine and Zipf traffic (the
    // workload's own stream when it already is Zipf): the first half
    // fills the cache, the second — never seen before — is counted.
    const HOT: usize = 1 << 17;
    let zipf;
    let hot = if w.traffic == Traffic::Zipf {
        &stream
    } else {
        let mut s = Stream::generate(Traffic::Zipf, store.nodes(), seed, 2 * HOT);
        s.attach_truth(&graph);
        zipf = s;
        &zipf
    };
    let hot_engine = QueryEngine::new(flat.clone(), 1).map_err(err)?;
    let replay = |range: std::ops::Range<usize>| -> Res<()> {
        for &(u, v) in &hot.pairs[range] {
            black_box(hot_engine.query(u, v).map_err(err)?);
        }
        Ok(())
    };
    replay(0..HOT)?;
    let before = hot_engine.snapshot();
    replay(HOT..2 * HOT)?;
    let after = hot_engine.snapshot();
    let (hits, misses) = (
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    );
    // 1024 distinct pairs replayed: after one pass every probe hits.
    let few = hot.prefix(1024);
    let always_hit = prober.probe("cache hit", &few, |u, v| {
        hot_engine.query(u, v).map_err(err)
    })?;
    m.push(
        "hl-server.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.push("hl-server.cache_hit_ns", always_hit.mean_ns, "ns");
    m.push(
        "hl-server.pool_speedup_2w",
        both.qps_2w / both.qps_1w,
        "ratio",
    );
    drop(hot_engine);

    // hl-net: codec alone, then one daemon on the whole store. Ping and
    // codec answers are not distances, so their stream checks nothing.
    let unchecked = hot.prefix(1024).unchecked();
    let (codec_ns, frame_bytes) = codec(&mut prober, &unchecked)?;
    m.push("hl-net.codec_ns", codec_ns, "ns");
    m.push("hl-net.frame_bytes_per_query", frame_bytes, "B");

    let daemon = Daemon::spawn(env, &store_path)?;
    let connects: Vec<f64> = (0..5)
        .map(|_| timed(|| MuxClient::connect(daemon.addr.as_str(), client_config())))
        .map(|(client, s)| client.map(|_| s * 1e6).map_err(err))
        .collect::<Res<_>>()?;
    let mut mux = MuxTarget::connect(&daemon.addr, 64, None)?;
    let ping = prober.probe("ping", &unchecked, |_, _| {
        mux.client.ping().map(|()| 0).map_err(err)
    })?;
    let rtt = prober.probe("mux query", &stream, |u, v| mux.one(u, v))?;
    let mut v1 = NetClient::connect(daemon.addr.as_str(), client_config()).map_err(err)?;
    let v1_ping = prober.probe("v1 ping", &unchecked, |_, _| {
        v1.ping().map(|()| 0).map_err(err)
    })?;
    let v1_rtt = prober.probe("v1 query", &stream, |u, v| v1.query(u, v).map_err(err))?;
    drop(v1);
    m.push("hl-net.ping_rtt_us", us(ping.p50_ns), "us");
    m.push("hl-net.rtt_p50_us", us(rtt.p50_ns), "us");
    m.push("hl-net.rtt_p99_us", us(rtt.p99_ns), "us");
    m.push(
        "hl-net.net_overhead_us",
        us(rtt.p50_ns - single.p50_ns),
        "us",
    );
    m.push("hl-net.v1_ping_rtt_us", us(v1_ping.p50_ns), "us");
    m.push("hl-net.v1_rtt_p50_us", us(v1_rtt.p50_ns), "us");

    // The window sweep; CPU time, context switches and the submit/wait
    // spans are taken at the workload's own window of 64. A request that
    // fails here (window 512 stays under the daemon's cap of 1024 per
    // connection) is counted, not fatal: that is the figure.
    let mut sweep = Tally::default();
    for window in [1usize, 8, 64, 512] {
        mux.inflight = window;
        mux.burst = (window * 128).clamp(128, 8192);
        let mut tally = Tally::default();
        let mut tracer = (window == 64).then(Tracer::new);
        let (server_before, client_before) = (
            CpuSample::of(daemon.pid()),
            CpuSample::of(std::process::id()),
        );
        let qps = tput_window(
            &mut mux,
            &stream,
            &mut 0,
            prober.slice * 2,
            &mut tally,
            tracer.as_mut(),
        );
        let server = CpuSample::of(daemon.pid()).since(&server_before);
        let client = CpuSample::of(std::process::id()).since(&client_before);
        sweep.merge(&tally);
        m.push(&format!("hl-net.qps_w{window}"), qps, "1/s");
        if let Some(tracer) = tracer {
            let n = tally.ok().max(1) as f64;
            let spans = summarize(tracer.spans());
            let mean_us = |name| spans.get(name).map_or(0.0, |s| us(s.mean_ns));
            m.push("hl-net.submit_us", mean_us("hl-net.submit"), "us");
            m.push("hl-net.wait_us", mean_us("hl-net.wait"), "us");
            m.push(
                "hl-net.server_cpu_us_per_query",
                us(server.cpu_ns as f64) / n,
                "us",
            );
            m.push(
                "hl-net.client_cpu_us_per_query",
                us(client.cpu_ns as f64) / n,
                "us",
            );
            m.push(
                "hl-net.server_ctxsw_per_query",
                server.voluntary_switches as f64 / n,
                "count",
            );
            m.push(
                "hl-net.client_ctxsw_per_query",
                client.voluntary_switches as f64 / n,
                "count",
            );
        }
    }
    m.push("hl-net.connect_us", median(&connects).unwrap_or(0.0), "us");
    m.push("hl-net.busy_rejects", sweep.errors as f64, "count");

    // hl-shard: the same store split in two behind a router, on pairs
    // that always cross, against one mux connection on the same pairs.
    let crossing;
    let cross = if w.traffic == Traffic::CrossShard {
        &stream
    } else {
        let mut s = Stream::generate(Traffic::CrossShard, store.nodes(), seed, 1 << 16);
        s.attach_truth(&graph);
        crossing = s;
        &crossing
    };
    mux.inflight = 64;
    mux.burst = 8192;
    let mux_cross_qps = prober.tput("mux on crossing pairs", &mut mux, cross)?;
    let error_frames = mux.client.metrics().map_err(err)?.net_errors;
    m.push("hl-net.error_frames", error_frames as f64, "count");
    drop(mux);
    drop(daemon);

    let (shards, partition_s) = timed(|| hl_shard::partition(&flat, 2));
    let mut daemons = Vec::new();
    for (i, shard) in shards.map_err(err)?.into_iter().enumerate() {
        let path = dir.join(format!("ladder-shard-{i}.hlbs"));
        FlatStore::from_flat(shard).save(&path).map_err(err)?;
        daemons.push(Daemon::spawn(env, &path)?);
    }
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    let router = ShardRouter::connect(&addrs, &client_config()).map_err(err)?;
    let mut router = RouterTarget::new(router, daemons);
    let cross_rtt = prober.probe("router query", cross, |u, v| router.one(u, v))?;
    let router_qps = prober.tput("router query_many", &mut router, cross)?;
    drop(router);
    let (labels_per_pair, wire_bytes_per_pair) = label_traffic(&flat, &cross.pairs, 64);
    m.push("hl-shard.partition_s", partition_s, "s");
    m.push("hl-shard.cross_rtt_p50_us", us(cross_rtt.p50_ns), "us");
    m.push("hl-shard.cross_ns_per_pair", 1e9 / router_qps, "ns");
    m.push("hl-shard.labels_fetched_per_pair", labels_per_pair, "count");
    m.push(
        "hl-shard.label_wire_bytes_per_pair",
        wire_bytes_per_pair,
        "B",
    );
    m.push(
        "hl-shard.router_vs_mux",
        router_qps / mux_cross_qps,
        "ratio",
    );

    // The budget: each layer's self time is its replayed p50 minus the
    // layers beneath, so the rows sum to the top layer's p50 — the same
    // operation, through the same `lat` loop, as the workload's own
    // `lat` window, but on a freshly mounted system.
    let (j, e, p, r) = (
        us(join_flat.p50_ns),
        us(single.p50_ns),
        us(ping.p50_ns),
        us(rtt.p50_ns),
    );
    let row = |layer, self_us| BudgetRow { layer, self_us };
    let budget = match w.via {
        Via::EngineBatch => vec![row("hl-core.join", j), row("hl-server.engine", e - j)],
        Via::EngineSingle => {
            // `single` replayed this workload's own Zipf stream.
            let hit = us(always_hit.p50_ns);
            vec![
                row("hl-server.cache_hit", hit),
                row("hl-server.lru_at_capacity", e - hit),
            ]
        }
        Via::Mux => vec![
            row("hl-core.join", j),
            row("hl-server.engine", e - j),
            row("hl-net.transport(ping)", p),
            row("hl-net.query_over_ping", r - p - e),
        ],
        Via::V1 => {
            let (p1, r1) = (us(v1_ping.p50_ns), us(v1_rtt.p50_ns));
            vec![
                row("hl-core.join", j),
                row("hl-server.engine", e - j),
                row("hl-net.v1_transport(ping)", p1),
                row("hl-net.v1_query_over_ping", r1 - p1 - e),
            ]
        }
        Via::Router => vec![
            row("hl-core.join", j),
            row("hl-net.transport(ping)", p),
            row("hl-shard.label_shipping", us(cross_rtt.p50_ns) - p - j),
        ],
    };
    Ok(Ladder {
        metrics: m,
        budget,
        attempted: prober.attempted + sweep.attempted,
        failed: sweep.failed(),
    })
}
