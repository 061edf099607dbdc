//! One workload run: repeated set-up, then rounds of a `lat` window
//! (one request outstanding, every request timed) and a `tput` window
//! (the workload's stated concurrency).

use std::time::{Duration, Instant};

use hl_graph::{Distance, NodeId};

use crate::daemon::ScratchDir;
use crate::procfs::vm_hwm_kib;
use crate::span::{Open, Tracer};
use crate::stats::{median, quantile, LatencyRecorder};
use crate::stream::{Stream, Tally, STREAM_LEN};
use crate::workloads::{mount, Env, Mounted, Res, Store, Target, Via, Workload, TRACE_EVERY};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Nominal length of one round of `[lat, tput]`, in seconds. This host's
/// speed wanders on a scale of seconds; rounds well below that let the
/// run's medians see every phase many times, and let the `lat` and
/// `tput` windows sample the same phases.
const ROUND_S: f64 = 0.5;

/// How one run's `--seconds` are spent: on each set-up, `rounds` rounds
/// of a `lat` window (two fifths of a round) and a `tput` window (three
/// fifths), plus `seconds / 25` of warm-up.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub lat: Duration,
    pub tput: Duration,
    pub warm: Duration,
    /// Rounds on each set-up.
    pub rounds: usize,
}

impl Shape {
    pub fn for_seconds(seconds: f64) -> Shape {
        let per_setup = seconds / SETUPS as f64;
        let rounds = ((per_setup / ROUND_S).round() as usize).max(1);
        let round = per_setup / rounds as f64;
        Shape {
            lat: Duration::from_secs_f64(round * 2.0 / 5.0),
            tput: Duration::from_secs_f64(round * 3.0 / 5.0),
            warm: Duration::from_secs_f64(seconds / 25.0),
            rounds,
        }
    }
}

/// The `lat` loop: requests one at a time from `cursor` through `one`,
/// each timed into `lat` and checked into `tally`, until `dur` is up.
/// The ladder's probes run this same loop, so their percentiles and a
/// workload's `p50_us` are timed identically.
pub fn lat_loop(
    stream: &Stream,
    cursor: &mut usize,
    dur: Duration,
    lat: &mut LatencyRecorder,
    tally: &mut Tally,
    mut one: impl FnMut(NodeId, NodeId) -> Res<Distance>,
) {
    let deadline = Instant::now() + dur;
    loop {
        let i = stream.take(cursor, 1).start;
        let (u, v) = stream.pairs[i];
        let started = Instant::now();
        let answer = one(u, v);
        let done = Instant::now();
        lat.record((done - started).as_nanos() as u64);
        match answer {
            Ok(d) => tally.note_answers(&[d], &stream.expected[i..=i]),
            Err(_) => tally.note_errors(1),
        }
        if done >= deadline {
            return;
        }
    }
}

/// Runs one `lat` window on `target`; with a tracer, each request under
/// a `driver.request` root span.
pub fn lat_window(
    target: &mut dyn Target,
    stream: &Stream,
    cursor: &mut usize,
    dur: Duration,
    lat: &mut LatencyRecorder,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) {
    match tracer {
        None => lat_loop(stream, cursor, dur, lat, tally, |u, v| target.one(u, v)),
        Some(t) => lat_loop(stream, cursor, dur, lat, tally, |u, v| {
            let request = t.next_request();
            let root = t.open(request, Open::NONE, "driver.request");
            let answer = target.one_traced(u, v, t, request, root);
            t.close(root);
            answer
        }),
    }
}

/// Runs one `tput` window of `burst` calls from `cursor`; returns
/// verified answers per second. With a tracer, one call in
/// [`TRACE_EVERY`] runs under a `driver.request` root span.
pub fn tput_window(
    target: &mut dyn Target,
    stream: &Stream,
    cursor: &mut usize,
    dur: Duration,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> f64 {
    let step = target.burst_len();
    let mut out: Vec<Distance> = Vec::with_capacity(step);
    let before = tally.ok();
    let started = Instant::now();
    let deadline = started + dur;
    let mut calls = 0usize;
    loop {
        let range = stream.take(cursor, step);
        let answer = match &mut tracer {
            Some(t) if calls.is_multiple_of(TRACE_EVERY) => {
                let request = t.next_request();
                let root = t.open(request, Open::NONE, "driver.request");
                let answer =
                    target.burst_traced(&stream.pairs[range.clone()], &mut out, t, request, root);
                t.close(root);
                answer
            }
            _ => target.burst(&stream.pairs[range.clone()], &mut out),
        };
        calls += 1;
        match answer {
            Ok(()) => tally.note_answers(&out, &stream.expected[range]),
            Err(_) => tally.note_errors(step),
        }
        let now = Instant::now();
        if now >= deadline {
            return (tally.ok() - before) as f64 / (now - started).as_secs_f64();
        }
    }
}

/// What the rounds of one run measured, pooled over every set-up.
pub struct Rounds {
    pub lat: LatencyRecorder,
    pub lat_tally: Tally,
    pub tput_tally: Tally,
    /// Verified answers per second of each `tput` window.
    pub tput_qps: Vec<f64>,
    /// Where the next window starts in the stream.
    cursor: usize,
}

impl Default for Rounds {
    fn default() -> Self {
        Self::new()
    }
}

impl Rounds {
    pub fn new() -> Rounds {
        Rounds {
            lat: LatencyRecorder::new(),
            lat_tally: Tally::default(),
            tput_tally: Tally::default(),
            tput_qps: Vec::new(),
            cursor: 0,
        }
    }

    /// Runs `count` more rounds of `[lat, tput]` on `target`.
    pub fn run(
        &mut self,
        target: &mut dyn Target,
        stream: &Stream,
        shape: Shape,
        count: usize,
        mut tracer: Option<&mut Tracer>,
    ) {
        for _ in 0..count {
            let tr = tracer.as_deref_mut();
            lat_window(
                target,
                stream,
                &mut self.cursor,
                shape.lat,
                &mut self.lat,
                &mut self.lat_tally,
                tr,
            );
            let tr = tracer.as_deref_mut();
            let qps = tput_window(
                target,
                stream,
                &mut self.cursor,
                shape.tput,
                &mut self.tput_tally,
                tr,
            );
            self.tput_qps.push(qps);
        }
    }

    /// The run's throughput: [`Via::qps_quantile`] of its `tput` windows.
    pub fn qps(&self, via: Via) -> f64 {
        quantile(&self.tput_qps, via.qps_quantile()).unwrap_or(0.0)
    }

    pub fn p50_us(&mut self) -> f64 {
        self.lat.percentile(0.5).unwrap_or(0) as f64 / 1e3
    }

    pub fn tally(&self) -> Tally {
        let mut all = self.lat_tally;
        all.merge(&self.tput_tally);
        all
    }

    pub fn print(&mut self, name: &str) {
        for (phase, t) in [("lat", &self.lat_tally), ("tput", &self.tput_tally)] {
            println!(
                "  {name} {phase:<4} attempted {} ok {} failed {} (errors {} wrong {}) checked {}",
                t.attempted,
                t.ok(),
                t.failed(),
                t.errors,
                t.wrong,
                t.checked
            );
        }
        let windows: Vec<String> = self.tput_qps.iter().map(|q| format!("{q:.0}")).collect();
        println!("  {name} tput windows (answers/s): {}", windows.join(" "));
        let quantiles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&q| format!("p{:.0} {}", q * 100.0, self.lat.percentile(q).unwrap_or(0)))
            .collect();
        println!(
            "  {name} lat ns over {} requests: {}",
            self.lat.count(),
            quantiles.join("  ")
        );
    }
}

fn print_setup(mounted: &Mounted, wall_s: f64) {
    let s = &mounted.stages;
    println!(
        "  set-up {wall_s:.3} s: generate {:.3} build {:.3} save {:.3} mount {:.3} partition {:.3} warm-up {:.3}; {} entries",
        s.generate_s, s.build_s, s.save_s, s.mount_s, s.partition_s, s.warmup_s, mounted.entries,
    );
}

/// A workload set up once and ready, with the stream that drives it.
pub struct Prepared {
    pub mounted: Mounted,
    pub stream: Stream,
    pub scratch: ScratchDir,
}

/// One set-up from nothing plus the BFS truth, for the traced run.
pub fn prepare(w: &Workload, store: Store, seed: u64, env: &Env, shape: Shape) -> Res<Prepared> {
    let mut stream = Stream::generate(w.traffic, store.nodes(), seed, STREAM_LEN);
    let scratch = ScratchDir::create(&env.out_dir, w.name)?;
    let started = Instant::now();
    let mounted = mount(w.via, store, seed, env, scratch.path(), &stream, shape.warm)?;
    print_setup(&mounted, started.elapsed().as_secs_f64());
    stream.attach_truth(&mounted.graph);
    Ok(Prepared {
        mounted,
        stream,
        scratch,
    })
}

/// The end-to-end figures of one untraced run.
pub struct EndToEnd {
    pub setup_s: f64,
    pub qps: f64,
    pub p50_us: f64,
    pub lat_samples: u64,
    pub ok_ratio: f64,
    pub arena_bytes_per_entry: f64,
    pub rss_mb: f64,
    pub entries: u64,
    pub tally: Tally,
}

/// Peak RSS in MiB of what serves the workload: its daemons, or this
/// process when the engine is in-process.
fn peak_rss_mb(target: &dyn Target) -> f64 {
    let pids = target.daemon_pids();
    let pids = if pids.is_empty() {
        vec![std::process::id()]
    } else {
        pids
    };
    pids.iter().filter_map(|&pid| vm_hwm_kib(pid)).sum::<u64>() as f64 / 1024.0
}

/// The untraced run: `setups` times over, set the workload up from
/// nothing, run `rounds_per_setup` rounds on it, tear it down. Every
/// set-up lands its arena and cache on different pages, and on this
/// host that alone moves a sub-microsecond p50 by a tenth; pooling the
/// set-ups of one run is what makes its figures repeat. Only `mount`
/// counts towards `setup_s`: the stream and the BFS truth are the
/// benchmark's, not the program's.
pub fn measure(
    w: &Workload,
    store: Store,
    seed: u64,
    env: &Env,
    shape: Shape,
    setups: usize,
    rounds_per_setup: usize,
) -> Res<EndToEnd> {
    let mut stream = Stream::generate(w.traffic, store.nodes(), seed, STREAM_LEN);
    let scratch = ScratchDir::create(&env.out_dir, w.name)?;
    let mut rounds = Rounds::new();
    let mut setups_s = Vec::with_capacity(setups);
    let (mut rss_mb, mut entries, mut arena_bytes) = (0f64, 0, 0);
    for k in 0..setups {
        let started = Instant::now();
        let mut mounted = mount(w.via, store, seed, env, scratch.path(), &stream, shape.warm)?;
        setups_s.push(started.elapsed().as_secs_f64());
        print_setup(&mounted, setups_s[k]);
        if k == 0 {
            // The same seed builds the same graph every time.
            let checkable = stream.attach_truth(&mounted.graph);
            println!("  {checkable} of {STREAM_LEN} stream positions are checked against BFS");
        }
        rounds.run(
            mounted.target.as_mut(),
            &stream,
            shape,
            rounds_per_setup,
            None,
        );
        rss_mb = rss_mb.max(peak_rss_mb(mounted.target.as_ref()));
        (entries, arena_bytes) = (mounted.entries, mounted.arena_bytes);
    }
    rounds.print("run");
    let tally = rounds.tally();
    Ok(EndToEnd {
        setup_s: median(&setups_s).unwrap_or(0.0),
        qps: rounds.qps(w.via),
        p50_us: rounds.p50_us(),
        lat_samples: rounds.lat.count(),
        ok_ratio: tally.ok() as f64 / tally.attempted.max(1) as f64,
        arena_bytes_per_entry: arena_bytes as f64 / entries.max(1) as f64,
        rss_mb,
        entries,
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Traffic, UNCHECKED};
    use crate::workloads::EngineTarget;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_core::FlatLabeling;
    use hl_graph::generators;
    use hl_server::QueryEngine;

    fn tiny() -> (EngineTarget, Stream) {
        let g = generators::connected_gnm(256, 512, 4);
        let flat = FlatLabeling::from(PrunedLandmarkLabeling::by_degree(&g).into_labeling());
        let mut stream = Stream::generate(Traffic::Uniform, 256, 4, 16384);
        stream.attach_truth(&g);
        let engine = QueryEngine::new(flat, 1).unwrap();
        (EngineTarget::new(engine, true), stream)
    }

    fn short() -> Shape {
        Shape {
            lat: Duration::from_millis(20),
            tput: Duration::from_millis(20),
            warm: Duration::ZERO,
            rounds: 1,
        }
    }

    #[test]
    fn a_correct_engine_passes_and_exits_zero() {
        let (mut target, stream) = tiny();
        let mut r = Rounds::new();
        r.run(&mut target, &stream, short(), 2, None);
        let t = r.tally();
        assert!(t.attempted > 0 && t.checked > 0);
        assert_eq!(t.failed(), 0);
        assert_eq!(crate::exit_code(&t), 0);
        assert_eq!(r.tput_qps.len(), 2);
        assert!(r.qps(Via::EngineBatch) > 0.0);
    }

    #[test]
    fn one_wrong_expected_value_flips_the_run_to_a_non_zero_exit() {
        let (mut target, mut stream) = tiny();
        let at = stream
            .expected
            .iter()
            .position(|&e| e != UNCHECKED)
            .unwrap();
        stream.expected[at] += 1;
        let mut r = Rounds::new();
        r.run(&mut target, &stream, short(), 1, None);
        let t = r.tally();
        assert!(t.wrong >= 1, "the corrupted position was replayed: {t:?}");
        assert_eq!(t.errors, 0);
        assert_ne!(crate::exit_code(&t), 0);
    }

    #[test]
    fn traced_rounds_record_linked_spans() {
        let (mut target, stream) = tiny();
        let mut tracer = Tracer::new();
        let mut r = Rounds::new();
        r.run(&mut target, &stream, short(), 1, Some(&mut tracer));
        assert_eq!(r.tally().failed(), 0);
        let spans = tracer.spans();
        assert!(spans
            .iter()
            .any(|s| s.name == "hl-server.query" && s.parent.is_some()));
        assert!(spans.iter().any(|s| s.name == "hl-server.query_batch"));
        assert!(spans
            .iter()
            .filter(|s| s.parent.is_none())
            .all(|s| s.name == "driver.request"));
    }

    #[test]
    fn seconds_split_into_half_second_rounds_two_to_three() {
        let s = Shape::for_seconds(30.0);
        assert_eq!(s.rounds, 20);
        assert_eq!(
            (s.lat, s.tput),
            (Duration::from_millis(200), Duration::from_millis(300))
        );
        assert_eq!(s.warm, Duration::from_secs_f64(1.2));
        // Whatever the seconds, the windows add up to them.
        for seconds in [0.6, 10.0, 12.0, 17.0] {
            let s = Shape::for_seconds(seconds);
            let total = (s.lat + s.tput).as_secs_f64() * (SETUPS * s.rounds) as f64;
            assert!((total - seconds).abs() < 1e-6, "{seconds}: {total}");
        }
    }
}
