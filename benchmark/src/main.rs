//! `hlbench` — the repo's pinned benchmark driver.
//!
//! ```text
//! hlbench run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! hlbench all [--seed N] [--seconds S] [--smoke] [--no-trace] [--record FILE]
//! hlbench aa  [--seed N] [--seconds S]
//! ```
//!
//! `run` measures one workload and ends with one JSON line (`correct`,
//! `attempted`, `failed`, `metrics`); `all` runs every workload, each in
//! a fresh process; `aa` runs the untraced set twice and holds every
//! cell to its bound in `BENCHMARK.json`. `run.sh` is the entry point:
//! it builds, pins, and tells this binary where things are through
//! `HLBENCH_*` environment variables.

mod daemon;
mod json;
mod layers;
mod procfs;
mod run;
mod span;
mod stats;
mod stream;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Value;
use layers::{ladder, Metrics};
use run::{measure, prepare, Rounds, Shape, SETUPS};
use span::{summarize, Tracer};
use stream::Tally;
use workloads::{err, workload, Env, Res, Store, Workload, WORKLOADS};

/// 0 only when something was attempted and nothing failed.
fn exit_code(tally: &Tally) -> u8 {
    u8::from(tally.attempted == 0 || tally.failed() > 0)
}

fn env_from_process() -> Res<Env> {
    let var = |k: &str| {
        std::env::var(k)
            .map_err(|_| format!("{k} is not set; start hlbench through benchmark/run.sh"))
    };
    Ok(Env {
        hubserve: PathBuf::from(var("HLBENCH_HUBSERVE")?),
        out_dir: PathBuf::from(var("HLBENCH_OUT")?),
        cpus: var("HLBENCH_CPUS")?
            .split(',')
            .map(str::to_string)
            .collect(),
        git_rev: std::env::var("HLBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
    })
}

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Res<Option<T>> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("{key}: cannot parse '{v}'")))
            .transpose()
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

/// What `BENCHMARK.json` declares.
struct Spec {
    run_seconds: f64,
    /// `(name, bound)` of each end-to-end metric.
    end_to_end: Vec<(String, f64)>,
    per_layer: Vec<String>,
}

fn load_spec() -> Res<Spec> {
    let path = std::env::var("HLBENCH_SPEC")
        .map_err(|_| "HLBENCH_SPEC is not set; start hlbench through benchmark/run.sh")?;
    let doc = json::parse(&std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))?;
    let entries = |key: &str| -> Res<Vec<&Value>> {
        Ok(doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("{path}: no {key}"))?
            .iter()
            .collect())
    };
    let name_of = |v: &Value| {
        v.get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("{path}: unnamed entry"))
    };
    let declared: Vec<String> = entries("workloads")?
        .into_iter()
        .map(name_of)
        .collect::<Res<_>>()?;
    // The spec lists the workloads that are gated; `all` and `aa` run
    // every workload this driver has.
    if let Some(unknown) = declared.iter().find(|d| workload(d).is_none()) {
        return Err(format!(
            "{path} declares workload '{unknown}', which the driver does not have"
        ));
    }
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or(format!("{path}: no run_seconds"))?,
        end_to_end: entries("end_to_end")?
            .into_iter()
            .map(|v| {
                Ok((
                    name_of(v)?,
                    v.get("bound")
                        .and_then(Value::as_f64)
                        .ok_or(format!("{path}: metric without bound"))?,
                ))
            })
            .collect::<Res<_>>()?,
        per_layer: entries("per_layer")?
            .into_iter()
            .map(name_of)
            .collect::<Res<_>>()?,
    })
}

/// What one `run` invocation was asked to do.
struct Job {
    w: &'static Workload,
    store: Store,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The row `--record` appends to the history: the shared keys every
/// bench in the repo is meant to carry.
fn history_row(job: &Job, entries: u64, env: &Env, metrics: &Metrics) -> Value {
    let Job {
        w,
        store,
        seed,
        seconds,
        trace,
    } = *job;
    Value::Obj(vec![
        ("bench".into(), Value::str(format!("hlbench/{}", w.name))),
        ("git_rev".into(), Value::str(&env.git_rev)),
        ("nproc".into(), Value::Num(env.nproc() as f64)),
        ("cpu".into(), Value::str(procfs::cpu_model())),
        ("store".into(), Value::str(store.name())),
        ("entries".into(), Value::Num(entries as f64)),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("trace".into(), Value::Bool(trace)),
        (
            "rows".into(),
            Value::Arr(
                metrics
                    .0
                    .iter()
                    .map(|m| {
                        Value::Obj(vec![
                            ("metric".into(), Value::str(&m.name)),
                            ("value".into(), Value::Num(m.value)),
                            ("unit".into(), Value::str(m.unit)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The untraced run and its end-to-end metrics.
fn run_untraced(job: &Job, smoke: bool, env: &Env) -> Res<(Metrics, Tally, u64)> {
    let shape = Shape::for_seconds(job.seconds);
    // The smoke set makes one set-up carry all the rounds.
    let (setups, rounds) = if smoke {
        (1, SETUPS * shape.rounds)
    } else {
        (SETUPS, shape.rounds)
    };
    let e = measure(job.w, job.store, job.seed, env, shape, setups, rounds)?;
    println!("  p50 over {} lat-window requests", e.lat_samples);
    let mut m = Metrics::default();
    m.push("setup_s", e.setup_s, "s");
    m.push("qps", e.qps, "1/s");
    m.push("p50_us", e.p50_us, "us");
    m.push("ok_ratio", e.ok_ratio, "ratio");
    m.push("arena_bytes_per_entry", e.arena_bytes_per_entry, "B");
    m.push("rss_mb", e.rss_mb, "MiB");
    Ok((m, e.tally, e.entries))
}

/// The traced run: one set-up; plain and traced rounds, alternating;
/// the trace file; the per-layer ladder and the budget table.
fn run_traced(job: &Job, env: &Env) -> Res<(Metrics, Tally, u64)> {
    let Job {
        w,
        store,
        seed,
        seconds,
        ..
    } = *job;
    // A third of the seconds in rounds; the ladder gets the rest.
    let shape = Shape::for_seconds(seconds / 3.0);
    let mut prepared = prepare(w, store, seed, env, shape)?;
    let entries = prepared.mounted.entries;
    let target = prepared.mounted.target.as_mut();
    let (mut plain, mut traced, mut tracer) = (Rounds::new(), Rounds::new(), Tracer::new());
    for _ in 0..(SETUPS * shape.rounds).div_ceil(2) {
        plain.run(target, &prepared.stream, shape, 1, None);
        traced.run(target, &prepared.stream, shape, 1, Some(&mut tracer));
    }
    plain.print("plain ");
    traced.print("traced");
    let mut tally = plain.tally();
    tally.merge(&traced.tally());

    let trace_path = env.out_dir.join(format!("trace-{}.jsonl", w.name));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "  {} spans in {} ({} more not kept)",
        tracer.spans().len(),
        trace_path.display(),
        tracer.dropped()
    );
    println!("  span                             count      mean us      self us");
    for (name, s) in summarize(tracer.spans()) {
        println!(
            "  {name:<30} {:>7} {:>12.3} {:>12.3}",
            s.count,
            s.mean_ns / 1e3,
            s.mean_self_ns / 1e3
        );
    }

    let p50_us = plain.p50_us();
    let p99_us = plain.lat.percentile(0.99).unwrap_or(0) as f64 / 1e3;
    let samples = plain.lat.count();
    let overhead = traced.qps(w.via) / plain.qps(w.via);

    let ladder = ladder(w, store, seed, env, prepared, seconds)?;
    tally.attempted += ladder.attempted;
    tally.errors += ladder.failed;
    let mut m = ladder.metrics;

    let sum: f64 = ladder.budget.iter().map(|r| r.self_us).sum();
    println!("  budget of one {} request (p50, us):", w.name);
    for row in &ladder.budget {
        println!("    {:<32} {:>10.3}", row.layer, row.self_us);
    }
    println!("    {:<32} {:>10.3}", "sum", sum);
    println!(
        "    {:<32} {:>10.3}  ({samples} samples)",
        "p50_us of the plain rounds", p50_us
    );
    m.push("p99_us", p99_us, "us");
    m.push("p99_samples", samples as f64, "count");
    m.push("trace_overhead_ratio", overhead, "ratio");
    m.push(
        "budget_unexplained_share",
        (sum - p50_us).abs() / p50_us,
        "ratio",
    );
    Ok((m, tally, entries))
}

fn cmd_run(args: &Args) -> Res<ExitCode> {
    let env = env_from_process()?;
    let name = args.value("--workload").ok_or("run needs --workload")?;
    let w = workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.ok_or("run needs --seconds")?;
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let smoke = args.flag("--smoke");
    let job = Job {
        w,
        store: w.store(smoke),
        seed,
        seconds,
        trace,
    };
    println!(
        "== {}  store {}  seed {seed}  seconds {seconds}  trace {}  nproc {}  git {}  cpu {}",
        w.name,
        job.store.name(),
        u8::from(trace),
        env.nproc(),
        env.git_rev,
        procfs::cpu_model()
    );
    let started = Instant::now();
    let (metrics, tally, entries) = if trace {
        run_traced(&job, &env)?
    } else {
        run_untraced(&job, smoke, &env)?
    };
    metrics.print();
    println!("  finished in {:.1} s", started.elapsed().as_secs_f64());
    println!("ROW {}", history_row(&job, entries, &env, &metrics));
    let code = exit_code(&tally);
    let last = Value::Obj(vec![
        ("correct".into(), Value::Bool(code == 0)),
        ("attempted".into(), Value::Num(tally.attempted as f64)),
        ("failed".into(), Value::Num(tally.failed() as f64)),
        ("metrics".into(), metrics.to_json()),
    ]);
    println!("{last}");
    Ok(ExitCode::from(code))
}

/// What one child `run` reported.
struct ChildRun {
    row: Value,
    correct: bool,
}

impl ChildRun {
    /// `(metric, value)` in the order the child listed them.
    fn cells(&self) -> Vec<(String, f64)> {
        self.row
            .get("rows")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|r| {
                Some((
                    r.get("metric")?.as_str()?.to_string(),
                    r.get("value")?.as_f64()?,
                ))
            })
            .collect()
    }
}

/// Runs one workload in a fresh process of this binary (peak RSS is per
/// process, so workloads must not share one), echoing its output.
fn child_run(w: &Workload, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Res<ChildRun> {
    let mut cmd = Command::new(std::env::current_exe().map_err(err)?);
    cmd.args(["run", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(err)?;
    let (mut row, mut last) = (None, String::new());
    for line in BufReader::new(child.stdout.take().expect("stdout was piped")).lines() {
        let line = line.map_err(err)?;
        match line.strip_prefix("ROW ") {
            Some(json) => row = Some(json::parse(json)?),
            None if line.starts_with('{') => last = line,
            None => println!("{line}"),
        }
    }
    let status = child.wait().map_err(err)?;
    let last = json::parse(&last)
        .map_err(|e| format!("{}: no result line ({e}); exit {status}", w.name))?;
    let correct = last
        .get("correct")
        .and_then(Value::as_bool)
        .unwrap_or(false)
        && status.success();
    println!(
        "  => correct {correct}  attempted {}  failed {}",
        last.get("attempted").and_then(Value::as_f64).unwrap_or(0.0),
        last.get("failed").and_then(Value::as_f64).unwrap_or(-1.0)
    );
    Ok(ChildRun {
        row: row.ok_or_else(|| format!("{}: no ROW line", w.name))?,
        correct,
    })
}

fn expect_names(what: &str, w: &Workload, got: &[(String, f64)], want: &[String]) -> Res<()> {
    let got: Vec<&String> = got.iter().map(|(n, _)| n).collect();
    let missing: Vec<&String> = want.iter().filter(|n| !got.contains(n)).collect();
    let extra: Vec<&&String> = got.iter().filter(|n| !want.contains(n)).collect();
    if missing.is_empty() && extra.is_empty() {
        Ok(())
    } else {
        Err(format!("{}: {what} metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}", w.name))
    }
}

/// Runs the untraced set once; every metric name is held to the spec.
fn untraced_set(spec: &Spec, seed: u64, seconds: f64, smoke: bool) -> Res<Vec<ChildRun>> {
    let names: Vec<String> = spec.end_to_end.iter().map(|(n, _)| n.clone()).collect();
    WORKLOADS
        .iter()
        .map(|w| {
            let run = child_run(w, seed, seconds, false, smoke)?;
            expect_names("end-to-end", w, &run.cells(), &names)?;
            Ok(run)
        })
        .collect()
}

fn cmd_all(args: &Args) -> Res<ExitCode> {
    let spec = load_spec()?;
    let smoke = args.flag("--smoke");
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    // The smoke set only has to show that every path runs and every
    // metric is emitted: three rounds of a fifth of a second.
    let seconds: f64 =
        args.parsed("--seconds")?
            .unwrap_or(if smoke { 0.6 } else { spec.run_seconds });
    let started = Instant::now();
    let plain = untraced_set(&spec, seed, seconds, smoke)?;
    let mut all_correct = plain.iter().all(|r| r.correct);
    let mut rows: Vec<Value> = plain.into_iter().map(|r| r.row).collect();
    if !args.flag("--no-trace") {
        for (w, row) in WORKLOADS.iter().zip(&mut rows) {
            let traced = child_run(w, seed, seconds, true, smoke)?;
            expect_names("per-layer", w, &traced.cells(), &spec.per_layer)?;
            all_correct &= traced.correct;
            // One history row per workload: end-to-end, then per-layer.
            if let (Some(Value::Arr(cells)), Some(more)) = (
                row.get_mut("rows"),
                traced.row.get("rows").and_then(Value::as_array),
            ) {
                cells.extend_from_slice(more);
            }
        }
    }
    if let Some(path) = args.value("--record") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        for row in &rows {
            writeln!(file, "{row}").map_err(err)?;
        }
        println!("appended {} rows to {path}", rows.len());
    }
    println!(
        "set finished in {:.1} s; all correct: {all_correct}",
        started.elapsed().as_secs_f64()
    );
    Ok(ExitCode::from(u8::from(!all_correct)))
}

fn cmd_aa(args: &Args) -> Res<ExitCode> {
    let spec = load_spec()?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(spec.run_seconds);
    let a = untraced_set(&spec, seed, seconds, false)?;
    let b = untraced_set(&spec, seed, seconds, false)?;
    let mut disagreements = 0;
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((w, a), b) in WORKLOADS.iter().zip(&a).zip(&b) {
        disagreements += u32::from(!a.correct) + u32::from(!b.correct);
        let second_run = b.cells();
        for (name, first) in a.cells() {
            // Both sets were held to the spec's names, so these exist.
            let value_of =
                |cells: &[(String, f64)]| cells.iter().find(|(n, _)| *n == name).map(|c| c.1);
            let (Some(second), Some(bound)) = (value_of(&second_run), value_of(&spec.end_to_end))
            else {
                return Err(format!("{}: no second value or bound for {name}", w.name));
            };
            let diff = (second - first).abs() / first.abs();
            let verdict = if diff <= bound { "" } else { "  DISAGREE" };
            disagreements += u32::from(diff > bound);
            println!(
                "{:<18} {name:<24} {first:>14.4} {second:>14.4} {:>8.2}% {:>6.1}%{verdict}",
                w.name,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    println!("{disagreements} disagreements");
    Ok(ExitCode::from(u8::from(disagreements > 0)))
}

fn cmd_both_cpus(args: &Args) -> Res<ExitCode> {
    let store = match args.value("--store") {
        Some("gnm2k") => Store::Gnm2k,
        Some("rmat32k") => Store::Rmat32k,
        other => return Err(format!("both-cpus: unknown store {other:?}")),
    };
    let seed = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(0.2);
    layers::both_cpus_child(store, seed, Duration::from_secs_f64(seconds))?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let result = match command.as_str() {
        "run" => cmd_run(&args),
        "all" => cmd_all(&args),
        "aa" => cmd_aa(&args),
        "both-cpus" => cmd_both_cpus(&args),
        _ => Err("usage: hlbench run|all|aa … (see benchmark/README.md; start it through benchmark/run.sh)".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hlbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_sh(args: &[&str]) -> std::process::Output {
        Command::new("bash")
            .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/run.sh"))
            .args(args)
            .output()
            .expect("bash runs run.sh")
    }

    /// `run.sh --smoke` end to end: both builds, all six workloads
    /// untraced and traced on the small store, daemons and all.
    #[test]
    fn smoke_set_emits_every_declared_metric_within_30_s() {
        let built = run_sh(&["--build-only"]);
        assert!(
            built.status.success(),
            "build failed: {}",
            String::from_utf8_lossy(&built.stderr)
        );
        let started = Instant::now();
        let out = run_sh(&["--smoke"]);
        let elapsed = started.elapsed();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "smoke set failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            elapsed < Duration::from_secs(30),
            "smoke set took {elapsed:?}"
        );

        let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(spec_path).unwrap()).unwrap();
        for section in ["end_to_end", "per_layer"] {
            for metric in spec.get(section).and_then(Value::as_array).unwrap() {
                let name = metric.get("name").and_then(Value::as_str).unwrap();
                let unit = metric.get("unit").and_then(Value::as_str).unwrap();
                // Printed once per workload as "  <name>   <value> <unit>".
                let printed = stdout
                    .lines()
                    .filter(|l| {
                        let mut words = l.split_whitespace();
                        words.next() == Some(name) && words.nth(1) == Some(unit)
                    })
                    .count();
                assert_eq!(
                    printed,
                    WORKLOADS.len(),
                    "{name} [{unit}] printed {printed} times"
                );
            }
        }
    }

    #[test]
    fn only_a_clean_run_exits_zero() {
        let clean = Tally {
            attempted: 10,
            checked: 2,
            ..Tally::default()
        };
        assert_eq!(exit_code(&clean), 0);
        assert_eq!(exit_code(&Tally { wrong: 1, ..clean }), 1);
        assert_eq!(exit_code(&Tally { errors: 1, ..clean }), 1);
        assert_eq!(
            exit_code(&Tally::default()),
            1,
            "nothing attempted is not a pass"
        );
    }
}
