//! The repo's benchmark: six workloads, fifteen end-to-end metrics and
//! a per-layer ledger measured from outside. See `README.md`.
//!
//! One process runs one workload, so the monotone allocation counters
//! and the peak-live mark belong to it alone. Without `--workload` the
//! program is its own driver: it re-executes itself once per workload
//! and pass, and prints what the children printed.

mod catalog;
mod json;
mod recorder;
mod stats;
mod surface;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use catalog::{Repeat, END_TO_END, WORKLOADS};
use json::Value;
use recorder::{Phase, Recorder};
use workloads::{Checks, Ledger, Rep};

/// Timed repetitions a run makes at least, however long they take.
const MIN_REPS: usize = 3;

/// Parsed command line.
#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes (driver mode only).
    trace: Option<bool>,
    smoke: bool,
    check_repeat: bool,
    manifest: bool,
}

const USAGE: &str = "usage: ici-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--check-repeat] [--manifest]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: catalog::DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        check_repeat: false,
        manifest: false,
    };
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name}"));
                }
                out.workload = Some(name);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => out.smoke = true,
            "--check-repeat" => out.check_repeat = true,
            "--manifest" => out.manifest = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    // The measured program runs at its shipped defaults: every
    // inherited ICI_* knob is removed before anything reads one.
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ICI_"))
        .collect();
    for key in &inherited {
        std::env::remove_var(key);
    }
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", catalog::manifest().render_pretty());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        return ExitCode::from(2);
    }
    let outcome = match &args.workload {
        Some(workload) => run_one(workload, &args, &inherited),
        None if args.check_repeat => check_repeat(&args),
        None => drive(&args).map(|_| ()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("FAILED: {message}");
            ExitCode::FAILURE
        }
    }
}

// ---- one workload, one process ------------------------------------------

/// Commit the checkout is at, read from `.git` without running git.
fn git_commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map_or_else(|_| head.to_string(), |hash| hash.trim().to_string()),
        None => head.to_string(),
    }
}

fn print_fingerprint(workload: &str, args: &Args, stripped: &[String]) {
    let (base_ms, mbps, jitter_ms) = surface::link_parameters();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host {workload}: nproc={nproc} ici_par::threads={} pipeline_depth={} state_shards={} rustc=\"{}\" commit={}",
        surface::par_threads(),
        surface::pipeline_depth(),
        surface::state_shards(),
        env!("ICI_BENCHMARK_RUSTC"),
        git_commit(),
    );
    println!(
        "run  {workload}: seed={} seconds={} smoke={} closed loop, one client; injected link delay base_ms={base_ms} bandwidth_mbps={mbps} max_jitter_ms={jitter_ms}; ICI_* variables removed: {}",
        args.seed,
        args.seconds,
        args.smoke,
        if stripped.is_empty() { "none".to_string() } else { stripped.join(",") },
    );
}

/// One `metric` line: what a person reads and what the driver parses.
fn print_metric(workload: &str, name: &str, value: Option<f64>, unit: &str, note: &str) {
    let value = value.map_or_else(|| "n/a".to_string(), |v| Value::Num(v).render());
    println!("metric {workload} {name} {value} {unit} {note}");
}

/// The contract's result object. It is printed only by a run that
/// passed every check, and a failed operation fails the run, so
/// `correct` is true and `failed` is 0 whenever the line exists.
fn result_line(attempted: u64, metrics: Vec<(String, f64, &str)>) -> String {
    Value::obj([
        ("correct", Value::Bool(true)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(0.0)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let entry =
                            Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]);
                        (name, entry)
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

fn run_one(workload: &str, args: &Args, stripped: &[String]) -> Result<(), String> {
    print_fingerprint(workload, args, stripped);
    if args.trace == Some(true) {
        run_traced(workload, args)
    } else {
        run_untraced(workload, args)
    }
}

/// One discarded warm-up repetition with every correctness check, then
/// timed repetitions for `--seconds` seconds (at least [`MIN_REPS`]),
/// each from freshly built state. Host-time metrics are medians over
/// the repetitions; simulated metrics must be bit-identical in all.
fn run_untraced(workload: &str, args: &Args) -> Result<(), String> {
    let reference = workloads::run_rep(workload, args.seed, args.smoke, Checks::Full)?;
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    let min_reps = if args.smoke { 1 } else { MIN_REPS };
    while reps.len() < min_reps || (!args.smoke && started.elapsed().as_secs_f64() < args.seconds) {
        let rep = workloads::run_rep(workload, args.seed, args.smoke, Checks::Light)?;
        if rep.simulated != reference.simulated
            || (rep.ops, rep.refused) != (reference.ops, reference.refused)
        {
            return Err(format!(
                "repetition {} is not bit-identical to the warm-up: {:?} vs {:?}",
                reps.len() + 1,
                rep.simulated,
                reference.simulated
            ));
        }
        reps.push(rep);
    }

    let median = |f: &dyn Fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let sim = &reference.simulated;
    let values: BTreeMap<&str, Option<f64>> = BTreeMap::from([
        ("setup_s", Some(median(&|r| r.setup_s))),
        ("ops_per_s", Some(median(&|r| r.ops as f64 / r.wall_s))),
        ("tx_per_s", Some(median(&|r| r.txs as f64 / r.wall_s))),
        ("op_ms_p50", Some(median(&|r| r.op_ms_p50()))),
        (
            "allocs_per_op",
            Some(median(&|r| r.allocs as f64 / r.ops as f64)),
        ),
        (
            "alloc_kib_per_op",
            Some(median(&|r| r.alloc_bytes as f64 / 1024.0 / r.ops as f64)),
        ),
        (
            "peak_live_mib",
            Some(surface::alloc_counters().peak_live_bytes as f64 / (1 << 20) as f64),
        ),
        ("virt_op_ms_p50", sim.virt_op_ms_p50),
        ("virt_op_ms_p95", sim.virt_op_ms_p95),
        ("virt_tps", sim.virt_tps),
        ("net_kib_per_op", sim.net_kib_per_op),
        ("net_msgs_per_op", sim.net_msgs_per_op),
        ("storage_fraction", sim.storage_fraction),
        ("storage_vs_rapidchain", sim.storage_vs_rapidchain),
        ("failed_share", Some(reference.failed_share())),
    ]);

    let op_samples: usize = reps.iter().flat_map(|r| &r.op_ns).map(Vec::len).sum();
    for m in &END_TO_END {
        let note = match m.repeat {
            Repeat::Within(_) if m.name == "op_ms_p50" => {
                format!("(median of {} reps, {op_samples} op samples)", reps.len())
            }
            Repeat::Within(_) => format!("(median of {} reps)", reps.len()),
            Repeat::Exact => format!("(identical in {} reps)", reps.len() + 1),
        };
        print_metric(workload, m.name, values[m.name], m.unit, &note);
    }
    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let refused: u64 = reps.iter().map(|r| r.refused).sum();
    println!(
        "ops  {workload}: attempted={attempted} refused_under_injected_faults={refused} failed=0 ({} per rep)",
        reference.ops
    );
    let metrics = catalog::reported_end_to_end()
        .into_iter()
        .map(|m| {
            let value = values[m.name].expect("universal metrics are defined on every workload");
            (m.name.to_string(), value, m.unit)
        })
        .collect();
    println!("{}", result_line(attempted, metrics));
    Ok(())
}

/// Layers whose self time the lifecycle workloads must separate.
const COORDINATION: [&str; 3] = ["consensus", "storage", "net"];
const EXECUTION: [&str; 2] = ["chain", "crypto"];

/// The workloads separate the layers as designed, or the run fails.
fn check_separation(workload: &str, rec: &Recorder) -> Result<(), String> {
    let coordination = rec.phase_self_ns(Phase::Replay, &COORDINATION);
    let execution = rec.phase_self_ns(Phase::Replay, &EXECUTION);
    println!(
        "self {workload}: replay self time consensus+storage+net={:.3} ms chain+crypto={:.3} ms",
        coordination as f64 / 1e6,
        execution as f64 / 1e6
    );
    let ok = match workload {
        "ici_wide" => coordination > execution,
        "ici_bigblock" => execution > coordination,
        "state_scale" => !rec
            .spans()
            .iter()
            .any(|s| matches!(s.layer(), "net" | "consensus")),
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{workload} does not separate the layers as designed"
        ))
    }
}

fn run_traced(workload: &str, args: &Args) -> Result<(), String> {
    let mut rec = Recorder::new(true);
    let mut ledger = Ledger::default();
    let rep = workloads::run_traced(workload, args.seed, args.smoke, &mut rec, &mut ledger)?;
    check_separation(workload, &rec)?;

    let reported = ledger.reported();
    let mut metrics = Vec::new();
    let mut rows = Vec::new();
    for (m, value) in &reported {
        let note = match value {
            None => "(not measured by this workload)".to_string(),
            Some(v) => match v.percentile {
                Some(p) => format!("(p{p} of {} samples)", v.samples),
                None => String::new(),
            },
        };
        if value.is_some() {
            print_metric(workload, &m.name, value.map(|v| v.value), m.unit, &note);
        }
        metrics.push((m.name.clone(), value.map_or(0.0, |v| v.value), m.unit));
        if let Some(v) = value {
            rows.push((
                m.name.clone(),
                Value::obj([
                    ("value", Value::Num(v.value)),
                    ("unit", Value::str(m.unit)),
                    ("samples", Value::Num(v.samples as f64)),
                    ("percentile", v.percentile.map_or(Value::Null, Value::Num)),
                ]),
            ));
        }
    }
    let unmeasured = reported.iter().filter(|(_, v)| v.is_none()).count();
    println!(
        "rows {workload}: {} ledger rows measured, {unmeasured} not exercised by this workload (reported as 0)",
        reported.len() - unmeasured
    );

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let (self_time, counts) = rec.ledger_json();
    let layers = Value::obj([
        ("workload", Value::str(workload)),
        ("seed", Value::Num(args.seed as f64)),
        ("spans", Value::Num(rec.spans().len() as f64)),
        ("self_time_ns", self_time),
        ("counts", counts),
        ("metrics", Value::Obj(rows)),
    ]);
    for (file, body) in [
        (
            format!("trace_{workload}.json"),
            rec.chrome_trace().render(),
        ),
        (format!("layers_{workload}.json"), layers.render_pretty()),
    ] {
        let path = out.join(file);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("file {workload}: wrote {}", path.display());
    }
    println!(
        "ops  {workload}: attempted={} refused_under_injected_faults={} failed=0",
        rep.ops, rep.refused
    );
    println!("{}", result_line(rep.ops, metrics));
    Ok(())
}

// ---- the driver ---------------------------------------------------------

/// `(workload, metric) → (value, unit)` as the children printed them;
/// `None` is *n/a*.
type Readings = BTreeMap<(String, String), (Option<f64>, String)>;

/// Runs one child to completion, echoing its output, and collects its
/// `metric` lines.
fn run_child(
    workload: &str,
    args: &Args,
    trace: bool,
    readings: &mut Readings,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let mut child = command.spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading {workload}: {e}"))?;
        println!("{line}");
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", w, name, value, unit, ..] = fields.as_slice() {
            readings.insert(
                (w.to_string(), name.to_string()),
                (value.parse().ok(), unit.to_string()),
            );
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {workload}: {e}"))?;
    let pass = format!("{workload} (trace {})", u8::from(trace));
    if !status.success() {
        return Err(format!("{pass} exited with {status}"));
    }
    // The child's last line is the contract's result object.
    let result = json::parse(&last).map_err(|e| format!("{pass}: result line: {e}"))?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{pass} did not report correct outputs"));
    }
    match result.get("failed").and_then(Value::as_f64) {
        Some(0.0) => Ok(()),
        failed => Err(format!("{pass} reported failed operations: {failed:?}")),
    }
}

/// Runs every workload, each pass in a process of its own.
fn drive(args: &Args) -> Result<Readings, String> {
    let started = Instant::now();
    let mut readings = Readings::new();
    let passes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    for w in &WORKLOADS {
        for trace in passes {
            run_child(w.name, args, *trace, &mut readings)?;
        }
    }
    println!();
    println!(
        "end-to-end, seed {} (n/a: the workload has no such quantity)",
        args.seed
    );
    print!("{:<24}", "metric [unit]");
    for w in &WORKLOADS {
        print!(" {:>16}", w.name);
    }
    println!();
    for m in &END_TO_END {
        print!("{:<24}", format!("{} [{}]", m.name, m.unit));
        for w in &WORKLOADS {
            let cell = match readings.get(&(w.name.to_string(), m.name.to_string())) {
                Some((Some(v), _)) => format!("{v:.6}"),
                Some((None, _)) => "n/a".to_string(),
                None => "-".to_string(),
            };
            print!(" {cell:>16}");
        }
        println!();
    }
    for m in &END_TO_END {
        println!("  {:<22} {}", m.name, m.meaning);
    }
    println!(
        "all {} workloads passed every correctness check in {:.1} s",
        WORKLOADS.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(readings)
}

/// Runs the untraced set twice and compares: host-time metrics within
/// their bounds, simulated metrics and `failed_share` identical.
fn check_repeat(args: &Args) -> Result<(), String> {
    let untraced = Args {
        trace: Some(false),
        ..args.clone()
    };
    let first = drive(&untraced)?;
    let second = drive(&untraced)?;
    println!();
    println!(
        "repeatability, seed {}: second run against first",
        args.seed
    );
    let mut violations = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some((a, _)), Some((b, _))) = (first.get(&key), second.get(&key)) else {
                return Err(format!("{} {} was not reported", w.name, m.name));
            };
            let (difference, ok) = match (a, b) {
                (None, None) => (0.0, true),
                (Some(a), Some(b)) => {
                    let difference = if a == b { 0.0 } else { (b - a).abs() / a.abs() };
                    let ok = match m.repeat {
                        Repeat::Within(bound) => difference <= bound,
                        Repeat::Exact => a.to_bits() == b.to_bits(),
                    };
                    (difference, ok)
                }
                _ => (f64::INFINITY, false),
            };
            let show = |v: &Option<f64>| v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.6}"));
            let limit = match m.repeat {
                Repeat::Within(bound) => format!("within {:.1}%", bound * 100.0),
                Repeat::Exact => "identical".to_string(),
            };
            println!(
                "repeat {:<17} {:<22} {:>16} {:>16} {:>8.3}% ({limit}) {}",
                w.name,
                m.name,
                show(a),
                show(b),
                difference * 100.0,
                if ok { "ok" } else { "VIOLATED" }
            );
            if !ok {
                violations.push(format!("{} {}", w.name, m.name));
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("not repeatable: {}", violations.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(
            std::iter::once("bench")
                .chain(args.iter().copied())
                .map(String::from),
        )
    }

    #[test]
    fn arguments_follow_the_contract() {
        let a = parse(&[
            "--workload",
            "ici_read",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("ici_read"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, Some(true)));
        let d = parse(&[]).expect("parses");
        assert_eq!(
            (d.seed, d.trace, d.workload),
            (catalog::DEFAULT_SEED, None, None)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(1_000, vec![("setup_s".to_string(), 0.8127, "s")]);
        let v = json::parse(&line).expect("parses");
        let Value::Obj(pairs) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1_000.0));
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }

    /// Every workload at a twentieth of its size passes every
    /// correctness check, untraced and traced.
    #[test]
    fn smoke_run_of_all_six_workloads_is_correct() {
        let started = Instant::now();
        for w in &WORKLOADS {
            let reference = workloads::run_rep(w.name, 17, true, Checks::Full)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let again = workloads::run_rep(w.name, 17, true, Checks::Light)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(reference.simulated, again.simulated, "{}", w.name);
            assert!(reference.ops > 0, "{}", w.name);

            let mut rec = Recorder::new(true);
            let mut ledger = Ledger::default();
            workloads::run_traced(w.name, 17, true, &mut rec, &mut ledger)
                .unwrap_or_else(|e| panic!("{} traced: {e}", w.name));
            assert!(!rec.spans().is_empty(), "{}", w.name);
            assert_eq!(ledger.reported().len(), catalog::reported_per_layer().len());
        }
        // The bound is on an optimised build (this package's dev
        // profile); the workloads themselves take about five seconds.
        let elapsed = started.elapsed().as_secs_f64();
        assert!(elapsed < 20.0, "smoke run took {elapsed:.1} s");
    }
}
