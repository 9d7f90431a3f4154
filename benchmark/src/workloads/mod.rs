//! The six workloads and what they share: the shape of one repetition,
//! the timed-region bracket, and the ledger a traced run fills.
//!
//! Every workload is a closed loop with one client: the next operation
//! is issued only when the previous one returned. A repetition builds
//! its system and inputs from scratch (that is `setup_s`), runs the
//! timed region, and reads the simulated quantities out afterwards.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::catalog::{self, Reported};
use crate::recorder::Recorder;
use crate::stats::{self, Summary};
use crate::surface;

pub mod churn;
pub mod compare;
pub mod lifecycle;
pub mod read;
pub mod scale;

/// Sizes divide by this under `--smoke`.
const SMOKE_DIVISOR: usize = 20;

/// `full`, or a twentieth of it (at least `floor`) under `--smoke`.
pub fn sized(full: usize, floor: usize, smoke: bool) -> usize {
    if smoke {
        (full / SMOKE_DIVISOR).max(floor)
    } else {
        full
    }
}

/// How much checking a repetition does outside its timed region. The
/// outputs are pure functions of the seed, so the expensive checks run
/// once (on the warm-up repetition) and every timed repetition is then
/// compared with it bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Checks {
    Full,
    Light,
}

/// The simulated end-to-end quantities: functions of the seed alone.
/// `None` is *n/a*: the workload has no such quantity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Simulated {
    pub virt_op_ms_p50: Option<f64>,
    pub virt_op_ms_p95: Option<f64>,
    pub virt_tps: Option<f64>,
    pub net_kib_per_op: Option<f64>,
    pub net_msgs_per_op: Option<f64>,
    pub storage_fraction: Option<f64>,
    pub storage_vs_rapidchain: Option<f64>,
    /// Chain tips or state roots the run ended on: the determinism
    /// witness compared across repetitions, not a metric.
    pub witness: String,
}

impl Simulated {
    /// Median and 95th percentile of simulated latencies (µs → ms).
    pub fn set_latencies(&mut self, latencies_us: &[u64]) {
        let mut sorted = latencies_us.to_vec();
        sorted.sort_unstable();
        self.virt_op_ms_p50 = Some(stats::percentile(&sorted, 50.0) as f64 / 1e3);
        self.virt_op_ms_p95 = Some(stats::percentile(&sorted, 95.0) as f64 / 1e3);
    }

    /// Traffic totals over `ops` operations.
    pub fn set_traffic(&mut self, messages: u64, bytes: u64, ops: u64) {
        self.net_kib_per_op = Some(bytes as f64 / 1024.0 / ops as f64);
        self.net_msgs_per_op = Some(messages as f64 / ops as f64);
    }
}

/// One repetition's readings.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Operations attempted in the timed region.
    pub ops: u64,
    /// Of those, refused because of an injected fault (a skipped round).
    /// An operation that fails for any other reason ends the run, so a
    /// repetition that exists has none.
    pub refused: u64,
    /// Transactions committed or returned to a reader.
    pub txs: u64,
    /// Host nanoseconds per operation, where operations can be told
    /// apart, in groups of like operations (one group, except where a
    /// workload runs several systems side by side).
    pub op_ns: Vec<Vec<f64>>,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub simulated: Simulated,
}

impl Rep {
    /// Median host milliseconds per operation: the median of each
    /// group, averaged over the groups (the median of a mixture of
    /// unlike populations jumps between them from run to run). The
    /// mean where the timed region is one opaque call.
    pub fn op_ms_p50(&self) -> f64 {
        let medians: Vec<f64> = self
            .op_ns
            .iter()
            .filter_map(|group| stats::summarize(group))
            .map(|s| s.p50 / 1e6)
            .collect();
        if medians.is_empty() {
            self.wall_s * 1e3 / self.ops as f64
        } else {
            medians.iter().sum::<f64>() / medians.len() as f64
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.refused as f64 / self.ops as f64
    }
}

/// Runs `f` as the timed region of `rep`.
pub fn timed<T>(rep: &mut Rep, f: impl FnOnce() -> T) -> T {
    let before = surface::alloc_counters();
    let start = Instant::now();
    let out = f();
    rep.wall_s = start.elapsed().as_secs_f64();
    let after = surface::alloc_counters();
    rep.allocs = after.count - before.count;
    rep.alloc_bytes = after.bytes - before.bytes;
    out
}

/// Stamps the end of each operation; the differences are `op_ns`.
pub struct OpClock {
    last: Instant,
    pub op_ns: Vec<f64>,
}

impl OpClock {
    pub fn start(capacity: usize) -> OpClock {
        OpClock {
            op_ns: Vec::with_capacity(capacity),
            last: Instant::now(),
        }
    }

    /// The operation that began at the previous lap (or at `start`)
    /// just completed.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.op_ns.push((now - self.last).as_nanos() as f64);
        self.last = now;
    }
}

/// One value of the per-layer ledger with what it was computed from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LedgerValue {
    pub value: f64,
    /// Samples behind the value (0 for a count or ratio).
    pub samples: usize,
    /// The percentile a `_p50` / `_tail` value is.
    pub percentile: Option<f64>,
}

/// What a traced run measured, keyed by reported name.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<String, LedgerValue>,
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(
            name.to_string(),
            LedgerValue {
                value,
                samples: 0,
                percentile: None,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<LedgerValue> {
        self.values.get(name).copied()
    }

    /// Sets the `_p50` and `_tail` rows of timing `name` from samples
    /// in nanoseconds; `unit_ns` is the row's unit in nanoseconds.
    pub fn set_timing(&mut self, name: &str, samples_ns: &[f64], unit_ns: f64) {
        if let Some(s) = stats::summarize(samples_ns) {
            self.set_summary(name, s, unit_ns);
        }
    }

    fn set_summary(&mut self, name: &str, s: Summary, unit_ns: f64) {
        for (suffix, value, p) in [("_p50", s.p50, 50.0), ("_tail", s.tail, s.tail_p)] {
            self.values.insert(
                format!("{name}{suffix}"),
                LedgerValue {
                    value: value / unit_ns,
                    samples: s.n,
                    percentile: Some(p),
                },
            );
        }
    }

    /// Fills every timing row whose name a span carries, the simulated
    /// metrics as `e2e.*`, and `core.op_us_tail` from the `core.op_us`
    /// spans.
    pub fn absorb(&mut self, rec: &Recorder, rep: &Rep) {
        for m in catalog::LAYER.iter().filter(|m| m.timing) {
            let unit_ns = match m.unit {
                "ns" => 1.0,
                "us" => 1e3,
                "ms" => 1e6,
                other => unreachable!("timing unit {other}"),
            };
            self.set_timing(m.name, &rec.samples_ns(m.name), unit_ns);
        }
        if let Some(s) = stats::summarize(&rec.samples_ns("core.op_us")) {
            self.values.insert(
                "core.op_us_tail".to_string(),
                LedgerValue {
                    value: s.tail / 1e3,
                    samples: s.n,
                    percentile: Some(s.tail_p),
                },
            );
        }
        let sim = &rep.simulated;
        for (name, value) in [
            ("e2e.virt_op_ms_p50", sim.virt_op_ms_p50),
            ("e2e.virt_op_ms_p95", sim.virt_op_ms_p95),
            ("e2e.virt_tps", sim.virt_tps),
            ("e2e.net_kib_per_op", sim.net_kib_per_op),
            ("e2e.net_msgs_per_op", sim.net_msgs_per_op),
            ("e2e.storage_fraction", sim.storage_fraction),
            ("e2e.storage_vs_rapidchain", sim.storage_vs_rapidchain),
            ("e2e.failed_share", Some(rep.failed_share())),
        ] {
            if let Some(value) = value {
                self.set(name, value);
            }
        }
    }

    /// Every reported name with its value; 0 where this workload does
    /// not measure the row.
    pub fn reported(&self) -> Vec<(Reported, Option<LedgerValue>)> {
        catalog::reported_per_layer()
            .into_iter()
            .map(|m| {
                let value = self.get(&m.name);
                (m, value)
            })
            .collect()
    }
}

/// Runs one untraced repetition of `workload`.
pub fn run_rep(workload: &str, seed: u64, smoke: bool, checks: Checks) -> Result<Rep, String> {
    let mut rec = Recorder::new(false);
    match workload {
        "ici_wide" => lifecycle::rep(&lifecycle::wide(smoke), seed, checks),
        "ici_bigblock" => lifecycle::rep(&lifecycle::bigblock(smoke), seed, checks),
        "state_scale" => scale::rep(seed, smoke, checks, &mut rec).map(|(rep, _)| rep),
        "ici_churn" => churn::rep(smoke, checks),
        "ici_read" => read::rep(seed, smoke, &mut rec).map(|(rep, _)| rep),
        "strategy_compare" => compare::rep(seed, smoke, checks).map(|(rep, _)| rep),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs the traced pass of `workload`: fills `rec` with spans and
/// `ledger` with every per-layer value the workload measures.
pub fn run_traced(
    workload: &str,
    seed: u64,
    smoke: bool,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<Rep, String> {
    let rep = match workload {
        "ici_wide" => lifecycle::traced(&lifecycle::wide(smoke), seed, rec, ledger),
        "ici_bigblock" => lifecycle::traced(&lifecycle::bigblock(smoke), seed, rec, ledger),
        "state_scale" => scale::traced(seed, smoke, rec, ledger),
        "ici_churn" => churn::traced(seed, smoke, rec, ledger),
        "ici_read" => read::traced(seed, smoke, rec, ledger),
        "strategy_compare" => compare::traced(seed, smoke, rec, ledger),
        other => Err(format!("unknown workload {other}")),
    }?;
    ledger.absorb(rec, &rep);
    Ok(rep)
}
