//! Shared scaffolding for the experiment binaries (`src/bin/e*.rs`).
//!
//! Every binary regenerates one table/figure of the paper's evaluation
//! (see `DESIGN.md` for the per-experiment index). Two scales are
//! supported:
//!
//! * **small** (default) — laptop-friendly populations that preserve the
//!   parameter *ratios* the paper's claims depend on (notably
//!   `shards · r / cluster_size = 0.25`);
//! * **paper** (`--paper` flag) — the abstract's scale (thousands of
//!   nodes, RapidChain committees of 250). Slower; same code path.
//!
//! Results print as ASCII tables and are archived as JSON under
//! `results/`.

// `deny` (not `forbid`) so the `alloc` module can carve out the one
// `GlobalAlloc` impl the counting allocator needs; see lint.toml
// `unsafe_files`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod harness;

use std::path::PathBuf;

use ici_net::link::LinkModel;
use ici_sim::report::ExperimentRecord;
use ici_sim::table::Table;
use ici_workload::{PayloadSize, WorkloadConfig};

/// Experiment scale selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-friendly populations (default).
    Small,
    /// The abstract's populations (`--paper`).
    Paper,
}

impl Scale {
    /// Parses the process arguments: `--paper` selects [`Scale::Paper`].
    ///
    /// Also initializes telemetry (`ICI_TELEMETRY=1`) and causal tracing
    /// (`ICI_TRACE=1`) from the environment, since every experiment
    /// binary calls this exactly once at startup.
    pub fn from_args() -> Scale {
        ici_telemetry::init_from_env();
        ici_trace::init_from_env();
        if std::env::args().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Small
        }
    }
}

/// Parses `--seed N` from the process arguments (default 42); a
/// malformed or missing value prints `error: …` and exits 2, so a typo
/// never runs — and labels its record with — a different experiment.
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    parse_seed(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The seed `--seed N` names in `args`, 42 when the flag is absent.
fn parse_seed(args: &[String]) -> Result<u64, String> {
    let Some(i) = args.iter().position(|a| a == "--seed") else {
        return Ok(42);
    };
    let value = args.get(i + 1).ok_or("--seed needs a value")?;
    value.parse().map_err(|e| format!("--seed {value}: {e}"))
}

/// Network sizes for a strategy-comparison sweep.
pub fn network_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![128, 256, 512],
        Scale::Paper => vec![1_000, 2_000, 4_000],
    }
}

/// ICI cluster size at each scale (64 in the paper regime).
pub fn cluster_size(scale: Scale) -> usize {
    match scale {
        Scale::Small => 16,
        Scale::Paper => 64,
    }
}

/// RapidChain committee size at each scale (250 in the paper regime).
///
/// Chosen so that at the top of the sweep `shards · r / c = 0.25` with
/// `r = 1` — the abstract's headline point.
pub fn committee_size(scale: Scale) -> usize {
    match scale {
        Scale::Small => 128,
        Scale::Paper => 250,
    }
}

/// The standard experiment workload: 256 funded accounts, Zipf senders,
/// 200-byte payloads.
pub fn standard_workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 256,
        senders: ici_workload::SenderDistribution::Zipf { exponent: 1.0 },
        payload: PayloadSize::Fixed(200),
        amount: 1,
        fee: 1,
        fee_jitter: 0,
        seed,
    }
}

/// Jitter-free link model so experiment tables are exactly reproducible.
pub fn quiet_link() -> LinkModel {
    LinkModel {
        max_jitter_ms: 0.0,
        ..LinkModel::default()
    }
}

/// Blocks per run at each scale.
pub fn block_count(scale: Scale) -> usize {
    match scale {
        Scale::Small => 20,
        Scale::Paper => 40,
    }
}

/// Transactions per block at each scale.
pub fn txs_per_block(scale: Scale) -> usize {
    match scale {
        Scale::Small => 40,
        Scale::Paper => 100,
    }
}

/// Prints tables and archives the experiment record under `results/`.
///
/// When telemetry is enabled (`ICI_TELEMETRY=1`) the record gains a
/// `telemetry` section with the run's counters, histograms, and spans,
/// plus the per-round `series` the runners sampled, and a top-spans
/// profile plus a flame graph over the span-event ring are printed
/// after the tables.
///
/// When tracing is enabled (`ICI_TRACE=1`) the run's causal event log
/// is additionally exported next to the record as
/// `TRACE_<id>.json` (canonical event log) and
/// `TRACE_<id>.chrome.json` (Chrome trace-event / Perfetto format),
/// under `ICI_TRACE_OUT` (default `results/`).
pub fn emit(id: &str, title: &str, params: &str, tables: &[&Table]) {
    for table in tables {
        println!("{table}");
    }
    let record = ExperimentRecord::new(id, title, params, tables)
        .with_telemetry()
        .with_series();
    if let Some(snapshot) = &record.telemetry {
        print_top_spans(snapshot, 5);
        println!("{}", ici_telemetry::render_flamegraph(snapshot, 40));
    }
    let path = PathBuf::from("results").join(format!("{}.json", id.to_lowercase()));
    match record.write_json(&path) {
        Ok(()) => println!("[saved {}]\n", path.display()),
        Err(e) => eprintln!("[warn: could not save {}: {e}]", path.display()),
    }
    export_trace(id);
}

/// Writes the trace collected so far to `ICI_TRACE_OUT` when tracing is
/// enabled; a no-op otherwise. Resets the collector afterwards so a
/// multi-experiment process never bleeds events across `emit` calls.
fn export_trace(id: &str) {
    if !ici_trace::enabled() {
        return;
    }
    let snap = ici_trace::snapshot();
    ici_trace::reset();
    let dir = PathBuf::from(ici_trace::out_dir());
    let lower = id.to_lowercase();
    for (suffix, body) in [
        (".json", ici_trace::export::canonical_json(id, &snap)),
        (".chrome.json", ici_trace::export::chrome_json(&snap)),
    ] {
        let path = dir.join(format!("TRACE_{lower}{suffix}"));
        let write = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body));
        match write {
            Ok(()) => println!(
                "[saved {} ({} events, {} dropped)]",
                path.display(),
                snap.events.len(),
                snap.dropped
            ),
            Err(e) => eprintln!("[warn: could not save {}: {e}]", path.display()),
        }
    }
}

/// Prints the `n` spans with the largest self time, one line each.
pub fn print_top_spans(snapshot: &ici_telemetry::TelemetrySnapshot, n: usize) {
    let top = snapshot.top_spans_by_self_time(n);
    if top.is_empty() {
        return;
    }
    println!("top {} spans by self time:", top.len());
    for s in top {
        let label = if s.label.is_empty() {
            String::new()
        } else {
            format!(" [{}]", s.label)
        };
        println!(
            "  {:<28}{} count={:<6} self={:>10} total={:>10}",
            s.name,
            label,
            s.count,
            harness::fmt_ns(s.self_ns as u128),
            harness::fmt_ns(s.total_ns as u128),
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_invariant_holds_at_both_scales() {
        for scale in [Scale::Small, Scale::Paper] {
            let n = *network_sizes(scale).last().expect("non-empty");
            let shards = n.div_ceil(committee_size(scale));
            let ratio = shards as f64 / cluster_size(scale) as f64; // r = 1
            assert!(
                (ratio - 0.25).abs() < 0.01,
                "{scale:?}: k={shards}, c={}, ratio {ratio}",
                cluster_size(scale)
            );
        }
    }

    #[test]
    fn scale_parsing_defaults_small() {
        // No --paper in the test harness args.
        assert_eq!(Scale::from_args(), Scale::Small);
    }

    #[test]
    fn seed_is_parsed_or_refused() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_seed(&args(&["e_fault", "--paper"])), Ok(42));
        assert_eq!(parse_seed(&args(&["e_fault", "--seed", "7"])), Ok(7));
        let malformed = parse_seed(&args(&["e_fault", "--seed", "4x2"]));
        assert!(malformed.is_err_and(|e| e.contains("4x2")));
        assert!(parse_seed(&args(&["e_fault", "--seed"])).is_err());
    }

    #[test]
    fn workload_is_funded_and_deterministic() {
        let w = standard_workload(1);
        assert_eq!(w.accounts, 256);
        assert_eq!(standard_workload(1), standard_workload(1));
    }
}
