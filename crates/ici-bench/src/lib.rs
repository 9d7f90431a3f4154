//! Shared scaffolding for the experiments (`src/experiments/e*.rs`, one
//! row each of the `ici-bench` binary's table).
//!
//! Every experiment regenerates one table/figure of the paper's
//! evaluation (see `DESIGN.md` for the per-experiment index) and returns
//! it as a [`Report`]. Two scales are supported:
//!
//! * **small** (default) — laptop-friendly populations that preserve the
//!   parameter *ratios* the paper's claims depend on (notably
//!   `shards · r / cluster_size = 0.25`);
//! * **paper** (`--paper` flag) — the abstract's scale (thousands of
//!   nodes, RapidChain committees of 250). Slower; same code path.
//!
//! [`emit`] prints a report as ASCII tables and archives it as JSON
//! under `results/`.

// `deny` (not `forbid`) so the `alloc` module can carve out the one
// `GlobalAlloc` impl the counting allocator needs; see lint.toml
// `unsafe_files`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod harness;

use std::path::PathBuf;

use ici_baselines::full::{FullConfig, FullReplicationNetwork};
use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
use ici_core::config::{IciConfig, IciConfigBuilder};
use ici_core::network::IciNetwork;
use ici_net::link::LinkModel;
use ici_sim::report::ExperimentRecord;
use ici_sim::table::Table;
use ici_sim::{run, RunSummary};
use ici_workload::{PayloadSize, WorkloadConfig};

/// Experiment scale selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-friendly populations (default).
    Small,
    /// The abstract's populations (`--paper`).
    Paper,
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

/// The jitter-free [`LinkModel::quiet`], so experiment tables are
/// exactly reproducible.
pub fn quiet_link() -> LinkModel {
    LinkModel::quiet()
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

/// [`IciConfig`] builder preset with what every experiment shares: the
/// population, `r`, the jitter-free link and the seed. Experiments that
/// vary clustering, assignment or genesis continue the chain.
pub fn ici_builder(
    nodes: usize,
    cluster_size: usize,
    replication: usize,
    seed: u64,
) -> IciConfigBuilder {
    IciConfig::builder()
        .nodes(nodes)
        .cluster_size(cluster_size)
        .replication(replication)
        .link(quiet_link())
        .seed(seed)
}

/// [`ici_builder`], built.
///
/// # Panics
///
/// If the population cannot form one cluster of `cluster_size` holding
/// `replication` replicas — a typo in an experiment's constants.
pub fn ici_config(nodes: usize, cluster_size: usize, replication: usize, seed: u64) -> IciConfig {
    ici_builder(nodes, cluster_size, replication, seed)
        .build()
        .expect("valid configuration")
}

/// Full replication on the jitter-free link.
pub fn full_config(nodes: usize, seed: u64) -> FullConfig {
    FullConfig {
        nodes,
        link: quiet_link(),
        seed,
        ..FullConfig::default()
    }
}

/// RapidChain committees on the jitter-free link.
pub fn rapidchain_config(nodes: usize, committee_size: usize, seed: u64) -> RapidChainConfig {
    RapidChainConfig {
        nodes,
        committee_size,
        link: quiet_link(),
        seed,
        ..RapidChainConfig::default()
    }
}

/// One network size of the strategy comparison (E1, E3, E7): full
/// replication, RapidChain and ICI with `replication` owners, in that
/// order, on the standard workload at the scale's cluster and committee
/// sizes. Returns the ICI network and the three summaries.
///
/// RapidChain commits one block per shard per round, so it runs
/// `blocks / shards` rounds to ICI's `blocks` and the tables compare
/// each system against its own ledger (the fair normalisation).
pub fn compare_strategies(
    scale: Scale,
    nodes: usize,
    replication: usize,
    seed: u64,
) -> (IciNetwork, [RunSummary; 3]) {
    let (blocks, txs) = (block_count(scale), txs_per_block(scale));
    let (c, m) = (cluster_size(scale), committee_size(scale));
    let workload = standard_workload(seed);
    let (_, full) = run::<FullReplicationNetwork>(full_config(nodes, seed), blocks, txs, workload);
    let rounds = (blocks / nodes.div_ceil(m)).max(1);
    let (_, rapid) =
        run::<RapidChainNetwork>(rapidchain_config(nodes, m, seed), rounds, txs, workload);
    let (ici_net, ici) = run::<IciNetwork>(
        ici_config(nodes, c, replication, seed),
        blocks,
        txs,
        workload,
    );
    (ici_net, [full, rapid, ici])
}

/// A two-column `metric | value` table: the shape of a run summary.
pub fn metric_table(
    title: impl Into<String>,
    rows: impl IntoIterator<Item = (&'static str, String)>,
) -> Table {
    let mut table = Table::new(title, ["metric", "value"]);
    for (metric, value) in rows {
        table.row([metric.to_string(), value]);
    }
    table
}

/// What an experiment returns: the record's fields plus an optional
/// line printed after the tables.
#[derive(Clone, Debug)]
pub struct Report {
    /// Record id (`"E1"`, `"E_fault"`); lower-cased it is the stem of
    /// `results/<stem>.json` and the experiment's name on the command
    /// line.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Free-form parameter description.
    pub params: String,
    /// Result tables, in print order.
    pub tables: Vec<Table>,
    /// Closing line printed after the record is saved.
    pub closing: Option<String>,
}

impl Report {
    /// The deterministic record: no telemetry, no series.
    pub fn record(&self) -> ExperimentRecord {
        let tables: Vec<&Table> = self.tables.iter().collect();
        ExperimentRecord::new(self.id, self.title, self.params.as_str(), &tables)
    }
}

/// Clears this thread's telemetry, trace and per-round series, so each
/// run of a multi-experiment process records only itself.
pub fn reset_collectors() {
    ici_telemetry::reset();
    ici_trace::reset();
    ici_trace::series::drain();
}

/// Prints the report and archives its record under `results/`.
///
/// When telemetry is enabled (`ICI_TELEMETRY=1`) the record gains a
/// `telemetry` section with the run's counters, histograms, and spans,
/// plus the per-round `series` the runners sampled, and a top-spans
/// profile plus a flame graph of the span call tree are printed after
/// the tables.
///
/// When tracing is enabled (`ICI_TRACE=1`) the run's causal event log
/// is additionally exported next to the record as
/// `TRACE_<id>.json` (canonical event log) and
/// `TRACE_<id>.chrome.json` (Chrome trace-event / Perfetto format),
/// under `ICI_TRACE_OUT` (default `results/`).
pub fn emit(report: &Report) {
    for table in &report.tables {
        println!("{table}");
    }
    let record = report.record().with_telemetry().with_series();
    if let Some(snapshot) = &record.telemetry {
        print_top_spans(snapshot, 5);
        println!("{}", ici_telemetry::render_flamegraph(snapshot, 40));
    }
    let stem = report.id.to_lowercase();
    let path = PathBuf::from("results").join(format!("{stem}.json"));
    match record.write_json(&path) {
        Ok(()) => println!("[saved {}]\n", path.display()),
        Err(e) => eprintln!("[warn: could not save {}: {e}]", path.display()),
    }
    export_trace(report.id);
    if let Some(line) = &report.closing {
        println!("{line}");
    }
}

/// Writes the trace collected so far to `ICI_TRACE_OUT` when tracing is
/// enabled; a no-op otherwise.
fn export_trace(id: &str) {
    if !ici_trace::enabled() {
        return;
    }
    let snap = ici_trace::snapshot();
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
    fn workload_is_funded_and_deterministic() {
        let w = standard_workload(1);
        assert_eq!(w.accounts, 256);
        assert_eq!(standard_workload(1), standard_workload(1));
    }
}
