//! The fault-free runs.
//!
//! [`run`] takes any [`Strategy`] through the one round loop under a
//! plan that schedules nothing and reduces the run to a [`RunSummary`]
//! with the quantities the paper's tables report: per-node storage,
//! per-block communication, commit latency, and throughput. [`run_ici`],
//! [`run_full`] and [`run_rapidchain`] are its three instantiations; the
//! bench binaries are thin loops over them.

use ici_baselines::full::{FullConfig, FullReplicationNetwork};
use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
use ici_chain::genesis::GenesisConfig;
use ici_core::config::IciConfig;
use ici_core::network::IciNetwork;
use ici_faults::plan::{FaultPlan, RoundFaults};
use ici_storage::stats::StorageStats;
use ici_workload::WorkloadConfig;

use crate::fault_run::{drive, StageChurn};
use crate::latency::LatencyStats;
use crate::strategy::Strategy;

/// `part / whole`, or `when_empty` if there is no whole.
pub(crate) fn ratio(part: f64, whole: f64, when_empty: f64) -> f64 {
    if whole == 0.0 {
        when_empty
    } else {
        part / whole
    }
}

/// One strategy's run, reduced to the reported quantities.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Strategy label for tables.
    pub strategy: String,
    /// Nodes simulated.
    pub nodes: usize,
    /// Blocks committed (excluding genesis; RapidChain counts all shards).
    pub committed_blocks: u64,
    /// Transactions committed.
    pub total_txs: u64,
    /// Per-node storage statistics.
    pub storage: StorageStats,
    /// Bytes of one full ledger replica (denominator for ratios).
    pub ledger_bytes: u64,
    /// Mean messages per committed block.
    pub mean_block_messages: f64,
    /// Mean bytes per committed block.
    pub mean_block_bytes: f64,
    /// Commit latency statistics.
    pub commit_latency: LatencyStats,
    /// Committed transactions per simulated second.
    pub throughput_tps: f64,
    /// Final simulated clock in milliseconds.
    pub final_clock_ms: f64,
}

impl RunSummary {
    /// Per-node mean storage over the full-replica size, in `[0, 1]`.
    pub fn storage_fraction(&self) -> f64 {
        ratio(self.storage.mean, self.ledger_bytes as f64, 0.0)
    }

    /// Reduces a finished run to the reported quantities.
    fn of<S: Strategy>(strategy: &S) -> RunSummary {
        let (mut blocks, mut txs, mut messages, mut bytes) = (0u64, 0u64, 0u64, 0u64);
        for commit in strategy.commits() {
            blocks += 1;
            txs += u64::from(commit.tx_count);
            messages += commit.messages;
            bytes += commit.bytes;
        }
        let per_block = |total: u64| ratio(total as f64, blocks as f64, 0.0);
        let final_clock_ms = strategy.now().as_micros() as f64 / 1_000.0;
        RunSummary {
            strategy: S::LABEL.into(),
            nodes: strategy.net().len(),
            committed_blocks: blocks,
            total_txs: txs,
            storage: StorageStats::from_bytes(strategy.stored_bytes()),
            ledger_bytes: strategy.ledger_bytes(),
            mean_block_messages: per_block(messages),
            mean_block_bytes: per_block(bytes),
            commit_latency: LatencyStats::from_durations(strategy.commits().map(|c| c.latency)),
            throughput_tps: ratio(txs as f64, final_clock_ms / 1_000.0, 0.0),
            final_clock_ms,
        }
    }
}

/// The genesis every run starts from: each workload account funded
/// with a balance large enough that no run exhausts a sender.
pub(crate) fn genesis_for(workload: &WorkloadConfig) -> GenesisConfig {
    GenesisConfig::uniform(workload.accounts, u64::MAX / 1_000_000)
}

/// Runs `S` for `rounds` rounds, each committing one block of
/// `txs_per_block` transactions on every lane: the one round loop
/// ([`crate::fault_run::run_under_faults`]) under a plan whose every
/// round is quiet, reduced to a [`RunSummary`].
///
/// The genesis allocation is derived from the workload so every
/// generated transaction is funded.
///
/// # Panics
///
/// Panics if the configuration is invalid or a block fails to commit
/// (all nodes are honest and live here; use
/// [`crate::fault_run::run_under_faults`] for crash experiments).
pub fn run<S: Strategy>(
    config: S::Config,
    rounds: usize,
    txs_per_block: usize,
    workload: WorkloadConfig,
) -> (S, RunSummary) {
    let strategy = S::build(config, genesis_for(&workload));
    let quiet = vec![RoundFaults::default(); rounds];
    let plan =
        FaultPlan::from_rounds(strategy.groups(), quiet).expect("a quiet round names no node");
    let (strategy, faults) = drive(
        strategy,
        plan,
        StageChurn::default(),
        txs_per_block,
        workload,
    );
    assert_eq!(
        faults.skipped_rounds, 0,
        "every block commits in a quiet run"
    );
    let summary = RunSummary::of(&strategy);
    (strategy, summary)
}

/// [`run`] for ICIStrategy: `blocks` blocks of `txs_per_block`
/// transactions, one a round through [`Strategy::propose`] →
/// [`IciNetwork::propose_block_staged`].
pub fn run_ici(
    config: IciConfig,
    blocks: usize,
    txs_per_block: usize,
    workload: WorkloadConfig,
) -> (IciNetwork, RunSummary) {
    let _span = ici_telemetry::span!("sim/run_ici");
    run(config, blocks, txs_per_block, workload)
}

/// [`run`] for the full-replication baseline.
pub fn run_full(
    config: FullConfig,
    blocks: usize,
    txs_per_block: usize,
    workload: WorkloadConfig,
) -> (FullReplicationNetwork, RunSummary) {
    let _span = ici_telemetry::span!("sim/run_full");
    run(config, blocks, txs_per_block, workload)
}

/// [`run`] for the RapidChain baseline: each of `rounds` rounds commits
/// one block of `txs_per_block` per shard (shards progress in parallel).
pub fn run_rapidchain(
    config: RapidChainConfig,
    rounds: usize,
    txs_per_block: usize,
    workload: WorkloadConfig,
) -> (RapidChainNetwork, RunSummary) {
    let _span = ici_telemetry::span!("sim/run_rapidchain");
    run(config, rounds, txs_per_block, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_net::link::LinkModel;

    fn workload() -> WorkloadConfig {
        WorkloadConfig {
            accounts: 32,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn ici_run_produces_consistent_summary() {
        let config = IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .link(LinkModel::quiet())
            .build()
            .expect("valid");
        let (network, summary) = run_ici(config, 4, 6, workload());
        assert_eq!(summary.committed_blocks, 4);
        assert_eq!(summary.total_txs, 24);
        assert_eq!(summary.storage.nodes, 24);
        assert!(summary.throughput_tps > 0.0);
        assert!(summary.storage_fraction() < 1.0);
        assert_eq!(network.chain_len(), 5);
    }

    #[test]
    fn full_run_stores_everything() {
        let config = FullConfig {
            nodes: 24,
            link: LinkModel::quiet(),
            seed: 1,
            ..FullConfig::default()
        };
        let (_, summary) = run_full(config, 4, 6, workload());
        assert_eq!(summary.committed_blocks, 4);
        assert!((summary.storage_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rapidchain_run_commits_in_every_shard() {
        let config = RapidChainConfig {
            nodes: 40,
            committee_size: 10,
            link: LinkModel::quiet(),
            seed: 1,
            ..RapidChainConfig::default()
        };
        let (network, summary) = run_rapidchain(config, 2, 5, workload());
        assert_eq!(network.shard_count(), 4);
        assert_eq!(summary.committed_blocks, 8);
        assert_eq!(summary.total_txs, 40);
        // Each node stores ~1/k of the ledger.
        assert!(summary.storage_fraction() < 0.5);
    }

    #[test]
    fn ici_storage_fraction_is_far_below_full() {
        let ici_cfg = IciConfig::builder()
            .nodes(32)
            .cluster_size(16)
            .replication(2)
            .link(LinkModel::quiet())
            .build()
            .expect("valid");
        let (_, ici) = run_ici(ici_cfg, 5, 8, workload());
        let full_cfg = FullConfig {
            nodes: 32,
            link: LinkModel::quiet(),
            seed: 1,
            ..FullConfig::default()
        };
        let (_, full) = run_full(full_cfg, 5, 8, workload());
        assert!(
            ici.storage.mean < full.storage.mean / 3.0,
            "ici {} vs full {}",
            ici.storage.mean,
            full.storage.mean
        );
    }

    #[test]
    fn same_seed_same_summary() {
        let config = || {
            IciConfig::builder()
                .nodes(16)
                .cluster_size(8)
                .replication(2)
                .link(LinkModel::quiet())
                .build()
                .expect("valid")
        };
        let (_, a) = run_ici(config(), 3, 4, workload());
        let (_, b) = run_ici(config(), 3, 4, workload());
        assert_eq!(a, b);
    }
}
