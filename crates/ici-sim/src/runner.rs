//! The fault-free runs.
//!
//! [`run`] takes any [`Strategy`] through the one round loop under a
//! plan that schedules nothing. The loop reduces it to the one
//! [`RunSummary`], whose paper-table fields are what the paper's tables
//! report: per-node storage, per-block communication, commit latency,
//! and throughput. The caller names the strategy once, as in
//! `run::<IciNetwork>(…)`; the bench binaries are thin loops over it.

use ici_chain::genesis::GenesisConfig;
use ici_faults::plan::{FaultPlan, RoundFaults};
use ici_workload::WorkloadConfig;

use crate::fault_run::{drive, RunSummary, StageChurn};
use crate::strategy::Strategy;

/// `part / whole`, or `when_empty` if there is no whole.
pub(crate) fn ratio(part: f64, whole: f64, when_empty: f64) -> f64 {
    if whole == 0.0 {
        when_empty
    } else {
        part / whole
    }
}

/// The genesis every run starts from: each workload account funded
/// with a balance large enough that no run exhausts a sender.
pub(crate) fn genesis_for(workload: &WorkloadConfig) -> GenesisConfig {
    GenesisConfig::uniform(workload.accounts, u64::MAX / 1_000_000)
}

/// Runs `S` for `rounds` rounds, each committing one block of
/// `txs_per_block` transactions on every lane, under the root span
/// [`Strategy::RUN_SPAN`] (`sim/run_ici`, …): the one round loop
/// ([`crate::fault_run::run_under_faults`]) under a plan whose every
/// round is quiet. RapidChain's shards progress in parallel, so it
/// commits one block per shard a round.
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
    let _span = ici_telemetry::span!(S::RUN_SPAN);
    let strategy = S::build(config, genesis_for(&workload));
    let quiet = vec![RoundFaults::default(); rounds];
    let plan =
        FaultPlan::from_rounds(strategy.groups(), quiet).expect("a quiet round names no node");
    let (strategy, summary) = drive(
        strategy,
        plan,
        StageChurn::default(),
        txs_per_block,
        workload,
    );
    assert_eq!(
        summary.skipped_rounds, 0,
        "every block commits in a quiet run"
    );
    (strategy, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_baselines::full::{FullConfig, FullReplicationNetwork};
    use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
    use ici_core::config::IciConfig;
    use ici_core::network::IciNetwork;
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
        let (network, summary) = run::<IciNetwork>(config, 4, 6, workload());
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
        let (_, summary) = run::<FullReplicationNetwork>(config, 4, 6, workload());
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
        let (network, summary) = run::<RapidChainNetwork>(config, 2, 5, workload());
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
        let (_, ici) = run::<IciNetwork>(ici_cfg, 5, 8, workload());
        let full_cfg = FullConfig {
            nodes: 32,
            link: LinkModel::quiet(),
            seed: 1,
            ..FullConfig::default()
        };
        let (_, full) = run::<FullReplicationNetwork>(full_cfg, 5, 8, workload());
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
        let (_, a) = run::<IciNetwork>(config(), 3, 4, workload());
        let (_, b) = run::<IciNetwork>(config(), 3, 4, workload());
        assert_eq!(a, b);
    }
}
