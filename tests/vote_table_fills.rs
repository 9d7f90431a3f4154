//! How often a RapidChain run fills a committee's pair-delay table,
//! read from the `consensus/vote_table_fills` counter.
//!
//! On a quiet link a vote round runs in closed form over a `c × c`
//! table of pair delays, which depends only on the committee, its
//! members' coordinates and the link. Each committee keeps its own
//! table, so a run fills one per committee however many rounds it
//! commits; a buffer shared by the committees would refill at every
//! shard commit. The per-committee vote quorum instants are the same
//! either way (`tests/runner_golden.rs`, `results/e*.json`). One test:
//! it turns the process-global telemetry flag on.

use icistrategy::net::link::LinkModel;
use icistrategy::prelude::*;
use icistrategy::workload::SenderDistribution;

const FILLS: &str = "consensus/vote_table_fills";

fn fills() -> u64 {
    icistrategy::telemetry::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == FILLS)
        .map(|c| c.value)
        .sum()
}

#[test]
fn each_committee_fills_its_delay_table_once_per_run() {
    icistrategy::telemetry::set_enabled(true);
    icistrategy::telemetry::reset();
    let (nodes, committee, rounds) = (128, 32, 6);
    let mut net = RapidChainNetwork::new(RapidChainConfig {
        nodes,
        committee_size: committee,
        link: LinkModel::quiet(),
        genesis: GenesisConfig::uniform(64, 1_000_000),
        seed: 5,
    });
    let shards = net.shard_count();
    assert_eq!(shards, 4);
    // One generator per shard, so nonces run in order inside each shard.
    let mut generators: Vec<WorkloadGenerator> = (0..shards as u64)
        .map(|seed| {
            WorkloadGenerator::new(WorkloadConfig {
                accounts: 64,
                senders: SenderDistribution::Uniform,
                seed,
                ..WorkloadConfig::default()
            })
        })
        .collect();
    for round in 0..rounds {
        let batches = generators
            .iter_mut()
            .enumerate()
            .map(|(shard, generator)| (shard, generator.batch(10)))
            .collect();
        let heights = net.propose_round(batches);
        assert!(
            heights.iter().all(Option::is_some),
            "round {round}: every shard commits"
        );
        assert_eq!(
            fills(),
            shards as u64,
            "{FILLS} after round {round}: one table a committee, not one a shard commit"
        );
    }
    assert_eq!(net.commit_log().len(), shards * rounds);
}
