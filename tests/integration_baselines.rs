//! Cross-strategy integration tests: ICIStrategy vs the baselines on the
//! same workload, asserting the *shape* of the paper's claims.

mod prop_support;

use icistrategy::net::link::LinkModel;
use icistrategy::prelude::*;
use prop_support::{crash_and_byzantine, overspending_workload, replay_from_genesis};

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 128,
        seed,
        ..WorkloadConfig::default()
    }
}

#[test]
fn storage_ordering_ici_below_rapidchain_below_full() {
    let n = 128;
    // Large payloads so bodies dominate headers — the regime where the
    // k·r/c ratio law is exact (see ici-baselines analytic tests for the
    // header-dominated edge case).
    let workload = |seed| WorkloadConfig {
        accounts: 128,
        payload: icistrategy::workload::PayloadSize::Fixed(2_000),
        seed,
        ..WorkloadConfig::default()
    };
    let (_, full) = run::<FullReplicationNetwork>(
        FullConfig {
            nodes: n,
            link: LinkModel::quiet(),
            seed: 2,
            ..FullConfig::default()
        },
        8,
        20,
        workload(2),
    );
    let (_, rapid) = run::<RapidChainNetwork>(
        RapidChainConfig {
            nodes: n,
            committee_size: 32, // 4 shards
            link: LinkModel::quiet(),
            seed: 2,
            ..RapidChainConfig::default()
        },
        2,
        20,
        workload(2),
    );
    let (_, ici) = run::<IciNetwork>(
        IciConfig::builder()
            .nodes(n)
            .cluster_size(32)
            .replication(2)
            .link(LinkModel::quiet())
            .seed(2)
            .build()
            .expect("valid configuration"),
        8,
        20,
        workload(2),
    );

    // Fractions of each system's own ledger: full = 1, rapid = 1/k,
    // ici ≈ r/c (+ headers).
    assert!((full.storage_fraction() - 1.0).abs() < 1e-9);
    assert!(rapid.storage_fraction() < 0.51);
    assert!(ici.storage_fraction() < rapid.storage_fraction());

    // The abstract's parameter regime: k·r/c of RapidChain's footprint.
    let ratio = ici.storage_fraction() / rapid.storage_fraction();
    let expected = 4.0 * 2.0 / 32.0; // k=4, r=2, c=32 ⇒ 0.25
    assert!(
        (ratio - expected).abs() < 0.1,
        "measured ratio {ratio:.3}, expected ≈{expected}"
    );
}

#[test]
fn communication_per_block_ici_below_full_replication() {
    let n = 96;
    let (_, full) = run::<FullReplicationNetwork>(
        FullConfig {
            nodes: n,
            link: LinkModel::quiet(),
            seed: 3,
            ..FullConfig::default()
        },
        6,
        20,
        workload(3),
    );
    let (_, ici) = run::<IciNetwork>(
        IciConfig::builder()
            .nodes(n)
            .cluster_size(16)
            .replication(2)
            .link(LinkModel::quiet())
            .seed(3)
            .build()
            .expect("valid configuration"),
        6,
        20,
        workload(3),
    );
    assert!(
        ici.mean_block_bytes < full.mean_block_bytes / 2.0,
        "ici {} vs full {}",
        ici.mean_block_bytes,
        full.mean_block_bytes
    );
}

#[test]
fn bootstrap_ordering_matches_the_abstract() {
    let n = 96;
    let blocks = 20;
    let (mut full_net, _) = run::<FullReplicationNetwork>(
        FullConfig {
            nodes: n,
            link: LinkModel::quiet(),
            seed: 4,
            ..FullConfig::default()
        },
        blocks,
        20,
        workload(4),
    );
    let (full_bytes, _) = full_net.bootstrap_cost();

    let (mut rapid_net, _) = run::<RapidChainNetwork>(
        RapidChainConfig {
            nodes: n,
            committee_size: 24, // 4 shards
            link: LinkModel::quiet(),
            seed: 4,
            ..RapidChainConfig::default()
        },
        blocks / 4,
        20,
        workload(4),
    );
    let (rapid_bytes, _) = rapid_net.bootstrap_cost(0);

    let (mut ici_net, _) = run::<IciNetwork>(
        IciConfig::builder()
            .nodes(n)
            .cluster_size(24)
            .replication(2)
            .link(LinkModel::quiet())
            .seed(4)
            .build()
            .expect("valid configuration"),
        blocks,
        20,
        workload(4),
    );
    let join = ici_net
        .bootstrap_node(Coord::new(10.0, 10.0), JoinPolicy::SmallestCluster)
        .expect("join succeeds");

    assert!(
        join.total_bytes() < rapid_bytes && rapid_bytes < full_bytes,
        "ici {} rapid {} full {}",
        join.total_bytes(),
        rapid_bytes,
        full_bytes
    );
}

#[test]
fn all_strategies_commit_the_same_transactions() {
    // Same workload seed ⇒ the same transaction stream enters each
    // system; each must commit all of them.
    let txs = 18;
    let blocks = 5;
    let (_, full) = run::<FullReplicationNetwork>(
        FullConfig {
            nodes: 48,
            link: LinkModel::quiet(),
            seed: 6,
            ..FullConfig::default()
        },
        blocks,
        txs,
        workload(6),
    );
    let (_, ici) = run::<IciNetwork>(
        IciConfig::builder()
            .nodes(48)
            .cluster_size(12)
            .replication(2)
            .link(LinkModel::quiet())
            .seed(6)
            .build()
            .expect("valid configuration"),
        blocks,
        txs,
        workload(6),
    );
    assert_eq!(full.total_txs, (blocks * txs) as u64);
    assert_eq!(ici.total_txs, (blocks * txs) as u64);
}

#[test]
fn rapidchain_parallelism_shows_in_throughput() {
    // More shards at the same committee size ⇒ more parallel commits ⇒
    // higher aggregate tps.
    let tps = |nodes: usize| {
        let (_, summary) = run::<RapidChainNetwork>(
            RapidChainConfig {
                nodes,
                committee_size: 24,
                link: LinkModel::quiet(),
                seed: 7,
                ..RapidChainConfig::default()
            },
            3,
            20,
            workload(7),
        );
        summary.throughput_tps
    };
    let two_shards = tps(48);
    let eight_shards = tps(192);
    assert!(
        eight_shards > two_shards * 2.0,
        "8 shards {eight_shards} vs 2 shards {two_shards}"
    );
}

/// Each baseline's leader executes its block once and the chain commits
/// the state it sealed, so every committed chain — full replication's
/// and each RapidChain shard's, in a quiet run and one under crashes and
/// Byzantine action, all offering overspends — replays from genesis to
/// its tip's root.
#[test]
fn committed_chains_replay_from_genesis() {
    let full = || FullConfig {
        nodes: 32,
        link: LinkModel::quiet(),
        seed: 9,
        ..FullConfig::default()
    };
    let rapidchain = || RapidChainConfig {
        nodes: 32,
        committee_size: 8,
        link: LinkModel::quiet(),
        seed: 9,
        ..RapidChainConfig::default()
    };
    let (blocks, txs) = (8, 20);
    let (quiet_full, _) =
        run::<FullReplicationNetwork>(full(), blocks, txs, overspending_workload(9));
    let (faulted_full, full_faults) = run_under_faults::<FullReplicationNetwork>(
        full(),
        txs,
        overspending_workload(10),
        crash_and_byzantine(),
    )
    .expect("plan builds");
    let (quiet_rapid, _) =
        run::<RapidChainNetwork>(rapidchain(), blocks, txs, overspending_workload(9));
    let (faulted_rapid, rapid_faults) = run_under_faults::<RapidChainNetwork>(
        rapidchain(),
        txs,
        overspending_workload(10),
        crash_and_byzantine(),
    )
    .expect("plan builds");
    for faults in [&full_faults, &rapid_faults] {
        assert!(
            faults.crash_events > 0
                && faults.equivocation_attempts > 0
                && faults.committed_blocks > 0,
            "{faults:?}"
        );
    }

    let mut chains = Vec::new();
    for (run, net) in [("quiet", &quiet_full), ("crash+byzantine", &faulted_full)] {
        let chain: Vec<&Block> = (0..net.chain_len()).filter_map(|h| net.block(h)).collect();
        chains.push((format!("full {run}"), &net.config().genesis, chain));
    }
    for (run, net) in [("quiet", &quiet_rapid), ("crash+byzantine", &faulted_rapid)] {
        for shard in 0..net.shard_count() {
            let chain: Vec<&Block> = (0..net.shard_chain_len(shard))
                .filter_map(|h| net.shard_block(shard, h))
                .collect();
            chains.push((
                format!("rapidchain {run} shard {shard}"),
                &net.config().genesis,
                chain,
            ));
        }
    }
    for (label, genesis, chain) in chains {
        replay_from_genesis(&label, genesis, &chain, txs);
    }
}
