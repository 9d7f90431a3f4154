//! `FaultPlan::send_faults`: the send-path config each round installs.

use ici_faults::plan::{ChurnConfig, FaultPlan, FaultPlanConfig, MessageFaultSpec, RoundFaults};
use ici_net::faults::{FaultConfig, PartitionSpec};
use ici_net::node::NodeId;

fn clusters(k: usize, size: usize) -> Vec<Vec<NodeId>> {
    (0..k)
        .map(|c| {
            (0..size)
                .map(|i| NodeId::new((c * size + i) as u64))
                .collect()
        })
        .collect()
}

/// No churn at all, so only the knobs under test schedule anything.
fn no_churn() -> ChurnConfig {
    ChurnConfig {
        crash_prob: 0.0,
        cluster_churn_prob: 0.0,
        ensure_cycle_per_cluster: false,
        ..ChurnConfig::default()
    }
}

#[test]
fn a_window_splits_the_network_only_in_its_open_rounds() {
    let map = clusters(3, 4);
    let minority = map[1].clone();
    let mut rounds = vec![RoundFaults::default(); 7];
    rounds[1].partition_starts = Some(minority.clone());
    rounds[3].partition_ends = true;
    rounds[4].partition_starts = Some(minority.clone());
    let plan = FaultPlan::from_rounds(map, rounds).expect("known nodes");

    let split = PartitionSpec::split(12, &minority);
    let partitions: Vec<Option<PartitionSpec>> =
        plan.send_faults().map(|config| config.partition).collect();
    let open = |round: usize| [1, 2, 4, 5, 6].contains(&round);
    assert_eq!(partitions.len(), 7);
    for (round, partition) in partitions.iter().enumerate() {
        let want = open(round).then(|| split.clone());
        assert_eq!(partition, &want, "round {round}");
    }
    let severed = partitions[2].as_ref().expect("open");
    assert!(severed.severs(NodeId::new(0), NodeId::new(4)));
    assert!(!severed.severs(NodeId::new(4), NodeId::new(7)));
}

#[test]
fn round_sub_seeds_are_the_round_keyed_splitmix_values() {
    let spec = MessageFaultSpec {
        drop_prob: 0.2,
        dup_prob: 0.1,
        delay_prob: 0.1,
        max_extra_delay_ms: 30.0,
    };
    let plan = FaultPlanConfig::new(42, 8, clusters(2, 4))
        .churn(no_churn())
        .messages(spec)
        .build()
        .expect("valid");
    let configs: Vec<FaultConfig> = plan.send_faults().collect();
    assert_eq!(configs.len(), 8);
    assert_eq!(configs[0].seed, 0xbdd7_3226_2feb_6e95);
    assert_eq!(configs[7].seed, 0x82db_cc65_de72_85e0);
    for config in &configs {
        assert_eq!(config.messages, spec);
        assert!(config.partition.is_none());
        assert!(!config.is_inert());
    }
    let mut seeds: Vec<u64> = configs.iter().map(|c| c.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 8, "each round has its own fault stream");
}

#[test]
fn every_round_of_a_quiet_plan_is_inert() {
    let seeded = FaultPlanConfig::new(2, 6, clusters(2, 4))
        .churn(no_churn())
        .build()
        .expect("valid");
    let explicit =
        FaultPlan::from_rounds(clusters(2, 4), vec![RoundFaults::default(); 5]).expect("no nodes");
    for plan in [seeded, explicit] {
        assert!(plan.is_quiet());
        assert_eq!(plan.send_faults().count(), plan.rounds().len());
        assert!(plan.send_faults().all(|config| config.is_inert()));
    }
}
