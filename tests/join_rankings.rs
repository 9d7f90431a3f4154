//! How many rendezvous weights a join computes, read from the
//! `crypto/rendezvous_ranks` counter.
//!
//! Under rendezvous assignment a cluster keeps the top-`r` pairs of
//! every committed height. The first join into the cluster builds them
//! (every member once a height) and then ranks the joiner once a
//! height; a later join ranks the members only at the heights committed
//! since the table was last extended, and the joiner once a height. One
//! test, because the telemetry flag is process-global.

use icistrategy::prelude::*;

const MEMBERS: usize = 16;

fn ranks_counted() -> u64 {
    icistrategy::telemetry::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == "crypto/rendezvous_ranks")
        .map(|c| c.value)
        .sum()
}

#[test]
fn a_join_ranks_the_members_once_a_height_then_only_the_joiner() {
    let config = IciConfig::builder()
        .nodes(4 * MEMBERS)
        .cluster_size(MEMBERS)
        .replication(2)
        .seed(5)
        .build()
        .expect("valid configuration");
    let mut net = IciNetwork::new(config).expect("constructs");
    let mut workload = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed: 5,
        ..WorkloadConfig::default()
    });
    let mut commit = |net: &mut IciNetwork, blocks: usize| {
        for _ in 0..blocks {
            net.propose_block(workload.batch(6)).expect("block commits");
        }
    };
    commit(&mut net, 12);

    // Joiners stand at cluster 0's centroid, which a joiner there does
    // not move, so all five join cluster 0.
    let cluster = ClusterId::new(0);
    assert_eq!(net.membership().members(cluster).len(), MEMBERS);
    let at = net
        .membership()
        .centroid(cluster, net.net().topology())
        .expect("cluster 0 has members");

    let mut covered: Option<u64> = None;
    for (join, between) in [0usize, 3, 0, 1, 5].into_iter().enumerate() {
        commit(&mut net, between);
        let heights = net.chain_len();
        let size = net.membership().members(cluster).len() as u64;
        let expected = match covered {
            None => size * heights + heights,
            Some(covered) => size * (heights - covered) + heights,
        };
        icistrategy::telemetry::set_enabled(true);
        icistrategy::telemetry::reset();
        let report = net
            .bootstrap_node(at, JoinPolicy::NearestCentroid)
            .expect("joins");
        let counted = ranks_counted();
        icistrategy::telemetry::set_enabled(false);
        icistrategy::telemetry::reset();
        assert_eq!(report.cluster, cluster.get(), "join {join}");
        assert_eq!(
            counted, expected,
            "join {join}: {size} members over {heights} heights"
        );
        covered = Some(heights);
    }
    assert_eq!(net.membership().members(cluster).len(), MEMBERS + 5);
}
