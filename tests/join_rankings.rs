//! How many rendezvous weights joins and reads compute, read from the
//! `crypto/rendezvous_ranks` counter.
//!
//! The commit records every cluster's owners of every height in the
//! owner table, with the top 16 bits of each owner's rank. A join under
//! rendezvous assignment ranks, at each height, only the joiner: the
//! grown cluster's top `r` is the top `r` of the recorded owners and
//! the joiner, and the joiner finds its place by comparing prefixes
//! (an owner is ranked again only when its prefix ties the joiner's,
//! one chance in 2¹⁶ a comparison). So a join into a cluster of at
//! least `r` members computes exactly `H` weights over `H` heights,
//! whatever the cluster's size or the joins before it. A body query and
//! a transaction proof read their servers from the table and compute
//! none. One test, because the telemetry flag is process-global.

use icistrategy::prelude::*;

const MEMBERS: usize = 16;
const REPLICATION: usize = 2;
const COUNTER: &str = "crypto/rendezvous_ranks";

/// The `COUNTER` total that `run` adds, telemetry on for it alone.
fn ranks_counted<T>(run: impl FnOnce() -> T) -> (T, u64) {
    icistrategy::telemetry::set_enabled(true);
    icistrategy::telemetry::reset();
    let out = run();
    let counted = icistrategy::telemetry::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == COUNTER)
        .map(|c| c.value)
        .sum();
    icistrategy::telemetry::set_enabled(false);
    icistrategy::telemetry::reset();
    (out, counted)
}

#[test]
fn a_join_ranks_only_the_joiner_and_a_read_ranks_nothing() {
    let config = IciConfig::builder()
        .nodes(4 * MEMBERS)
        .cluster_size(MEMBERS)
        .replication(REPLICATION)
        .seed(5)
        .build()
        .expect("valid configuration");
    let mut net = IciNetwork::new(config).expect("constructs");
    let mut workload = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed: 5,
        ..WorkloadConfig::default()
    });
    let mut txs = Vec::new();
    let mut commit = |net: &mut IciNetwork, blocks: usize| {
        for _ in 0..blocks {
            let batch = workload.batch(6);
            txs.extend(batch.iter().map(|t| t.id()));
            net.propose_block(batch).expect("block commits");
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
    for (join, between) in [0usize, 3, 0, 1, 5].into_iter().enumerate() {
        commit(&mut net, between);
        let heights = net.chain_len();
        let size = net.membership().members(cluster).len();
        let (report, counted) =
            ranks_counted(|| net.bootstrap_node(at, JoinPolicy::NearestCentroid));
        let report = report.expect("joins");
        assert_eq!(report.cluster, cluster.get(), "join {join}");
        assert_eq!(
            counted, heights,
            "{COUNTER}, join {join}: a {size}-member cluster over {heights} heights"
        );
    }
    assert_eq!(net.membership().members(cluster).len(), MEMBERS + 5);

    // Reads on every tier: every node asks for every height, then one
    // cluster's owners of a height crash so its members ask elsewhere.
    let nodes = net.net().topology().len() as u64;
    let heights = net.chain_len();
    let (_, counted) = ranks_counted(|| {
        for node in (0..nodes).map(NodeId::new) {
            for height in 0..heights {
                net.query_body(node, height).expect("served");
            }
        }
    });
    assert_eq!(
        counted, 0,
        "{COUNTER}: {nodes} nodes read {heights} heights"
    );
    let block = net.block(1).expect("committed").id();
    let owners = net.owners_in_cluster(cluster, &block, 1);
    for owner in &owners {
        net.crash_node(*owner).expect("known node");
    }
    let asker = *net
        .membership()
        .members(cluster)
        .iter()
        .find(|m| !owners.contains(m))
        .expect("a member that owns nothing at height 1");
    let (served, counted) = ranks_counted(|| net.query_body(asker, 1));
    let served = served.expect("served by another cluster");
    assert_eq!(served.tier, QueryTier::CrossCluster);
    assert_eq!(counted, 0, "{COUNTER}: a cross-cluster body query");

    let (_, counted) = ranks_counted(|| {
        for (i, id) in txs.iter().enumerate() {
            let requester = NodeId::new(i as u64 % nodes);
            if net.net().is_up(requester) {
                net.query_transaction(requester, id).expect("proven");
            }
        }
    });
    assert_eq!(
        counted,
        0,
        "{COUNTER}: proofs of {} transactions",
        txs.len()
    );
}
