//! Full-pipeline integration: mempool → block builder → ICIStrategy
//! lifecycle → tiered queries → SPV proofs, end to end.

use icistrategy::chain::mempool::Mempool;
use icistrategy::chain::transaction::TxId;
use icistrategy::prelude::*;

fn network() -> IciNetwork {
    let config = IciConfig::builder()
        .nodes(36)
        .cluster_size(12)
        .replication(2)
        .seed(55)
        .build()
        .expect("valid configuration");
    IciNetwork::new(config).expect("constructs")
}

#[test]
fn mempool_driven_chain_commits_everything_exactly_once() {
    let mut net = network();
    let mut pool = Mempool::new(500);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed: 55,
        ..WorkloadConfig::default()
    });

    let mut submitted: Vec<TxId> = Vec::new();
    for tx in generator.batch(100) {
        submitted.push(tx.id());
        pool.insert(tx).expect("workload txs are valid");
    }

    while !pool.is_empty() {
        let batch = pool.take_for_block(24);
        net.propose_block(batch).expect("commits");
    }

    // Every submitted transaction is on chain exactly once.
    let mut on_chain: Vec<TxId> = Vec::new();
    for h in 0..net.chain_len() {
        for tx in net.block(h).expect("block").transactions() {
            on_chain.push(tx.id());
        }
    }
    assert_eq!(on_chain.len(), submitted.len());
    let mut a = on_chain.clone();
    let mut b = submitted.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "chain content differs from submissions");
}

#[test]
fn spv_proof_exists_for_every_committed_transaction() {
    let mut net = network();
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed: 56,
        ..WorkloadConfig::default()
    });
    let mut ids = Vec::new();
    for _ in 0..3 {
        let batch = generator.batch(8);
        ids.extend(batch.iter().map(|t| t.id()));
        net.propose_block(batch).expect("commits");
    }
    for (i, id) in ids.iter().enumerate() {
        let requester = NodeId::new((i % 36) as u64);
        let report = net
            .query_transaction(requester, id)
            .unwrap_or_else(|e| panic!("tx {i}: {e}"));
        assert_eq!(report.transaction.id(), *id);
        // The proof verifies against the requester-held header.
        let header = *net.block(report.height).expect("block").header();
        assert!(report.proof.verify(
            &icistrategy::chain::codec::Encode::to_bytes(&report.transaction),
            header.tx_root
        ));
    }
}

/// A transaction proof falls through to the next holder, as a body
/// read does, when the installed faults cut the first one off: a
/// partition isolates the requester's first intra-cluster owner of the
/// height, and the second owner serves the proof.
#[test]
fn spv_proof_falls_through_a_partitioned_owner() {
    use icistrategy::net::faults::{FaultConfig, PartitionSpec};

    let mut net = network();
    let batch = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed: 58,
        ..WorkloadConfig::default()
    })
    .batch(8);
    let id = batch[3].id();
    net.propose_block(batch).expect("commits");
    let height = net.chain_len() - 1;

    // The first node that does not own the height itself.
    let owners_of = |net: &IciNetwork, node| -> Vec<NodeId> {
        net.owners_at(net.membership().cluster_of(node), height)
            .collect()
    };
    let nodes = net.config().nodes;
    let requester = (0..nodes as u64)
        .map(NodeId::new)
        .find(|node| !owners_of(&net, *node).contains(node))
        .expect("a cluster of 12 has non-owners");
    let owners = owners_of(&net, requester);
    assert_eq!(owners.len(), 2, "r = 2 owners in the requester's cluster");
    let (first, second) = (owners[0], owners[1]);
    net.net_mut().set_faults(FaultConfig {
        partition: Some(PartitionSpec::split(nodes, &[first])),
        ..FaultConfig::default()
    });

    let report = net
        .query_transaction(requester, &id)
        .unwrap_or_else(|e| panic!("the second owner should answer: {e}"));
    assert_eq!(report.server, second);
    assert_eq!(report.transaction.id(), id);
    let header = *net.block(height).expect("block").header();
    assert!(report.proof.verify(
        &icistrategy::chain::codec::Encode::to_bytes(&report.transaction),
        header.tx_root
    ));

    // A body read of the same height takes the same path.
    let body = net.query_body(requester, height).expect("served");
    assert_eq!(body.server, second);
}

#[test]
fn an_owner_proves_a_transaction_from_its_own_copy() {
    use icistrategy::chain::codec::Encode;
    use icistrategy::net::cost;

    let mut net = network();
    let batch = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed: 55,
        ..WorkloadConfig::default()
    })
    .batch(8);
    let id = batch[3].id();
    net.propose_block(batch).expect("commits");
    let height = net.chain_len() - 1;
    let cluster = net.membership().cluster_of(NodeId::new(0));
    let owner = net
        .owners_at(cluster, height)
        .next()
        .expect("r = 2 owners in every cluster");

    let before = net.net().meter().total();
    let report = net.query_transaction(owner, &id).expect("proven");
    let after = net.net().meter().total();
    assert_eq!(
        (after.messages, after.bytes),
        (before.messages, before.bytes),
        "an owner proves from its own copy and sends nothing"
    );
    assert_eq!((report.server, report.bytes), (owner, 0));
    let header = *net.block(height).expect("block").header();
    assert!(report
        .proof
        .verify(&report.transaction.to_bytes(), header.tx_root));
    // The latency is the requester's check alone, as for a remote proof.
    let response = report.transaction.encoded_len() + report.proof.encoded_len();
    assert_eq!(report.latency, cost::hash(response as u64));

    // A body read by the same node is local too.
    let body = net.query_body(owner, height).expect("served");
    assert_eq!((body.tier, body.server), (QueryTier::Local, owner));
}

#[test]
fn pool_refills_between_blocks_and_nonces_stay_valid() {
    let mut net = network();
    let mut pool = Mempool::new(500);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        accounts: 16, // few accounts ⇒ deep per-sender nonce chains
        seed: 57,
        ..WorkloadConfig::default()
    });
    for round in 0..4 {
        for tx in generator.batch(20) {
            pool.insert(tx).expect("valid");
        }
        let batch = pool.take_for_block(20);
        let record = net.propose_block(batch).expect("commits").clone();
        assert_eq!(record.tx_count, 20, "round {round} dropped transactions");
    }
    assert!(net.audit_all().iter().all(|r| r.is_intact()));
}

#[test]
fn queries_work_after_heavy_churn() {
    let mut net = network();
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed: 58,
        ..WorkloadConfig::default()
    });
    for _ in 0..5 {
        net.propose_block(generator.batch(12)).expect("commits");
    }
    // Join, crash, repair, reconfigure — then every height must still be
    // readable from every live node.
    net.bootstrap_node(Coord::new(25.0, 75.0), JoinPolicy::NearestCentroid)
        .expect("joins");
    net.crash_node(NodeId::new(4)).expect("known");
    net.crash_node(NodeId::new(20)).expect("known");
    net.repair_all();
    net.reconfigure_clusters();

    for node in [0u64, 7, 19, 35, 36] {
        if !net.net().is_up(NodeId::new(node)) {
            continue;
        }
        for height in 0..net.chain_len() {
            net.query_body(NodeId::new(node), height)
                .unwrap_or_else(|e| panic!("node {node} height {height}: {e}"));
        }
    }
}
