//! Golden values for runs on a quiet link (`max_jitter_ms = 0`, no
//! message faults).
//!
//! On such a network no send turns its sequence number into randomness,
//! which is the property `ici-consensus` uses to run its vote rounds in
//! closed form instead of message by message. Every committed
//! `results/e*.json` runs on the jittery default link, so no record
//! walks that path; these literals do. They were captured with the
//! per-message vote exchange, so they pin the closed form against it:
//! per-height proposal and commit instants, per-height traffic, the
//! per-class table, a digest over every node's sent and received
//! counters, and the final clock.
//!
//! Clusters and committees are larger than 16 and carry crashed
//! members, so quorums are reached with votes missing and the
//! crashed-receiver charge (bytes leave the sender, nothing arrives) is
//! on the line.

use ici_net::link::LinkModel;
use ici_net::metrics::TrafficMeter;
use icistrategy::crypto::Sha256;
use icistrategy::prelude::*;

fn quiet_link() -> LinkModel {
    LinkModel {
        max_jitter_ms: 0.0,
        ..LinkModel::default()
    }
}

fn workload() -> WorkloadGenerator {
    WorkloadGenerator::new(WorkloadConfig {
        seed: 19,
        ..WorkloadConfig::default()
    })
}

/// The per-class table plus a digest over every node's counters.
fn meter_line(meter: &TrafficMeter, nodes: usize) -> String {
    let by_kind: Vec<String> = meter
        .by_kind()
        .iter()
        .map(|(kind, c)| format!("{}={}/{}", kind.name(), c.messages, c.bytes))
        .collect();
    let mut hasher = Sha256::new();
    for node in (0..nodes as u64).map(NodeId::new) {
        let (sent, received) = (meter.sent_by(node), meter.received_by(node));
        for word in [sent.messages, sent.bytes, received.messages, received.bytes] {
            hasher.update(&word.to_le_bytes());
        }
    }
    let total = meter.total();
    format!(
        "total={}/{} max_received={} [{}] nodes={}",
        total.messages,
        total.bytes,
        meter.max_received_bytes(),
        by_kind.join(" "),
        &hasher.finalize().to_hex()[..16],
    )
}

fn ici_line() -> String {
    let config = IciConfig::builder()
        .nodes(60)
        .cluster_size(20)
        .replication(2)
        .link(quiet_link())
        .seed(13)
        .build()
        .expect("valid");
    let mut net = IciNetwork::new(config).expect("constructs");
    // Crash one member of every cluster and five more of the first,
    // which leaves that cluster exactly its quorum of 14.
    let clusters = net.clusters();
    for (i, &cluster) in clusters.iter().enumerate() {
        let members = net.membership().active_members(cluster);
        let crashed = if i == 0 { 6 } else { 1 };
        for &m in members.iter().rev().take(crashed) {
            net.crash_node(m).expect("known node");
        }
    }
    let mut workload = workload();
    let mut run = |net: &mut IciNetwork| {
        let batches: Vec<Vec<Transaction>> = (0..3).map(|_| workload.batch(8)).collect();
        net.propose_blocks(batches, |_, _| {})
            .expect("every height commits");
    };
    run(&mut net);
    // A second cluster drops to its bare quorum between the two halves.
    let members = net.membership().active_members(clusters[1]);
    for &m in members.iter().take(5) {
        net.crash_node(m).expect("known node");
    }
    run(&mut net);
    let heights: Vec<String> = net
        .commit_log()
        .iter()
        .map(|r| {
            format!(
                "{}:{}..{} {}/{} missed={}",
                r.height,
                r.proposed_at.as_micros(),
                r.network_commit.as_micros(),
                r.messages,
                r.bytes,
                r.missed_clusters.len(),
            )
        })
        .collect();
    format!(
        "{} | {} | clock_us={}",
        heights.join(", "),
        meter_line(net.net().meter(), 60),
        net.now().as_micros(),
    )
}

fn rapidchain_line() -> String {
    let mut net = RapidChainNetwork::new(RapidChainConfig {
        nodes: 48,
        committee_size: 24,
        link: quiet_link(),
        seed: 13,
        ..RapidChainConfig::default()
    });
    for shard in 0..net.shard_count() {
        let committee = net.committee(shard).to_vec();
        for &m in committee.iter().rev().take(2 + shard) {
            net.net_mut().crash(m);
        }
    }
    let mut workload = workload();
    for _ in 0..3 {
        let batches = (0..net.shard_count())
            .map(|shard| (shard, workload.batch(6)))
            .collect();
        let heights = net.propose_round(batches);
        assert!(heights.iter().all(Option::is_some), "{heights:?}");
    }
    let commits: Vec<String> = net
        .commit_log()
        .iter()
        .map(|r| {
            format!(
                "{}:{}..{} {}/{} reached={}",
                r.height,
                r.proposed_at.as_micros(),
                r.network_commit.as_micros(),
                r.messages,
                r.bytes,
                r.reached,
            )
        })
        .collect();
    format!(
        "{} | {} | clock_us={}",
        commits.join(", "),
        meter_line(net.net().meter(), 48),
        net.now().as_micros(),
    )
}

fn full_line() -> String {
    let mut net = FullReplicationNetwork::new(FullConfig {
        nodes: 24,
        fanout: 4,
        link: quiet_link(),
        seed: 13,
        ..FullConfig::default()
    });
    net.net_mut().crash(NodeId::new(5));
    net.net_mut().crash(NodeId::new(17));
    let mut workload = workload();
    for _ in 0..4 {
        net.propose_block(workload.batch(6)).expect("commits");
    }
    let commits: Vec<String> = net
        .commit_log()
        .iter()
        .map(|r| {
            format!(
                "{}:{}..{} {}/{} reached={}",
                r.height,
                r.proposed_at.as_micros(),
                r.network_commit.as_micros(),
                r.messages,
                r.bytes,
                r.reached,
            )
        })
        .collect();
    format!(
        "{} | {} | clock_us={}",
        commits.join(", "),
        meter_line(net.net().meter(), 24),
        net.now().as_micros(),
    )
}

#[test]
fn ici_quiet_run_with_crashed_members() {
    assert_eq!(ici_line(), "1:18..714152 2035/249496 missed=0, 2:714170..1490929 2035/249496 missed=0, 3:1490947..2150774 2035/247312 missed=0, 4:2150792..3074647 1845/228216 missed=0, 5:3074665..3976545 1845/228216 missed=0, 6:3976563..4815304 1845/228216 missed=0 | total=11640/1430952 max_received=32064 [block-full=12/43968 block-body=35/81200 block-header=307/41752 vote=11286/1264032] nodes=01fb37a19dfca95c | clock_us=4815304");
}

#[test]
fn rapidchain_quiet_rounds_with_crashed_members() {
    assert_eq!(rapidchain_line(), "1:14..635841 1350/215758 reached=22, 1:14..647776 1289/206061 reached=21, 2:635852..1261386 1350/210012 reached=22, 2:647787..1288698 1289/200570 reached=21, 3:1261397..1886177 1350/210012 reached=22, 3:1288709..1926546 1289/200570 reached=21 | total=7917/1242983 max_received=28112 [block-shard=1983/578375 vote=5934/664608] nodes=7becae01a62048c5 | clock_us=1926546");
}

#[test]
fn full_replication_quiet_rounds_with_crashed_members() {
    assert_eq!(full_line(), "1:14..278667 88/156112 reached=22, 2:278681..581617 84/149016 reached=21, 3:581631..845210 88/156112 reached=22, 4:845224..1252853 84/149016 reached=21 | total=344/610256 max_received=39028 [block-full=344/610256] nodes=83b3d83c1bd7940b | clock_us=1252853");
}
