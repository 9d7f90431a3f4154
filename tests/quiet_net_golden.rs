//! Golden values for runs on a quiet link (`max_jitter_ms = 0`, no
//! message faults).
//!
//! On such a network no send turns its sequence number into randomness,
//! which is the property `ici-consensus` uses to run its vote rounds in
//! closed form instead of message by message. The committed
//! `results/e*.json` rows built through `ici_bench::ici_builder` run on
//! that quiet link too, so the records walk this path as well; these
//! literals pin it at small sizes. The first three were captured
//! with the per-message vote exchange, so they pin the closed form
//! against it; the other three were captured before the vote rounds'
//! quorum selection moved to a sorting network, so they pin the network
//! against `select_nth_unstable`. Each line holds per-height proposal
//! and commit instants, per-height traffic, the per-class table, a
//! digest over every node's sent and received counters, and the final
//! clock.
//!
//! Every group carries crashed members, so quorums are reached with
//! votes missing and the crashed-receiver charge (bytes leave the
//! sender, nothing arrives) is on the line. Group sizes put a vote row
//! at each width the selection dispatches on: clusters of 8, 16 and 20
//! (network widths 8, 16 and 32) and committees of 24 and 64 (width 32
//! and the fallback above it).

use ici_net::link::LinkModel;
use ici_net::metrics::TrafficMeter;
use icistrategy::crypto::Sha256;
use icistrategy::prelude::*;

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

fn ici_network(nodes: usize, cluster_size: usize) -> IciNetwork {
    let config = IciConfig::builder()
        .nodes(nodes)
        .cluster_size(cluster_size)
        .replication(2)
        .link(LinkModel::quiet())
        .seed(13)
        .build()
        .expect("valid");
    IciNetwork::new(config).expect("constructs")
}

/// Crashes the last `count` active members of `cluster`.
fn crash_last(net: &mut IciNetwork, cluster: ClusterId, count: usize) {
    let members = net.membership().members(cluster).to_vec();
    for &m in members.iter().rev().take(count) {
        net.crash_node(m).expect("known node");
    }
}

/// Commits `blocks` batches of 8 transactions.
fn commit_batches(net: &mut IciNetwork, workload: &mut WorkloadGenerator, blocks: usize) {
    let batches: Vec<Vec<Transaction>> = (0..blocks).map(|_| workload.batch(8)).collect();
    net.propose_blocks(batches, |_, _| {})
        .expect("every height commits");
}

/// Per-height instants and traffic, the meter line, the final clock.
fn ici_summary(net: &IciNetwork) -> String {
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
        meter_line(net.net().meter(), net.net().len()),
        net.now().as_micros(),
    )
}

fn ici_line() -> String {
    let mut net = ici_network(60, 20);
    // Crash one member of every cluster and five more of the first,
    // which leaves that cluster exactly its quorum of 14.
    let clusters = net.clusters();
    for (i, &cluster) in clusters.iter().enumerate() {
        crash_last(&mut net, cluster, if i == 0 { 6 } else { 1 });
    }
    let mut workload = workload();
    commit_batches(&mut net, &mut workload, 3);
    // A second cluster drops to its bare quorum between the two halves.
    let members = net.membership().members(clusters[1]).to_vec();
    for &m in members.iter().take(5) {
        net.crash_node(m).expect("known node");
    }
    commit_batches(&mut net, &mut workload, 3);
    ici_summary(&net)
}

/// The benchmark's `ici_wide` shape at 128 nodes: clusters of 16, one
/// crashed member in each of the first two.
fn ici_wide_line() -> String {
    let mut net = ici_network(128, 16);
    for &cluster in &net.clusters()[..2] {
        crash_last(&mut net, cluster, 1);
    }
    commit_batches(&mut net, &mut workload(), 4);
    ici_summary(&net)
}

/// Clusters of 8: the first down to its quorum of 6, the third one short.
fn ici_c8_line() -> String {
    let mut net = ici_network(64, 8);
    let clusters = net.clusters();
    crash_last(&mut net, clusters[0], 2);
    crash_last(&mut net, clusters[2], 1);
    commit_batches(&mut net, &mut workload(), 4);
    ici_summary(&net)
}

/// `nodes` nodes in committees of `committee_size`; shard `s` loses its
/// last `crashed(s)` members, then three rounds of one block per shard.
fn rapidchain_line(
    nodes: usize,
    committee_size: usize,
    crashed: impl Fn(usize) -> usize,
) -> String {
    let mut net = RapidChainNetwork::new(RapidChainConfig {
        nodes,
        committee_size,
        link: LinkModel::quiet(),
        seed: 13,
        ..RapidChainConfig::default()
    });
    for shard in 0..net.shard_count() {
        let committee = net.committee(shard).to_vec();
        for &m in committee.iter().rev().take(crashed(shard)) {
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
        meter_line(net.net().meter(), nodes),
        net.now().as_micros(),
    )
}

fn full_line() -> String {
    let mut net = FullReplicationNetwork::new(FullConfig {
        nodes: 24,
        fanout: 4,
        link: LinkModel::quiet(),
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
    assert_eq!(rapidchain_line(48, 24, |shard| 2 + shard), "1:14..635841 1350/215758 reached=22, 1:14..647776 1289/206061 reached=21, 2:635852..1261386 1350/210012 reached=22, 2:647787..1288698 1289/200570 reached=21, 3:1261397..1886177 1350/210012 reached=22, 3:1288709..1926546 1289/200570 reached=21 | total=7917/1242983 max_received=28112 [block-shard=1983/578375 vote=5934/664608] nodes=7becae01a62048c5 | clock_us=1926546");
}

#[test]
fn full_replication_quiet_rounds_with_crashed_members() {
    assert_eq!(full_line(), "1:14..278667 88/156112 reached=22, 2:278681..581617 84/149016 reached=21, 3:581631..845210 88/156112 reached=22, 4:845224..1252853 84/149016 reached=21 | total=344/610256 max_received=39028 [block-full=344/610256] nodes=83b3d83c1bd7940b | clock_us=1252853");
}

#[test]
fn ici_quiet_run_in_clusters_of_16() {
    assert_eq!(ici_wide_line(), "1:18..377806 3907/498256 missed=0, 2:377824..904756 3907/493888 missed=0, 3:904774..1567349 3907/493888 missed=0, 4:1567367..2109416 3907/496072 missed=0 | total=15628/1982104 max_received=22648 [block-full=28/94528 block-body=59/136880 block-header=421/57256 vote=15120/1693440] nodes=9911bb2b55bc87ea | clock_us=2109416");
}

#[test]
fn ici_quiet_run_in_clusters_of_8() {
    assert_eq!(ici_c8_line(), "1:18..552371 917/156296 missed=0, 2:552389..1071457 917/158480 missed=0, 3:1071475..1919775 917/151928 missed=0, 4:1919793..2619338 917/154112 missed=0 | total=3668/620816 max_received=14520 [block-full=28/81088 block-body=58/134560 block-header=166/22576 vote=3416/382592] nodes=aacd6635daa03fd1 | clock_us=2619338");
}

#[test]
fn rapidchain_quiet_rounds_in_committees_of_64() {
    assert_eq!(rapidchain_line(128, 64, |shard| 3 + 2 * shard), "1:14..621084 8649/1152621 reached=61, 1:14..592852 8367/1115307 reached=59, 2:621095..1266559 8649/1136250 reached=61, 2:592863..1210612 8367/1099446 reached=59, 3:1266570..1887679 8649/1136250 reached=61, 3:1210623..1856602 8367/1099446 reached=59 | total=51048/6739320 max_received=54320 [block-shard=5688/1659000 vote=45360/5080320] nodes=eeda66ae74759f1e | clock_us=1887679");
}
