//! Benchmarks over protocol rounds: one per experiment family, so
//! `cargo bench` exercises the code paths that regenerate every table
//! and figure (the full sweeps live in the `e*` binaries).
//!
//! Runs on the in-repo std-only harness (`ici_bench::harness`) so
//! `cargo bench` needs no external dependencies.

use ici_baselines::full::{FullConfig, FullReplicationNetwork};
use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
use ici_bench::harness::{bench, bench_with_setup};
use ici_chain::transaction::{Address, Transaction, TxId};
use ici_cluster::membership::JoinPolicy;
use ici_cluster::partition::ClusterId;
use ici_consensus::gossip::{gossip_flood, GossipConfig};
use ici_consensus::ida::{run_ida_dissemination, IdaConfig};
use ici_consensus::pbft::{run_pbft_commit, PbftInputs};
use ici_core::config::IciConfig;
use ici_core::network::IciNetwork;
use ici_crypto::sig::Keypair;
use ici_net::faults::{FaultConfig, MessageFaultSpec};
use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::{Coord, Placement, Topology};
use ici_workload::{WorkloadConfig, WorkloadGenerator};

fn fresh_network(n: usize) -> Network {
    Network::new(
        Topology::generate(n, &Placement::default(), 9),
        LinkModel::quiet(),
    )
}

fn txs(n: u64, nonce: u64) -> Vec<Transaction> {
    (0..n)
        .map(|i| {
            Transaction::signed(
                &Keypair::from_seed(i),
                Address::from_seed(i + 1),
                1,
                1,
                nonce,
                vec![0u8; 200],
            )
        })
        .collect()
}

fn ici_network(nodes: usize, c: usize) -> IciNetwork {
    IciNetwork::new(
        IciConfig::builder()
            .nodes(nodes)
            .cluster_size(c)
            .replication(2)
            .link(LinkModel::quiet())
            .genesis(ici_chain::genesis::GenesisConfig::uniform(
                64,
                u64::MAX / 1_000_000,
            ))
            .seed(9)
            .build()
            .expect("valid configuration"),
    )
    .expect("constructs")
}

/// E1/E2/E7 code path: one full ICI block lifecycle.
fn bench_ici_block() {
    for (nodes, cluster) in [(64usize, 16usize), (128, 16)] {
        bench_with_setup(
            &format!("ici_block_lifecycle/n{nodes}_c{cluster}"),
            || (ici_network(nodes, cluster), txs(20, 0)),
            |(mut network, batch)| {
                network.propose_block(batch).expect("commits");
                network
            },
        );
    }
}

/// E3/E5 code path: one intra-cluster PBFT commit, on each side of the
/// vote-round selection — a quiet network settles its two vote rounds in
/// closed form, a jittery or faulty one sends every vote. The quiet rows
/// at 8, 16, 32 and 64 members put every arrival row through one width
/// of the quorum-selection kernel (networks of 8, 16 and 32, then the
/// `select_nth_unstable` fallback).
fn bench_pbft() {
    let network = |size: usize, link: LinkModel, lossy: bool| {
        let mut net = Network::new(Topology::generate(size, &Placement::default(), 9), link);
        if lossy {
            net.set_faults(FaultConfig {
                seed: 9,
                messages: MessageFaultSpec {
                    drop_prob: 0.05,
                    dup_prob: 0.02,
                    delay_prob: 0.05,
                    max_extra_delay_ms: 20.0,
                },
                partition: None,
            });
        }
        net
    };
    for (name, size, link, lossy) in [
        ("pbft/commit_c8/quiet", 8usize, LinkModel::quiet(), false),
        ("pbft/commit_c16/quiet", 16, LinkModel::quiet(), false),
        ("pbft/commit_c16/jittery", 16, LinkModel::default(), false),
        ("pbft/commit_c16/faulty", 16, LinkModel::default(), true),
        ("pbft/commit_c32/quiet", 32, LinkModel::quiet(), false),
        ("pbft/commit_c64/quiet", 64, LinkModel::quiet(), false),
        ("pbft/commit_c128/quiet", 128, LinkModel::quiet(), false),
    ] {
        let members: Vec<NodeId> = (0..size as u64).map(NodeId::new).collect();
        let base = network(size, link, lossy);
        bench_with_setup(
            name,
            || base.clone(),
            |mut net| {
                run_pbft_commit(
                    &mut net,
                    PbftInputs {
                        members: &members,
                        leader: NodeId::new(0),
                        start: SimTime::ZERO,
                        payload: |_| (MessageKind::BlockFull, 100_000),
                        validation: |_| Duration::from_millis(1),
                    },
                )
            },
        );
    }
}

/// Full-replication baseline (E1/E3/E7): one flood commit.
fn bench_full_block() {
    bench_with_setup(
        "full_replication_block/n256",
        || {
            (
                FullReplicationNetwork::new(FullConfig {
                    nodes: 256,
                    link: LinkModel::quiet(),
                    genesis: ici_chain::genesis::GenesisConfig::uniform(64, u64::MAX / 1_000_000),
                    seed: 9,
                    ..FullConfig::default()
                }),
                txs(20, 0),
            )
        },
        |(mut network, batch)| {
            network.propose_block(batch).expect("commits");
            network
        },
    );
}

/// RapidChain baseline (E1/E3/E7): one shard commit with IDA + votes.
fn bench_rapidchain_block() {
    bench_with_setup(
        "rapidchain_block/n256_committee64",
        || {
            (
                RapidChainNetwork::new(RapidChainConfig {
                    nodes: 256,
                    committee_size: 64,
                    link: LinkModel::quiet(),
                    genesis: ici_chain::genesis::GenesisConfig::uniform(64, u64::MAX / 1_000_000),
                    seed: 9,
                }),
                txs(20, 0),
            )
        },
        |(mut network, batch)| {
            network.propose_block(0, batch).expect("commits");
            network
        },
    );
}

/// E3 transport primitives: flood vs IDA.
fn bench_dissemination() {
    let peers: Vec<NodeId> = (0..128).map(NodeId::new).collect();
    bench_with_setup(
        "dissemination/gossip_flood_n128",
        || fresh_network(128),
        |mut net| {
            gossip_flood(
                &mut net,
                &peers,
                NodeId::new(0),
                SimTime::ZERO,
                MessageKind::BlockFull,
                100_000,
                &GossipConfig::default(),
            )
        },
    );
    let committee: Vec<NodeId> = (0..64).map(NodeId::new).collect();
    bench_with_setup(
        "dissemination/ida_c64",
        || fresh_network(64),
        |mut net| {
            run_ida_dissemination(
                &mut net,
                &committee,
                NodeId::new(0),
                SimTime::ZERO,
                100_000,
                &IdaConfig::default(),
            )
        },
    );
}

/// E4 code path: node bootstrap over an existing chain.
fn bench_bootstrap() {
    bench_with_setup(
        "bootstrap/ici_join_n64_20blocks",
        || {
            let mut network = ici_network(64, 16);
            let mut generator = WorkloadGenerator::new(WorkloadConfig {
                accounts: 64,
                ..WorkloadConfig::default()
            });
            for _ in 0..20 {
                let batch = generator.batch(10);
                network.propose_block(batch).expect("commits");
            }
            network
        },
        |mut network| {
            network
                .bootstrap_node(Coord::new(30.0, 30.0), JoinPolicy::NearestCentroid)
                .expect("joins")
        },
    );
}

/// Five joins into one cluster over a 100-block chain: each ranks only
/// the joiner at every height and prunes by the heights members hold.
fn bench_bootstrap_one_cluster() {
    bench_with_setup(
        "bootstrap/ici_5joins_one_cluster_n64_100blocks",
        || {
            let mut network = ici_network(64, 16);
            let mut generator = WorkloadGenerator::new(WorkloadConfig {
                accounts: 64,
                ..WorkloadConfig::default()
            });
            for _ in 0..100 {
                let batch = generator.batch(10);
                network.propose_block(batch).expect("commits");
            }
            // Cluster 0's centroid, which a joiner there does not move.
            let at = network
                .membership()
                .centroid(ClusterId::new(0), network.net().topology())
                .expect("cluster 0 has members");
            (network, at)
        },
        |(mut network, at)| {
            for _ in 0..5 {
                network
                    .bootstrap_node(at, JoinPolicy::NearestCentroid)
                    .expect("joins");
            }
            network
        },
    );
}

/// Body queries on a 300-block chain of 256 nodes in clusters of 16,
/// one a sample: every node in turn asks for heights spread over the
/// chain, so most reads are served inside the asker's cluster.
fn bench_query_body() {
    let mut network = ici_network(256, 16);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        ..WorkloadConfig::default()
    });
    for _ in 0..300 {
        let batch = generator.batch(10);
        network.propose_block(batch).expect("commits");
    }
    let asks: Vec<(NodeId, u64)> = (0..4096u64)
        .map(|i| (NodeId::new(i % 256), 1 + i * 37 % 300))
        .collect();
    let mut next = asks.iter().cycle();
    bench("query/body_n256_300blocks", || {
        let (requester, height) = *next.next().expect("cycles forever");
        network.query_body(requester, height).expect("served")
    });
}

/// Transaction proofs on a 300-block chain of 256 nodes in clusters of
/// 16, 40 transactions a block, one a sample: every node in turn asks
/// for a transaction at heights spread over the chain. Setup's first
/// query catches the locator up, so a sample is one locate, one 8-leaf
/// subtree and the levels above the block's kept roots.
fn bench_query_tx() {
    let mut network = ici_network(256, 16);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        accounts: 256,
        ..WorkloadConfig::default()
    });
    for _ in 0..300 {
        let batch = generator.batch(40);
        network.propose_block(batch).expect("commits");
    }
    let asks: Vec<(NodeId, TxId)> = (0..4096u64)
        .map(|i| {
            let block = network.block(1 + i * 37 % 300).expect("committed");
            let txs = block.transactions();
            (NodeId::new(i % 256), txs[i as usize % txs.len()].id())
        })
        .collect();
    network
        .query_transaction(asks[0].0, &asks[0].1)
        .expect("proven");
    let mut next = asks.iter().cycle();
    bench("query/tx_proof_n256_300blocks", || {
        let (requester, id) = next.next().expect("cycles forever");
        network.query_transaction(*requester, id).expect("proven")
    });
}

/// E6 code path: audit + repair after a crash.
fn bench_repair() {
    bench_with_setup(
        "repair/crash2_repair_n64",
        || {
            let mut network = ici_network(64, 16);
            let mut generator = WorkloadGenerator::new(WorkloadConfig {
                accounts: 64,
                ..WorkloadConfig::default()
            });
            for _ in 0..10 {
                let batch = generator.batch(10);
                network.propose_block(batch).expect("commits");
            }
            network.crash_node(NodeId::new(1)).expect("known");
            network.crash_node(NodeId::new(2)).expect("known");
            network
        },
        |mut network| {
            network.repair_all();
            network
        },
    );
}

fn main() {
    bench_ici_block();
    bench_pbft();
    bench_full_block();
    bench_rapidchain_block();
    bench_dissemination();
    bench_bootstrap();
    bench_bootstrap_one_cluster();
    bench_query_body();
    bench_query_tx();
    bench_repair();
}
