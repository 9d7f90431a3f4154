//! Micro-benchmarks over the substrates: the simulated network's
//! per-message cost, hashing, MACs, Merkle trees, erasure coding,
//! assignment, codec, and clustering. These bound the
//! cost-model constants used by the simulator and expose regressions in
//! the hot paths.
//!
//! Runs on the in-repo std-only harness (`ici_bench::harness`) so
//! `cargo bench` needs no external dependencies.

use std::cell::RefCell;
use std::collections::BTreeSet;

use ici_bench::harness::{bench, bench_with_setup};
use ici_chain::block::{Block, BlockHeader};
use ici_chain::builder::BlockBuilder;
use ici_chain::codec::{Decode, Encode};
use ici_chain::genesis::GenesisConfig;
use ici_chain::locator::TxLocator;
use ici_chain::mempool::Mempool;
use ici_chain::state::WorldState;
use ici_chain::transaction::{Address, Transaction};
use ici_chain::validation::validate_block;
use ici_cluster::kmeans::{balanced_kmeans, KMeansConfig};
use ici_consensus::pbft::{run_pbft_commit_in, PbftInputs, VoteScratch};
use ici_core::config::IciConfig;
use ici_core::holdings::NodeHoldings;
use ici_core::network::IciNetwork;
use ici_crypto::gf256::Gf256;
use ici_crypto::hmac::hmac_sha256;
use ici_crypto::lottery::{
    for_each_lottery_score, for_each_rendezvous_rank, lottery_score, rendezvous_rank,
};
use ici_crypto::merkle::MerkleTree;
use ici_crypto::rs::ReedSolomon;
use ici_crypto::sha256::{digest_messages, kernels, Digest, Message, Sha256, WIDE};
use ici_crypto::sig::{Keypair, PublicKey};
use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::{Placement, Topology};
use ici_storage::assignment::{Assignment, AssignmentStrategy};
use ici_storage::audit::Holdings;
use ici_storage::recovery::{plan_recovery, BlockRef};
use ici_workload::{PayloadSize, SenderDistribution, WorkloadConfig, WorkloadGenerator};

fn bench_sha256() {
    for size in [64usize, 1_024, 65_536] {
        let data = vec![0xA5u8; size];
        bench(&format!("sha256/{size}B"), || Sha256::digest(&data));
    }
    // The raw compression kernels side by side, same input sizes (no
    // padding block): what the CPU's SHA extensions buy on this host.
    for (name, kernel) in kernels() {
        for size in [64usize, 1_024, 65_536] {
            let blocks = vec![[0xA5u8; 64]; size / 64];
            bench(&format!("sha256/{name}/{size}B"), || {
                let mut state = [0u32; 8];
                kernel(&mut state, &blocks);
                state
            });
        }
    }
    // Sixteen leaf-sized messages (a transaction encoding after the
    // leaf prefix) through the batch entry: one sixteen-lane call where
    // the CPU has AVX-512, against `sha256/digest/33B`-style one-by-one
    // digests of the same bytes.
    let leaf = vec![0xA5u8; 346];
    let mut messages: [Message; WIDE] = std::array::from_fn(|_| Message::from(&leaf[..]));
    let mut out = [Digest::ZERO; WIDE];
    bench("sha256/batch16/346B", || {
        digest_messages(&mut messages, false, &mut out);
        out[0]
    });
    bench("sha256/x16/346B", || {
        (0..WIDE).fold(0u8, |acc, _| acc ^ Sha256::digest(&leaf).as_bytes()[0])
    });
}

/// One 16-member cluster's leader lottery and owner ranking, each id
/// through the streaming hasher against the sixteen-wide batch the protocol
/// calls: the per-member hashing an `ici_wide` height does 64 times.
fn bench_lottery() {
    let seed = Sha256::digest(b"parent");
    let ids: Vec<u64> = (0..16).map(|i| i * 31 + 5).collect();
    bench("lottery/x16/per_id", || {
        ids.iter()
            .map(|&id| (lottery_score(&seed, 7, id), id))
            .min()
    });
    bench("lottery/x16/batched", || {
        let mut best = None;
        for_each_lottery_score(&seed, 7, ids.iter().copied(), |id, score| {
            if best.is_none_or(|b| (score, id) < b) {
                best = Some((score, id));
            }
        });
        best
    });
    bench("rendezvous/x16/per_id", || {
        ids.iter()
            .map(|&id| rendezvous_rank(&seed, id))
            .fold(0, u64::wrapping_add)
    });
    bench("rendezvous/x16/batched", || {
        let mut sum = 0u64;
        for_each_rendezvous_rank(&seed, ids.iter().copied(), |_, rank| {
            sum = sum.wrapping_add(rank);
        });
        sum
    });
    // The one-id ranking a join makes per height: a short group, hashed
    // on the one-message kernel.
    bench("rendezvous/x1/batched", || {
        let mut rank = 0;
        for_each_rendezvous_rank(&seed, [ids[0]], |_, r| rank = r);
        rank
    });
}

fn bench_hmac() {
    let data = vec![0x3Cu8; 1_024];
    bench("hmac_sha256/1KiB", || hmac_sha256(b"bench key", &data));
}

fn bench_simsig() {
    let pair = Keypair::from_seed(1);
    let msg = vec![0u8; 200];
    let sig = pair.sign(&msg);
    bench("simsig/sign", || pair.sign(&msg));
    bench("simsig/verify", || pair.public().verify(&msg, &sig));
    // Sixteen checks of the same shape, the four HMAC hashes each one
    // sixteen-lane call: compare with 16 × `simsig/verify`.
    let public = pair.public();
    let mut messages: [Message; WIDE] = std::array::from_fn(|_| Message::from(&msg[..]));
    bench("simsig/verify/x16_batched", || {
        PublicKey::verify16([&public; WIDE], &mut messages, [&sig; WIDE])
    });
    // Sixteen signatures the same way: compare with 16 × `simsig/sign`.
    bench("simsig/sign/x16_batched", || {
        Keypair::sign16([&pair; WIDE], &mut messages)
    });
}

fn bench_merkle() {
    for leaves in [64usize, 1_024] {
        let data: Vec<Vec<u8>> = (0..leaves).map(|i| vec![i as u8; 64]).collect();
        bench(&format!("merkle/build/{leaves}"), || {
            MerkleTree::from_leaves(data.iter().map(|v| v.as_slice()))
        });
        let tree = MerkleTree::from_leaves(data.iter().map(|v| v.as_slice()));
        bench(&format!("merkle/prove/{leaves}"), || {
            tree.prove(leaves / 2).expect("in range")
        });
        let proof = tree.prove(leaves / 2).expect("in range");
        bench(&format!("merkle/verify/{leaves}"), || {
            proof.verify(&data[leaves / 2], tree.root())
        });
    }
}

fn bench_reed_solomon() {
    let rs = ReedSolomon::new(16, 8).expect("valid geometry");
    let payload = vec![0x5Au8; 1 << 20]; // 1 MiB block body
    bench("reed_solomon/encode/1MiB_16+8", || {
        rs.encode_payload(&payload)
    });
    let shards = rs.encode_payload(&payload);
    bench("reed_solomon/reconstruct/1MiB_8_erasures", || {
        let mut damaged: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        for i in [0, 3, 5, 7, 9, 16, 20, 23] {
            damaged[i] = None;
        }
        rs.reconstruct(&mut damaged).expect("within budget");
        damaged
    });
}

fn bench_gf256() {
    bench("gf256/mul_1M", || {
        let mut acc = Gf256(1);
        for i in 0..1_000_000u32 {
            acc = acc.mul(Gf256((i % 255 + 1) as u8));
        }
        acc
    });
}

fn bench_assignment() {
    let members: Vec<NodeId> = (0..64).map(NodeId::new).collect();
    let id = Sha256::digest(b"block");
    bench("assignment/rendezvous/c64_r2", || {
        Assignment::Rendezvous.owners(&id, 7, &members, 2)
    });
    bench("assignment/ring/c64_r2", || {
        Assignment::Ring.owners(&id, 7, &members, 2)
    });
    bench("assignment/round_robin/c64_r2", || {
        Assignment::RoundRobin.owners(&id, 7, &members, 2)
    });
}

fn bench_codec() {
    let tx = Transaction::signed(
        &Keypair::from_seed(1),
        Address::from_seed(2),
        100,
        1,
        0,
        vec![0u8; 200],
    );
    let bytes = tx.to_bytes();
    bench("codec/tx_encode", || tx.to_bytes());
    bench("codec/tx_decode", || {
        Transaction::from_bytes(&bytes).expect("valid")
    });
    // 63 full groups of encodings written into reused leaf messages.
    let txs = signed_batch(1_008, 0);
    let mut leaves = vec![Digest::ZERO; txs.len()];
    bench("codec/leaf_messages/x1008", || {
        Transaction::leaf_hashes(&txs, &mut leaves);
        leaves[0]
    });
}

/// `n` transfers with 200-byte payloads, each from its own sender, at
/// `nonce`.
fn signed_batch(n: u64, nonce: u64) -> Vec<Transaction> {
    (0..n)
        .map(|i| {
            let to = Address::from_seed(i + 1);
            Transaction::signed(&Keypair::from_seed(i), to, 5, 1, nonce, vec![7; 200])
        })
        .collect()
}

/// A transaction locator's first catch-up over an `ici_read`-shaped
/// chain, 300 blocks of 40 transactions: what the first proof of a run
/// pays.
fn bench_locator() {
    let header = BlockHeader {
        height: 0,
        parent: Digest::ZERO,
        tx_root: Digest::ZERO,
        state_root: Digest::ZERO,
        timestamp_ms: 0,
        proposer: 0,
        pow_nonce: 0,
        tx_count: 0,
        body_len: 0,
    };
    let chain: Vec<Block> = (0..300)
        .map(|height| Block::new(BlockHeader { height, ..header }, signed_batch(40, height)))
        .collect();
    bench_with_setup("locator/catch_up/300x40", TxLocator::new, |mut locator| {
        locator.catch_up(&chain);
        locator
    });
}

/// Balanced k-means at 512 nodes (16 and 32 clusters; `ici_wide`
/// clusters 512 nodes into 32) and at 4 096 nodes in clusters of 64.
fn bench_clustering() {
    for (nodes, k) in [(512, 16), (512, 32), (4_096, 64)] {
        let topo = Topology::generate(nodes, &Placement::default(), 3);
        bench_with_setup(
            &format!("clustering/balanced_kmeans_{nodes}_k{k}"),
            || (),
            |()| balanced_kmeans(&topo, &KMeansConfig::with_k(k, 3)),
        );
    }
}

/// The simulated network's own cost per message, in batches large
/// enough to dwarf the harness's two clock reads: plain sends on a warm
/// 512-node meter, one voter's broadcast to its 15 peers, and the same
/// broadcast on the voter's own sequence stream, as a vote round on a
/// jittery or faulty network sends it.
fn bench_net() {
    let quiet = LinkModel::quiet();
    let nodes = 512u64;
    let mut net = Network::new(
        Topology::generate(nodes as usize, &Placement::default(), 3),
        quiet,
    );
    let vote = ici_consensus::pbft::VOTE_BYTES;
    bench("net/send/x1000", || {
        for i in 0..1_000u64 {
            let (from, to) = (NodeId::new(i % nodes), NodeId::new((i * 7 + 1) % nodes));
            std::hint::black_box(net.send(from, to, MessageKind::Vote, vote));
        }
    });
    // One cluster of ids spread over the network, as k-means leaves them.
    let cluster: Vec<NodeId> = (0..16).map(|i| NodeId::new(i * 31 + 5)).collect();
    let (voter, peers) = (cluster[0], &cluster[1..]);
    bench("net/broadcast_c16/x64", || {
        for _ in 0..64 {
            net.broadcast(voter, peers, MessageKind::Vote, vote, |_, sent| {
                std::hint::black_box(sent);
            });
        }
    });
    bench("net/stream_c16/x64", || {
        for id in 0..64 {
            let mut stream = net.stream(id);
            net.on_stream(&mut stream, |net| {
                net.broadcast(voter, peers, MessageKind::Vote, vote, |_, sent| {
                    std::hint::black_box(sent);
                });
            });
        }
    });
}

/// One quiet 16-member commit as `ici_wide` runs it, with a fresh
/// `VoteScratch` (the pair-delay table filled on every call) and with
/// the cluster's kept one (filled once, then reused).
fn bench_vote_table() {
    let quiet = LinkModel::quiet();
    let mut net = Network::new(Topology::generate(512, &Placement::default(), 3), quiet);
    let cluster: Vec<NodeId> = (0..16).map(|i| NodeId::new(i * 31 + 5)).collect();
    let commit = |net: &mut Network, scratch: &mut VoteScratch| {
        run_pbft_commit_in(
            net,
            PbftInputs {
                members: &cluster,
                leader: cluster[0],
                start: SimTime::ZERO,
                payload: |_| (MessageKind::BlockHeader, 200),
                validation: |_| Duration::from_micros(100),
            },
            scratch,
        )
    };
    bench("pbft/closed_c16/cold", || {
        commit(&mut net, &mut VoteScratch::default())
    });
    let mut warm = VoteScratch::default();
    bench("pbft/closed_c16/warm", || commit(&mut net, &mut warm));
}

/// One `ici_bigblock`-shaped block (1 000 transactions over 4 096
/// accounts) priced on both sides of every hash a block pays once: a
/// signature's first check against its remembered verdict, apply on a
/// state without and with a v2 lattice to maintain, and validation of a
/// body nobody has checked against one its builder already did.
fn bench_block_path() {
    let genesis_cfg = GenesisConfig::uniform(4_096, 1_000_000);
    let genesis = genesis_cfg.genesis_block();
    let flat = genesis_cfg.initial_state();
    let mut lattice = flat.clone();
    lattice.sharded_root();
    // Never verified: every clone of this batch starts with unknown verdicts.
    let unchecked = WorkloadGenerator::new(WorkloadConfig {
        accounts: 4_096,
        seed: 17,
        ..WorkloadConfig::default()
    })
    .batch(1_000);
    let checked = unchecked.clone();
    assert!(checked.iter().all(Transaction::verify_signature));
    let verify_all = |txs: Vec<Transaction>| {
        let valid = txs.iter().filter(|tx| tx.verify_signature()).count();
        (valid, txs)
    };
    bench_with_setup(
        "tx/verify_signature/first/x1000",
        || unchecked.clone(),
        verify_all,
    );
    bench_with_setup(
        "tx/verify_signatures/x1000_batched",
        || unchecked.clone(),
        |txs| {
            Transaction::verify_signatures(&txs);
            verify_all(txs)
        },
    );
    bench_with_setup(
        "tx/verify_signature/memo/x1000",
        || checked.clone(),
        verify_all,
    );
    // Decoded copies: what a validator receives off the wire, verdict
    // unknown.
    let encoded: Vec<Vec<u8>> = checked.iter().map(Encode::to_bytes).collect();
    bench_with_setup(
        "tx/verify_signature/x1000_fresh",
        || {
            encoded
                .iter()
                .map(|bytes| Transaction::from_bytes(bytes).expect("encoded transaction"))
                .collect()
        },
        verify_all,
    );
    // What a verified-set keyed by transaction id would pay per lookup
    // before it saved anything.
    bench("tx/id/x1000", || {
        checked
            .iter()
            .fold(0u8, |acc, tx| acc ^ tx.id().as_bytes()[0])
    });

    let collector = Address::from_seed(0);
    // Every recipient a new account: the table's creation path, where
    // each transfer also grows the index and shifts the address order.
    let fresh: Vec<Transaction> = (0..1_000u64)
        .map(|seed| {
            let to = Address::from_seed(1_000_000 + seed);
            Transaction::signed(&Keypair::from_seed(seed), to, 10, 1, 0, Vec::new())
        })
        .collect();
    assert!(fresh.iter().all(Transaction::verify_signature));
    for (name, state, txs) in [
        ("flat", &flat, &checked),
        ("lattice", &lattice, &checked),
        ("fresh_recipients", &flat, &fresh),
    ] {
        bench_with_setup(
            &format!("state/apply_1000tx/{name}"),
            || state.clone(),
            |mut state| {
                for tx in txs {
                    state.apply(tx, collector).expect("valid stream");
                }
                state
            },
        );
    }
    let balances: Vec<(Address, u64)> = (0..65_536)
        .map(|seed| (Address::from_seed(seed), 1_000))
        .collect();
    bench("state/with_balances/65536", || {
        WorldState::with_balances(balances.iter().copied())
    });
    // A state's bulk inputs: 65 536 genesis addresses (a key and an
    // address hash each, sixteen seeds at a time), the v2 lattice over
    // as many accounts (one leaf hash each, sixteen at a time), and a
    // `state_scale`-shaped batch of 1 000 signed transactions.
    bench("genesis/uniform/65536", || {
        GenesisConfig::uniform(65_536, 1_000)
    });
    bench_with_setup(
        "state/lattice_build/65536",
        || WorldState::with_balances(balances.iter().copied()),
        |mut state| {
            state.sharded_root();
            state
        },
    );
    let generator = WorkloadGenerator::new(WorkloadConfig {
        accounts: 65_536,
        senders: SenderDistribution::Zipf { exponent: 1.1 },
        payload: PayloadSize::Fixed(64),
        fee_jitter: 9,
        seed: 17,
        ..WorkloadConfig::default()
    });
    bench_with_setup(
        "workload/batch/x1000",
        || generator.clone(),
        |mut generator| generator.batch(1_000),
    );

    // A sender address: one digest of a 33-byte public key.
    let key = *checked[0].sender().as_bytes();
    bench("sha256/digest/33B", || Sha256::digest(&key));
    bench("block/tx_root/1000", || Block::compute_tx_root(&checked));

    let filled = |batch: &[Transaction]| {
        let mut builder = BlockBuilder::new(genesis.header(), flat.clone(), 0, 1);
        assert_eq!(builder.fill(batch.iter().cloned()), batch.len());
        builder
    };
    bench_with_setup(
        "builder/seal_1000tx",
        || filled(&checked),
        BlockBuilder::seal,
    );

    let header = *filled(&checked).seal().header();
    let validate = |block: Block| {
        validate_block(&block, genesis.header(), &flat).expect("valid block");
        block
    };
    bench_with_setup(
        "validate_block/1000tx/cold",
        || Block::from_parts(header, unchecked.clone()).expect("same body"),
        validate,
    );
    bench_with_setup(
        "validate_block/1000tx/memo",
        || Block::from_parts(header, checked.clone()).expect("same body"),
        validate,
    );
}

/// A `state_scale`-shaped pool round: 2 000 zipf transactions offered to
/// a 2 000-slot pool, then a 1 000-transaction pick. The signatures are
/// verified beforehand, so the row prices the pool's bookkeeping and the
/// hashing admission adds beyond the remembered verdict.
fn bench_mempool() {
    let offers = WorkloadGenerator::new(WorkloadConfig {
        accounts: 1_000_000,
        senders: SenderDistribution::Zipf { exponent: 1.1 },
        payload: PayloadSize::Fixed(64),
        fee_jitter: 9,
        seed: 17,
        ..WorkloadConfig::default()
    })
    .batch(2_000);
    assert!(offers.iter().all(Transaction::verify_signature));
    bench_with_setup(
        "mempool/admit_take",
        || (Mempool::new(2_000), offers.clone()),
        |(mut pool, offers)| {
            for tx in offers {
                let _ = pool.insert(tx);
            }
            let picked = pool.take_for_block(1_000);
            (pool, picked)
        },
    );
}

/// What a fault round pays per cluster — holdings bookkeeping, the
/// integrity audit, recovery planning, the repair certificate — and the
/// from-scratch Merkle oracle beside it, on an `ici_churn`-shaped
/// deployment (N=128, c=16, r=2, 40-tx blocks) at two chain lengths 64×
/// apart: a row that reads the same at both does not grow with the
/// chain.
fn bench_holdings_and_audits() {
    for heights in [64u64, 4_096] {
        // A node's share at r/c = 2/16: every eighth height.
        let mut share = NodeHoldings::new();
        for h in (0..heights).step_by(8) {
            share.add_body(h, 100);
        }
        bench_with_setup(
            &format!("holdings/add_body/x1000/h{heights}"),
            || share.clone(),
            |mut held| {
                // The next thousand bodies of its share, as the chain grows.
                for h in (heights..).step_by(8).take(1_000) {
                    held.add_body(h, 100);
                }
                held
            },
        );
        bench(&format!("holdings/has_body/x1000/h{heights}"), || {
            (0..1_000u64)
                .filter(|i| share.has_body(std::hint::black_box(i * 37 % heights)))
                .count()
        });

        let mut workload = WorkloadGenerator::new(ici_bench::standard_workload(17));
        let config = IciConfig::builder()
            .nodes(128)
            .cluster_size(16)
            .replication(2)
            .link(ici_bench::quiet_link())
            .genesis(GenesisConfig::uniform(256, u64::MAX / 1_000_000))
            .seed(17)
            .build()
            .expect("valid configuration");
        let mut net = IciNetwork::new(config).expect("constructs");
        for _ in 1..heights {
            net.propose_block(workload.batch(40)).expect("commits");
        }
        // Re-clustering salts its seed with the chain length, so the
        // first call may move nodes; from the second on (same length,
        // same partition) it only prunes replicas past the assignment —
        // how the crash row below returns to the same state every sample.
        net.reconfigure_clusters();
        let cluster = net.clusters()[0];
        let members = net.membership().members(cluster).to_vec();
        net.repair_and_certify(cluster); // first sight: every height hashed once

        bench(&format!("audit/cluster_c16/h{heights}"), || {
            net.audit(cluster)
        });
        bench(&format!("merkle_audit/all_c16x8/h{heights}"), || {
            net.merkle_audit_all()
        });

        // One member down, planned through the public slice planner.
        let holdings: Holdings = members
            .iter()
            .map(|m| {
                let held = net.holdings(*m).expect("member").body_heights().clone();
                (*m, held)
            })
            .collect();
        let live: BTreeSet<NodeId> = members[1..].iter().copied().collect();
        let blocks: Vec<BlockRef> = (0..net.chain_len())
            .map(|h| {
                let block = net.block(h).expect("committed");
                BlockRef {
                    id: block.id(),
                    height: h,
                    body_bytes: u64::from(block.header().body_len),
                }
            })
            .collect();
        bench(&format!("repair/plan_c16_one_crash/h{heights}"), || {
            plan_recovery(&blocks, &holdings, &live, &Assignment::Rendezvous, 2)
        });

        // The certificate after a member crashed: the repair re-homes
        // its share (an eighth of the chain) and every written height
        // is hashed again. Before the next sample the member restarts
        // and the surplus is pruned.
        let restart = |net: &mut IciNetwork, down: &mut Option<NodeId>| {
            if let Some(node) = down.take() {
                net.recover_node(node).expect("known node");
                net.reconfigure_clusters();
            }
        };
        let net = RefCell::new(net);
        let mut victims = members.iter().copied().cycle();
        let mut down = None;
        bench_with_setup(
            &format!("merkle_audit/certify_after_one_crash/h{heights}"),
            || {
                let mut net = net.borrow_mut();
                restart(&mut net, &mut down);
                down = victims.next();
                net.crash_node(down.expect("cycles")).expect("known node");
            },
            |()| net.borrow_mut().repair_and_certify(cluster),
        );
        restart(&mut net.borrow_mut(), &mut down);

        // A quiet round's certificate: nothing to repair, one new height
        // to hash. Each sample commits that height first, so the chain
        // ends a few hundred blocks past `heights`.
        bench_with_setup(
            &format!("merkle_audit/certify_quiet_round/h{heights}"),
            || {
                let batch = workload.batch(40);
                net.borrow_mut().propose_block(batch).expect("commits");
            },
            |()| net.borrow_mut().repair_and_certify(cluster),
        );
    }
}

fn main() {
    bench_net();
    bench_vote_table();
    bench_block_path();
    bench_mempool();
    bench_holdings_and_audits();
    bench_sha256();
    bench_lottery();
    bench_hmac();
    bench_simsig();
    bench_merkle();
    bench_reed_solomon();
    bench_gf256();
    bench_assignment();
    bench_codec();
    bench_locator();
    bench_clustering();
}
