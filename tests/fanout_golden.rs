//! Digests of everything that used to fan out over a worker pool,
//! pinned as hex.
//!
//! Reed–Solomon parity and reconstruction, Merkle leaf and level
//! hashing, the k-means assignment / update / pair build, a block's
//! signature checks and RapidChain's per-shard commits each ran as
//! index-ordered tasks on the `ici-par` pool until the pool was
//! deleted. These literals were taken at the last commit that had it
//! (`801014f`, where one and four worker threads agreed on every one),
//! on inputs above every size threshold that used to select a fan-out
//! path, so the plain loops that replaced the tasks must reproduce
//! them byte for byte.

use ici_chain::block::{Block, BlockHeader};
use ici_chain::codec::{Decode, Encode};
use ici_cluster::kmeans::{balanced_kmeans, kmeans, KMeansConfig};
use ici_cluster::partition::Partition;
use ici_crypto::merkle::MerkleTree;
use ici_crypto::rs::ReedSolomon;
use ici_net::topology::{Placement, Topology};
use icistrategy::prelude::*;

/// Compares every `(name, got, expected)` row and reports all
/// mismatches at once.
fn assert_pinned(rows: &[(&str, String, &str)]) {
    let drifted: Vec<String> = rows
        .iter()
        .filter(|(_, got, expected)| got != expected)
        .map(|(name, got, expected)| format!("{name}: got {got}, pinned {expected}"))
        .collect();
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}

/// Encodes `payload`, erases two shards, reconstructs, and digests the
/// shards and the repaired set.
fn rs_digest(data: usize, parity: usize, payload_len: usize, erased: [usize; 2]) -> String {
    let payload: Vec<u8> = (0..payload_len as u32)
        .map(|i| (i * 31 + 7) as u8)
        .collect();
    let rs = ReedSolomon::new(data, parity).expect("valid geometry");
    let shards = rs.encode_payload(&payload);
    let mut holed: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
    for i in erased {
        holed[i] = None;
    }
    rs.reconstruct(&mut holed).expect("recoverable");
    assert_eq!(
        rs.join_payload(&holed, payload.len()).expect("joined"),
        payload
    );
    let mut hasher = Sha256::new();
    for shard in shards.iter().chain(holed.iter().flatten()) {
        hasher.update(&(shard.len() as u64).to_le_bytes());
        hasher.update(shard);
    }
    hasher.finalize().to_hex()
}

#[test]
fn reed_solomon_shards_and_repairs_are_pinned() {
    assert_pinned(&[
        (
            // shard_len 25 000: three byte stripes and a tail.
            "rs(8,2) over 200 000 bytes, shards 1 and 6 erased",
            rs_digest(8, 2, 200_000, [1, 6]),
            "da79a3acf71bf1b98fd4c021b591c7f34414c9f77349fc5a73bf47e6834ebf81",
        ),
        (
            // Eight parity rows: one task per row at any pool width.
            "rs(16,8) over 64 KiB, shards 0 and 19 erased",
            rs_digest(16, 8, 64 * 1024, [0, 19]),
            "614ec68dea53917ca75aedb3edfaa88d43c398fe73ce5801a5a76c58767ebfde",
        ),
    ]);
}

#[test]
fn merkle_root_over_4096_leaves_is_pinned() {
    let leaves: Vec<Vec<u8>> = (0..4096u32).map(|i| i.to_le_bytes().repeat(9)).collect();
    let borrowed = MerkleTree::from_leaves(leaves.iter().map(Vec::as_slice));
    let proof = borrowed.prove(4001).expect("in range");
    assert!(proof.verify(&leaves[4001], borrowed.root()));
    let owned = MerkleTree::from_owned_leaves(leaves);
    assert_eq!(owned, borrowed);
    assert_pinned(&[(
        "4 096-leaf root",
        owned.root().to_hex(),
        "8bfbd4c8d867f9ec13093c28ce5917c89999985788b5ae83d761875f3c0aff3c",
    )]);
}

/// Every node's cluster, then each cluster's mean coordinate as raw
/// `f64` bits.
fn partition_digest(partition: &Partition, topology: &Topology) -> String {
    let mut hasher = Sha256::new();
    for node in (0..topology.len() as u64).map(NodeId::new) {
        hasher.update(&partition.cluster_of(node).get().to_le_bytes());
    }
    for (_, members) in partition.iter() {
        let (mut x, mut y) = (0.0f64, 0.0f64);
        for &member in members {
            let coord = topology.coord(member);
            x += coord.x;
            y += coord.y;
        }
        let n = members.len().max(1) as f64;
        hasher.update(&(x / n).to_bits().to_le_bytes());
        hasher.update(&(y / n).to_bits().to_le_bytes());
    }
    hasher.finalize().to_hex()
}

#[test]
fn kmeans_partitions_of_3000_points_are_pinned() {
    // Three 1 024-point chunks: the Lloyd update reduces per-chunk
    // partial sums in chunk order, and every centroid bit depends on it.
    let topology = Topology::generate(3000, &Placement::Uniform { side: 400.0 }, 23);
    let config = KMeansConfig::with_k(12, 23);
    assert_pinned(&[
        (
            "kmeans n=3000 k=12",
            partition_digest(&kmeans(&topology, &config), &topology),
            "da011fbc8e9675b23fd57c44ebaa36a1cac5ae605e0b04b7af36beb7d95fde7e",
        ),
        (
            "balanced_kmeans n=3000 k=12",
            partition_digest(&balanced_kmeans(&topology, &config), &topology),
            "6f63f5dd283293c574609107ce957d911f45ac5775e830f538a2291e2ac6c472",
        ),
    ]);
}

const ACCOUNTS: u64 = 64;

fn signed(sender: u64, amount: u64, nonce: u64) -> Transaction {
    Transaction::signed(
        &Keypair::from_seed(sender),
        Address::from_seed((sender * 7 + 3) % ACCOUNTS),
        amount,
        1 + sender % 5,
        nonce,
        vec![sender as u8; (sender % 40) as usize],
    )
}

/// `tx` with its last payload byte flipped: decodes, fails verification.
fn forged(tx: &Transaction) -> Transaction {
    let mut bytes = tx.to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    let forged = Transaction::from_bytes(&bytes).expect("still decodes");
    assert!(!forged.verify_signature());
    forged
}

/// A 256-transaction block (four per sender, nonces in order) with a
/// forged signature at `forged_at` and, if asked, an overdraft at 100.
fn block_256(forged_at: usize, overdraft: bool) -> Block {
    let mut txs: Vec<Transaction> = (0..256u64)
        .map(|i| signed(i % ACCOUNTS, 10 + i, i / ACCOUNTS))
        .collect();
    // The payload is encoded last, so it must be non-empty to flip.
    assert!(!txs[forged_at].payload().is_empty());
    txs[forged_at] = forged(&txs[forged_at]);
    if overdraft {
        txs[100] = signed(100 % ACCOUNTS, 1_000_000, 100 / ACCOUNTS);
    }
    Block::new(
        BlockHeader {
            height: 1,
            parent: Digest::ZERO,
            tx_root: Digest::ZERO,
            state_root: Digest::ZERO,
            timestamp_ms: 1,
            proposer: 1,
            pow_nonce: 0,
            tx_count: 0,
            body_len: 0,
        },
        txs,
    )
}

/// Error index, error text and the partially applied state's root.
fn failed_apply_line(block: &Block) -> String {
    let mut state =
        WorldState::with_balances((0..ACCOUNTS).map(|s| (Address::from_seed(s), 100_000)));
    let (index, error) = state.apply_block(block).expect_err("must fail");
    format!("{index} | {error} | {}", state.root().to_hex())
}

/// The name is a tier-1 floor: the two lines were recorded where one
/// and four physical state shards agreed on them; the state is one map
/// now and must still produce them.
#[test]
fn mid_block_failures_are_pinned_at_one_and_four_state_shards() {
    assert_pinned(&[
        (
            "overdraft at 100 before a forged signature at 200",
            failed_apply_line(&block_256(200, true)),
            "100 | insufficient balance for f00c301a59e83a009428f8cdf9da732228d78df3: have 100082, need 1000002 | 4b3fef8509481e49c67763f7910f48094fe2bc7bd6560fabdc8c79253de1bef5",
        ),
        (
            "forged signature at 200",
            failed_apply_line(&block_256(200, false)),
            "200 | invalid transaction signature | f1b783c60fce4247dbf2e962b8a652dc7da35c90221e4c4387c1ca9319cfb52a",
        ),
    ]);
}

#[test]
fn four_shard_rapidchain_round_is_pinned() {
    let mut net = RapidChainNetwork::new(RapidChainConfig {
        nodes: 32,
        committee_size: 8,
        seed: 29,
        ..RapidChainConfig::default()
    });
    assert_eq!(net.shard_count(), 4);
    let mut workload = WorkloadGenerator::new(WorkloadConfig {
        seed: 29,
        ..WorkloadConfig::default()
    });
    let batches = (0..4).map(|shard| (shard, workload.batch(12))).collect();
    let heights = net.propose_round(batches);
    assert_eq!(heights, vec![Some(1); 4]);
    let commits: Vec<String> = net
        .commit_log()
        .iter()
        .map(|r| {
            format!(
                "{}:{}@{}..{} {}/{} reached={} txs={} body={}",
                r.height,
                r.proposer.get(),
                r.proposed_at.as_micros(),
                r.network_commit.as_micros(),
                r.messages,
                r.bytes,
                r.reached,
                r.tx_count,
                r.body_bytes,
            )
        })
        .collect();
    let meter = net.net().meter();
    let by_kind: Vec<String> = meter
        .by_kind()
        .iter()
        .map(|(kind, c)| format!("{}={}/{}", kind.name(), c.messages, c.bytes))
        .collect();
    let mut per_node = Sha256::new();
    for node in (0..32).map(NodeId::new) {
        let (sent, received) = (meter.sent_by(node), meter.received_by(node));
        for word in [sent.messages, sent.bytes, received.messages, received.bytes] {
            per_node.update(&word.to_le_bytes());
        }
    }
    let tips: Vec<String> = (0..4)
        .map(|shard| net.shard_block(shard, 1).expect("committed").id().to_hex()[..16].to_string())
        .collect();
    let line = format!(
        "{} | total={}/{} [{}] nodes={} | tips={} | clock_us={}",
        commits.join(", "),
        meter.total().messages,
        meter.total().bytes,
        by_kind.join(" "),
        &per_node.finalize().to_hex()[..16],
        tips.join(","),
        net.now().as_micros(),
    );
    assert_pinned(&[("one round over four shards", line, "1:15@27..395917 224/57904 reached=8 txs=12 body=3276, 1:1@23..359427 224/54096 reached=8 txs=10 body=2730, 1:10@20..319383 224/52192 reached=8 txs=9 body=2457, 1:2@18..352298 224/50288 reached=8 txs=8 body=2184 | total=896/214480 [block-shard=448/164304 vote=448/50176] nodes=74fbcdd89702e51f | tips=7095fbe7569a4ff3,5729791ee67c7b28,720ada6954c95bb9,9dfec42e8bf06b3a | clock_us=395917")]);
}
