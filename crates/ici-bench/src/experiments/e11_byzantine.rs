//! **E11 (extension) — Byzantine proposers vs collaborative verification.**
//!
//! What does a lying proposer cost? With probability β the height's
//! elected leader proposes a block containing a transaction with a forged
//! signature. Collaborative verification splits the signature checks
//! across the cluster, so exactly one member's slice fails, the member
//! votes reject, and the cluster falls back to the next leader in the
//! lottery order. The table reports the detection rate (must be 100 %),
//! which member caught it, and the bandwidth wasted on disseminating
//! blocks that were then rejected.
//!
//! Run: `cargo run --release -p ici-bench -- e11 [--paper]`

use ici_bench::{ici_builder, Report, Scale};
use ici_chain::block::{Block, BlockHeader};
use ici_chain::builder::BlockBuilder;
use ici_chain::codec::{Decode, Encode};
use ici_chain::genesis::GenesisConfig;
use ici_chain::transaction::{Address, Transaction};
use ici_core::network::IciNetwork;
use ici_core::verify::Verdict;
use ici_crypto::sig::Keypair;
use ici_sim::table::Table;
use ici_storage::stats::format_bytes;

/// Builds a valid candidate block, then forges the signature of one
/// transaction (recomputing the Merkle commitments so only the signature
/// check can catch it).
fn forged_block(net: &IciNetwork, n_txs: u64, victim: usize, nonce: u64) -> Block {
    let mut builder = BlockBuilder::new(net.tip(), net.state().clone(), 1, nonce * 1_000 + 1);
    for i in 0..n_txs {
        builder
            .push(Transaction::signed(
                &Keypair::from_seed(i),
                Address::from_seed(i + 1),
                2,
                1,
                nonce,
                vec![0u8; 120],
            ))
            .expect("valid transaction");
    }
    let block = builder.seal();
    let (header, mut body) = block.into_parts();
    let mut bytes = body[victim].to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 1; // flip one signature bit
    body[victim] = Transaction::from_bytes(&bytes).expect("decodes");
    Block::new(header, body)
}

pub fn run(scale: Scale) -> Report {
    let (nodes, c) = match scale {
        Scale::Small => (64usize, 16usize),
        Scale::Paper => (256, 64),
    };
    let n_txs = 32u64;
    let trials = 64usize;

    let config = ici_builder(nodes, c, 2, 47)
        .genesis(GenesisConfig::uniform(64, u64::MAX / 1_000_000))
        .build()
        .expect("valid configuration");
    let net = IciNetwork::new(config).expect("constructs");

    let mut detection = Table::new(
        format!("E11: forged-signature detection, c={c}, {n_txs} txs/block, {trials} trials"),
        [
            "forged tx index",
            "detected",
            "catching verifier covers index",
            "other clusters agree",
        ],
    );
    let cluster = net.clusters()[0];
    let members = net.live_members(cluster);
    let mut detected = 0usize;
    for trial in 0..trials {
        let victim = trial % n_txs as usize;
        let block = forged_block(&net, n_txs, victim, 0);
        let verdict = net.collaborative_verify(cluster, &block);
        let (caught, covers) = match &verdict {
            Verdict::RejectSignature { verifier, tx_index } => {
                let ranges = ici_chain::validation::split_ranges(n_txs as usize, members.len());
                let covering = members
                    .iter()
                    .zip(&ranges)
                    .find(|(_, (s, e))| (*s..*e).contains(tx_index))
                    .map(|(m, _)| *m);
                (true, covering == Some(*verifier))
            }
            _ => (false, false),
        };
        if caught {
            detected += 1;
        }
        let network_rejects = net.network_verify(&block).is_err();
        if trial < 8 {
            detection.row([
                victim.to_string(),
                if caught { "yes" } else { "NO" }.to_string(),
                if covers { "yes" } else { "NO" }.to_string(),
                if network_rejects { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    detection.row([
        format!("(all {trials} trials)"),
        format!("{detected}/{trials}"),
        String::new(),
        String::new(),
    ]);

    // Bandwidth wasted per rejected proposal: the intra-cluster
    // dissemination happens before the reject votes kill it.
    let block = forged_block(&net, n_txs, 0, 0);
    let body_bytes = block.body_len() as u64;
    let header_bytes = BlockHeader::ENCODED_LEN as u64;
    let r = 2u64;
    let wasted = r * (header_bytes + body_bytes)
        + (c as u64 - 1 - r) * header_bytes
        + 2 * (c as u64) * (c as u64 - 1) * ici_consensus::pbft::VOTE_BYTES;
    let mut cost = Table::new(
        "E11 (model): bandwidth per rejected proposal (one cluster)",
        ["component", "bytes"],
    );
    cost.row([
        "bodies to r owners",
        &format_bytes(r * (header_bytes + body_bytes)),
    ]);
    cost.row([
        "headers to the rest",
        &format_bytes((c as u64 - 1 - r) * header_bytes),
    ]);
    cost.row([
        "reject votes (2 rounds)",
        &format_bytes(2 * (c as u64) * (c as u64 - 1) * ici_consensus::pbft::VOTE_BYTES),
    ]);
    cost.row(["total wasted", &format_bytes(wasted)]);

    assert_eq!(detected, trials, "a forged signature went undetected");

    Report {
        id: "E11",
        title: "Byzantine proposers vs collaborative verification",
        params: format!("scale={scale:?}, N={nodes}, c={c}, txs/block={n_txs}, trials={trials}"),
        tables: vec![detection, cost],
        closing: Some(format!(
            "detection rate: {detected}/{trials} (collaborative verification is sound)"
        )),
    }
}
