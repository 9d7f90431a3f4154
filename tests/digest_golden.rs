//! Digests of one small fixed-seed chain, pinned as hex.
//!
//! The committed `results/e*.json` records carry counts and ratios but
//! no digests, so nothing else in tier 1 would notice a SHA-256 kernel
//! that is wrong but self-consistent. These literals were taken from
//! the commit before the hardware kernel existed (scalar FIPS 180-4
//! loop only); whichever kernel `ici-crypto` selects on this host must
//! reproduce them.

use icistrategy::prelude::*;

const SEED: u64 = 17;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn two_block_chain_digests_are_pinned() {
    let config = IciConfig::builder()
        .nodes(16)
        .cluster_size(8)
        .replication(2)
        .seed(SEED)
        .build()
        .expect("16/8/2 validates");
    let mut net = IciNetwork::new(config).expect("16/8/2 builds");
    let mut workload = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed: SEED,
        ..WorkloadConfig::default()
    });
    for _ in 0..2 {
        net.propose_block(workload.batch(5))
            .expect("healthy commit");
    }

    let block = net.block(2).expect("two blocks past genesis");
    let first_tx = &block.transactions()[0];
    assert!(first_tx.verify_signature());
    // The header's state root is the flat-v1 commitment.
    assert_eq!(net.state().root(), block.header().state_root);

    let pinned = [
        (
            "block id",
            block.id().to_hex(),
            "91237fec7ccb83411a62e44b9ec07a6a3f9a8f855c6801fc798e9728d3a3aac8",
        ),
        (
            "tx root",
            block.header().tx_root.to_hex(),
            "dac9d2f39be4cc4082f9b3bead4f6a5e3628e32ec3a3db1f89aac7102e5cb9ee",
        ),
        (
            "flat-v1 state root",
            block.header().state_root.to_hex(),
            "486c3a6ad33aa4d6e9189579dad330df39aa361ccfb2b0b481f8a303be301e2a",
        ),
        // Taken at the commit before the v2 lattice went lazy.
        (
            "sharded-v2 state root",
            net.state().clone().sharded_root().to_hex(),
            "76e41d192d15f1292c53892b98bdf061893ef5129a8a606d77094566d2b4d6d9",
        ),
        (
            "SimSig signature",
            hex(first_tx.signature().as_bytes()),
            "3f57e56007199f1c8529965b155bb71962b597b504bf0e13b02c702191b269eb\
             c69d6784c3c1489a28fbf163644bd9fcfca94c9bdaf0bf879b5a6195dddc5df8",
        ),
    ];
    for (what, got, want) in pinned {
        assert_eq!(got, want, "{what} drifted from the parent commit");
    }
}
