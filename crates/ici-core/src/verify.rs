//! Collaborative block verification — the checking side of the protocol.
//!
//! [`IciNetwork::propose_block`] models the *cost* of collaborative
//! verification through the cost model; this module implements the *logic*
//! a cluster runs on a block received from a foreign leader, so tests (and
//! downstream users) can drive adversarial inputs through the real checks:
//!
//! 1. structural integrity (header commits to body — enforced on decode),
//! 2. linkage against the local tip,
//! 3. signature verification, split into `1/c` ranges across the live
//!    members ([`ici_chain::validation::split_ranges`]),
//! 4. execution and `state_root` cross-check.
//!
//! A block fails collaboratively if **any** member's slice fails — the
//! member votes reject, the quorum never forms, and the verdict names the
//! offending transaction.

use ici_chain::block::Block;
use ici_chain::validation::{split_ranges, validate_block, verify_tx_range, ValidationError};
use ici_cluster::partition::ClusterId;
use ici_net::node::NodeId;

use crate::network::IciNetwork;

/// The verdict of one cluster's collaborative check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every member's slice passed and execution matched the state root.
    Accept,
    /// A member found an invalid signature in its slice.
    RejectSignature {
        /// The member whose slice failed.
        verifier: NodeId,
        /// Index of the offending transaction.
        tx_index: usize,
    },
    /// The block failed linkage/execution checks (caught by every member).
    RejectBlock(ValidationError),
}

impl Verdict {
    /// Whether the cluster accepts the block.
    pub fn is_accept(&self) -> bool {
        matches!(self, Verdict::Accept)
    }
}

impl IciNetwork {
    /// Runs the collaborative verification `cluster` would apply to
    /// `block` as the next block after the current tip.
    ///
    /// Pure logic — no traffic or time is charged (the lifecycle's cost
    /// model covers that); use it to test what the cluster *decides*.
    pub fn collaborative_verify(&self, cluster: ClusterId, block: &Block) -> Verdict {
        let _span = ici_telemetry::span!("core/collaborative_verify", cluster = cluster.get());
        let members = self.live_members(cluster);
        let tx_count = block.transactions().len();

        // Each live member checks one contiguous signature range.
        let ranges = split_ranges(tx_count, members.len().max(1));
        for (member, (start, end)) in members.iter().zip(ranges) {
            if let Err(tx_index) = verify_tx_range(block, start, end) {
                return Verdict::RejectSignature {
                    verifier: *member,
                    tx_index,
                };
            }
        }

        // Linkage + execution + state root (run by the leader; every
        // member cross-checks the resulting root).
        match validate_block(block, self.tip(), self.state()) {
            Ok(_) => Verdict::Accept,
            Err(e) => Verdict::RejectBlock(e),
        }
    }

    /// Network-wide collaborative verdict: the block stands only if every
    /// cluster accepts. Returns the first rejecting cluster's verdict.
    pub fn network_verify(&self, block: &Block) -> Result<(), (ClusterId, Verdict)> {
        for cluster in self.clusters() {
            let verdict = self.collaborative_verify(cluster, block);
            if !verdict.is_accept() {
                return Err((cluster, verdict));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IciConfig;
    use ici_chain::builder::BlockBuilder;
    use ici_chain::codec::{Decode, Encode};
    use ici_chain::genesis::GenesisConfig;
    use ici_chain::transaction::{Address, Transaction};
    use ici_crypto::sig::Keypair;

    fn setup() -> (IciNetwork, Block) {
        let config = IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .genesis(GenesisConfig::uniform(32, 1_000_000))
            .seed(31)
            .build()
            .expect("valid");
        let net = IciNetwork::new(config).expect("constructs");

        // A well-formed candidate block built against the network state.
        let mut builder = BlockBuilder::new(net.tip(), net.state().clone(), 1, 1_000);
        for i in 0..6 {
            builder
                .push(Transaction::signed(
                    &Keypair::from_seed(i),
                    Address::from_seed(i + 1),
                    3,
                    1,
                    0,
                    vec![0u8; 40],
                ))
                .expect("valid");
        }
        let block = builder.seal();
        (net, block)
    }

    fn tamper_signature(block: &Block, index: usize) -> Block {
        let (header, mut body) = block.clone().into_parts();
        let mut bytes = body[index].to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1; // inside the signature
        body[index] = Transaction::from_bytes(&bytes).expect("decodes");
        Block::new(header, body) // recomputes commitments over tampered body
    }

    #[test]
    fn honest_block_is_accepted_everywhere() {
        let (net, block) = setup();
        assert_eq!(net.network_verify(&block), Ok(()));
        for cluster in net.clusters() {
            assert!(net.collaborative_verify(cluster, &block).is_accept());
        }
    }

    #[test]
    fn tampered_signature_is_caught_by_the_responsible_verifier() {
        let (net, block) = setup();
        for index in 0..block.transactions().len() {
            let forged = tamper_signature(&block, index);
            let cluster = net.clusters()[0];
            match net.collaborative_verify(cluster, &forged) {
                Verdict::RejectSignature { verifier, tx_index } => {
                    assert_eq!(tx_index, index);
                    // The verifier is the member whose range covers index.
                    let members = net.live_members(cluster);
                    let ranges = ici_chain::validation::split_ranges(
                        forged.transactions().len(),
                        members.len(),
                    );
                    let expected = members
                        .iter()
                        .zip(&ranges)
                        .find(|(_, (s, e))| (*s..*e).contains(&index))
                        .map(|(m, _)| *m)
                        .expect("some member covers the index");
                    assert_eq!(verifier, expected, "index {index}");
                }
                other => panic!("index {index}: expected signature reject, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_parent_is_rejected_as_block_error() {
        let (net, block) = setup();
        let (mut header, body) = block.into_parts();
        header.parent = ici_crypto::Digest::ZERO;
        let forged = Block::new(header, body);
        assert!(matches!(
            net.network_verify(&forged),
            Err((_, Verdict::RejectBlock(ValidationError::WrongParent)))
        ));
    }

    #[test]
    fn forged_state_root_is_rejected() {
        let (net, block) = setup();
        let (mut header, body) = block.into_parts();
        header.state_root = ici_crypto::Digest::ZERO;
        let forged = Block::new(header, body);
        assert!(matches!(
            net.network_verify(&forged),
            Err((_, Verdict::RejectBlock(ValidationError::StateRootMismatch)))
        ));
    }

    #[test]
    fn overspend_is_rejected_in_execution() {
        let (net, _) = setup();
        // Build against an inflated scratch state so the tx is signed and
        // sealed but unaffordable in the real state.
        let rich =
            ici_chain::state::WorldState::with_balances([(Address::from_seed(0), u64::MAX / 2)]);
        let mut builder = BlockBuilder::new(net.tip(), rich, 1, 1_000);
        builder
            .push(Transaction::signed(
                &Keypair::from_seed(0),
                Address::from_seed(1),
                1_000_000_000,
                0,
                0,
                Vec::new(),
            ))
            .expect("valid against rich state");
        let forged = builder.seal();
        assert!(matches!(
            net.network_verify(&forged),
            Err((
                _,
                Verdict::RejectBlock(ValidationError::BadTransaction { index: 0, .. })
            ))
        ));
    }

    #[test]
    fn empty_cluster_does_not_panic() {
        let (mut net, block) = setup();
        let cluster = net.clusters()[1];
        for m in net.membership().members(cluster).to_vec() {
            net.crash_node(m).expect("known");
        }
        // With zero live members the signature phase is vacuous; the
        // block-level checks still run.
        let verdict = net.collaborative_verify(cluster, &block);
        assert!(verdict.is_accept());
    }
}
