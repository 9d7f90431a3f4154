//! Light (SPV-style) transaction queries with Merkle proofs.
//!
//! Because every ICIStrategy node keeps the full header chain, any node can
//! verify any single transaction without ever fetching a body: it asks an
//! owner for the transaction plus a Merkle inclusion proof and checks the
//! proof against the `tx_root` in its local header. This is the light half
//! of the query protocol — the response is `O(tx + log n)` bytes instead of
//! a whole body, and the serving peer is untrusted.

use ici_chain::block::Height;
use ici_chain::codec::Encode;
use ici_chain::transaction::{Transaction, TxId};
use ici_crypto::merkle::MerkleProof;
use ici_net::cost;
use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_net::time::Duration;

use crate::error::IciError;
use crate::network::IciNetwork;
use crate::query::QUERY_BYTES;

/// Result of a light transaction query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxProofReport {
    /// Height of the block containing the transaction.
    pub height: Height,
    /// Index of the transaction within the block.
    pub index: u64,
    /// The transaction itself.
    pub transaction: Transaction,
    /// The Merkle inclusion proof, already verified by the requester
    /// against its local header chain.
    pub proof: MerkleProof,
    /// The serving node.
    pub server: NodeId,
    /// Request→verification latency.
    pub latency: Duration,
    /// Response bytes (transaction + proof).
    pub bytes: u64,
}

impl IciNetwork {
    /// Locates `tx_id` in the committed chain: the first occurrence in
    /// chain order, as `(height, index within the block)`.
    ///
    /// The blocks the [`TxLocator`](ici_chain::locator::TxLocator) has
    /// indexed are answered by binary search with the id re-derived to
    /// confirm; blocks committed since the last
    /// [`IciNetwork::query_transaction`] are scanned. Never indexes, so
    /// on a network that has served no transaction query it is the plain
    /// genesis-first scan.
    pub fn locate_transaction(&self, tx_id: &TxId) -> Option<(Height, u64)> {
        self.locator.locate(&self.chain, tx_id)
    }

    /// Fetches `tx_id` with a Merkle proof on behalf of `requester` and
    /// verifies the proof against the requester's header chain.
    ///
    /// Brings the transaction locator up to the tip first (the write
    /// path never does), so the first query after a run of commits pays
    /// for hashing every new block's transaction ids (sixteen at a time
    /// across the blocks, then one sort), however low its own height;
    /// later queries find their transaction with one id confirmed.
    ///
    /// Holders are asked in the order [`IciNetwork::query_body`] asks
    /// them; one whose request or response the installed faults drop is
    /// passed over for the next.
    ///
    /// # Errors
    ///
    /// * [`IciError::UnknownNode`] / [`IciError::NodeDown`] — bad requester;
    /// * [`IciError::UnknownTransaction`] — the transaction is not on chain;
    /// * [`IciError::BodyUnavailable`] — no live holder answered.
    pub fn query_transaction(
        &mut self,
        requester: NodeId,
        tx_id: &TxId,
    ) -> Result<TxProofReport, IciError> {
        if requester.index() >= self.holdings.len() {
            return Err(IciError::UnknownNode(requester));
        }
        if !self.net.is_up(requester) {
            return Err(IciError::NodeDown(requester));
        }
        self.locator.catch_up(&self.chain);
        let (height, index) = self
            .locate_transaction(tx_id)
            .ok_or(IciError::UnknownTransaction(*tx_id))?;
        // `locate_transaction` returned this (height, index), so it is
        // on chain; surface a typed error anyway instead of panicking.
        let transaction = self.chain[height as usize]
            .transactions()
            .get(index as usize)
            .ok_or(IciError::UnknownHeight(height))?
            .clone();

        // The first live holder that answers, as for a body. The first
        // one the request reaches builds the proof from its stored body
        // (the leaves of the transaction's 8-leaf subtree and the
        // block's kept subtree roots); the proof is the same from every
        // holder, so a lost response re-sends it rather than rebuilding.
        let mut proof = None;
        let served = self.first_served(requester, height, |net, server, _| {
            let there = net
                .net
                .send(requester, server, MessageKind::Query, QUERY_BYTES)
                .delay()?;
            if proof.is_none() {
                proof = net.chain[height as usize].prove_tx(index as usize);
            }
            let bytes = transaction.encoded_len() as u64 + proof.as_ref()?.encoded_len() as u64;
            let back = net
                .net
                .send(server, requester, MessageKind::Response, bytes)
                .delay()?;
            Some((server, there + back, bytes))
        });
        let (Some((server, round_trip, response_bytes)), Some(proof)) = (served, proof) else {
            return Err(IciError::BodyUnavailable(height));
        };

        // Requester-side verification against its own header.
        let tx_root = self.chain[height as usize].header().tx_root;
        let verified = proof.verify_leaf_hash(transaction.leaf_hash(), tx_root);
        debug_assert!(verified, "server produced an invalid proof");
        if !verified {
            return Err(IciError::BodyUnavailable(height));
        }
        let latency = round_trip + cost::hash(response_bytes);

        Ok(TxProofReport {
            height,
            index,
            transaction,
            proof,
            server,
            latency,
            bytes: response_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IciConfig;
    use ici_chain::genesis::GenesisConfig;
    use ici_chain::transaction::Address;
    use ici_crypto::sig::Keypair;

    fn network_with_txs() -> (IciNetwork, Vec<TxId>) {
        let config = IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .genesis(GenesisConfig::uniform(32, 1_000_000))
            .seed(19)
            .build()
            .expect("valid");
        let mut net = IciNetwork::new(config).expect("constructs");
        let mut ids = Vec::new();
        for round in 0..3 {
            let txs: Vec<Transaction> = (0..5)
                .map(|i| {
                    Transaction::signed(
                        &Keypair::from_seed(i),
                        Address::from_seed(i + 1),
                        2,
                        1,
                        round,
                        vec![round as u8; 50],
                    )
                })
                .collect();
            ids.extend(txs.iter().map(Transaction::id));
            net.propose_block(txs).expect("commits");
        }
        (net, ids)
    }

    #[test]
    fn light_query_returns_verified_proof() {
        let (mut net, ids) = network_with_txs();
        let report = net
            .query_transaction(NodeId::new(0), &ids[7])
            .expect("served");
        assert_eq!(report.transaction.id(), ids[7]);
        // The proof verifies against the header the requester holds.
        let header = *net.block(report.height).expect("exists").header();
        assert!(report.proof.verify(
            &ici_chain::codec::Encode::to_bytes(&report.transaction),
            header.tx_root
        ));
        assert!(report.latency > Duration::ZERO);
    }

    #[test]
    fn proof_response_is_much_smaller_than_body() {
        let (mut net, ids) = network_with_txs();
        let report = net
            .query_transaction(NodeId::new(1), &ids[0])
            .expect("served");
        let body_bytes = net.block(report.height).expect("exists").body_len() as u64;
        assert!(
            report.bytes < body_bytes,
            "proof {} vs body {}",
            report.bytes,
            body_bytes
        );
    }

    #[test]
    fn unknown_transaction_is_an_error() {
        let (mut net, _) = network_with_txs();
        let bogus = ici_crypto::Sha256::digest(b"never committed");
        assert_eq!(
            net.query_transaction(NodeId::new(0), &bogus),
            Err(IciError::UnknownTransaction(bogus))
        );
    }

    #[test]
    fn locate_finds_height_and_index() {
        let (net, ids) = network_with_txs();
        let (height, index) = net.locate_transaction(&ids[6]).expect("on chain");
        assert_eq!(height, 2); // second committed block
        assert_eq!(index, 1);
    }

    #[test]
    fn dead_requester_rejected() {
        let (mut net, ids) = network_with_txs();
        net.crash_node(NodeId::new(3)).expect("known");
        assert_eq!(
            net.query_transaction(NodeId::new(3), &ids[0]),
            Err(IciError::NodeDown(NodeId::new(3)))
        );
    }
}
