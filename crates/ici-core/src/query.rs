//! The query protocol: retrieving block bodies a node does not store.
//!
//! Under ICIStrategy most nodes hold only headers for most heights, so
//! reads escalate through three tiers:
//!
//! 1. **Local** — the requester holds the body;
//! 2. **Intra-cluster** — a member of the requester's own cluster serves
//!    it (one low-latency round trip — the common case, by the
//!    intra-cluster integrity invariant): an assigned owner, else a
//!    member a repair wrote it to;
//! 3. **Cross-cluster** — no live member of the requester's cluster holds
//!    it; a live holder in another cluster serves it.
//!
//! Responses carry the body; the requester re-validates it against the
//! header's Merkle/body commitments it already holds, so no trust in the
//! serving peer is needed.

use ici_chain::block::Height;
use ici_net::cost;
use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_net::time::Duration;

use crate::error::IciError;
use crate::network::{owner_of, IciNetwork};

/// Fixed size of a body request on the wire (height + block id + auth).
pub const QUERY_BYTES: u64 = 120;

/// How a query was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryTier {
    /// Served from the requester's own store.
    Local,
    /// Served by a member of the requester's cluster.
    IntraCluster,
    /// Served by a node in another cluster.
    CrossCluster,
}

/// Result of one body query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryReport {
    /// Height requested.
    pub height: Height,
    /// Which tier answered.
    pub tier: QueryTier,
    /// The serving node (the requester itself for [`QueryTier::Local`]).
    pub server: NodeId,
    /// Request→response latency.
    pub latency: Duration,
    /// Body bytes transferred (0 for local).
    pub bytes: u64,
}

impl IciNetwork {
    /// Fetches the body at `height` on behalf of `requester`.
    ///
    /// Traffic is metered; the latency includes the request, the response
    /// serialization, and the requester-side re-validation hash.
    ///
    /// # Errors
    ///
    /// * [`IciError::UnknownNode`] / [`IciError::NodeDown`] — bad requester;
    /// * [`IciError::UnknownHeight`] — beyond the committed chain;
    /// * [`IciError::BodyUnavailable`] — no live node holds the body.
    pub fn query_body(
        &mut self,
        requester: NodeId,
        height: Height,
    ) -> Result<QueryReport, IciError> {
        self.check_requester(requester)?;
        let block = self
            .chain
            .get(height as usize)
            .ok_or(IciError::UnknownHeight(height))?;
        let body_bytes = block.header().body_len as u64;
        self.read(requester, height, body_bytes)
    }

    /// The first step of every read: `requester` must be a known, live
    /// node.
    pub(crate) fn check_requester(&self, requester: NodeId) -> Result<(), IciError> {
        if requester.index() >= self.holdings.len() {
            return Err(IciError::UnknownNode(requester));
        }
        if !self.net.is_up(requester) {
            return Err(IciError::NodeDown(requester));
        }
        Ok(())
    }

    /// Serves `requester` a read of the committed `height` whose answer
    /// is `response_bytes` long, tier by tier: from its own store when
    /// it holds the body (no traffic), else from the first live holder
    /// ([`IciNetwork::first_served`]) whose request and response both
    /// arrive. The latency ends with the requester hashing the answer
    /// to check it against its header. `requester` has passed
    /// [`IciNetwork::check_requester`].
    ///
    /// # Errors
    ///
    /// [`IciError::BodyUnavailable`] when no holder answers.
    pub(crate) fn read(
        &mut self,
        requester: NodeId,
        height: Height,
        response_bytes: u64,
    ) -> Result<QueryReport, IciError> {
        let check = cost::hash(response_bytes);
        if self.holdings[requester.index()].has_body(height) {
            return Ok(QueryReport {
                height,
                tier: QueryTier::Local,
                server: requester,
                latency: check,
                bytes: 0,
            });
        }
        self.first_served(requester, height, |net, server, tier| {
            let there = net
                .net
                .send(requester, server, MessageKind::Query, QUERY_BYTES)
                .delay()?;
            let back = net
                .net
                .send(server, requester, MessageKind::Response, response_bytes)
                .delay()?;
            Some(QueryReport {
                height,
                tier,
                server,
                latency: there + back + check,
                bytes: response_bytes,
            })
        })
        .ok_or(IciError::BodyUnavailable(height))
    }

    /// Walks the live holders of the committed `height`'s body tier by
    /// tier — the requester's own cluster first, then every other
    /// cluster in id order — offering each to `serve` until one call
    /// answers. Within a cluster the assigned owners go first, read from
    /// the table the commit wrote, so a read ranks nothing; then the
    /// other members, which hold a body only where a repair wrote it
    /// after its owners died.
    pub(crate) fn first_served<T>(
        &mut self,
        requester: NodeId,
        height: Height,
        mut serve: impl FnMut(&mut IciNetwork, NodeId, QueryTier) -> Option<T>,
    ) -> Option<T> {
        let mut ask_cluster = |net: &mut IciNetwork, cluster, tier| {
            for slot in 0..net.config.replication {
                let column = net.owners.column(height, cluster);
                let Some(owner) = column.get(slot).copied().and_then(owner_of) else {
                    break;
                };
                if net.serves(owner, height) {
                    if let Some(answer) = serve(net, owner, tier) {
                        return Some(answer);
                    }
                }
            }
            for at in 0..net.membership.members(cluster).len() {
                let member = net.membership.members(cluster)[at];
                if net.serves(member, height) && !net.owners.holds(height, cluster, member) {
                    if let Some(answer) = serve(net, member, tier) {
                        return Some(answer);
                    }
                }
            }
            None
        };
        let my_cluster = self.membership.cluster_of(requester);
        if let Some(answer) = ask_cluster(self, my_cluster, QueryTier::IntraCluster) {
            return Some(answer);
        }
        self.cluster_ids()
            .filter(|cluster| *cluster != my_cluster)
            .find_map(|cluster| ask_cluster(self, cluster, QueryTier::CrossCluster))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IciConfig;
    use ici_chain::genesis::GenesisConfig;
    use ici_chain::transaction::{Address, Transaction};
    use ici_crypto::sig::Keypair;

    fn network_with_blocks(blocks: u64) -> IciNetwork {
        let config = IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .genesis(GenesisConfig::uniform(32, 1_000_000))
            .seed(5)
            .build()
            .expect("valid");
        let mut net = IciNetwork::new(config).expect("constructs");
        for round in 0..blocks {
            let txs: Vec<Transaction> = (0..4)
                .map(|i| {
                    Transaction::signed(
                        &Keypair::from_seed(i),
                        Address::from_seed(i + 1),
                        5,
                        1,
                        round,
                        vec![0u8; 100],
                    )
                })
                .collect();
            net.propose_block(txs).expect("commits");
        }
        net
    }

    fn owner_and_non_owner(net: &IciNetwork, height: Height) -> (NodeId, NodeId) {
        let mut owner = None;
        let mut non_owner = None;
        for i in 0..24u64 {
            let n = NodeId::new(i);
            if net.holdings(n).expect("known").has_body(height) {
                owner.get_or_insert(n);
            } else {
                non_owner.get_or_insert(n);
            }
        }
        (
            owner.expect("some owner"),
            non_owner.expect("some non-owner"),
        )
    }

    #[test]
    fn local_query_is_free_of_traffic() {
        let mut net = network_with_blocks(2);
        let (owner, _) = owner_and_non_owner(&net, 1);
        let before = net.net().meter().total().bytes;
        let report = net.query_body(owner, 1).expect("served");
        assert_eq!(report.tier, QueryTier::Local);
        assert_eq!(report.bytes, 0);
        assert_eq!(net.net().meter().total().bytes, before);
    }

    #[test]
    fn non_owner_is_served_intra_cluster() {
        let mut net = network_with_blocks(2);
        let (_, non_owner) = owner_and_non_owner(&net, 1);
        let report = net.query_body(non_owner, 1).expect("served");
        assert_eq!(report.tier, QueryTier::IntraCluster);
        assert_eq!(
            net.membership().cluster_of(report.server),
            net.membership().cluster_of(non_owner)
        );
        assert!(report.latency > Duration::ZERO);
        assert_eq!(
            report.bytes,
            net.block(1).expect("exists").body_len() as u64
        );
    }

    #[test]
    fn cross_cluster_when_local_owners_dead() {
        let mut net = network_with_blocks(2);
        let (_, non_owner) = owner_and_non_owner(&net, 1);
        let my_cluster = net.membership().cluster_of(non_owner);
        let block_id = net.block(1).expect("exists").id();
        for owner in net.owners_in_cluster(my_cluster, &block_id, 1) {
            net.net_mut().crash(owner);
        }
        let report = net.query_body(non_owner, 1).expect("served remotely");
        assert_eq!(report.tier, QueryTier::CrossCluster);
        assert_ne!(net.membership().cluster_of(report.server), my_cluster);
    }

    #[test]
    fn unavailable_when_all_owners_dead_everywhere() {
        let mut net = network_with_blocks(2);
        let (_, non_owner) = owner_and_non_owner(&net, 1);
        // Crash every holder of height 1.
        for i in 0..24u64 {
            let n = NodeId::new(i);
            if n != non_owner && net.holdings(n).expect("known").has_body(1) {
                net.net_mut().crash(n);
            }
        }
        assert_eq!(
            net.query_body(non_owner, 1),
            Err(IciError::BodyUnavailable(1))
        );
    }

    #[test]
    fn bad_requests_are_rejected() {
        let mut net = network_with_blocks(1);
        assert_eq!(
            net.query_body(NodeId::new(999), 0),
            Err(IciError::UnknownNode(NodeId::new(999)))
        );
        assert_eq!(
            net.query_body(NodeId::new(0), 42),
            Err(IciError::UnknownHeight(42))
        );
        net.net_mut().crash(NodeId::new(0));
        assert_eq!(
            net.query_body(NodeId::new(0), 0),
            Err(IciError::NodeDown(NodeId::new(0)))
        );
    }

    #[test]
    fn intra_cluster_queries_beat_cross_cluster_on_latency() {
        let mut net = network_with_blocks(3);
        let (_, non_owner) = owner_and_non_owner(&net, 1);
        let intra = net.query_body(non_owner, 1).expect("served");

        // Force the cross-cluster path for height 2.
        let my_cluster = net.membership().cluster_of(non_owner);
        let block_id = net.block(2).expect("exists").id();
        for owner in net.owners_in_cluster(my_cluster, &block_id, 2) {
            net.net_mut().crash(owner);
        }
        // The requester itself might be an owner of height 2; skip then.
        if net.holdings(non_owner).expect("known").has_body(2) {
            return;
        }
        let cross = net.query_body(non_owner, 2).expect("served");
        assert_eq!(cross.tier, QueryTier::CrossCluster);
        // Regional placement makes intra-cluster RTTs shorter on average;
        // with bodies of equal size the tiers order by distance.
        assert!(
            intra.latency <= cross.latency + Duration::from_millis(5),
            "intra {} vs cross {}",
            intra.latency,
            cross.latency
        );
    }
}
