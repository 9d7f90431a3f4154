//! The bootstrap protocol: admitting a new node.
//!
//! The abstract's third claim: "the ICIStrategy could greatly save the
//! overhead of bootstrapping." A joining node under full replication must
//! download the entire ledger; under ICIStrategy it downloads
//!
//! * the **header chain** (needed by everyone to validate anything), and
//! * the **bodies of the blocks assigned to it** — about `r/c` of the
//!   chain's body bytes once the cluster's assignment is recomputed over
//!   the grown membership.
//!
//! With rendezvous assignment the recomputation also tells the *previous*
//! owners which bodies they may prune; the protocol executes those prunes
//! so storage stays at `r` replicas per cluster, not `r + ε`.

use std::cmp::Ordering;

use ici_chain::block::{Block, BlockHeader, Height};
use ici_cluster::membership::JoinPolicy;
use ici_cluster::partition::ClusterId;
use ici_crypto::lottery::{for_each_rendezvous_key, rendezvous_rank};
use ici_crypto::sha256::{Digest, WIDE};
use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_net::time::Duration;
use ici_net::topology::Coord;

use crate::config::Assignment;
use crate::error::IciError;
use crate::holdings::NodeHoldings;
use crate::network::{fill_column, rank_prefix, slot_of, IciNetwork, OwnerTable, Shipment};

/// Outcome of one node join.
#[derive(Clone, Debug, PartialEq)]
pub struct BootstrapReport {
    /// The new node's id.
    pub node: NodeId,
    /// Cluster it joined.
    pub cluster: u32,
    /// Header bytes downloaded.
    pub header_bytes: u64,
    /// Body bytes downloaded (the new node's assigned share).
    pub body_bytes: u64,
    /// Number of bodies downloaded.
    pub bodies: usize,
    /// Bodies pruned from previous owners after responsibility moved.
    pub pruned_bodies: usize,
    /// Wall-clock duration of the download (headers first, then bodies
    /// fetched sequentially per source with parallel sources).
    pub duration: Duration,
}

impl BootstrapReport {
    /// Total bytes the joiner downloaded.
    pub fn total_bytes(&self) -> u64 {
        self.header_bytes + self.body_bytes
    }
}

impl IciNetwork {
    /// Admits a new node at `coord`, runs the bootstrap download, and
    /// rebalances ownership.
    ///
    /// The whole join is decided before anything changes: a join that
    /// fails leaves the topology, membership, holdings, meter and clock
    /// exactly as they were.
    ///
    /// # Errors
    ///
    /// [`IciError::BodyUnavailable`] if an assigned body has no live
    /// source (a cluster that already violated integrity).
    pub fn bootstrap_node(
        &mut self,
        coord: Coord,
        policy: JoinPolicy,
    ) -> Result<BootstrapReport, IciError> {
        let _span = ici_telemetry::span!("core/bootstrap");
        // Decide. The joiner takes the next dense id, so it sorts last in
        // the post-join member list. The joined cluster's new owners go
        // into the kept join columns, and into the owner table only once
        // every height the joiner would own has a source: a join that
        // fails leaves the table as it was.
        let node = NodeId::new(self.net.topology().len() as u64);
        let cluster = self
            .membership
            .choose_cluster(coord, self.net.topology(), policy);
        let mut column = std::mem::take(&mut self.join_column);
        let mut prefixes = std::mem::take(&mut self.join_prefixes);
        let decided = self.join_owners(cluster, node, &mut column, &mut prefixes);
        if decided.is_ok() {
            self.owners.set_cluster(cluster, &column, &prefixes);
        }
        self.join_column = column;
        self.join_prefixes = prefixes;
        decided?;

        // 1. Header chain from the closest live cluster member.
        self.net.join(coord);
        let chain_len = self.chain_len();
        let header_bytes = chain_len * BlockHeader::ENCODED_LEN as u64;
        let header_source = self
            .membership
            .members(cluster)
            .iter()
            .copied()
            .filter(|m| self.net.is_up(*m))
            .min_by(|a, b| {
                let da = self.net.topology().distance_ms(node, *a);
                let db = self.net.topology().distance_ms(node, *b);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            });
        self.membership.admit(cluster);
        self.holdings.push(NodeHoldings::new());
        let mut header_delay = Duration::ZERO;
        if let Some(source) = header_source {
            if let Some(delay) = self
                .net
                .send(source, node, MessageKind::Bootstrap, header_bytes)
                .delay()
            {
                header_delay = delay;
            }
        }
        for _ in 0..chain_len {
            self.holdings[node.index()].add_header();
        }

        // 2. Download the joiner's share after the headers, then prune
        // ex-owners. Shipping a height reads only holdings at that
        // height, so the prunes may all come after.
        let mut shipment = Shipment::new(MessageKind::Bootstrap);
        for height in 0..chain_len {
            if self.owners.holds(height, cluster, node) {
                if let Some(source) = self.join_source(cluster, node, height) {
                    self.ship(&mut shipment, source, node, height);
                }
            }
        }
        let pruned = self.prune_ex_owners(cluster, node);
        let body_bytes = shipment.bytes;
        let duration = header_delay + shipment.span();

        ici_telemetry::counter_add("core/bootstraps", ici_telemetry::Label::Global, 1);
        ici_telemetry::counter_add(
            "core/bootstrap_bytes",
            ici_telemetry::Label::Global,
            header_bytes + body_bytes,
        );
        ici_telemetry::observe(
            "core/bootstrap_sim_us",
            ici_telemetry::Label::Global,
            duration.as_micros(),
        );
        Ok(BootstrapReport {
            node,
            cluster: cluster.get(),
            header_bytes,
            body_bytes,
            bodies: shipment.replicas,
            pruned_bodies: pruned,
            duration,
        })
    }

    /// Works out `cluster`'s owners of every committed height once
    /// `joiner` has joined it: `r` slots a height into `column` and
    /// their rank prefixes into `prefixes`, as the owner table lays them
    /// out. Under rendezvous the grown cluster's top `r` is the top `r`
    /// of the old one's plus the joiner, so each height ranks only the
    /// joiner, [`WIDE`] heights per batch call, and places it among the
    /// recorded owners by their rank prefixes; ring and round-robin
    /// assign over the grown member list.
    ///
    /// # Errors
    ///
    /// [`IciError::BodyUnavailable`] at the first height the joiner
    /// would own that no live member of the cluster holds (under
    /// rendezvous, once the heights of its batch are ranked).
    fn join_owners(
        &self,
        cluster: ClusterId,
        joiner: NodeId,
        column: &mut Vec<u32>,
        prefixes: &mut Vec<u16>,
    ) -> Result<(), IciError> {
        let r = self.config.replication;
        column.clear();
        column.resize(self.chain.len() * r, OwnerTable::EMPTY);
        prefixes.clear();
        prefixes.resize(self.chain.len() * r, 0);
        let mut rows = column.chunks_exact_mut(r).zip(prefixes.chunks_exact_mut(r));
        if self.config.assignment == Assignment::Rendezvous {
            for blocks in self.chain.chunks(WIDE) {
                let mut ranked = [(Digest::ZERO, 0); WIDE];
                let mut slots = ranked.iter_mut();
                let ids = blocks.iter().map(Block::id);
                for_each_rendezvous_key(joiner.get(), ids, |id, rank| {
                    if let Some(slot) = slots.next() {
                        *slot = (id, rank);
                    }
                });
                for ((block, (id, rank)), (new, ranks)) in blocks.iter().zip(ranked).zip(&mut rows)
                {
                    let height = block.height();
                    new.copy_from_slice(self.owners.column(height, cluster));
                    ranks.copy_from_slice(self.owners.prefixes(height, cluster));
                    place_joiner(new, ranks, joiner, rank, |owner| {
                        rendezvous_rank(&id, owner.get())
                    });
                    self.downloadable(cluster, joiner, height, new)?;
                }
            }
        } else {
            let grown = [self.membership.members(cluster), &[joiner]].concat();
            for (block, (new, _)) in self.chain.iter().zip(rows) {
                let height = block.height();
                fill_column(new, &self.dispatch_owners(&block.id(), height, &grown));
                self.downloadable(cluster, joiner, height, new)?;
            }
        }
        Ok(())
    }

    /// Fails with [`IciError::BodyUnavailable`] if `joiner` is among
    /// the `owners` of `height` and no live member of `cluster` holds
    /// the body for it to download.
    fn downloadable(
        &self,
        cluster: ClusterId,
        joiner: NodeId,
        height: Height,
        owners: &[u32],
    ) -> Result<(), IciError> {
        if owners.contains(&slot_of(joiner)) && self.join_source(cluster, joiner, height).is_none()
        {
            return Err(IciError::BodyUnavailable(height));
        }
        Ok(())
    }

    /// The first member of `cluster` other than `joiner` that is live
    /// and holds the body at `height`: where a joiner downloads it from.
    fn join_source(&self, cluster: ClusterId, joiner: NodeId, height: Height) -> Option<NodeId> {
        self.membership
            .members(cluster)
            .iter()
            .copied()
            .find(|&m| m != joiner && self.serves(m, height))
    }

    /// Prunes every member of `cluster` but `joiner` to the owner table
    /// ([`IciNetwork::prune_to_table`]). Returns how many bodies were
    /// dropped.
    fn prune_ex_owners(&mut self, cluster: ClusterId, joiner: NodeId) -> usize {
        let mut pruned = 0;
        for at in 0..self.membership.members(cluster).len() {
            let member = self.membership.members(cluster)[at];
            if member != joiner {
                pruned += self.prune_to_table(cluster, member);
            }
        }
        pruned
    }
}

/// Places `joiner`, of rendezvous `rank`, among the best-first owners in
/// `column` (with their rank prefixes in `prefixes`) in
/// [`insert_top`](ici_crypto::lottery::insert_top)'s order: higher rank
/// first, ties to the smaller id. The owners after it shift down one and
/// the last falls off a full column; a joiner that ranks below every
/// slot of a full column changes nothing. An owner is ranked in full, by
/// `owner_rank`, only when its prefix ties the joiner's, so the order is
/// exact.
fn place_joiner(
    column: &mut [u32],
    prefixes: &mut [u16],
    joiner: NodeId,
    rank: u64,
    mut owner_rank: impl FnMut(NodeId) -> u64,
) {
    let prefix = rank_prefix(rank);
    let len = column
        .iter()
        .take_while(|&&slot| slot != OwnerTable::EMPTY)
        .count();
    let at = column[..len]
        .iter()
        .zip(&*prefixes)
        .position(|(&slot, &theirs)| match prefix.cmp(&theirs) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => {
                let owner = NodeId::new(u64::from(slot));
                let full = owner_rank(owner);
                rank > full || (rank == full && joiner < owner)
            }
        })
        .unwrap_or(len);
    if at == column.len() {
        return;
    }
    let end = (len + 1).min(column.len());
    column[at..end].rotate_right(1);
    prefixes[at..end].rotate_right(1);
    column[at] = slot_of(joiner);
    prefixes[at] = prefix;
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
            .genesis(GenesisConfig::uniform(32, 10_000_000))
            .seed(11)
            .build()
            .expect("valid");
        let mut net = IciNetwork::new(config).expect("constructs");
        for round in 0..blocks {
            let txs: Vec<Transaction> = (0..6)
                .map(|i| {
                    Transaction::signed(
                        &Keypair::from_seed(i),
                        Address::from_seed(i + 1),
                        5,
                        1,
                        round,
                        vec![0u8; 200],
                    )
                })
                .collect();
            net.propose_block(txs).expect("commits");
        }
        net
    }

    /// `place_joiner` over owners `3` and `5` whose full ranks are
    /// `ranks`: the new column, and how many owners it ranked in full.
    fn placed(joiner: u64, rank: u64, ranks: [u64; 2]) -> ([u32; 2], usize) {
        let mut column = [3, 5];
        let mut prefixes = ranks.map(rank_prefix);
        let mut asked = 0;
        place_joiner(
            &mut column,
            &mut prefixes,
            NodeId::new(joiner),
            rank,
            |owner| {
                asked += 1;
                ranks[usize::from(owner != NodeId::new(3))]
            },
        );
        (column, asked)
    }

    /// A joiner is placed by rank prefix; an owner whose prefix ties the
    /// joiner's is ranked in full, and equal full ranks go to the
    /// smaller id, as `insert_top` orders them.
    #[test]
    fn a_prefix_tie_is_settled_by_the_full_rank_then_the_id() {
        let tied = |low: u64| (0xABCD << 48) | low;
        let owners = [tied(9), tied(5)];
        // Prefixes apart: no owner is ranked again.
        assert_eq!(placed(7, tied(9) + (1 << 48), owners), ([7, 3], 0));
        assert_eq!(placed(7, tied(9) - (1 << 48), owners), ([3, 5], 0));
        // Equal prefixes: the full ranks decide.
        assert_eq!(placed(7, tied(10), owners), ([7, 3], 1));
        assert_eq!(placed(7, tied(7), owners), ([3, 7], 2));
        assert_eq!(placed(7, tied(4), owners), ([3, 5], 2));
        // Equal full ranks: the smaller id first.
        assert_eq!(placed(2, tied(9), owners), ([2, 3], 1));
        assert_eq!(placed(4, tied(5), owners), ([3, 4], 2));
        assert_eq!(placed(6, tied(5), owners), ([3, 5], 2));
    }

    /// Placing a joiner among a cluster's recorded top `r` gives the
    /// top `r` that `insert_top` ranks over the members and the joiner,
    /// slots and prefixes, for clusters smaller and larger than `r`.
    /// Ranks share a few prefixes, so ties are common.
    #[test]
    fn placing_a_joiner_matches_insert_top() {
        let mut state = 0x7A1u64;
        let mut draw = |below: u64| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % below
        };
        for case in 0..2_000 {
            let r = 1 + case % 4;
            let top_of = |pairs: &[(u64, u64)]| {
                let mut top = vec![(0, 0); r];
                let mut len = 0;
                for &(rank, id) in pairs {
                    len = ici_crypto::lottery::insert_top(&mut top, len, rank, id);
                }
                let mut column = vec![OwnerTable::EMPTY; r];
                let mut prefixes = vec![0; r];
                for (k, &(rank, id)) in top[..len].iter().enumerate() {
                    column[k] = id as u32;
                    prefixes[k] = rank_prefix(rank);
                }
                (column, prefixes)
            };
            // Even ids for the members, an odd one for the joiner.
            let members = draw(2 * r as u64 + 1);
            let mut pairs: Vec<(u64, u64)> = (0..members)
                .map(|i| ((draw(3) << 48) | draw(3), 2 * i))
                .collect();
            let (mut column, mut prefixes) = top_of(&pairs);
            let (rank, joiner) = ((draw(3) << 48) | draw(3), 2 * draw(members + 1) + 1);
            let full = |owner: NodeId| pairs[(owner.get() / 2) as usize].0;
            place_joiner(&mut column, &mut prefixes, NodeId::new(joiner), rank, full);
            pairs.push((rank, joiner));
            assert_eq!((column, prefixes), top_of(&pairs), "case {case}");
        }
    }

    #[test]
    fn joiner_downloads_headers_plus_its_share() {
        let mut net = network_with_blocks(10);
        let report = net
            .bootstrap_node(Coord::new(10.0, 10.0), JoinPolicy::SmallestCluster)
            .expect("joins");
        assert_eq!(report.node, NodeId::new(24));
        assert_eq!(report.header_bytes, 11 * BlockHeader::ENCODED_LEN as u64);
        // Share is roughly r/c of the chain's bodies; must be well below
        // the full body volume.
        let full_bodies: u64 = (0..11)
            .map(|h| net.block(h).expect("exists").body_len() as u64)
            .sum();
        assert!(
            report.body_bytes < full_bodies / 2,
            "joiner pulled {} of {} body bytes",
            report.body_bytes,
            full_bodies
        );
        assert!(report.duration > Duration::ZERO);
    }

    #[test]
    fn integrity_holds_after_join_and_prune() {
        let mut net = network_with_blocks(8);
        net.bootstrap_node(Coord::new(40.0, 40.0), JoinPolicy::NearestCentroid)
            .expect("joins");
        for report in net.audit_all() {
            assert!(report.is_intact(), "{report:?}");
        }
    }

    #[test]
    fn replication_stays_at_r_after_join() {
        let mut net = network_with_blocks(8);
        let report = net
            .bootstrap_node(Coord::new(40.0, 40.0), JoinPolicy::SmallestCluster)
            .expect("joins");
        let cluster = ici_cluster::partition::ClusterId::new(report.cluster);
        let audit = net.audit(cluster);
        // Non-empty bodies must sit at exactly r=2 replicas (empty genesis
        // body is also tracked but weightless).
        for (replicas, count) in &audit.replication_histogram {
            assert!(*replicas <= 2, "{count} heights at {replicas} replicas");
        }
    }

    #[test]
    fn joiner_state_is_queryable() {
        let mut net = network_with_blocks(5);
        let report = net
            .bootstrap_node(Coord::new(0.0, 0.0), JoinPolicy::SmallestCluster)
            .expect("joins");
        // The joiner can serve or fetch any block.
        let q = net.query_body(report.node, 3).expect("query works");
        assert!(q.bytes > 0 || q.tier == crate::query::QueryTier::Local);
    }

    #[test]
    fn multiple_joins_accumulate() {
        let mut net = network_with_blocks(4);
        for i in 0..3 {
            let report = net
                .bootstrap_node(
                    Coord::new(i as f64 * 20.0, 5.0),
                    JoinPolicy::SmallestCluster,
                )
                .expect("joins");
            assert_eq!(report.node, NodeId::new(24 + i));
        }
        assert_eq!(net.membership().partition().node_count(), 27);
        for report in net.audit_all() {
            assert!(report.is_intact());
        }
    }

    #[test]
    fn bootstrap_traffic_is_metered_as_bootstrap() {
        let mut net = network_with_blocks(6);
        let before = net.net().meter().kind(MessageKind::Bootstrap).bytes;
        let report = net
            .bootstrap_node(Coord::new(15.0, 15.0), JoinPolicy::SmallestCluster)
            .expect("joins");
        let after = net.net().meter().kind(MessageKind::Bootstrap).bytes;
        assert_eq!(after - before, report.total_bytes());
    }

    #[test]
    fn a_failed_join_changes_nothing() {
        let mut net = network_with_blocks(10);
        let coord = Coord::new(25.0, 25.0);
        let policy = JoinPolicy::NearestCentroid;
        // The height the joiner would own first, and the cluster it would
        // join.
        let joiner = NodeId::new(24);
        let cluster = net
            .membership()
            .choose_cluster(coord, net.net().topology(), policy);
        let mut members = net.membership().members(cluster).to_vec();
        members.push(joiner);
        let height = (1..net.chain_len())
            .find(|&h| {
                let id = net.block(h).expect("committed").id();
                net.dispatch_owners(&id, h, &members).contains(&joiner)
            })
            .expect("the joiner owns some height");
        for member in net.membership().members(cluster).to_vec() {
            if net.holdings(member).expect("known").has_body(height) {
                net.crash_node(member).expect("known node");
            }
        }

        let nodes = net.net().topology().len();
        let members_before = net.membership().partition().node_count();
        let storage = net.storage_bytes();
        let bootstrap = net.net().meter().kind(MessageKind::Bootstrap);
        let audits = net.audit_all();
        let clock = net.now();
        assert!(matches!(
            net.bootstrap_node(coord, policy),
            Err(IciError::BodyUnavailable(_))
        ));
        assert_eq!(net.net().topology().len(), nodes);
        assert_eq!(net.membership().partition().node_count(), members_before);
        assert_eq!(net.storage_bytes(), storage);
        assert_eq!(net.net().meter().kind(MessageKind::Bootstrap), bootstrap);
        assert_eq!(net.audit_all(), audits);
        assert_eq!(net.now(), clock);

        // Once the holders are back, the same node joins under the same id.
        for member in net.membership().members(cluster).to_vec() {
            net.recover_node(member).expect("known node");
        }
        let report = net.bootstrap_node(coord, policy).expect("joins");
        assert_eq!(report.node, joiner);
        assert!(net.holdings(joiner).expect("joined").has_body(height));
    }
}
