//! Shard-level Merkle audit — proving recovery actually restored bytes.
//!
//! The traffic-level audit ([`IciNetwork::audit`]) counts replicas; this
//! module checks *content*. After a crash-and-recover cycle the fault
//! harness must show that what re-replication put back is the block the
//! header committed to, not merely that some replica exists. Every
//! replica is a copy of the canonical block, so the audit derives each
//! held height's Merkle tree once, from that block, compares its root to
//! the committed header's `tx_root` and spot-checks one transaction
//! inclusion proof per height; it counts the live replicas the verdict
//! covers rather than hashing each one.
//!
//! Two entry points, one rule each. [`IciNetwork::merkle_audit`] and
//! [`IciNetwork::merkle_audit_all`] hash everything, every time, and
//! remember nothing: they are the oracle. The fault loop's
//! [`IciNetwork::repair_and_certify`] hashes a replica **when it is
//! written**: a height is derived the first time a certificate covers it
//! and again after every post-commit write of its body (a repair
//! transfer, a cross-cluster fetch, a migration, a joiner's download),
//! and not in rounds that wrote nothing to it. Its report is the one the
//! stand-alone audit would return.
//!
//! Pure logic — no traffic or simulated time is charged (the lifecycle's
//! cost model owns that).

use ici_chain::block::{Block, Height};
use ici_chain::codec::Encode;
use ici_cluster::partition::ClusterId;
use ici_storage::audit::ReplicaCount;
use ici_telemetry::Label;

use crate::failure::RepairReport;
use crate::network::IciNetwork;

/// Outcome of one cluster's shard-level Merkle audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleAuditReport {
    /// The audited cluster.
    pub cluster: u32,
    /// Heights whose body at least one live member holds (and was checked).
    pub heights_checked: usize,
    /// Live body replicas the verdicts cover (one per live holder per
    /// height). Counted, not hashed one by one: each height's tree is
    /// derived once, from the canonical block.
    pub shards_verified: usize,
    /// Transaction inclusion proofs verified (one per non-empty height).
    pub proofs_checked: usize,
    /// Heights whose recomputed Merkle root contradicts the header.
    pub root_mismatches: Vec<Height>,
    /// Heights with no live body replica in the cluster — nothing to audit.
    pub missing: Vec<Height>,
}

impl MerkleAuditReport {
    /// Whether every height was present and every shard hashed clean.
    pub fn is_clean(&self) -> bool {
        self.root_mismatches.is_empty() && self.missing.is_empty()
    }
}

/// What re-deriving one committed height's transaction tree found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HeightVerdict {
    /// The re-derived root matches the header and, for a non-empty
    /// block, the spot-checked inclusion proof verifies.
    clean: bool,
    /// An inclusion proof was checked and verified.
    proved: bool,
}

impl HeightVerdict {
    /// Re-derives `block`'s transaction tree and judges it against the
    /// committed header.
    fn derive(block: &Block) -> HeightVerdict {
        let tree = block.tx_tree();
        if tree.root() != block.header().tx_root {
            return HeightVerdict {
                clean: false,
                proved: false,
            };
        }
        // Spot-check one inclusion proof per non-empty block, the
        // height-keyed representative transaction.
        let tx_count = block.transactions().len();
        if tx_count == 0 {
            return HeightVerdict {
                clean: true,
                proved: false,
            };
        }
        let index = (block.height() as usize) % tx_count; // modulo keeps it in range
        let proved = tree.prove(index).is_some_and(|proof| {
            block
                .transactions()
                .get(index)
                .is_some_and(|tx| proof.verify(&tx.to_bytes(), block.header().tx_root))
        });
        HeightVerdict {
            clean: proved,
            proved,
        }
    }
}

/// Height verdicts, indexed by height; `None` (or past the end) where
/// the next audit reading the ledger has to derive the tree.
pub(crate) type Verdicts = Vec<Option<HeightVerdict>>;

impl IciNetwork {
    /// Runs the shard-level Merkle audit on `cluster`, from scratch: the
    /// transaction Merkle root of every replica a live member holds is
    /// re-derived and one inclusion proof per non-empty block verified,
    /// whatever earlier audits or certificates found.
    pub fn merkle_audit(&self, cluster: ClusterId) -> MerkleAuditReport {
        self.merkle_audit_over(&mut Verdicts::new(), cluster)
    }

    /// Audits every cluster from scratch; returns per-cluster reports. A
    /// committed block is immutable, so the clusters of this one call
    /// share each height's derivation; nothing outlives the call.
    pub fn merkle_audit_all(&self) -> Vec<MerkleAuditReport> {
        let mut verdicts = Verdicts::new();
        self.clusters()
            .into_iter()
            .map(|c| self.merkle_audit_over(&mut verdicts, c))
            .collect()
    }

    /// Re-replicates `cluster` ([`IciNetwork::repair_cluster`]) and
    /// certifies the result with a Merkle audit that hashes what was
    /// written: the heights this repair — or any write since the last
    /// certificate that covered them — put a replica of, plus heights no
    /// certificate has covered yet. The report equals
    /// [`IciNetwork::merkle_audit`]'s, field for field.
    pub fn repair_and_certify(&mut self, cluster: ClusterId) -> (RepairReport, MerkleAuditReport) {
        let repair = self.repair_cluster(cluster);
        let mut verdicts = std::mem::take(&mut self.verdicts);
        let audit = self.merkle_audit_over(&mut verdicts, cluster);
        self.verdicts = verdicts;
        (repair, audit)
    }

    /// The audit of `cluster`, deriving the heights `verdicts` has no
    /// entry for and recording them there.
    fn merkle_audit_over(&self, verdicts: &mut Verdicts, cluster: ClusterId) -> MerkleAuditReport {
        let _span = ici_telemetry::span!("core/merkle_audit", cluster = cluster.get());
        let live = self.live_holdings(cluster);
        let count = ReplicaCount::of(live.iter().map(|(_, held)| *held), self.chain_len());
        let missing = count.with_count(0);
        let mut report = MerkleAuditReport {
            cluster: cluster.get(),
            heights_checked: self.chain.len() - missing.len(),
            // Counted, not hashed: every replica is a copy of the
            // canonical block, whose tree is derived once a height below.
            shards_verified: count.replicas(),
            proofs_checked: 0,
            root_mismatches: Vec::new(),
            missing: missing.iter().collect(),
        };
        if verdicts.len() < self.chain.len() {
            verdicts.resize(self.chain.len(), None);
        }
        let mut derived = 0u64;
        for ((height, block), slot) in (0..).zip(&self.chain).zip(verdicts.iter_mut()) {
            if missing.contains(&height) {
                continue; // nothing to hash
            }
            let verdict = *slot.get_or_insert_with(|| {
                derived += 1;
                HeightVerdict::derive(block)
            });
            if !verdict.clean {
                report.root_mismatches.push(height);
            }
            if verdict.proved {
                report.proofs_checked += 1;
            }
        }
        ici_telemetry::counter_add("core/merkle_audit_trees", Label::Global, derived);
        ici_telemetry::counter_add(
            "core/merkle_audit_shards",
            Label::Cluster(u64::from(cluster.get())),
            report.shards_verified as u64, // counter magnitude
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IciConfig;
    use ici_chain::genesis::GenesisConfig;
    use ici_chain::transaction::{Address, Transaction};
    use ici_crypto::sig::Keypair;
    use ici_net::node::NodeId;

    fn network_with_blocks(blocks: u64) -> IciNetwork {
        network_of(24, blocks)
    }

    fn network_of(nodes: usize, blocks: u64) -> IciNetwork {
        let config = IciConfig::builder()
            .nodes(nodes)
            .cluster_size(8)
            .replication(2)
            .genesis(GenesisConfig::uniform(32, 10_000_000))
            .seed(17)
            .build()
            .expect("valid");
        let mut net = IciNetwork::new(config).expect("constructs");
        for round in 0..blocks {
            let txs: Vec<Transaction> = (0..4)
                .map(|i| {
                    Transaction::signed(
                        &Keypair::from_seed(i),
                        Address::from_seed(i + 1),
                        3,
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

    #[test]
    fn healthy_network_audits_clean() {
        let net = network_with_blocks(6);
        for report in net.merkle_audit_all() {
            assert!(report.is_clean(), "{report:?}");
            assert_eq!(report.heights_checked, 7); // genesis + 6
            assert!(report.shards_verified >= report.heights_checked);
            assert_eq!(report.proofs_checked, 6); // genesis has no txs
        }
    }

    #[test]
    fn crash_then_repair_audits_clean_again() {
        let mut net = network_with_blocks(6);
        let victim = NodeId::new(0);
        let cluster = net.membership().cluster_of(victim);
        net.crash_node(victim).expect("known");
        let before = net.merkle_audit(cluster);
        // r=2 keeps everything present, but fewer shards answer.
        assert!(before.is_clean());
        net.repair_cluster(cluster);
        net.recover_node(victim).expect("known");
        let after = net.merkle_audit(cluster);
        assert!(after.is_clean());
        assert!(after.shards_verified >= before.shards_verified);
    }

    #[test]
    fn lost_heights_are_reported_missing() {
        let mut net = network_with_blocks(4);
        let cluster = net.clusters()[0];
        // Crash every member holding height 2 in this cluster.
        for m in net.membership().members(cluster).to_vec() {
            if net.holdings(m).expect("known").has_body(2) {
                net.crash_node(m).expect("known");
            }
        }
        let report = net.merkle_audit(cluster);
        assert!(report.missing.contains(&2), "{report:?}");
        assert!(!report.is_clean());
    }

    #[test]
    fn single_bit_flip_at_every_shard_index_is_detected() {
        // The exhaustive corruption sweep: for every committed height,
        // every shard (transaction leaf), and a spread of bit positions
        // across the leaf's bytes, one flipped bit must break the
        // recomputed root.
        let net = network_with_blocks(4);
        for height in 1..=4u64 {
            let block = net.block(height).expect("committed").clone();
            let clean: Vec<Vec<u8>> = block
                .transactions()
                .iter()
                .map(|tx| tx.to_bytes())
                .collect();
            for shard in 0..clean.len() {
                let bits = clean[shard].len() * 8;
                // Every byte boundary plus both edges: first bit, last
                // bit, and one bit in each byte in between.
                for bit in (0..bits).step_by(8).chain([bits - 1]) {
                    let mut suspect = clean.clone();
                    suspect[shard][bit / 8] ^= 1 << (bit % 8);
                    // The leaf digest diverges, so the recomputed root
                    // cannot match the commitment.
                    let tree = ici_crypto::merkle::MerkleTree::from_leaves(
                        suspect.iter().map(Vec::as_slice),
                    );
                    assert_ne!(
                        tree.root(),
                        block.header().tx_root,
                        "h={height} shard={shard} bit={bit}: flip went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn fully_dead_cluster_reports_every_height_missing() {
        let mut net = network_with_blocks(3);
        let cluster = net.clusters()[1];
        for m in net.membership().members(cluster).to_vec() {
            net.crash_node(m).expect("known");
        }
        let report = net.merkle_audit(cluster);
        assert_eq!(report.heights_checked, 0);
        assert_eq!(report.missing.len(), 4); // genesis + 3
        assert!(!report.is_clean());
    }

    /// Four clusters in the four states an audit meets: healthy,
    /// crashed-then-repaired, a body lost, fully dead.
    fn network_in_every_audit_state() -> IciNetwork {
        let mut net = network_of(32, 6);
        let clusters = net.clusters();
        let members = |net: &IciNetwork, c: usize| net.membership().members(clusters[c]).to_vec();
        let victim = members(&net, 1)[0];
        net.crash_node(victim).expect("known");
        net.repair_cluster(clusters[1]);
        for m in members(&net, 2) {
            if net.holdings(m).expect("known").has_body(3) {
                net.crash_node(m).expect("known");
            }
        }
        for m in members(&net, 3) {
            net.crash_node(m).expect("known");
        }
        net
    }

    /// Sum of the `core/merkle_audit_trees` counter recorded by `f`.
    fn trees_derived_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
        // Left on: no other test in this binary reads the flag.
        ici_telemetry::set_enabled(true);
        ici_telemetry::reset();
        let out = f();
        let snap = ici_telemetry::snapshot();
        let trees = snap
            .counters
            .iter()
            .filter(|c| c.name == "core/merkle_audit_trees")
            .map(|c| c.value)
            .sum();
        (out, trees)
    }

    #[test]
    fn audit_all_reports_equal_stand_alone_audits() {
        let net = network_in_every_audit_state();
        let shared = net.merkle_audit_all();
        assert_eq!(shared.len(), 4);
        for (cluster, report) in net.clusters().into_iter().zip(&shared) {
            assert_eq!(*report, net.merkle_audit(cluster), "cluster={cluster:?}");
        }
        assert!(shared[0].is_clean() && shared[1].is_clean());
        assert_eq!(shared[2].missing, vec![3]);
        assert_eq!(shared[3].heights_checked, 0);
        assert_eq!(shared[3].missing.len(), 7);
    }

    #[test]
    fn repair_certificates_equal_stand_alone_audits() {
        // The fault runner's certify loop: each churned cluster is
        // repaired and its certificate issued from the network's ledger.
        let mut net = network_of(32, 6);
        for cluster in net.clusters() {
            let victim = net.membership().members(cluster)[0];
            net.crash_node(victim).expect("known");
        }
        for cluster in net.clusters() {
            let (repair, certificate) = net.repair_and_certify(cluster);
            assert!(repair.unrecoverable.is_empty(), "{repair:?}");
            assert_eq!(certificate, net.merkle_audit(cluster));
            assert!(certificate.is_clean(), "{certificate:?}");
        }
    }

    /// Every `(member, height)` replica `cluster` holds.
    fn replicas_of(net: &IciNetwork, cluster: ClusterId) -> Vec<(NodeId, Height)> {
        net.membership()
            .members(cluster)
            .iter()
            .copied()
            .flat_map(|m| {
                let held = net.holdings(m).expect("known").body_heights();
                held.iter().map(move |h| (m, h))
            })
            .collect()
    }

    #[test]
    fn a_certificate_hashes_what_was_written_and_a_stand_alone_audit_everything() {
        let mut net = network_of(32, 6);
        let clusters = net.clusters();
        let (quiet, churned) = (clusters[0], clusters[1]);

        // First sight: no certificate has covered anything yet.
        let (_, first) = trees_derived_by(|| net.repair_and_certify(quiet));
        let (_, again) = trees_derived_by(|| net.repair_and_certify(quiet));
        assert_eq!((first, again), (7, 0));

        // A quiet round: one tree, the new height — for the first
        // cluster certified; the round's other certificates owe nothing.
        net.propose_block(Vec::new()).expect("commits");
        let ((repair, certificate), trees) = trees_derived_by(|| net.repair_and_certify(quiet));
        assert_eq!((repair.transfers, trees), (0, 1));
        assert_eq!(certificate, net.merkle_audit(quiet));
        let (_, trees) = trees_derived_by(|| net.repair_and_certify(churned));
        assert_eq!(trees, 0);

        // The round after a crash: the new height plus every height the
        // repair wrote a replica of, and nothing else.
        let victim = net
            .membership()
            .members(churned)
            .iter()
            .copied()
            .find(|m| net.holdings(*m).expect("known").body_count() > 1)
            .expect("some member holds bodies");
        net.crash_node(victim).expect("known");
        net.propose_block(Vec::new()).expect("commits");
        let before = replicas_of(&net, churned);
        let ((repair, certificate), trees) = trees_derived_by(|| net.repair_and_certify(churned));
        let mut owed: Vec<Height> = replicas_of(&net, churned)
            .into_iter()
            .filter(|replica| !before.contains(replica))
            .map(|(_, height)| height)
            .chain([net.chain_len() - 1])
            .collect();
        owed.sort_unstable();
        owed.dedup();
        assert!(repair.transfers > 1, "{repair:?}");
        assert!(owed.len() > 1 && owed.len() < 9, "{owed:?}");
        assert_eq!(trees, owed.len() as u64);
        assert_eq!(certificate, net.merkle_audit(churned));
        // Nothing was written since: the next certificate owes nothing.
        let (_, trees) = trees_derived_by(|| net.repair_and_certify(churned));
        assert_eq!(trees, 0);

        // Stand-alone audits remember nothing and read no ledger: one
        // tree per height checked, every time.
        for _ in 0..2 {
            let (report, trees) = trees_derived_by(|| net.merkle_audit(churned));
            assert_eq!((report.heights_checked, trees), (9, 9));
        }
    }

    #[test]
    fn audit_all_derives_each_held_height_once_per_call() {
        let net = network_in_every_audit_state();
        // Heights some live member of some cluster holds: all seven here
        // (the healthy cluster alone covers the chain).
        for _ in 0..2 {
            let (reports, trees) = trees_derived_by(|| net.merkle_audit_all());
            assert_eq!((reports.len(), trees), (4, 7));
        }
        // Stand-alone audits share nothing: one tree per height checked.
        let (checked, trees) = trees_derived_by(|| {
            net.clusters()
                .into_iter()
                .map(|c| net.merkle_audit(c).heights_checked as u64)
                .sum::<u64>()
        });
        assert_eq!(trees, checked);
        assert_eq!(checked, 7 + 7 + 6);
    }
}
