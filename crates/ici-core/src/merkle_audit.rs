//! Shard-level Merkle audit — proving recovery actually restored bytes.
//!
//! The traffic-level audit ([`IciNetwork::audit`]) counts replicas; this
//! module checks *content*. After a crash-and-recover cycle the fault
//! harness must show that what re-replication put back is the block the
//! header committed to, not merely that some replica exists. The audit
//! mirrors the collaborative split used for verification: the cluster's
//! live members divide the height range with
//! [`ici_chain::validation::split_ranges`], and each member re-derives
//! the Merkle root of every body replica its slice covers, comparing it
//! to the committed header's `tx_root` and spot-checking one transaction
//! inclusion proof per height.
//!
//! Pure logic — no traffic or simulated time is charged (the lifecycle's
//! cost model owns that); use it as the ground-truth check after
//! [`IciNetwork::repair_cluster`].

use ici_chain::block::{Block, Height};
use ici_chain::codec::Encode;
use ici_chain::validation::split_ranges;
use ici_cluster::partition::ClusterId;
use ici_crypto::merkle::hash_leaf;
use ici_telemetry::Label;

use crate::network::IciNetwork;

/// Outcome of one cluster's shard-level Merkle audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleAuditReport {
    /// The audited cluster.
    pub cluster: u32,
    /// Heights whose body at least one live member holds (and was checked).
    pub heights_checked: usize,
    /// Body replicas re-hashed (one per live holder per height).
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

/// Attributes corruption in a suspect body replica to the exact shard
/// (transaction leaf) indices that diverge from the commitment.
///
/// `reference` is the committed block (its header's `tx_root` is the
/// ground truth); `suspect_leaves` are the raw transaction encodings a
/// holder actually serves. A root mismatch says *something* rotted;
/// this names *which* leaves — by re-deriving each leaf digest and
/// comparing against the committed tree, so even a single flipped bit
/// anywhere in a leaf's bytes lands on exactly that leaf. Length
/// mismatches (truncated or padded replicas) mark every index past the
/// shorter side.
pub fn attribute_corrupt_shards(reference: &Block, suspect_leaves: &[Vec<u8>]) -> Vec<usize> {
    let tree = reference.tx_tree();
    let committed = reference.transactions().len();
    let mut corrupt = Vec::new();
    for index in 0..committed.max(suspect_leaves.len()) {
        let clean = match (tree.leaf(index), suspect_leaves.get(index)) {
            (Some(expected), Some(bytes)) => hash_leaf(bytes) == expected,
            _ => false,
        };
        if !clean {
            corrupt.push(index);
        }
    }
    corrupt
}

/// What re-deriving one committed height's transaction tree found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeightVerdict {
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
        // Every live replica is re-hashed: a holder whose disk diverged
        // from the commitment would fail here.
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

/// The height verdicts one audit pass has derived so far.
///
/// A committed block is immutable, so whether its re-derived tree
/// matches its header does not depend on which cluster asks. Clusters
/// audited in the same pass — one round's repair certificates, one
/// [`IciNetwork::merkle_audit_all`] — therefore share each height's
/// derivation instead of repeating it per cluster. A pass belongs to one
/// chain length: handed a chain that has since grown it starts over, so
/// nothing is carried from one round's audit into the next.
#[derive(Clone, Debug, Default)]
pub struct MerkleAuditPass {
    /// Two bytes per height of the chain the pass started on; `None`
    /// until some cluster's audit derives the height.
    verdicts: Vec<Option<HeightVerdict>>,
}

impl MerkleAuditPass {
    /// A pass with nothing derived yet.
    pub fn new() -> MerkleAuditPass {
        MerkleAuditPass::default()
    }
}

impl IciNetwork {
    /// Runs the shard-level Merkle audit on `cluster`, stand-alone.
    ///
    /// The cluster's live members split the committed height range; each
    /// member re-derives the transaction Merkle root of every replica in
    /// its slice and verifies one inclusion proof per non-empty block.
    pub fn merkle_audit(&self, cluster: ClusterId) -> MerkleAuditReport {
        self.merkle_audit_in(&mut MerkleAuditPass::new(), cluster)
    }

    /// [`IciNetwork::merkle_audit`] as part of `pass`: heights an earlier
    /// cluster of the same pass already derived are not derived again.
    /// The report is the one the stand-alone audit would return.
    pub fn merkle_audit_in(
        &self,
        pass: &mut MerkleAuditPass,
        cluster: ClusterId,
    ) -> MerkleAuditReport {
        let _span = ici_telemetry::span!("core/merkle_audit", cluster = cluster.get());
        let members = self.live_members(cluster);
        let chain_len = self.chain_len() as usize; // chain length bounded by memory
        let mut report = MerkleAuditReport {
            cluster: cluster.get(),
            heights_checked: 0,
            shards_verified: 0,
            proofs_checked: 0,
            root_mismatches: Vec::new(),
            missing: Vec::new(),
        };
        if members.is_empty() {
            report.missing = (0..self.chain_len()).collect();
            return report;
        }
        if pass.verdicts.len() != chain_len {
            pass.verdicts.clear();
            pass.verdicts.resize(chain_len, None);
        }

        // One contiguous height slice per live member, exactly like the
        // signature split in collaborative verification. The slices are
        // walked on the main thread (cheap holder lookups); the Merkle
        // re-derivations still owed — the expensive part — fan out per
        // height.
        let mut audited = Vec::new();
        let mut work = Vec::new();
        for (start, end) in split_ranges(chain_len, members.len()) {
            for index in start..end {
                let height = index as Height; // usize height widens losslessly
                let holders = members
                    .iter()
                    .filter(|m| {
                        self.holdings
                            .get(m.index())
                            .is_some_and(|h| h.has_body(height))
                    })
                    .count();
                if holders == 0 {
                    report.missing.push(height);
                    continue;
                }
                let Some(block) = self.block(height) else {
                    report.missing.push(height);
                    continue;
                };
                audited.push((index, holders));
                if pass.verdicts[index].is_none() {
                    work.push((index, block.clone()));
                }
            }
        }
        ici_telemetry::counter_add(
            "core/merkle_audit_trees",
            Label::Global,
            work.len() as u64, // counter magnitude
        );
        for (index, verdict) in ici_par::par_map(work, |_, (index, block)| {
            (index, HeightVerdict::derive(&block))
        }) {
            pass.verdicts[index] = Some(verdict);
        }
        for (index, holders) in audited {
            let Some(verdict) = pass.verdicts[index] else {
                continue; // every audited height was derived above
            };
            report.heights_checked += 1;
            report.shards_verified += holders;
            if !verdict.clean {
                report.root_mismatches.push(index as Height); // widens losslessly
            }
            if verdict.proved {
                report.proofs_checked += 1;
            }
        }
        report.root_mismatches.sort_unstable();
        report.root_mismatches.dedup();
        ici_telemetry::counter_add(
            "core/merkle_audit_shards",
            Label::Cluster(u64::from(cluster.get())),
            report.shards_verified as u64, // counter magnitude
        );
        report
    }

    /// Audits every cluster in one pass; returns per-cluster reports.
    pub fn merkle_audit_all(&self) -> Vec<MerkleAuditReport> {
        let mut pass = MerkleAuditPass::new();
        self.clusters()
            .into_iter()
            .map(|c| self.merkle_audit_in(&mut pass, c))
            .collect()
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
        for m in net.membership().active_members(cluster) {
            if net.holdings(m).expect("known").has_body(2) {
                net.crash_node(m).expect("known");
            }
        }
        let report = net.merkle_audit(cluster);
        assert!(report.missing.contains(&2), "{report:?}");
        assert!(!report.is_clean());
    }

    #[test]
    fn single_bit_flip_at_every_shard_index_is_detected_and_attributed() {
        // The exhaustive corruption sweep: for every committed height,
        // every shard (transaction leaf), and a spread of bit positions
        // across the leaf's bytes, one flipped bit must (a) break the
        // recomputed root — detection — and (b) be attributed to exactly
        // the corrupted shard index.
        let net = network_with_blocks(4);
        for height in 1..=4u64 {
            let block = net.block(height).expect("committed").clone();
            let clean: Vec<Vec<u8>> = block
                .transactions()
                .iter()
                .map(|tx| tx.to_bytes())
                .collect();
            assert!(
                attribute_corrupt_shards(&block, &clean).is_empty(),
                "clean replica must attribute nothing"
            );
            for shard in 0..clean.len() {
                let bits = clean[shard].len() * 8;
                // Every byte boundary plus both edges: first bit, last
                // bit, and one bit in each byte in between.
                for bit in (0..bits).step_by(8).chain([bits - 1]) {
                    let mut suspect = clean.clone();
                    suspect[shard][bit / 8] ^= 1 << (bit % 8);
                    // Detection: the leaf digest diverges, so the
                    // recomputed root cannot match the commitment.
                    let tree = ici_crypto::merkle::MerkleTree::from_leaves(
                        suspect.iter().map(Vec::as_slice),
                    );
                    assert_ne!(
                        tree.root(),
                        block.header().tx_root,
                        "h={height} shard={shard} bit={bit}: flip went undetected"
                    );
                    // Attribution: exactly the corrupted shard is named.
                    assert_eq!(
                        attribute_corrupt_shards(&block, &suspect),
                        vec![shard],
                        "h={height} shard={shard} bit={bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_and_padded_replicas_are_attributed_past_the_divergence() {
        let net = network_with_blocks(2);
        let block = net.block(1).expect("committed").clone();
        let clean: Vec<Vec<u8>> = block
            .transactions()
            .iter()
            .map(|tx| tx.to_bytes())
            .collect();
        let n = clean.len();
        assert!(n >= 2);

        let mut truncated = clean.clone();
        truncated.pop();
        assert_eq!(attribute_corrupt_shards(&block, &truncated), vec![n - 1]);

        let mut padded = clean.clone();
        padded.push(clean[0].clone());
        assert_eq!(attribute_corrupt_shards(&block, &padded), vec![n]);

        // A replica that swapped two shards corrupts both positions.
        let mut swapped = clean.clone();
        swapped.swap(0, 1);
        assert_eq!(attribute_corrupt_shards(&block, &swapped), vec![0, 1]);
    }

    #[test]
    fn fully_dead_cluster_reports_every_height_missing() {
        let mut net = network_with_blocks(3);
        let cluster = net.clusters()[1];
        for m in net.membership().active_members(cluster) {
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
        let members = |net: &IciNetwork, c: usize| net.membership().active_members(clusters[c]);
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
    fn shared_pass_reports_equal_stand_alone_audits() {
        let net = network_in_every_audit_state();
        for threads in [1, 4] {
            ici_par::set_threads(threads);
            let shared = net.merkle_audit_all();
            assert_eq!(shared.len(), 4);
            for (cluster, report) in net.clusters().into_iter().zip(&shared) {
                assert_eq!(
                    *report,
                    net.merkle_audit(cluster),
                    "threads={threads} cluster={cluster:?}"
                );
            }
            assert!(shared[0].is_clean() && shared[1].is_clean());
            assert_eq!(shared[2].missing, vec![3]);
            assert_eq!(shared[3].heights_checked, 0);
            assert_eq!(shared[3].missing.len(), 7);
        }
    }

    #[test]
    fn repair_then_audit_in_one_pass_equals_stand_alone_audits() {
        // The fault runner's certify loop: each cluster is repaired and
        // then audited, all clusters of the round sharing one pass.
        for threads in [1, 4] {
            ici_par::set_threads(threads);
            let mut net = network_of(32, 6);
            for cluster in net.clusters() {
                let victim = net.membership().active_members(cluster)[0];
                net.crash_node(victim).expect("known");
            }
            let mut pass = MerkleAuditPass::new();
            for cluster in net.clusters() {
                net.repair_cluster(cluster);
                let shared = net.merkle_audit_in(&mut pass, cluster);
                assert_eq!(shared, net.merkle_audit(cluster), "threads={threads}");
                assert!(shared.is_clean(), "{shared:?}");
            }
        }
    }

    #[test]
    fn a_pass_derives_each_audited_height_once_and_restarts_when_the_chain_grows() {
        let mut net = network_in_every_audit_state();
        // Heights some live member of some cluster holds: all seven here
        // (the healthy cluster alone covers the chain).
        let (reports, trees) = trees_derived_by(|| net.merkle_audit_all());
        assert_eq!(reports.len(), 4);
        assert_eq!(trees, 7);
        // Stand-alone audits share nothing: one tree per height checked.
        let (checked, trees) = trees_derived_by(|| {
            net.clusters()
                .into_iter()
                .map(|c| net.merkle_audit(c).heights_checked as u64)
                .sum::<u64>()
        });
        assert_eq!(trees, checked);
        assert_eq!(checked, 7 + 7 + 6);

        // A pass outlives its chain length only by starting over.
        let healthy = net.clusters()[0];
        let mut pass = MerkleAuditPass::new();
        let (_, first) = trees_derived_by(|| net.merkle_audit_in(&mut pass, healthy));
        let (_, again) = trees_derived_by(|| net.merkle_audit_in(&mut pass, healthy));
        assert_eq!((first, again), (7, 0));
        net.propose_block(Vec::new()).expect("commits");
        let (grown, rederived) = trees_derived_by(|| net.merkle_audit_in(&mut pass, healthy));
        assert_eq!(rederived, 8);
        assert_eq!(grown, net.merkle_audit(healthy));
    }
}
