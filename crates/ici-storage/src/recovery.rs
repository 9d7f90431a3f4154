//! Failure recovery: re-replication planning.
//!
//! When a cluster member crashes, the blocks it held lose one replica; any
//! block that drops below the target replication `r` must be copied to a
//! new owner before further failures break intra-cluster integrity. The
//! planner computes, purely from local knowledge (holdings snapshot +
//! membership + the deterministic assignment), the minimal set of
//! `(height, source, destination)` transfers.

use std::collections::BTreeSet;

use ici_crypto::sha256::Digest;
use ici_net::node::NodeId;

use ici_chain::block::Height;

use crate::assignment::AssignmentStrategy;
use crate::audit::{HeightSet, Holdings, ReplicaCount};

/// One planned body transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Height of the block to copy.
    pub height: Height,
    /// A live member that holds the body.
    pub source: NodeId,
    /// The member that must receive it.
    pub destination: NodeId,
    /// Body size in bytes (for traffic accounting).
    pub bytes: u64,
}

/// The outcome of recovery planning.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// Transfers to execute, ascending by height.
    pub transfers: Vec<Transfer>,
    /// Heights no live member of the cluster still holds; these require a
    /// cross-cluster fetch (handled by the core query protocol).
    pub unrecoverable: Vec<Height>,
}

impl RecoveryPlan {
    /// Total bytes the plan moves.
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Whether nothing needs to move.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty() && self.unrecoverable.is_empty()
    }
}

/// Description of one block for the planner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRef {
    /// Block id (drives hash-based assignment).
    pub id: Digest,
    /// Height in the chain.
    pub height: Height,
    /// Encoded body length.
    pub body_bytes: u64,
}

/// Plans the transfers that restore every block of `blocks` to `r` live
/// replicas within one cluster.
///
/// * `holdings` — who currently holds which heights (may include departed
///   nodes; they are ignored unless in `live`).
/// * `live` — current live members, the candidate owners.
/// * `strategy` — the cluster's assignment; new owners are the strategy's
///   choice among live members, skipping nodes that already hold the block.
///
/// Sources are chosen round-robin among live holders to spread repair load.
pub fn plan_recovery<S: AssignmentStrategy + ?Sized>(
    blocks: &[BlockRef],
    holdings: &Holdings,
    live: &BTreeSet<NodeId>,
    strategy: &S,
    r: usize,
) -> RecoveryPlan {
    static NOTHING: HeightSet = HeightSet::new();
    let live: Vec<(NodeId, &HeightSet)> = live
        .iter()
        .map(|n| (*n, holdings.get(n).unwrap_or(&NOTHING)))
        .collect();
    let chain_len = blocks.iter().map(|b| b.height + 1).max().unwrap_or(0);
    let owed = heights_owed(&live, chain_len, r);
    let blocks = blocks.iter().filter(|b| owed.contains(&b.height)).copied();
    plan_transfers(blocks, &live, strategy, r)
}

/// [`plan_recovery`] for a whole chain over borrowed holdings: `live` is
/// each live member, ascending, with the heights it holds, and `block_at`
/// describes a height of `0..chain_len`. It is asked only for the heights
/// the plan has to act on, so a cluster at full replication costs one
/// [`ReplicaCount`] and nothing per block.
pub fn plan_chain_recovery<S: AssignmentStrategy + ?Sized>(
    chain_len: Height,
    block_at: impl Fn(Height) -> BlockRef,
    live: &[(NodeId, &HeightSet)],
    strategy: &S,
    r: usize,
) -> RecoveryPlan {
    let owed = heights_owed(live, chain_len, r);
    plan_transfers(owed.iter().map(block_at), live, strategy, r)
}

/// The heights of `0..chain_len` a plan acts on: those below the
/// replication target `min(r, live members)`, and those nobody holds
/// (which a target of 0 — a dead cluster — would otherwise hide).
fn heights_owed(live: &[(NodeId, &HeightSet)], chain_len: Height, r: usize) -> HeightSet {
    let count = ReplicaCount::of(live.iter().map(|(_, held)| *held), chain_len);
    count.below(r.min(live.len()).max(1))
}

/// The plan for `blocks`, each of which is owed a replica or lost.
fn plan_transfers<S: AssignmentStrategy + ?Sized>(
    blocks: impl Iterator<Item = BlockRef>,
    live: &[(NodeId, &HeightSet)],
    strategy: &S,
    r: usize,
) -> RecoveryPlan {
    let _span = ici_telemetry::span!("storage/plan_recovery");
    let live_members: Vec<NodeId> = live.iter().map(|(n, _)| *n).collect();
    let mut plan = RecoveryPlan::default();

    for block in blocks {
        let holders: Vec<NodeId> = live
            .iter()
            .filter(|(_, held)| held.contains(&block.height))
            .map(|(n, _)| *n)
            .collect();

        if holders.is_empty() {
            plan.unrecoverable.push(block.height);
            continue;
        }
        let deficit = r.min(live_members.len()).saturating_sub(holders.len());

        // New owners: assignment order over live members, skipping current
        // holders, taking `deficit`.
        let preferred = strategy.owners(&block.id, block.height, &live_members, live_members.len());
        let new_owners = preferred.into_iter().filter(|c| !holders.contains(c));
        for (destination, &source) in new_owners.take(deficit).zip(holders.iter().cycle()) {
            plan.transfers.push(Transfer {
                height: block.height,
                source,
                destination,
                bytes: block.body_bytes,
            });
        }
    }
    plan.transfers.sort_by_key(|t| (t.height, t.destination));
    plan.unrecoverable.sort_unstable();
    ici_telemetry::counter_add(
        "storage/repair_transfers",
        ici_telemetry::Label::Global,
        plan.transfers.len() as u64,
    );
    ici_telemetry::counter_add(
        "storage/repair_bytes",
        ici_telemetry::Label::Global,
        plan.transfers.iter().map(|t| t.bytes).sum(),
    );
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use ici_crypto::sha256::Sha256;

    fn block(h: Height) -> BlockRef {
        BlockRef {
            id: Sha256::digest(&h.to_be_bytes()),
            height: h,
            body_bytes: 1_000,
        }
    }

    fn full_cluster(n: u64, chain: Height, r: usize) -> (Vec<BlockRef>, Holdings) {
        let members: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let blocks: Vec<BlockRef> = (0..chain).map(block).collect();
        let mut holdings = Holdings::new();
        for b in &blocks {
            for owner in Assignment::Rendezvous.owners(&b.id, b.height, &members, r) {
                holdings.entry(owner).or_default().insert(b.height);
            }
        }
        (blocks, holdings)
    }

    #[test]
    fn healthy_cluster_needs_no_plan() {
        let (blocks, holdings) = full_cluster(8, 40, 2);
        let live: BTreeSet<NodeId> = (0..8).map(NodeId::new).collect();
        let plan = plan_recovery(&blocks, &holdings, &live, &Assignment::Rendezvous, 2);
        assert!(plan.is_empty());
    }

    #[test]
    fn single_failure_restores_replication() {
        let (blocks, holdings) = full_cluster(8, 40, 2);
        let mut live: BTreeSet<NodeId> = (0..8).map(NodeId::new).collect();
        live.remove(&NodeId::new(3));

        let plan = plan_recovery(&blocks, &holdings, &live, &Assignment::Rendezvous, 2);
        assert!(plan.unrecoverable.is_empty());
        // Every block n3 owned needs exactly one new replica.
        let lost: usize = holdings.get(&NodeId::new(3)).map(|h| h.len()).unwrap_or(0);
        assert_eq!(plan.transfers.len(), lost);
        for t in &plan.transfers {
            assert_ne!(t.destination, NodeId::new(3));
            assert!(live.contains(&t.source));
            assert!(live.contains(&t.destination));
            // The destination must not already hold the block.
            assert!(!holdings
                .get(&t.destination)
                .map_or(false, |h| h.contains(&t.height)));
        }
        assert_eq!(plan.total_bytes(), lost as u64 * 1_000);
    }

    #[test]
    fn applying_the_plan_restores_integrity() {
        let (blocks, mut holdings) = full_cluster(10, 60, 2);
        let mut live: BTreeSet<NodeId> = (0..10).map(NodeId::new).collect();
        live.remove(&NodeId::new(1));
        live.remove(&NodeId::new(7));

        let plan = plan_recovery(&blocks, &holdings, &live, &Assignment::Rendezvous, 2);
        for t in &plan.transfers {
            holdings.entry(t.destination).or_default().insert(t.height);
        }
        // Re-plan: nothing left to do.
        let again = plan_recovery(&blocks, &holdings, &live, &Assignment::Rendezvous, 2);
        assert!(again.transfers.is_empty(), "second plan: {again:?}");
    }

    #[test]
    fn unrecoverable_blocks_are_reported() {
        let (blocks, holdings) = full_cluster(4, 20, 1);
        // Kill the sole holder of each r=1 block by killing everyone who
        // holds block 0's body.
        let holder_of_0 = holdings
            .iter()
            .find(|(_, hs)| hs.contains(&0))
            .map(|(n, _)| *n)
            .expect("someone holds block 0");
        let mut live: BTreeSet<NodeId> = (0..4).map(NodeId::new).collect();
        live.remove(&holder_of_0);

        let plan = plan_recovery(&blocks, &holdings, &live, &Assignment::Rendezvous, 1);
        assert!(plan.unrecoverable.contains(&0));
    }

    #[test]
    fn deficit_capped_by_live_membership() {
        // 2 live members, r=3: target replication is effectively 2.
        let (blocks, holdings) = full_cluster(2, 10, 3);
        let live: BTreeSet<NodeId> = (0..2).map(NodeId::new).collect();
        let plan = plan_recovery(&blocks, &holdings, &live, &Assignment::Rendezvous, 3);
        assert!(plan.transfers.is_empty());
    }

    #[test]
    fn dead_cluster_reports_every_height_unrecoverable() {
        let (blocks, holdings) = full_cluster(6, 25, 2);
        // Every holder crashed; the only live members never stored anything.
        let live: BTreeSet<NodeId> = (6..9).map(NodeId::new).collect();
        let plan = plan_recovery(&blocks, &holdings, &live, &Assignment::Rendezvous, 2);
        assert!(plan.transfers.is_empty());
        assert_eq!(plan.total_bytes(), 0);
        assert_eq!(plan.unrecoverable, (0..25).collect::<Vec<Height>>());
        assert!(!plan.is_empty(), "lost data is not a no-op plan");
    }

    #[test]
    fn duplicate_offers_never_schedule_redundant_transfers() {
        let (blocks, mut holdings) = full_cluster(8, 40, 2);
        // Node 5 offers a surplus replica of every block, duplicating
        // whatever the assignment already placed on it.
        for b in &blocks {
            holdings.entry(NodeId::new(5)).or_default().insert(b.height);
        }
        let mut live: BTreeSet<NodeId> = (0..8).map(NodeId::new).collect();
        live.remove(&NodeId::new(2));

        let plan = plan_recovery(&blocks, &holdings, &live, &Assignment::Rendezvous, 2);
        assert!(plan.unrecoverable.is_empty());
        let mut seen = BTreeSet::new();
        for t in &plan.transfers {
            // Never copy to a node that already holds the block, never
            // schedule the same (height, destination) twice, and never
            // self-transfer.
            assert!(
                !holdings
                    .get(&t.destination)
                    .map_or(false, |h| h.contains(&t.height)),
                "offered a shard to an existing holder: {t:?}"
            );
            assert!(seen.insert((t.height, t.destination)), "duplicate: {t:?}");
            assert_ne!(t.source, t.destination);
        }
        // Blocks whose second replica the surplus already restored must
        // not appear in the plan at all.
        for b in &blocks {
            let holders = live
                .iter()
                .filter(|n| holdings.get(n).map_or(false, |h| h.contains(&b.height)))
                .count();
            if holders >= 2 {
                assert!(
                    plan.transfers.iter().all(|t| t.height != b.height),
                    "replicated block {b:?} was repaired anyway"
                );
            }
        }
    }

    #[test]
    fn sources_rotate_among_holders() {
        let (blocks, holdings) = full_cluster(6, 30, 3);
        let mut live: BTreeSet<NodeId> = (0..6).map(NodeId::new).collect();
        live.remove(&NodeId::new(0));
        let plan = plan_recovery(&blocks, &holdings, &live, &Assignment::Rendezvous, 3);
        if plan.transfers.len() >= 4 {
            let sources: BTreeSet<NodeId> = plan.transfers.iter().map(|t| t.source).collect();
            assert!(sources.len() > 1, "all repairs from one source");
        }
    }
}
