//! Block-to-node assignment inside a cluster.
//!
//! ICIStrategy stores each block on `r` of a cluster's `c` members. The
//! assignment must be (a) computable by every member locally from the block
//! id and the membership view — no coordination messages — and (b) stable
//! under churn, so a join/leave moves few blocks. [`Assignment`] is the
//! rule, one of three:
//!
//! * [`Assignment::Rendezvous`] — highest-random-weight hashing; optimal
//!   churn behaviour (only blocks owned by the departed node move), used by
//!   default.
//! * [`Assignment::Ring`] — consistent-hash ring with 16 virtual nodes a
//!   member; the classic DHT construction, kept as an ablation point.
//! * [`Assignment::RoundRobin`] — `height mod c` striping; perfectly
//!   uniform but reshuffles almost everything on membership change. The
//!   strawman the ablation bench quantifies against.

use std::collections::BTreeMap;

use ici_crypto::lottery::rendezvous_top;
use ici_crypto::sha256::{Digest, Sha256};
use ici_net::node::NodeId;

use ici_chain::block::Height;

/// Chooses which cluster members store a block.
///
/// Implementations must be deterministic functions of their arguments.
pub trait AssignmentStrategy {
    /// Returns the `r` owners of block `(id, height)` among `members`
    /// (fewer if `members.len() < r`). `members` is the cluster's active
    /// member list, ascending by id.
    fn owners(&self, id: &Digest, height: Height, members: &[NodeId], r: usize) -> Vec<NodeId>;
}

/// Which block→owner rule runs inside each cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Assignment {
    /// Rendezvous (HRW) hashing — default, minimal churn disruption.
    #[default]
    Rendezvous,
    /// Consistent-hash ring with 16 virtual nodes per member.
    Ring,
    /// Round-robin striping by height.
    RoundRobin,
}

/// Virtual nodes per member on the consistent-hash ring.
const RING_VNODES: u32 = 16;

impl Assignment {
    /// A short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Assignment::Rendezvous => "rendezvous",
            Assignment::Ring => "consistent-ring",
            Assignment::RoundRobin => "round-robin",
        }
    }
}

impl AssignmentStrategy for Assignment {
    fn owners(&self, id: &Digest, height: Height, members: &[NodeId], r: usize) -> Vec<NodeId> {
        let _span = ici_telemetry::span!("storage/assign_owners", phase = self.name());
        match self {
            Assignment::Rendezvous => rendezvous_top(id, members.iter().map(|n| n.get()), r)
                .into_iter()
                .map(NodeId::new)
                .collect(),
            Assignment::Ring => ring_owners(id, members, r),
            Assignment::RoundRobin => {
                let c = members.len();
                (0..r.min(c))
                    .map(|i| members[(height as usize % c + i) % c])
                    .collect()
            }
        }
    }
}

// Kept for the frozen benchmark only: `benchmark/src/surface.rs` names
// it. It is `Assignment::Rendezvous`; nothing in this repository may call it.
#[doc(hidden)]
pub struct RendezvousAssignment;

impl AssignmentStrategy for RendezvousAssignment {
    fn owners(&self, id: &Digest, height: Height, members: &[NodeId], r: usize) -> Vec<NodeId> {
        Assignment::Rendezvous.owners(id, height, members, r)
    }
}

/// The ring's owners of `id`: walking clockwise from the id's position
/// over `RING_VNODES` points a member, the first `r` distinct members.
fn ring_owners(id: &Digest, members: &[NodeId], r: usize) -> Vec<NodeId> {
    if members.is_empty() || r == 0 {
        return Vec::new();
    }
    let position = |member: NodeId, vnode: u32| {
        let mut h = Sha256::new();
        h.update(b"ici-ring-v1:");
        h.update(&member.get().to_be_bytes());
        h.update(&vnode.to_be_bytes());
        h.finalize().prefix_u64()
    };
    let mut ring: Vec<(u64, NodeId)> = Vec::with_capacity(members.len() * RING_VNODES as usize);
    for &m in members {
        for v in 0..RING_VNODES {
            ring.push((position(m, v), m));
        }
    }
    ring.sort_unstable();
    let key = id.prefix_u64();
    let start = ring.partition_point(|(pos, _)| *pos < key);
    let mut owners = Vec::with_capacity(r.min(members.len()));
    for i in 0..ring.len() {
        let (_, node) = ring[(start + i) % ring.len()];
        if !owners.contains(&node) {
            owners.push(node);
            if owners.len() == r.min(members.len()) {
                break;
            }
        }
    }
    owners
}

/// Computes, for a whole chain segment, how many blocks each member owns
/// under `assignment` — the balance diagnostic used by the ablation bench.
pub fn ownership_histogram(
    assignment: Assignment,
    block_ids: &[(Digest, Height)],
    members: &[NodeId],
    r: usize,
) -> BTreeMap<NodeId, usize> {
    let mut counts: BTreeMap<NodeId, usize> = members.iter().map(|m| (*m, 0)).collect();
    for (id, height) in block_ids {
        for owner in assignment.owners(id, *height, members, r) {
            *counts.entry(owner).or_insert(0) += 1;
        }
    }
    counts
}

/// Fraction of blocks whose owner set changes when `removed` leaves
/// `members` — the churn-stability metric (lower is better; `r/c` is
/// optimal).
pub fn churn_disruption(
    assignment: Assignment,
    block_ids: &[(Digest, Height)],
    members: &[NodeId],
    removed: NodeId,
    r: usize,
) -> f64 {
    if block_ids.is_empty() {
        return 0.0;
    }
    let survivors: Vec<NodeId> = members.iter().copied().filter(|m| *m != removed).collect();
    // Count blocks that must transfer to some node that did not hold
    // them before.
    let moved = block_ids
        .iter()
        .filter(|(id, height)| {
            let before = assignment.owners(id, *height, members, r);
            let after = assignment.owners(id, *height, &survivors, r);
            after.iter().any(|m| !before.contains(m))
        })
        .count();
    moved as f64 / block_ids.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    fn block_ids(n: u64) -> Vec<(Digest, Height)> {
        (0..n)
            .map(|h| (Sha256::digest(&h.to_be_bytes()), h))
            .collect()
    }

    const ALL: [Assignment; 3] = [
        Assignment::Rendezvous,
        Assignment::RoundRobin,
        Assignment::Ring,
    ];

    #[test]
    fn owners_are_distinct_members_of_requested_count() {
        let m = members(10);
        for s in ALL {
            for (id, h) in block_ids(20) {
                let owners = s.owners(&id, h, &m, 3);
                assert_eq!(owners.len(), 3, "{}", s.name());
                let set: std::collections::HashSet<_> = owners.iter().collect();
                assert_eq!(set.len(), 3, "{} produced duplicates", s.name());
                for o in &owners {
                    assert!(m.contains(o), "{} chose a non-member", s.name());
                }
            }
        }
    }

    #[test]
    fn assignment_is_deterministic() {
        let m = members(8);
        let (id, h) = (Sha256::digest(b"block"), 5);
        for s in ALL {
            assert_eq!(
                s.owners(&id, h, &m, 2),
                s.owners(&id, h, &m, 2),
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn r_larger_than_membership_returns_all() {
        let m = members(3);
        let (id, h) = (Sha256::digest(b"x"), 0);
        for s in ALL {
            let owners = s.owners(&id, h, &m, 10);
            assert_eq!(owners.len(), 3, "{}", s.name());
        }
    }

    #[test]
    fn empty_membership_returns_empty() {
        let (id, h) = (Sha256::digest(b"x"), 0);
        for s in ALL {
            assert!(s.owners(&id, h, &[], 2).is_empty(), "{}", s.name());
        }
    }

    #[test]
    fn round_robin_is_perfectly_uniform_with_r1() {
        let m = members(8);
        let ids = block_ids(80);
        let hist = ownership_histogram(Assignment::RoundRobin, &ids, &m, 1);
        for (node, count) in hist {
            assert_eq!(count, 10, "{node}");
        }
    }

    #[test]
    fn hash_strategies_are_roughly_uniform() {
        let m = members(8);
        let ids = block_ids(1600);
        for s in [Assignment::Rendezvous, Assignment::Ring] {
            let hist = ownership_histogram(s, &ids, &m, 1);
            let expected = 1600 / 8;
            for (node, count) in hist {
                assert!(
                    count > expected / 2 && count < expected * 2,
                    "{}: {node} owns {count}, expected ≈{expected}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn rendezvous_has_minimal_churn_disruption() {
        let m = members(10);
        let ids = block_ids(400);
        let hrw = churn_disruption(Assignment::Rendezvous, &ids, &m, NodeId::new(3), 2);
        let rr = churn_disruption(Assignment::RoundRobin, &ids, &m, NodeId::new(3), 2);
        // HRW: only blocks owned by n3 move ≈ r/c = 20%. Round-robin
        // reshuffles nearly everything.
        assert!(hrw < 0.35, "hrw disruption {hrw}");
        assert!(rr > 0.8, "round-robin disruption {rr}");
        assert!(hrw < rr);
    }

    #[test]
    fn round_robin_height_striping() {
        let m = members(4);
        let id = Sha256::digest(b"irrelevant");
        assert_eq!(
            Assignment::RoundRobin.owners(&id, 6, &m, 2),
            vec![NodeId::new(2), NodeId::new(3)]
        );
        assert_eq!(
            Assignment::RoundRobin.owners(&id, 7, &m, 2),
            vec![NodeId::new(3), NodeId::new(0)]
        );
    }
}
