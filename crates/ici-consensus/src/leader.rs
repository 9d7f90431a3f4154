//! Intra-cluster leader election.
//!
//! Each cluster elects a proposer per height with the deterministic hash
//! lottery from `ici-crypto`: every member computes the same winner from
//! `(epoch seed, height)` with zero communication. The epoch seed is the
//! previous block id, so leadership is unpredictable ahead of time yet
//! verifiable after the fact.

use ici_crypto::lottery::lottery_winner;
use ici_crypto::sha256::Digest;
use ici_net::node::NodeId;

/// Elects the proposer for `height` among `members`, seeded by the parent
/// block id. Returns `None` for an empty member set.
pub fn elect_leader(parent_id: &Digest, height: u64, members: &[NodeId]) -> Option<NodeId> {
    elect_live_leader(parent_id, height, members, |_| true)
}

/// Elects a per-height leader while skipping crashed members: the live
/// member with the lowest `(lottery score, id)`, which is the first live
/// one in lottery order. `is_live` reports liveness; a member it rejects
/// is never hashed.
pub fn elect_live_leader<F>(
    parent_id: &Digest,
    height: u64,
    members: &[NodeId],
    is_live: F,
) -> Option<NodeId>
where
    F: Fn(NodeId) -> bool,
{
    let _span = ici_telemetry::span!("consensus/leader_elect");
    let live = members.iter().copied().filter(|&n| is_live(n));
    lottery_winner(parent_id, height, live.map(NodeId::get)).map(NodeId::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_crypto::lottery::lottery_score;
    use ici_crypto::sha256::Sha256;

    fn members(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn leader_is_deterministic_member() {
        let seed = Sha256::digest(b"parent");
        let m = members(10);
        let a = elect_leader(&seed, 5, &m).expect("non-empty");
        let b = elect_leader(&seed, 5, &m).expect("non-empty");
        assert_eq!(a, b);
        assert!(m.contains(&a));
    }

    #[test]
    fn leadership_rotates_with_height() {
        let seed = Sha256::digest(b"parent");
        let m = members(8);
        let distinct: std::collections::HashSet<NodeId> =
            (0..50).filter_map(|h| elect_leader(&seed, h, &m)).collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn empty_membership_has_no_leader() {
        assert_eq!(elect_leader(&Digest::ZERO, 0, &[]), None);
    }

    #[test]
    fn live_leader_skips_crashed() {
        let seed = Sha256::digest(b"x");
        let m = members(6);
        let primary = elect_leader(&seed, 3, &m).expect("non-empty");
        let fallback = elect_live_leader(&seed, 3, &m, |n| n != primary).expect("someone is live");
        assert_ne!(fallback, primary);
        // With everyone live, both elections agree.
        assert_eq!(elect_live_leader(&seed, 3, &m, |_| true), Some(primary));
    }

    /// The minimum over live members is the election it replaced: rank
    /// every member by `(score, id)`, then take the first live one.
    #[test]
    fn live_leader_is_the_first_live_member_in_lottery_order() {
        let seed = Sha256::digest(b"order");
        let m: Vec<NodeId> = [9, 2, 40, 2, 17, 5, 33, 0, 8].map(NodeId::new).to_vec();
        for height in 0..20 {
            let mut order: Vec<(u64, NodeId)> = m
                .iter()
                .map(|n| (lottery_score(&seed, height, n.get()), *n))
                .collect();
            order.sort_unstable();
            for mask in 0..64u64 {
                let is_live = |n: NodeId| (mask >> (n.get() % 6)) & 1 == 1;
                let expected = order.iter().map(|&(_, n)| n).find(|&n| is_live(n));
                assert_eq!(
                    elect_live_leader(&seed, height, &m, is_live),
                    expected,
                    "height {height}, mask {mask:06b}"
                );
            }
        }
    }

    #[test]
    fn all_crashed_yields_none() {
        let seed = Sha256::digest(b"x");
        assert_eq!(elect_live_leader(&seed, 0, &members(4), |_| false), None);
    }
}
