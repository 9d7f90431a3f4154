//! Randomized property tests over assignment, auditing, and recovery
//! planning.
//!
//! Ported from `proptest` to seeded, deterministic case loops over
//! [`ici_rng`].

use std::collections::BTreeSet;

use ici_crypto::sha256::Sha256;
use ici_net::node::NodeId;
use ici_rng::Xoshiro256;
use ici_storage::assignment::{
    AssignmentStrategy, RendezvousAssignment, RingAssignment, RoundRobinAssignment,
};
use ici_storage::audit::{audit_cluster, Holdings};
use ici_storage::recovery::{plan_recovery, BlockRef};

const CASES: usize = 48;

fn all_strategies() -> Vec<Box<dyn AssignmentStrategy>> {
    vec![
        Box::new(RendezvousAssignment),
        Box::new(RingAssignment::default()),
        Box::new(RoundRobinAssignment),
    ]
}

/// Owner sets are always: distinct, members, of size min(r, c), and
/// deterministic — for every strategy and any shape.
#[test]
fn owner_sets_are_well_formed() {
    let mut rng = Xoshiro256::seed_from_u64(0xE1);
    for _ in 0..CASES {
        let c = rng.gen_range(1usize..40);
        let r = rng.gen_range(0usize..6);
        let height = rng.next_u64();
        let key = rng.next_u64();
        let members: Vec<NodeId> = (0..c as u64).map(NodeId::new).collect();
        let id = Sha256::digest(&key.to_be_bytes());
        for strategy in all_strategies() {
            let owners = strategy.owners(&id, height, &members, r);
            assert_eq!(owners.len(), r.min(c), "{}", strategy.name());
            let set: BTreeSet<&NodeId> = owners.iter().collect();
            assert_eq!(set.len(), owners.len(), "{} duplicated", strategy.name());
            for o in &owners {
                assert!(members.contains(o), "{} non-member", strategy.name());
            }
            assert_eq!(
                strategy.owners(&id, height, &members, r),
                owners,
                "{} non-deterministic",
                strategy.name()
            );
        }
    }
}

/// Rendezvous assignment: removing a non-owner never changes a block's
/// owner set (minimal disruption, exact form).
#[test]
fn rendezvous_ignores_non_owner_departures() {
    let mut rng = Xoshiro256::seed_from_u64(0xE2);
    for _ in 0..CASES {
        let c = rng.gen_range(3usize..30);
        let key = rng.next_u64();
        let members: Vec<NodeId> = (0..c as u64).map(NodeId::new).collect();
        let id = Sha256::digest(&key.to_be_bytes());
        let r = 2.min(c);
        let owners = RendezvousAssignment.owners(&id, 0, &members, r);
        let gone = members[rng.gen_range(0usize..c)];
        if owners.contains(&gone) {
            continue; // departure of an owner must change the set
        }
        let survivors: Vec<NodeId> = members.iter().copied().filter(|m| *m != gone).collect();
        assert_eq!(RendezvousAssignment.owners(&id, 0, &survivors, r), owners);
    }
}

/// Audit + plan + apply = audit clean: for any random holdings and
/// any live subset, executing the recovery plan leaves no block
/// under-replicated that had at least one live holder.
#[test]
fn recovery_plan_restores_replication() {
    let mut rng = Xoshiro256::seed_from_u64(0xE3);
    for _ in 0..CASES {
        let c = rng.gen_range(4usize..16);
        let chain = rng.gen_range(1u64..40);
        let seed = rng.next_u64();
        let members: Vec<NodeId> = (0..c as u64).map(NodeId::new).collect();
        let r = 2.min(c);
        let blocks: Vec<BlockRef> = (0..chain)
            .map(|h| BlockRef {
                id: Sha256::digest(&(h ^ seed).to_be_bytes()),
                height: h,
                body_bytes: 100,
            })
            .collect();
        // Initial holdings per the assignment.
        let mut holdings = Holdings::new();
        for b in &blocks {
            for owner in RendezvousAssignment.owners(&b.id, b.height, &members, r) {
                holdings.entry(owner).or_default().insert(b.height);
            }
        }
        let mut live: BTreeSet<NodeId> = members.iter().copied().collect();
        for _ in 0..rng.gen_range(0usize..4) {
            live.remove(&members[rng.gen_range(0usize..c)]);
        }
        if live.is_empty() {
            continue;
        }

        let plan = plan_recovery(&blocks, &holdings, &live, &RendezvousAssignment, r);
        for t in &plan.transfers {
            assert!(live.contains(&t.source));
            assert!(live.contains(&t.destination));
            holdings.entry(t.destination).or_default().insert(t.height);
        }

        // Re-plan: nothing further to move.
        let again = plan_recovery(&blocks, &holdings, &live, &RendezvousAssignment, r);
        assert!(again.transfers.is_empty());

        // Every block with a live holder reaches min(r, live) replicas.
        let target = r.min(live.len());
        let report = audit_cluster(&holdings, &live, chain);
        for h in 0..chain {
            let was_recoverable = !plan.unrecoverable.contains(&h);
            if was_recoverable {
                let live_replicas = holdings
                    .iter()
                    .filter(|(n, hs)| live.contains(n) && hs.contains(&h))
                    .count();
                assert!(
                    live_replicas >= target,
                    "height {h}: {live_replicas} < {target}"
                );
            }
        }
        // The audit agrees with the holder count.
        assert_eq!(report.chain_len, chain);
    }
}

/// Audit availability is exactly the fraction of heights with a live
/// holder.
#[test]
fn audit_availability_matches_definition() {
    let mut rng = Xoshiro256::seed_from_u64(0xE4);
    for _ in 0..CASES {
        let chain = rng.gen_range(1u64..60);
        let live_mask = rng.gen_range(0u32..256) as u8;
        let mut holdings = Holdings::new();
        for _ in 0..rng.gen_range(0usize..80) {
            let node = rng.gen_range(0u64..8);
            let height = rng.gen_range(0u64..60);
            if height < chain {
                holdings
                    .entry(NodeId::new(node))
                    .or_default()
                    .insert(height);
            }
        }
        let live: BTreeSet<NodeId> = (0..8u64)
            .filter(|i| live_mask & (1 << i) != 0)
            .map(NodeId::new)
            .collect();
        let report = audit_cluster(&holdings, &live, chain);
        let covered = (0..chain)
            .filter(|h| {
                holdings
                    .iter()
                    .any(|(n, hs)| live.contains(n) && hs.contains(h))
            })
            .count() as f64;
        assert!((report.availability() - covered / chain as f64).abs() < 1e-12);
        assert_eq!(report.missing.len() as u64, chain - covered as u64);
    }
}
