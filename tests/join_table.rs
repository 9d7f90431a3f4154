//! Joins against a fresh full ranking, under every assignment.
//!
//! Under rendezvous assignment a join merges the joiner into its
//! cluster's kept top-`r` pairs instead of ranking every member again.
//! Each scenario here runs once per assignment and checks every
//! successful join from outside: at every height, the members of the
//! joined cluster that hold the body are the ones that held it before
//! and still own it, plus the joiner if it owns it, where "own" is
//! [`IciNetwork::owners_in_cluster`] over the grown cluster. Under
//! rendezvous that is exactly the owner set, since a join moves only
//! the heights the joiner takes. The report's `bodies` and
//! `pruned_bodies` are counted from the same reference.
//!
//! The scenarios: joins into one cluster with blocks committed between
//! them; a failed join and the same node joining after the holders
//! recover; a re-clustering, then a join; and a cluster smaller than
//! `r` growing past it. A last one reads, joins and re-clusters after a
//! repair has put a body on a member the owner table does not name and
//! the named owners have died: that copy serves the cluster's reads and
//! survives the prunes.

use std::collections::BTreeSet;

use icistrategy::core::bootstrap::BootstrapReport;
use icistrategy::prelude::*;
use icistrategy::storage::assignment::AssignmentStrategy;

const ASSIGNMENTS: [Assignment; 3] = [
    Assignment::Rendezvous,
    Assignment::Ring,
    Assignment::RoundRobin,
];

struct Scenario {
    net: IciNetwork,
    workload: WorkloadGenerator,
}

impl Scenario {
    fn new(assignment: Assignment, nodes: usize, cluster_size: usize, r: usize) -> Scenario {
        let config = IciConfig::builder()
            .nodes(nodes)
            .cluster_size(cluster_size)
            .replication(r)
            .assignment(assignment)
            .seed(21)
            .build()
            .expect("valid configuration");
        Scenario {
            net: IciNetwork::new(config).expect("constructs"),
            workload: WorkloadGenerator::new(WorkloadConfig {
                accounts: 64,
                seed: 21,
                ..WorkloadConfig::default()
            }),
        }
    }

    fn commit(&mut self, blocks: usize) {
        for _ in 0..blocks {
            self.net
                .propose_block(self.workload.batch(5))
                .expect("block commits");
        }
    }

    /// Where a joiner lands in `cluster` under `NearestCentroid`.
    fn centroid(&self, cluster: ClusterId) -> Coord {
        self.net
            .membership()
            .centroid(cluster, self.net.net().topology())
            .expect("a cluster with members")
    }

    /// The owners of `height` in `cluster` once `joiner` has joined it,
    /// best first, without joining it.
    fn owners_with(&self, cluster: ClusterId, joiner: NodeId, height: u64) -> Vec<NodeId> {
        let mut members = self.net.membership().members(cluster).to_vec();
        members.push(joiner);
        let id = self.net.block(height).expect("committed").id();
        let config = self.net.config();
        config
            .assignment
            .owners(&id, height, &members, config.replication)
    }

    /// Joins a node at `coord`, checks the joined cluster at every
    /// height against the fresh ranking, then repairs. Under ring and
    /// round-robin a join moves owners the joiner does not replace, and
    /// only the ex-owners' prunes follow; the repair gives the next join
    /// a source for every height it takes.
    fn join(&mut self, coord: Coord, policy: JoinPolicy) -> BootstrapReport {
        let net = &mut self.net;
        let assignment = net.config().assignment;
        let cluster = net
            .membership()
            .choose_cluster(coord, net.net().topology(), policy);
        let held_before: Vec<BTreeSet<NodeId>> = (0..net.chain_len())
            .map(|h| holding(net, cluster, h))
            .collect();
        let report = net.bootstrap_node(coord, policy).expect("joins");
        assert_eq!(report.cluster, cluster.get(), "{assignment:?}");

        let (mut bodies, mut pruned) = (0, 0);
        for (height, before) in held_before.iter().enumerate() {
            let height = height as u64;
            let id = net.block(height).expect("committed").id();
            let owners: BTreeSet<NodeId> = net
                .owners_in_cluster(cluster, &id, height)
                .into_iter()
                .collect();
            let mut expected: BTreeSet<NodeId> = before.intersection(&owners).copied().collect();
            if owners.contains(&report.node) {
                expected.insert(report.node);
                bodies += 1;
            }
            pruned += before.difference(&owners).count();
            let held = holding(net, cluster, height);
            assert_eq!(
                held, expected,
                "{assignment:?}: cluster {cluster}, height {height}: held by {held:?}, owners {owners:?}"
            );
            if assignment == Assignment::Rendezvous {
                assert_eq!(
                    held, owners,
                    "{assignment:?}: cluster {cluster}, height {height}: held by {held:?}, owners {owners:?}"
                );
            }
        }
        assert_eq!(report.bodies, bodies, "{assignment:?}: cluster {cluster}");
        assert_eq!(
            report.pruned_bodies, pruned,
            "{assignment:?}: cluster {cluster}"
        );
        net.repair_all();
        report
    }
}

/// The members of `cluster` holding the body at `height`.
fn holding(net: &IciNetwork, cluster: ClusterId, height: u64) -> BTreeSet<NodeId> {
    net.membership()
        .members(cluster)
        .iter()
        .copied()
        .filter(|m| net.holdings(*m).expect("member").has_body(height))
        .collect()
}

#[test]
fn joins_match_a_fresh_ranking_under_every_assignment() {
    for assignment in ASSIGNMENTS {
        let mut s = Scenario::new(assignment, 48, 12, 2);
        s.commit(12);
        let cluster = ClusterId::new(1);
        let at = s.centroid(cluster);
        let policy = JoinPolicy::NearestCentroid;

        // Joins into one cluster, with blocks committed between them.
        for between in [0, 3, 0, 2] {
            s.commit(between);
            s.join(at, policy);
        }

        // A failed join: the live holders of a height the joiner would
        // own crash. That is the first height it would rank first at,
        // in the first cluster where there is one (under rendezvous one
        // must exist), so a failed join that kept its half-merged pairs
        // would hold the joiner twice there when it joins again.
        let joiner = NodeId::new(s.net.net().topology().len() as u64);
        let heights = 1..s.net.chain_len();
        let ranked_first = s.net.clusters().into_iter().find_map(|c| {
            let first = |h: &u64| s.owners_with(c, joiner, *h).first() == Some(&joiner);
            heights.clone().find(first).map(|h| (c, h))
        });
        assert!(ranked_first.is_some() || assignment != Assignment::Rendezvous);
        let (cluster, height) = ranked_first
            .or_else(|| {
                let owned = |h: &u64| s.owners_with(cluster, joiner, *h).contains(&joiner);
                heights.clone().find(owned).map(|h| (cluster, h))
            })
            .expect("the joiner owns some height");
        let at = s.centroid(cluster);
        let crashed: Vec<NodeId> = holding(&s.net, cluster, height).into_iter().collect();
        for member in &crashed {
            s.net.crash_node(*member).expect("known node");
        }
        let storage = s.net.storage_bytes();
        let audits = s.net.audit_all();
        let result = s.net.bootstrap_node(at, policy);
        assert!(
            matches!(result, Err(IciError::BodyUnavailable(h)) if h == height),
            "{assignment:?}: {result:?}, expected height {height} unavailable"
        );
        assert_eq!(s.net.storage_bytes(), storage, "{assignment:?}");
        assert_eq!(s.net.audit_all(), audits, "{assignment:?}");
        for member in &crashed {
            s.net.recover_node(*member).expect("known node");
        }
        s.commit(1);
        let report = s.join(at, policy);
        assert_eq!(report.node, joiner, "{assignment:?}");

        // A re-clustering, then a join.
        s.net.reconfigure_clusters();
        s.commit(2);
        s.join(Coord::new(50.0, 50.0), policy);
        s.join(Coord::new(50.0, 50.0), policy);
    }
}

#[test]
fn a_cluster_smaller_than_r_grows_past_it_under_every_assignment() {
    for assignment in ASSIGNMENTS {
        // Ten nodes in clusters of 4, 3 and 3, each body on 4 members.
        // Three joins take a 3-member cluster to 4, 5 and 6.
        let mut s = Scenario::new(assignment, 10, 4, 4);
        let cluster = (0..3)
            .map(ClusterId::new)
            .find(|c| s.net.membership().members(*c).len() == 3)
            .expect("a cluster smaller than r");
        let at = s.centroid(cluster);
        s.commit(5);
        for between in [0, 2, 1] {
            s.commit(between);
            let report = s.join(at, JoinPolicy::NearestCentroid);
            assert_eq!(report.cluster, cluster.get(), "{assignment:?}");
        }
        assert_eq!(s.net.membership().members(cluster).len(), 6);
    }
}

/// Both owners of a height in a cluster die, the first before a repair
/// writes the body to a member the table does not name. That copy is
/// the cluster's only live one: a read from the cluster is served by it,
/// intra-cluster, before and after a join, the join prunes no copy the
/// cluster needs, and a re-clustering keeps every copy no live owner in
/// its node's new cluster serves.
#[test]
fn a_repaired_copy_serves_reads_and_survives_a_join_after_its_owners_die() {
    for assignment in ASSIGNMENTS {
        let mut s = Scenario::new(assignment, 16, 8, 2);
        s.commit(4);
        let (cluster, height) = (ClusterId::new(0), 2);
        let owners: Vec<NodeId> = s.net.owners_at(cluster, height).collect();
        assert_eq!(owners.len(), 2, "{assignment:?}");

        // One owner dies and the repair writes the body to a member the
        // table does not name; then the other owner dies.
        s.net.crash_node(owners[0]).expect("known node");
        s.net.repair_cluster(cluster);
        s.net.crash_node(owners[1]).expect("known node");
        let live = |net: &IciNetwork, node: NodeId| net.net().is_up(node);
        let holders: BTreeSet<NodeId> = holding(&s.net, cluster, height)
            .into_iter()
            .filter(|m| live(&s.net, *m))
            .collect();
        assert!(
            !holders.is_empty(),
            "{assignment:?}: the repair wrote no copy"
        );
        assert!(
            holders.iter().all(|m| !owners.contains(m)),
            "{assignment:?}"
        );
        assert!(s.net.audit(cluster).missing.is_empty(), "{assignment:?}");

        let requester = s
            .net
            .membership()
            .members(cluster)
            .iter()
            .copied()
            .find(|m| live(&s.net, *m) && !holders.contains(m))
            .expect("a live member without the body");
        let read = |net: &mut IciNetwork| {
            let report = net.query_body(requester, height).expect("served");
            assert_eq!(report.tier, QueryTier::IntraCluster, "{assignment:?}");
            assert!(holding(net, cluster, height).contains(&report.server));
        };
        read(&mut s.net);

        let at = s.centroid(cluster);
        let report = s
            .net
            .bootstrap_node(at, JoinPolicy::NearestCentroid)
            .expect("joins");
        assert_eq!(report.cluster, cluster.get(), "{assignment:?}");
        assert_eq!(
            s.net.audit(cluster).missing,
            Vec::<u64>::new(),
            "{assignment:?}: the join pruned the cluster's last live copy"
        );
        read(&mut s.net);

        // A re-clustering prunes by the same rule: a live node's copy
        // goes only where a live owner in its new cluster serves it.
        let serves = |net: &IciNetwork, node: NodeId, height: u64| {
            live(net, node) && net.holdings(node).expect("node").has_body(height)
        };
        let nodes: Vec<NodeId> = (0..s.net.net().topology().len() as u64)
            .map(NodeId::new)
            .collect();
        let served_before: Vec<(NodeId, u64)> = nodes
            .iter()
            .flat_map(|&node| (0..s.net.chain_len()).map(move |height| (node, height)))
            .filter(|&(node, height)| serves(&s.net, node, height))
            .collect();
        let served_heights: BTreeSet<u64> = served_before.iter().map(|&(_, h)| h).collect();
        s.net.reconfigure_clusters();
        // And every cluster still has a live copy of every height some
        // live node served before it.
        for cluster in s.net.clusters() {
            let missing = s.net.audit(cluster).missing;
            assert!(
                missing.iter().all(|h| !served_heights.contains(h)),
                "{assignment:?}: after re-clustering cluster {cluster} misses {missing:?}"
            );
        }
        for (node, height) in served_before {
            let cluster = s.net.membership().cluster_of(node);
            let owner_serves = s
                .net
                .owners_at(cluster, height)
                .any(|owner| serves(&s.net, owner, height));
            assert!(
                owner_serves || serves(&s.net, node, height),
                "{assignment:?}: re-clustering pruned {node}'s copy of height {height}, \
                 which no live owner in cluster {cluster} serves"
            );
        }
    }
}
