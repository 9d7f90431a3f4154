//! PBFT-style intra-cluster commit, message-metered.
//!
//! ICIStrategy commits blocks inside a cluster with a three-phase BFT
//! exchange (pre-prepare → prepare → commit) over the simulated network.
//! Every transmission is charged to the network's meter, so the run
//! leaves the communication experiments an exact byte/message trace;
//! latencies come out of the link model and the per-member validation
//! cost.
//!
//! The model is faithful for the honest-crash setting the paper evaluates:
//! crashed members neither validate nor vote, quorums are computed over the
//! configured membership, and a member commits at the arrival of its
//! `2f+1`-th commit vote.
//!
//! # Two ways to run a vote round
//!
//! A vote round is an all-to-all exchange, `c·(c−1)` messages. On a
//! network whose sends are deterministic without drawing anything —
//! [`Network::sends_are_stream_independent`] (no jitter, no installed
//! faults) and not [`Network::sends_are_traced`] — every outcome is
//! known up front: a vote from a live voter to a live member arrives
//! after the pair's fixed link delay, and nothing else arrives. Such a
//! round runs in closed form ([`closed_round`]): one symmetric delay
//! table per call, arrival = send time + delay, the quorum instant by
//! selection, and the meter charged per member instead of per message.
//! Any other network keeps the per-message exchange
//! ([`message_round`]), where each vote consumes its sequence number,
//! fault draw and trace id through [`Network::broadcast`]. The choice
//! reads only those two properties of the network, and nothing can
//! tell the paths apart afterwards: the closed form needs no
//! randomness because a quiet network consumes none, and the sequence
//! numbers the per-message forks would have burnt die with the forks.

use std::collections::BTreeMap;

use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};

use crate::quorum::quorum;

/// Size of a prepare/commit vote on the wire: block digest (32) + height
/// (8) + voter id (8) + signature (64) ≈ 112 bytes.
pub const VOTE_BYTES: u64 = 112;

/// Outcome of one intra-cluster commit round.
#[derive(Clone, Debug, Default)]
pub struct CommitReport {
    /// When each live member committed the block. Members missing from the
    /// map never reached a commit quorum.
    pub commit_times: BTreeMap<NodeId, SimTime>,
    /// Quorum size used.
    pub quorum: usize,
}

impl CommitReport {
    /// Whether at least a quorum of members committed.
    pub fn is_committed(&self) -> bool {
        self.quorum > 0 && self.commit_times.len() >= self.quorum
    }

    /// Time at which the `quorum`-th member committed — the cluster-level
    /// commit instant.
    pub fn quorum_commit(&self) -> Option<SimTime> {
        let mut times: Vec<SimTime> = self.commit_times.values().copied().collect();
        quorum_arrival(&mut times, self.quorum)
    }
}

/// Per-member inputs to a commit round.
///
/// ICIStrategy and the baselines differ only in what the leader ships to
/// each member (full block vs body vs header) and how long validation takes
/// (solo vs collaborative share); both are injected as closures.
pub struct PbftInputs<'a, P, V>
where
    P: Fn(NodeId) -> (MessageKind, u64),
    V: Fn(NodeId) -> Duration,
{
    /// Cluster membership, distinct ids (quorums are computed over its
    /// length).
    pub members: &'a [NodeId],
    /// The proposing member.
    pub leader: NodeId,
    /// Proposal time.
    pub start: SimTime,
    /// What the leader sends each member: message class and byte count.
    pub payload: P,
    /// How long each member takes to validate before voting prepare.
    pub validation: V,
}

/// Runs one pre-prepare → prepare → commit exchange.
///
/// Returns per-member commit times; traffic lands in `net`'s meter. If the
/// leader is crashed, nobody commits.
pub fn run_pbft_commit<P, V>(net: &mut Network, inputs: PbftInputs<'_, P, V>) -> CommitReport
where
    P: Fn(NodeId) -> (MessageKind, u64),
    V: Fn(NodeId) -> Duration,
{
    let _span = ici_telemetry::span!("consensus/pbft_round");
    let members = inputs.members;
    let c = members.len();
    let q = quorum(c);
    let mut report = CommitReport {
        commit_times: BTreeMap::new(),
        quorum: q,
    };
    if c == 0 || !net.is_up(inputs.leader) {
        ici_telemetry::counter_add("consensus/pbft_aborted", ici_telemetry::Label::Global, 1);
        return report;
    }

    // Phase 1 — pre-prepare: leader ships the payload. From here on a
    // member is its index in `members`.
    let mut ready: Vec<Option<SimTime>> = Vec::with_capacity(c);
    let mut payload_bytes = 0u64;
    for &m in members {
        let arrival = if m == inputs.leader {
            Some(inputs.start)
        } else {
            let (kind, bytes) = (inputs.payload)(m);
            payload_bytes += bytes;
            net.send(inputs.leader, m, kind, bytes)
                .delay()
                .map(|d| inputs.start + d)
        };
        ready.push(arrival.map(|at| at + (inputs.validation)(m)));
    }
    if ici_trace::enabled() {
        // Dissemination + validation stage: proposal to the last member
        // becoming vote-ready, keyed by the network's causal context.
        let ctx = net.trace_ctx();
        let done = ready
            .iter()
            .flatten()
            .max()
            .copied()
            .unwrap_or(inputs.start);
        ici_trace::stage(
            "consensus/preprepare",
            inputs.start.as_micros(),
            done.saturating_since(inputs.start).as_micros(),
            ctx.height,
            ctx.cluster,
            Some(inputs.leader.get()),
            payload_bytes,
            ici_trace::derive_id(ctx.parent, 1),
            ctx.parent,
        );
    }

    // Phase 2 — prepare: each ready member broadcasts a vote; a member is
    // *prepared* at its q-th prepare arrival (own vote counts at send time).
    // Phase 3 — commit: same pattern over commit votes.
    let committed = vote_rounds(net, members, ready, q, 2);

    report.commit_times = by_member(members, committed);
    ici_telemetry::counter_add(
        if report.is_committed() {
            "consensus/pbft_committed"
        } else {
            "consensus/pbft_failed"
        },
        ici_telemetry::Label::Global,
        1,
    );
    if let Some(at) = report.quorum_commit() {
        // Simulated commit latency, in sim-clock microseconds.
        ici_telemetry::observe(
            "consensus/pbft_commit_sim_us",
            ici_telemetry::Label::Global,
            at.saturating_since(inputs.start).as_micros(),
        );
        if ici_trace::enabled() {
            let ctx = net.trace_ctx();
            ici_trace::stage(
                "consensus/commit",
                inputs.start.as_micros(),
                at.saturating_since(inputs.start).as_micros(),
                ctx.height,
                ctx.cluster,
                Some(inputs.leader.get()),
                0,
                ici_trace::derive_id(ctx.parent, 2),
                ctx.parent,
            );
        }
    }
    report
}

/// Runs `rounds` successive all-to-all vote exchanges among the distinct
/// ids of `members`, starting from `ready` (per-member readiness times),
/// with quorum `q >= 1` per round. Returns the final per-member quorum
/// times. Used directly by consensus variants that handle dissemination
/// themselves (e.g. IDA-gossip).
pub fn run_vote_rounds(
    net: &mut Network,
    members: &[NodeId],
    ready: &BTreeMap<NodeId, SimTime>,
    q: usize,
    rounds: usize,
) -> BTreeMap<NodeId, SimTime> {
    let times = members.iter().map(|m| ready.get(m).copied()).collect();
    by_member(members, vote_rounds(net, members, times, q, rounds))
}

/// Per-member instants, indexed like `members`: `None` where a member
/// has nothing to send (or reached no quorum).
type Times = Vec<Option<SimTime>>;

/// `times` keyed by member id, members without an instant left out.
fn by_member(members: &[NodeId], times: Times) -> BTreeMap<NodeId, SimTime> {
    members
        .iter()
        .zip(times)
        .filter_map(|(&m, at)| Some((m, at?)))
        .collect()
}

/// `rounds` vote rounds over member-index arrays, on the path the
/// network's observable properties select (see the module docs).
fn vote_rounds(
    net: &mut Network,
    members: &[NodeId],
    mut times: Times,
    q: usize,
    rounds: usize,
) -> Times {
    let up: Vec<bool> = members.iter().map(|&m| net.is_up(m)).collect();
    if net.sends_are_stream_independent() && !net.sends_are_traced() {
        let delays = vote_delays(net, members);
        for _ in 0..rounds {
            times = closed_round(net, members, &up, &delays, &times, q);
        }
    } else {
        for _ in 0..rounds {
            times = message_round(net, members, &up, &times, q);
        }
    }
    times
}

/// Link delay of one vote between every pair of `members`, row-major
/// `c × c`. Distance is symmetric and a quiet link adds no jitter, so
/// each pair is computed once and mirrored.
fn vote_delays(net: &Network, members: &[NodeId]) -> Vec<Duration> {
    let c = members.len();
    let mut delays = vec![Duration::ZERO; c * c];
    for (i, &a) in members.iter().enumerate() {
        for (j, &b) in members.iter().enumerate().skip(i + 1) {
            let delay = net.link().transit(net.topology(), a, b, VOTE_BYTES, 0);
            delays[i * c + j] = delay;
            delays[j * c + i] = delay;
        }
    }
    delays
}

/// The `q`-th smallest of `arrivals`, if there are that many.
fn quorum_arrival(arrivals: &mut [SimTime], q: usize) -> Option<SimTime> {
    let nth = q.checked_sub(1)?;
    (nth < arrivals.len()).then(|| *arrivals.select_nth_unstable(nth).1)
}

/// One vote round on a quiet, untraced network, without sending: every
/// live member with a send time broadcasts a vote then, each vote to a
/// live member arrives after the pair's link delay, and a live member's
/// result is its `q`-th arrival (its own vote counts at send time).
///
/// Leaves `net` exactly as [`message_round`] would: each live voter is
/// charged `c − 1` votes (crashed addressees included — the bytes left
/// the uplink), each member the votes addressed to it, and the sequence
/// stream advances once.
fn closed_round(
    net: &mut Network,
    members: &[NodeId],
    up: &[bool],
    delays: &[Duration],
    send_times: &[Option<SimTime>],
    q: usize,
) -> Times {
    let _span = ici_telemetry::span!("consensus/vote_round");
    let c = members.len();
    let voters: Vec<(usize, SimTime)> = send_times
        .iter()
        .enumerate()
        .filter_map(|(i, at)| Some((i, (*at)?)))
        .filter(|&(i, _)| up[i])
        .collect();
    net.advance_stream();

    let meter = net.meter_mut();
    let peers = (c as u64).saturating_sub(1);
    for (j, &member) in members.iter().enumerate() {
        let votes_in = voters.len() as u64 - u64::from(up[j] && send_times[j].is_some());
        if votes_in > 0 {
            meter.charge_receiver(member, votes_in, votes_in * VOTE_BYTES);
        }
    }
    if peers > 0 {
        for &(i, _) in &voters {
            meter.charge_sender(members[i], MessageKind::Vote, peers, peers * VOTE_BYTES);
        }
    }

    let mut arrivals: Vec<SimTime> = Vec::with_capacity(c);
    (0..c)
        .map(|j| {
            if !up[j] {
                return None;
            }
            arrivals.clear();
            arrivals.extend(send_times[j]);
            arrivals.extend(
                voters
                    .iter()
                    .filter(|&&(i, _)| i != j)
                    .map(|&(i, at)| at + delays[i * c + j]),
            );
            quorum_arrival(&mut arrivals, q)
        })
        .collect()
}

/// Voters per network fork when [`message_round`] runs on a network
/// whose sends draw no randomness (it is there because sends are
/// traced): a fixed batch size, so the chunking — and with it every
/// trace id, which is a function of the fork's sequence position — does
/// not depend on anything but the membership.
const VOTERS_PER_FORK: usize = 16;

/// One vote round, message by message: each member with a send time
/// broadcasts a vote at that time; returns, for every live member that
/// collects `q` votes (its own included, at send time), the arrival time
/// of the `q`-th.
///
/// Voters broadcast through network forks, absorbed in voter order. On
/// a jittery or faulty network each voter has its own fork (stream =
/// voter id), so the jitter and fault draws a vote makes are a function
/// of the voter alone; where sends draw nothing, voters share a fork
/// per [`VOTERS_PER_FORK`] (stream = chunk index).
fn message_round(
    net: &mut Network,
    members: &[NodeId],
    up: &[bool],
    send_times: &[Option<SimTime>],
    q: usize,
) -> Times {
    let _span = ici_telemetry::span!("consensus/vote_round");
    let c = members.len();
    // Row `j` collects the arrivals at member `j`: at most one per voter.
    let mut arrivals = vec![SimTime::ZERO; c * c];
    let mut arrived = vec![0usize; c];
    let voters: Vec<(usize, SimTime)> = send_times
        .iter()
        .enumerate()
        .filter_map(|(i, at)| Some((i, (*at)?)))
        .collect();
    let shared_forks = net.sends_are_stream_independent();
    let per_fork = if shared_forks { VOTERS_PER_FORK } else { 1 };
    for (chunk_index, chunk) in voters.chunks(per_fork).enumerate() {
        let stream = if shared_forks {
            chunk_index as u64
        } else {
            members[chunk[0].0].index() as u64
        };
        let mut fork = net.fork(stream);
        for &(i, at) in chunk {
            arrivals[i * c + arrived[i]] = at;
            arrived[i] += 1;
            // Everyone but the voter itself, in member order.
            for (first, receivers) in [(0, &members[..i]), (i + 1, &members[i + 1..])] {
                let mut j = first;
                fork.broadcast(
                    members[i],
                    receivers,
                    MessageKind::Vote,
                    VOTE_BYTES,
                    |_, sent| {
                        if let Some(delay) = sent.delay() {
                            arrivals[j * c + arrived[j]] = at + delay;
                            arrived[j] += 1;
                        }
                        j += 1;
                    },
                );
            }
        }
        net.absorb(fork);
    }
    net.advance_stream();

    (0..c)
        .map(|j| {
            if !up[j] {
                return None;
            }
            quorum_arrival(&mut arrivals[j * c..j * c + arrived[j]], q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_net::link::LinkModel;
    use ici_net::topology::{Placement, Topology};

    fn network(n: usize) -> Network {
        let topo = Topology::generate(n, &Placement::Uniform { side: 20.0 }, 3);
        Network::new(
            topo,
            LinkModel {
                max_jitter_ms: 0.0,
                ..LinkModel::default()
            },
        )
    }

    fn members(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    fn run(net: &mut Network, m: &[NodeId], leader: NodeId) -> CommitReport {
        run_pbft_commit(
            net,
            PbftInputs {
                members: m,
                leader,
                start: SimTime::ZERO,
                payload: |_| (MessageKind::BlockFull, 100_000),
                validation: |_| Duration::from_millis(2),
            },
        )
    }

    #[test]
    fn all_honest_members_commit() {
        let mut net = network(7);
        let m = members(7);
        let report = run(&mut net, &m, NodeId::new(0));
        assert!(report.is_committed());
        assert_eq!(report.commit_times.len(), 7);
        assert_eq!(report.quorum, 5);
        assert!(report.commit_times.values().all(|t| *t > SimTime::ZERO));
    }

    #[test]
    fn traffic_is_metered_per_phase() {
        let mut net = network(4);
        let m = members(4);
        let _ = run(&mut net, &m, NodeId::new(0));
        // Pre-prepare: 3 block sends. Prepare + commit: 4·3 votes each.
        let meter = net.meter();
        assert_eq!(meter.kind(MessageKind::BlockFull).messages, 3);
        assert_eq!(meter.kind(MessageKind::Vote).messages, 24);
        assert_eq!(meter.kind(MessageKind::Vote).bytes, 24 * VOTE_BYTES);
    }

    #[test]
    fn crashed_leader_commits_nothing() {
        let mut net = network(4);
        net.crash(NodeId::new(0));
        let report = run(&mut net, &members(4), NodeId::new(0));
        assert!(!report.is_committed());
        assert!(report.commit_times.is_empty());
        assert_eq!(net.meter().total().messages, 0);
    }

    #[test]
    fn commit_survives_f_crashes() {
        // c=7 tolerates f=2 crashed members.
        let mut net = network(7);
        net.crash(NodeId::new(5));
        net.crash(NodeId::new(6));
        let report = run(&mut net, &members(7), NodeId::new(0));
        assert!(report.is_committed());
        assert_eq!(report.commit_times.len(), 5);
        assert!(!report.commit_times.contains_key(&NodeId::new(5)));
    }

    #[test]
    fn too_many_crashes_block_commit() {
        // c=7, f=2: crashing 3 members leaves only 4 < 2f+1 = 5 voters.
        let mut net = network(7);
        for i in 4..7 {
            net.crash(NodeId::new(i));
        }
        let report = run(&mut net, &members(7), NodeId::new(0));
        assert!(!report.is_committed());
    }

    #[test]
    fn validation_time_delays_commit() {
        let m = members(4);
        let fast = {
            let mut net = network(4);
            run_pbft_commit(
                &mut net,
                PbftInputs {
                    members: &m,
                    leader: NodeId::new(0),
                    start: SimTime::ZERO,
                    payload: |_| (MessageKind::BlockFull, 1_000),
                    validation: |_| Duration::ZERO,
                },
            )
        };
        let slow = {
            let mut net = network(4);
            run_pbft_commit(
                &mut net,
                PbftInputs {
                    members: &m,
                    leader: NodeId::new(0),
                    start: SimTime::ZERO,
                    payload: |_| (MessageKind::BlockFull, 1_000),
                    validation: |_| Duration::from_millis(50),
                },
            )
        };
        let f = fast.quorum_commit().expect("fast commits");
        let s = slow.quorum_commit().expect("slow commits");
        assert!(s.saturating_since(f) >= Duration::from_millis(50));
    }

    #[test]
    fn start_time_offsets_everything() {
        let m = members(4);
        let base = {
            let mut net = network(4);
            run(&mut net, &m, NodeId::new(0))
        };
        let offset = {
            let mut net = network(4);
            run_pbft_commit(
                &mut net,
                PbftInputs {
                    members: &m,
                    leader: NodeId::new(0),
                    start: SimTime::from_millis(1_000),
                    payload: |_| (MessageKind::BlockFull, 100_000),
                    validation: |_| Duration::from_millis(2),
                },
            )
        };
        let b = base.quorum_commit().expect("commits");
        let o = offset.quorum_commit().expect("commits");
        assert_eq!(
            o.saturating_since(b),
            Duration::from_millis(1_000),
            "jitter-free run should shift exactly"
        );
    }

    #[test]
    fn commit_emits_causally_linked_stage_events() {
        ici_trace::reset();
        ici_trace::set_enabled(true);
        let mut net = network(4);
        net.set_trace_ctx(ici_trace::SendCtx {
            sends: false,
            at_us: 0,
            height: 9,
            cluster: Some(1),
            parent: 4242,
        });
        let report = run(&mut net, &members(4), NodeId::new(0));
        ici_trace::set_enabled(false);
        let snap = ici_trace::snapshot();
        ici_trace::reset();
        assert!(report.is_committed());
        let pre = snap
            .events
            .iter()
            .find(|e| e.name == "consensus/preprepare")
            .expect("preprepare stage");
        let commit = snap
            .events
            .iter()
            .find(|e| e.name == "consensus/commit")
            .expect("commit stage");
        assert_eq!((pre.height, pre.cluster, pre.parent), (9, Some(1), 4242));
        assert_eq!(commit.parent, 4242);
        assert_eq!(pre.id, ici_trace::derive_id(4242, 1));
        assert_eq!(commit.id, ici_trace::derive_id(4242, 2));
        assert!(pre.bytes > 0, "pre-prepare carries the payload bytes");
        assert_eq!(
            commit.dur_us,
            report.quorum_commit().expect("commits").as_micros()
        );
        // Context did not opt sends in: stage summaries only.
        assert!(snap
            .events
            .iter()
            .all(|e| e.kind != ici_trace::TraceKind::Send));
    }

    /// A vote exchange to run both ways: membership, liveness, who has
    /// something to send and when, quorum, rounds.
    #[derive(Clone, Debug)]
    struct Exchange {
        /// Member ids; repeats are dropped, order kept.
        members: Vec<u64>,
        crashed: Vec<u64>,
        /// Member positions with no send time.
        silent: Vec<usize>,
        /// Send time per member position, µs (0 past the end).
        times: Vec<u64>,
        q: usize,
        rounds: usize,
    }

    impl ici_prop::Shrink for Exchange {
        fn shrink_candidates(&self) -> Vec<Exchange> {
            let mut out = Vec::new();
            for members in self.members.shrink_candidates() {
                out.push(Exchange {
                    members,
                    ..self.clone()
                });
            }
            for crashed in self.crashed.shrink_candidates() {
                out.push(Exchange {
                    crashed,
                    ..self.clone()
                });
            }
            for silent in self.silent.shrink_candidates() {
                out.push(Exchange {
                    silent,
                    ..self.clone()
                });
            }
            for times in self.times.shrink_candidates() {
                out.push(Exchange {
                    times,
                    ..self.clone()
                });
            }
            for (q, rounds) in (self.q, self.rounds).shrink_candidates() {
                out.push(Exchange {
                    q,
                    rounds,
                    ..self.clone()
                });
            }
            out
        }
    }

    /// Ids the generated networks span.
    const UNIVERSE: u64 = 64;

    /// Closed-form rounds against per-message rounds on the same quiet
    /// network: equal results, equal meter down to every node, and the
    /// parent's sequence stream left at the same position.
    #[test]
    fn closed_form_rounds_match_the_message_exchange() {
        let result = ici_prop::check(
            "closed-form vote rounds match the per-message exchange",
            &ici_prop::Config {
                seed: 0x00C1_05ED,
                cases: 300,
                ..ici_prop::Config::default()
            },
            |rng| {
                let c = rng.gen_range(1usize..41);
                let mut ids: Vec<u64> = (0..UNIVERSE).collect();
                rng.shuffle(&mut ids);
                ids.truncate(c);
                let crashes = rng.gen_range(0usize..c.min(12) + 1);
                Exchange {
                    // Any id: members (senders, receivers, a would-be
                    // leader) and bystanders alike.
                    crashed: (0..crashes)
                        .map(|_| rng.gen_range(0u64..UNIVERSE))
                        .collect(),
                    silent: (0..rng.gen_range(0usize..4))
                        .map(|_| rng.gen_range(0usize..c))
                        .collect(),
                    times: (0..c).map(|_| rng.gen_range(0u64..400_000)).collect(),
                    q: rng.gen_range(1usize..c + 1),
                    rounds: rng.gen_range(1usize..4),
                    members: ids,
                }
            },
            |case: &Exchange| {
                let mut members: Vec<NodeId> = Vec::new();
                for &id in &case.members {
                    let id = NodeId::new(id % UNIVERSE);
                    if !members.contains(&id) {
                        members.push(id);
                    }
                }
                let c = members.len();
                let mut quiet = network(UNIVERSE as usize);
                for &id in &case.crashed {
                    quiet.crash(NodeId::new(id % UNIVERSE));
                }
                assert!(quiet.sends_are_stream_independent());
                let start: Times = (0..c)
                    .map(|i| {
                        (!case.silent.contains(&i))
                            .then(|| SimTime::from_micros(case.times.get(i).copied().unwrap_or(0)))
                    })
                    .collect();
                let q = case.q.clamp(1, c.max(1));
                let up: Vec<bool> = members.iter().map(|&m| quiet.is_up(m)).collect();

                let mut by_message = quiet.clone();
                let mut expected = start.clone();
                for _ in 0..case.rounds {
                    expected = message_round(&mut by_message, &members, &up, &expected, q);
                }
                let mut closed = quiet.clone();
                let delays = vote_delays(&closed, &members);
                let mut got = start.clone();
                for _ in 0..case.rounds {
                    got = closed_round(&mut closed, &members, &up, &delays, &got, q);
                }

                if got != expected {
                    return Err(format!("times {got:?} vs {expected:?}"));
                }
                let (a, b) = (closed.meter(), by_message.meter());
                if a.total() != b.total() || a.by_kind() != b.by_kind() {
                    return Err(format!("meter {:?} vs {:?}", a.by_kind(), b.by_kind()));
                }
                for node in (0..UNIVERSE).map(NodeId::new) {
                    if a.sent_by(node) != b.sent_by(node)
                        || a.received_by(node) != b.received_by(node)
                    {
                        return Err(format!(
                            "{node}: sent {:?} vs {:?}, received {:?} vs {:?}",
                            a.sent_by(node),
                            b.sent_by(node),
                            a.received_by(node),
                            b.received_by(node)
                        ));
                    }
                }
                if closed.next_send_trace_id() != by_message.next_send_trace_id() {
                    return Err("sequence streams ended apart".to_string());
                }
                Ok(())
            },
        );
        if let Err(failure) = result {
            panic!("{failure}");
        }
    }

    #[test]
    fn vote_rounds_map_in_and_out_by_member_id() {
        // Ids out of order, one voter missing from `ready`, one entry of
        // `ready` that is no member: the map interface lines them up.
        let m = [
            NodeId::new(5),
            NodeId::new(1),
            NodeId::new(3),
            NodeId::new(0),
        ];
        let ready: BTreeMap<NodeId, SimTime> = [(5, 10), (3, 30), (0, 20), (7, 1)]
            .into_iter()
            .map(|(id, ms)| (NodeId::new(id), SimTime::from_millis(ms)))
            .collect();
        let mut net = network(8);
        let out = run_vote_rounds(&mut net, &m, &ready, 3, 1);
        // Three voters reach everyone: all four members hold a quorum of 3.
        assert_eq!(out.keys().copied().collect::<Vec<_>>(), {
            let mut sorted = m.to_vec();
            sorted.sort();
            sorted
        });
        assert!(
            out[&NodeId::new(1)] > SimTime::from_millis(30),
            "needs all three"
        );
        assert_eq!(net.meter().kind(MessageKind::Vote).messages, 9);
        assert_eq!(net.meter().sent_by(NodeId::new(1)).messages, 0);
        assert_eq!(net.meter().received_by(NodeId::new(1)).messages, 3);
        assert_eq!(net.meter().received_by(NodeId::new(5)).messages, 2);
    }

    #[test]
    fn jittery_and_faulty_networks_vote_message_by_message() {
        // A per-message exchange is recognisable by its jitter: on the
        // default link two identical rounds cannot produce the quiet
        // link's exact pairwise delays.
        let m = members(7);
        let ready: Times = vec![Some(SimTime::ZERO); 7];
        let topo = Topology::generate(7, &Placement::Uniform { side: 20.0 }, 3);
        let mut jittery = Network::new(topo, LinkModel::default());
        assert!(!jittery.sends_are_stream_independent());
        let mut quiet = network(7);
        let on_jitter = vote_rounds(&mut jittery, &m, ready.clone(), 5, 1);
        let on_quiet = vote_rounds(&mut quiet, &m, ready, 5, 1);
        assert_ne!(on_jitter, on_quiet);
        assert_eq!(
            jittery.meter().total(),
            quiet.meter().total(),
            "same traffic either way"
        );
    }

    #[test]
    fn single_member_cluster_commits_instantly_after_validation() {
        let mut net = network(1);
        let m = members(1);
        let report = run(&mut net, &m, NodeId::new(0));
        assert!(report.is_committed());
        assert_eq!(
            report.commit_times[&NodeId::new(0)],
            SimTime::ZERO + Duration::from_millis(2)
        );
    }
}
