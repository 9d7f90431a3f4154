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
//! round runs in closed form (`Rounds::closed_round`): one symmetric
//! delay table per call, arrival = send time + delay, the quorum instant
//! by selection, and the meter charged per member instead of per
//! message. Any other network keeps the per-message exchange
//! (`Rounds::message_round`), where each vote consumes its sequence
//! number, fault draw and trace id through [`Network::broadcast`] on the
//! voter's own [`Network::stream`]. The choice reads only those two
//! properties of the network, and nothing can tell the paths apart
//! afterwards: the closed form needs no randomness because a quiet
//! network consumes none, and the sequence numbers the per-voter
//! streams burn are dropped with the streams.
//!
//! Both paths keep one call's state in one allocation of member-indexed
//! microseconds (`Rounds`) and take every quorum instant through one
//! selection kernel (`quorum_select`). A caller that runs the same
//! cluster's rounds height after height hands in that cluster's
//! [`VoteScratch`] ([`run_pbft_commit_in`]): the allocation is reused, and
//! so is the closed form's delay table while the members, their
//! coordinates and the link are the ones it was filled for.

use std::collections::BTreeMap;

use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::Topology;

use crate::quorum::quorum;

/// Size of a prepare/commit vote on the wire: block digest (32) + height
/// (8) + voter id (8) + signature (64) ≈ 112 bytes.
pub const VOTE_BYTES: u64 = 112;

/// Outcome of one intra-cluster commit round.
#[derive(Clone, Debug, Default)]
pub struct CommitReport {
    /// When each live member committed the block, in membership order.
    /// Members missing from the list never reached a commit quorum.
    pub commit_times: Vec<(NodeId, SimTime)>,
    /// Quorum size used.
    pub quorum: usize,
    /// The `quorum`-th commit instant, selected once when the round ends.
    commit: Option<SimTime>,
}

impl CommitReport {
    /// Whether at least a quorum of members committed.
    pub fn is_committed(&self) -> bool {
        self.commit.is_some()
    }

    /// Time at which the `quorum`-th member committed — the cluster-level
    /// commit instant.
    pub fn quorum_commit(&self) -> Option<SimTime> {
        self.commit
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
/// leader is crashed, nobody commits. This is [`run_pbft_commit_in`] on a
/// fresh scratch.
pub fn run_pbft_commit<P, V>(net: &mut Network, inputs: PbftInputs<'_, P, V>) -> CommitReport
where
    P: Fn(NodeId) -> (MessageKind, u64),
    V: Fn(NodeId) -> Duration,
{
    run_pbft_commit_in(net, inputs, &mut VoteScratch::default())
}

/// Vote-round working memory a caller keeps from one call to the next,
/// one per cluster: the member-indexed buffer of `Rounds`, and what its
/// `c × c` table was last filled with.
///
/// The closed form's pair-delay table depends on the member list, the
/// members' coordinates and the link's `base_ms` and `bandwidth_mbps`,
/// nothing else, so a call whose four match the ones recorded here skips
/// `Rounds::fill_delays`. The record validates itself: no epoch has to
/// be kept in step with membership, and a scratch moved to another
/// network or cluster simply refills. Whatever writes the table keeps
/// the record true — `fill_delays` sets it, a per-message round (which
/// overwrites the table with arrivals) and a resize clear it.
#[derive(Clone, Debug, Default)]
pub struct VoteScratch {
    /// The `c·(c + 3)` words of a [`Rounds`], then the `3c` of the
    /// table's key ([`delay_key`]): one allocation, kept or not.
    buf: Vec<u64>,
    /// Whether the table holds the pair delays of the key's members at
    /// the key's coordinates, on a link whose [`link_key`] is `link`.
    delays: bool,
    link: [u64; 2],
}

/// What a pair-delay table for `members` over `topology` is computed
/// from, as `3c` words: the member ids, then each member's coordinates
/// as bits (positions compare exactly, never within a tolerance).
fn delay_key<'a>(members: &'a [NodeId], topology: &'a Topology) -> impl Iterator<Item = u64> + 'a {
    let coords = members.iter().flat_map(|&m| {
        let at = topology.coord(m);
        [at.x.to_bits(), at.y.to_bits()]
    });
    members.iter().map(|m| m.get()).chain(coords)
}

/// The link terms of a pair delay, as bits.
fn link_key(link: &LinkModel) -> [u64; 2] {
    [link.base_ms.to_bits(), link.bandwidth_mbps.to_bits()]
}

/// [`run_pbft_commit`] in `scratch`, which the caller keeps for the
/// cluster's next round. The report and the meter are the same as on a
/// fresh scratch, whatever the scratch last held.
pub fn run_pbft_commit_in<P, V>(
    net: &mut Network,
    inputs: PbftInputs<'_, P, V>,
    scratch: &mut VoteScratch,
) -> CommitReport
where
    P: Fn(NodeId) -> (MessageKind, u64),
    V: Fn(NodeId) -> Duration,
{
    let _span = ici_telemetry::span!("consensus/pbft_round");
    let members = inputs.members;
    let c = members.len();
    let q = quorum(c);
    if c == 0 || !net.is_up(inputs.leader) {
        ici_telemetry::counter_add("consensus/pbft_aborted", ici_telemetry::Label::Global, 1);
        return CommitReport {
            quorum: q,
            ..CommitReport::default()
        };
    }

    // Phase 1 — pre-prepare: leader ships the payload; a member is
    // vote-ready once it holds it and has validated.
    let mut rounds = Rounds::new(members, scratch);
    let mut payload_bytes = 0u64;
    for (ready, &m) in rounds.times_mut().iter_mut().zip(members) {
        let arrival = if m == inputs.leader {
            Some(inputs.start)
        } else {
            let (kind, bytes) = (inputs.payload)(m);
            payload_bytes += bytes;
            net.send(inputs.leader, m, kind, bytes)
                .delay()
                .map(|d| inputs.start + d)
        };
        *ready = arrival.map_or(NONE, |at| (at + (inputs.validation)(m)).as_micros());
    }
    if ici_trace::enabled() {
        // Dissemination + validation stage: proposal to the last member
        // becoming vote-ready, keyed by the network's causal context.
        let ctx = net.trace_ctx();
        let done = rounds.instants().map(|(_, at)| at).max();
        ici_trace::stage(
            "consensus/preprepare",
            inputs.start.as_micros(),
            done.unwrap_or(inputs.start)
                .saturating_since(inputs.start)
                .as_micros(),
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
    rounds.run(net, q, 2);

    let mut commit_times = Vec::with_capacity(c);
    commit_times.extend(rounds.instants());
    let report = CommitReport {
        commit_times,
        quorum: q,
        commit: rounds.quorum_instant(q),
    };
    ici_telemetry::counter_add(
        if report.is_committed() {
            "consensus/pbft_committed"
        } else {
            "consensus/pbft_failed"
        },
        ici_telemetry::Label::Global,
        1,
    );
    if let Some(at) = report.commit {
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
/// with quorum `q >= 1` per round, in `scratch` (kept by the caller, as
/// for [`run_pbft_commit_in`]; the result does not depend on what it
/// last held). Returns the final per-member quorum times. Used directly
/// by consensus variants that handle dissemination themselves (e.g.
/// IDA-gossip).
pub fn run_vote_rounds(
    net: &mut Network,
    members: &[NodeId],
    ready: &BTreeMap<NodeId, SimTime>,
    q: usize,
    rounds: usize,
    scratch: &mut VoteScratch,
) -> BTreeMap<NodeId, SimTime> {
    let mut state = Rounds::new(members, scratch);
    for (at, m) in state.times_mut().iter_mut().zip(members) {
        *at = ready.get(m).map_or(NONE, |t| t.as_micros());
    }
    state.run(net, q, rounds);
    state.instants().collect()
}

/// "No instant" in a member-indexed microsecond buffer: nothing to send,
/// no vote arrived, no quorum reached. It is the largest `u64`, so a
/// selection sorts it after every real instant: the `q`-th smallest of a
/// row is `NONE` exactly when fewer than `q` real values are in it.
const NONE: u64 = u64::MAX;

/// One call's vote-round state: member-indexed microseconds in a single
/// allocation, borrowed from a [`VoteScratch`] — the instants entering
/// the next round, the round's output, one row of work space, a `c × c`
/// table (pair delays in closed form, arrival rows per message), and
/// the table's key.
struct Rounds<'a> {
    members: &'a [NodeId],
    scratch: &'a mut VoteScratch,
}

/// The five buffers of a [`Rounds`].
struct Views<'a> {
    /// Each member's instant entering the round: its send time.
    times: &'a mut [u64],
    /// Each member's result of the round in progress.
    next: &'a mut [u64],
    /// One member's arrival row (closed form).
    row: &'a mut [u64],
    /// Row-major `c × c`. Closed form: the symmetric pair delays, zero on
    /// the diagonal. Per message: row `j` holds the arrival at member `j`
    /// of each voter's vote, by voter index.
    table: &'a mut [u64],
    /// `3c` words: the [`delay_key`] of the delays in `table`, when the
    /// scratch says it holds delays.
    key: &'a mut [u64],
}

impl<'a> Rounds<'a> {
    /// Every instant `NONE`; the table keeps what `scratch` says it
    /// holds, unless it has to move to fit `members`.
    fn new(members: &'a [NodeId], scratch: &'a mut VoteScratch) -> Rounds<'a> {
        let c = members.len();
        if scratch.buf.len() != c * (c + 6) {
            scratch.buf.resize(c * (c + 6), NONE);
            scratch.delays = false;
        }
        scratch.buf[..3 * c].fill(NONE);
        Rounds { members, scratch }
    }

    fn views(&mut self) -> Views<'_> {
        let c = self.members.len();
        let (times, rest) = self.scratch.buf.split_at_mut(c);
        let (next, rest) = rest.split_at_mut(c);
        let (row, rest) = rest.split_at_mut(c);
        let (table, key) = rest.split_at_mut(c * c);
        Views {
            times,
            next,
            row,
            table,
            key,
        }
    }

    fn times_mut(&mut self) -> &mut [u64] {
        self.views().times
    }

    /// Members holding an instant, with it, in membership order.
    fn instants(&self) -> impl Iterator<Item = (NodeId, SimTime)> + '_ {
        let times = &self.scratch.buf[..self.members.len()];
        self.members
            .iter()
            .zip(times)
            .filter(|&(_, &at)| at != NONE)
            .map(|(&m, &at)| (m, SimTime::from_micros(at)))
    }

    /// The `q`-th smallest instant, if that many members hold one.
    fn quorum_instant(&mut self, q: usize) -> Option<SimTime> {
        let Views { times, row, .. } = self.views();
        row.copy_from_slice(times);
        quorum_select(row, q)
            .filter(|&at| at != NONE)
            .map(SimTime::from_micros)
    }

    /// `rounds` vote rounds, on the path the network's observable
    /// properties select (see the module docs).
    fn run(&mut self, net: &mut Network, q: usize, rounds: usize) {
        if net.sends_are_stream_independent() && !net.sends_are_traced() {
            if !self.delays_are_current(net) {
                self.fill_delays(net);
            }
            for _ in 0..rounds {
                self.closed_round(net, q);
            }
        } else {
            for _ in 0..rounds {
                self.message_round(net, q);
            }
        }
    }

    /// Whether the table holds the pair delays of these members on `net`.
    fn delays_are_current(&self, net: &Network) -> bool {
        let c = self.members.len();
        let key = &self.scratch.buf[c * (c + 3)..];
        self.scratch.delays
            && self.scratch.link == link_key(net.link())
            && key
                .iter()
                .copied()
                .eq(delay_key(self.members, net.topology()))
    }

    /// The table as the link delay of one vote between every pair of
    /// members. Distance is symmetric and a quiet link adds no jitter,
    /// so each pair is computed once and mirrored; the base overhead and
    /// the vote's serialization are the same for every pair, which
    /// leaves one square root and one rounding per pair —
    /// [`ici_net::link::LinkModel::transit`] term for term, its jitter
    /// term zero. The scratch records what the table now holds.
    fn fill_delays(&mut self, net: &Network) {
        let members = self.members;
        let c = members.len();
        let (link, topology) = (net.link(), net.topology());
        let serialization = link.serialization(VOTE_BYTES).as_micros();
        let Views { table, key, .. } = self.views();
        for (i, &a) in members.iter().enumerate() {
            let from = topology.coord(a);
            table[i * c + i] = 0;
            for (j, &b) in members.iter().enumerate().skip(i + 1) {
                let flight =
                    Duration::from_millis_f64(link.base_ms + from.distance(&topology.coord(b)));
                let delay = flight.as_micros() + serialization;
                table[i * c + j] = delay;
                table[j * c + i] = delay;
            }
        }
        for (word, from) in key.iter_mut().zip(delay_key(members, topology)) {
            *word = from;
        }
        self.scratch.link = link_key(link);
        self.scratch.delays = true;
    }

    /// One vote round on a quiet, untraced network, without sending:
    /// every live member with a send time broadcasts a vote then, each
    /// vote to a live member arrives after the pair's link delay, and a
    /// live member's result is its `q`-th arrival (its own vote counts at
    /// send time).
    ///
    /// Leaves `net` exactly as [`Rounds::message_round`] would: each live
    /// voter is charged `c − 1` votes (crashed addressees included — the
    /// bytes left the uplink), each member the votes addressed to it, and
    /// the sequence stream advances once.
    fn closed_round(&mut self, net: &mut Network, q: usize) {
        let _span = ici_telemetry::span!("consensus/vote_round");
        let members = self.members;
        let c = members.len();
        let Views {
            times,
            next,
            row,
            table,
            ..
        } = self.views();
        // A crashed member sends nothing, whatever its send time: from
        // here on `times` holds exactly the voters.
        for (at, &m) in times.iter_mut().zip(members) {
            if !net.is_up(m) {
                *at = NONE;
            }
        }
        let voters = times.iter().filter(|&&at| at != NONE).count() as u64;
        net.advance_stream();

        let meter = net.meter_mut();
        let peers = (c as u64).saturating_sub(1);
        for (&member, &at) in members.iter().zip(times.iter()) {
            let votes_in = voters - u64::from(at != NONE);
            if votes_in > 0 {
                meter.charge_receiver(member, votes_in, votes_in * VOTE_BYTES);
            }
            if at != NONE && peers > 0 {
                meter.charge_sender(member, MessageKind::Vote, peers, peers * VOTE_BYTES);
            }
        }

        // Row `j` is every voter's send time plus its delay to `j` (zero
        // for `j`'s own vote); a non-voter's `NONE` stays `NONE`.
        for (j, (out, &member)) in next.iter_mut().zip(members).enumerate() {
            *out = NONE;
            if net.is_up(member) {
                let delays = &table[j * c..(j + 1) * c];
                for ((arrival, &at), &delay) in row.iter_mut().zip(&*times).zip(delays) {
                    *arrival = at.saturating_add(delay);
                }
                *out = quorum_select(row, q).unwrap_or(NONE);
            }
        }
        times.copy_from_slice(next);
    }

    /// One vote round, message by message: each member with a send time
    /// broadcasts a vote at that time; every live member that collects
    /// `q` votes (its own included, at send time) gets the arrival time
    /// of the `q`-th.
    ///
    /// Each voter broadcasts on its own sequence stream (id = voter id),
    /// so the jitter and fault draws a vote makes are a function of the
    /// voter alone.
    fn message_round(&mut self, net: &mut Network, q: usize) {
        let _span = ici_telemetry::span!("consensus/vote_round");
        let members = self.members;
        let c = members.len();
        // The table is about to hold arrivals, not delays.
        self.scratch.delays = false;
        let Views {
            times, next, table, ..
        } = self.views();
        table.fill(NONE);
        for (i, (&at, &voter)) in times.iter().zip(members).enumerate() {
            if at == NONE {
                continue;
            }
            table[i * c + i] = at;
            let mut stream = net.stream(voter.index() as u64);
            net.on_stream(&mut stream, |net| {
                // Everyone but the voter itself, in member order.
                for (first, receivers) in [(0, &members[..i]), (i + 1, &members[i + 1..])] {
                    let mut j = first;
                    net.broadcast(
                        voter,
                        receivers,
                        MessageKind::Vote,
                        VOTE_BYTES,
                        |_, sent| {
                            if let Some(delay) = sent.delay() {
                                table[j * c + i] = at + delay.as_micros();
                            }
                            j += 1;
                        },
                    );
                }
            });
        }
        net.advance_stream();

        for (j, (out, &member)) in next.iter_mut().zip(members).enumerate() {
            *out = NONE;
            if net.is_up(member) {
                *out = quorum_select(&mut table[j * c..(j + 1) * c], q).unwrap_or(NONE);
            }
        }
        times.copy_from_slice(next);
    }
}

/// The `q`-th smallest value of `row` (1-based), if `row` holds that
/// many; `row` may be reordered.
///
/// Every quorum instant goes through here. A row of at most 32 values is
/// copied into a fixed-width array of 8, 16 or 32 words, padded with
/// `u64::MAX`, and sorted by a branchless Batcher odd–even merge network;
/// the padding sorts after every value of the row, so the sorted
/// array's index `q − 1` is the answer. A longer row goes to
/// `select_nth_unstable`. Either way the result is the one value of the
/// row's order statistic, so the two agree to the bit.
fn quorum_select(row: &mut [u64], q: usize) -> Option<u64> {
    let nth = q.checked_sub(1).filter(|&nth| nth < row.len())?;
    Some(match row.len() {
        0..=8 => sorted::<8>(row)[nth],
        9..=16 => sorted::<16>(row)[nth],
        17..=32 => sorted::<32>(row)[nth],
        _ => *row.select_nth_unstable(nth).1,
    })
}

/// `row` (at most `W` values) padded with `u64::MAX` and sorted.
#[inline(always)]
fn sorted<const W: usize>(row: &[u64]) -> [u64; W] {
    let mut v = [u64::MAX; W];
    v[..row.len()].copy_from_slice(row);
    odd_even_merge_sort(&mut v);
    v
}

/// Batcher's odd–even merge sort of a power-of-two-wide array: for merge
/// widths `p = 1, 2, 4, …` and distances `k = p, p/2, …, 1`, elements
/// `k` apart inside the same `2p`-block are compare-exchanged with a
/// `min`/`max` pair, no branch on the data. Every bound is a function of
/// `W`, so the compiler unrolls the nest into straight-line code (19, 63
/// and 191 comparators at 8, 16 and 32) — the reason it is a loop nest
/// over a const width and not a loop over a table of pairs.
#[inline(always)]
fn odd_even_merge_sort<const W: usize>(v: &mut [u64; W]) {
    let mut p = 1;
    while p < W {
        let mut k = p;
        while k > 0 {
            let mut j = k % p;
            while j + k < W {
                let mut i = 0;
                while i < k && i + j + k < W {
                    let (a, b) = (i + j, i + j + k);
                    if a / (2 * p) == b / (2 * p) {
                        let (x, y) = (v[a], v[b]);
                        v[a] = x.min(y);
                        v[b] = x.max(y);
                    }
                    i += 1;
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_net::topology::{Coord, Placement};

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
        assert!(report.commit_times.iter().all(|&(_, t)| t > SimTime::ZERO));
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
        assert!(report
            .commit_times
            .iter()
            .all(|&(m, _)| m != NodeId::new(5)));
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
    const UNIVERSE: u64 = 80;

    /// Closed-form rounds against per-message rounds on the same quiet
    /// network: equal results, equal meter down to every node, and the
    /// parent's sequence stream left at the same position. Memberships
    /// up to 70 put rows through every width of [`quorum_select`] on
    /// both paths: the networks of 8, 16 and 32 and the fallback.
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
                let c = rng.gen_range(1usize..71);
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
                let start: Vec<u64> = (0..c)
                    .map(|i| {
                        if case.silent.contains(&i) {
                            NONE
                        } else {
                            case.times.get(i).copied().unwrap_or(0)
                        }
                    })
                    .collect();
                let q = case.q.clamp(1, c.max(1));

                let mut by_message = quiet.clone();
                let mut expected_scratch = VoteScratch::default();
                let mut expected = Rounds::new(&members, &mut expected_scratch);
                expected.times_mut().copy_from_slice(&start);
                for _ in 0..case.rounds {
                    expected.message_round(&mut by_message, q);
                }
                let mut closed = quiet.clone();
                let mut got_scratch = VoteScratch::default();
                let mut got = Rounds::new(&members, &mut got_scratch);
                got.times_mut().copy_from_slice(&start);
                got.fill_delays(&closed);
                for _ in 0..case.rounds {
                    got.closed_round(&mut closed, q);
                }

                let (got, expected) = (got.times_mut(), expected.times_mut());
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
        let out = run_vote_rounds(&mut net, &m, &ready, 3, 1, &mut VoteScratch::default());
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
        // No members: nothing to map, the stream still moves per round.
        let before = net.next_send_trace_id();
        assert!(
            run_vote_rounds(&mut net, &[], &ready, 1, 2, &mut VoteScratch::default()).is_empty()
        );
        assert_ne!(net.next_send_trace_id(), before);
    }

    #[test]
    fn jittery_and_faulty_networks_vote_message_by_message() {
        // A per-message exchange is recognisable by its jitter: on the
        // default link two identical rounds cannot produce the quiet
        // link's exact pairwise delays.
        let m = members(7);
        let ready: BTreeMap<NodeId, SimTime> = m.iter().map(|&n| (n, SimTime::ZERO)).collect();
        let topo = Topology::generate(7, &Placement::Uniform { side: 20.0 }, 3);
        let mut jittery = Network::new(topo, LinkModel::default());
        assert!(!jittery.sends_are_stream_independent());
        let mut quiet = network(7);
        // One scratch for both: the jittery round leaves arrivals in its
        // table, which the quiet one must refill, not reuse.
        let mut scratch = VoteScratch::default();
        let on_jitter = run_vote_rounds(&mut jittery, &m, &ready, 5, 1, &mut scratch);
        let on_quiet = run_vote_rounds(&mut quiet, &m, &ready, 5, 1, &mut scratch);
        let fresh = run_vote_rounds(&mut network(7), &m, &ready, 5, 1, &mut Default::default());
        assert_eq!(on_quiet, fresh, "a kept scratch answers as a fresh one");
        assert_ne!(on_jitter, on_quiet);
        assert_eq!(
            jittery.meter().total(),
            quiet.meter().total(),
            "same traffic either way"
        );
    }

    /// One commit of `m` led by its first member on a copy of `net`, in
    /// `scratch`: the report and the network it left behind.
    fn commit_in(
        net: &Network,
        m: &[NodeId],
        scratch: &mut VoteScratch,
    ) -> (CommitReport, Network) {
        let mut net = net.clone();
        let report = run_pbft_commit_in(
            &mut net,
            PbftInputs {
                members: m,
                leader: m[0],
                start: SimTime::from_millis(7),
                payload: |n| (MessageKind::BlockBody, 1_000 + n.get()),
                validation: |n| Duration::from_micros(300 + n.get()),
            },
            scratch,
        );
        (report, net)
    }

    /// A scratch that ran other rounds before gives the report and the
    /// meter a fresh one gives: unchanged, after a joiner replaces a
    /// member or grows the cluster, on a network whose coordinates or
    /// link differ, and right after a per-message round overwrote the
    /// table with arrivals.
    #[test]
    fn a_warm_scratch_reports_what_a_fresh_one_does() {
        let check = |net: &Network, m: &[NodeId], warm: &mut VoteScratch, case: &str| {
            let (got, after_warm) = commit_in(net, m, warm);
            let (expected, after_fresh) = commit_in(net, m, &mut VoteScratch::default());
            assert!(expected.is_committed(), "{case}");
            assert_eq!(got.commit_times, expected.commit_times, "{case}");
            assert_eq!(got.quorum, expected.quorum, "{case}");
            assert_eq!(got.quorum_commit(), expected.quorum_commit(), "{case}");
            let (a, b) = (after_warm.meter(), after_fresh.meter());
            assert_eq!(a.by_kind(), b.by_kind(), "{case}");
            for node in (0..net.len() as u64).map(NodeId::new) {
                assert_eq!(a.sent_by(node), b.sent_by(node), "{case}: {node}");
                assert_eq!(a.received_by(node), b.received_by(node), "{case}: {node}");
            }
            assert_eq!(
                after_warm.next_send_trace_id(),
                after_fresh.next_send_trace_id(),
                "{case}"
            );
        };
        let mut net = network(24);
        let mut m = members(16);
        let mut warm = VoteScratch::default();
        check(&net, &m, &mut warm, "cold");
        check(&net, &m, &mut warm, "unchanged");
        let joiner = net.join(Coord::new(3.0, 17.0));
        m[5] = joiner;
        check(&net, &m, &mut warm, "a joiner in a member's place");
        m.push(net.join(Coord::new(19.0, 1.0)));
        check(&net, &m, &mut warm, "a joiner grows the cluster");

        let moved = Topology::generate(net.len(), &Placement::Uniform { side: 20.0 }, 4);
        let quiet = *net.link();
        let elsewhere = Network::new(moved.clone(), quiet);
        check(
            &elsewhere,
            &m,
            &mut warm,
            "the same ids at other coordinates",
        );
        let slower = Network::new(
            moved.clone(),
            LinkModel {
                base_ms: 4.0,
                ..quiet
            },
        );
        check(
            &slower,
            &m,
            &mut warm,
            "the same coordinates on a slower link",
        );

        let jittery = Network::new(moved, LinkModel::default());
        assert!(!jittery.sends_are_stream_independent());
        commit_in(&jittery, &m, &mut warm);
        check(&slower, &m, &mut warm, "right after a per-message round");
    }

    #[test]
    fn delay_table_is_the_links_transit() {
        let net = network(UNIVERSE as usize);
        let m: Vec<NodeId> = [17, 3, 64, 40, 8, 79, 0].map(NodeId::new).to_vec();
        let mut scratch = VoteScratch::default();
        let mut rounds = Rounds::new(&m, &mut scratch);
        rounds.fill_delays(&net);
        let c = m.len();
        let table = rounds.views().table;
        for (i, &a) in m.iter().enumerate() {
            for (j, &b) in m.iter().enumerate() {
                let expected = if i == j {
                    0
                } else {
                    net.link()
                        .transit(net.topology(), a, b, VOTE_BYTES, 0)
                        .as_micros()
                };
                assert_eq!(table[i * c + j], expected, "{a} -> {b}");
            }
        }
    }

    /// `quorum_select` against sort-then-index on one row, every `q`
    /// from 0 to one past its length.
    fn select_matches_sorting(row: &[u64]) {
        let mut sorted = row.to_vec();
        sorted.sort_unstable();
        for q in 0..=row.len() + 1 {
            let expected = q.checked_sub(1).and_then(|nth| sorted.get(nth)).copied();
            let mut scratch = row.to_vec();
            assert_eq!(quorum_select(&mut scratch, q), expected, "q={q} of {row:?}");
        }
    }

    #[test]
    fn quorum_select_is_the_order_statistic_at_every_width() {
        let mut rng = ici_rng::Xoshiro256::seed_from_u64(0x005E_1EC7);
        assert_eq!(quorum_select(&mut [], 1), None);
        for n in 1..=70usize {
            for _ in 0..8 {
                // Distinct-ish arrivals, heavy duplicates, and values at
                // the top of the range next to the padding.
                let spread: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..400_000)).collect();
                let dups: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..4)).collect();
                let top: Vec<u64> = (0..n).map(|_| u64::MAX - rng.gen_range(0u64..3)).collect();
                for row in [spread, dups, top] {
                    select_matches_sorting(&row);
                }
            }
            select_matches_sorting(&vec![7; n]);
            select_matches_sorting(&vec![u64::MAX - 1; n]);
            select_matches_sorting(&(0..n as u64).rev().collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_member_cluster_commits_instantly_after_validation() {
        let mut net = network(1);
        let m = members(1);
        let report = run(&mut net, &m, NodeId::new(0));
        assert!(report.is_committed());
        assert_eq!(
            report.commit_times,
            [(NodeId::new(0), SimTime::ZERO + Duration::from_millis(2))]
        );
    }
}
