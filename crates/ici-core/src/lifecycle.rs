//! The block lifecycle: propose → distribute → collaboratively verify →
//! commit → store.
//!
//! One committed block goes through:
//!
//! 1. **Proposer election** — a hash lottery picks the proposer cluster for
//!    the height, and a second lottery picks the leader inside it; both are
//!    deterministic from the parent block id, so no election traffic.
//! 2. **Intra-cluster commit** — the leader ships the body only to the
//!    cluster's `r` assigned owners and the header to everyone else; every
//!    member verifies a `1/c` slice of the signatures (collaborative
//!    verification) and the cluster runs a PBFT-style vote exchange.
//! 3. **Cross-cluster dissemination** — the leader forwards the full block
//!    plus the commit certificate to each remote cluster's leader, which
//!    repeats step 2 locally: bodies to its own `r` owners, headers to the
//!    rest, collaborative verification, votes.
//! 4. **Storage** — all live members of committed clusters append the
//!    header; assigned owners attach the body. The intra-cluster integrity
//!    invariant holds by construction and is auditable at any time.
//!
//! The block is executed once, by the leader that builds it: the
//! builder's post-state is the state the height commits, so no stage
//! re-executes the block. Every stage that handles a transaction asks
//! for its signature — the leader's `BlockBuilder::fill` at proposal
//! time and each member's collaborative slice — and none of the asks is
//! skipped. The hashing is paid once per transaction object: the first
//! `Transaction::verify_signature` remembers its verdict in the
//! transaction, which the block's shared body carries to
//! every later stage. Simulated time is unaffected — execution and hashing
//! are charged through the cost model.
//!
//! # Stages
//!
//! There is one lifecycle, [`IciNetwork::propose_block_staged`], and it
//! runs one height at a time on the calling thread. It is cut into four
//! stages so that a caller can act *between* them (the
//! [`StageBoundary`] hooks: fault campaigns crash nodes mid-proposal,
//! the benchmark times each stage), not so that heights can overlap:
//!
//! * `stage_build` — election, block assembly at the tip, and one
//!   sequence stream per cluster (the only stage that advances the
//!   network's own stream);
//! * `stage_distribute` — the home cluster's vote round plus the
//!   leader-to-leader block hops, each on its cluster's stream;
//! * `stage_verify` — the remote clusters' vote rounds, one plain loop
//!   over the clusters;
//! * `stage_commit` — installs the post-state the build sealed, writes
//!   storage holdings and records the commit.
//!
//! The four share one value, the height in flight: build creates it,
//! distribute and verify fill in each cluster's arrival and commit
//! instant through `&mut`, commit consumes it. A block's proposal
//! instant is the committed clock plus its build cost, known as soon as
//! the block is sealed, so every stage runs on the absolute simulation
//! clock and records trace events and telemetry as it goes.
//!
//! Every stage sends on the one simulated network, so its traffic lands
//! on the one meter and every liveness check reads the one down-set: a
//! crash at a boundary is visible to exactly the stages past it.
//!
//! Owner assignment is computed once, in the build stage, straight into
//! the height's row of the owner table; every later stage reads each
//! cluster's members from the membership and its owners from that row,
//! and a height that fails to commit pops the row again. That is sound
//! because membership cannot change in between — joins and
//! re-clustering need `&mut IciNetwork`, which the lifecycle holds from
//! build to commit, and a [`StageBoundary`] callback is handed the
//! simulated network only. A height allocates nothing per cluster: the
//! remote clusters' legs live in a buffer the network keeps.
//!
//! [`IciNetwork::propose_block`] is the staged lifecycle with a callback
//! that does nothing, and [`IciNetwork::propose_blocks`] is the in-order
//! loop over it. The run driver in `ici-sim` calls
//! [`IciNetwork::propose_block_staged`] itself, one height a round,
//! through its `Strategy::propose`.

use std::collections::BTreeMap;

use ici_chain::block::{Block, BlockHeader, Height};
use ici_chain::builder::BlockBuilder;
use ici_chain::state::WorldState;
use ici_chain::transaction::Transaction;
use ici_cluster::membership::Membership;
use ici_cluster::partition::ClusterId;
use ici_consensus::leader::elect_live_leader;
use ici_consensus::pbft::{run_pbft_quorum_in, PbftInputs, VoteScratch};
use ici_crypto::lottery::lottery_winner;
use ici_crypto::sha256::Digest;
use ici_net::cost;
use ici_net::metrics::{Counter, MessageKind};
use ici_net::network::{Network, Stream};
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_trace::{TraceEvent, TraceKind};

use crate::error::IciError;
use crate::network::{slot_of, IciNetwork, OwnerTable};

/// Bytes of one commit-certificate signature entry (signature + signer id +
/// digest reference).
pub const CERT_ENTRY_BYTES: u64 = 96;

/// Bytes of one encoded block header on the wire.
const HEADER_BYTES: u64 = BlockHeader::ENCODED_LEN as u64;

/// Everything recorded about one committed block.
#[derive(Clone, Debug)]
pub struct BlockCommitRecord {
    /// Height of the block.
    pub height: Height,
    /// The elected leader.
    pub proposer: NodeId,
    /// The proposer's cluster.
    pub proposer_cluster: ClusterId,
    /// When the leader began proposing (after build cost).
    pub proposed_at: SimTime,
    /// Quorum-commit instant of the proposer cluster.
    pub home_commit: SimTime,
    /// Quorum-commit instants per cluster (home included).
    pub cluster_commits: BTreeMap<ClusterId, SimTime>,
    /// The latest cluster commit — when the whole network holds the block.
    pub network_commit: SimTime,
    /// Clusters that failed to commit (no live leader / no quorum).
    pub missed_clusters: Vec<ClusterId>,
    /// Transactions in the block.
    pub tx_count: u32,
    /// Encoded body bytes.
    pub body_bytes: u64,
    /// Messages this block's lifecycle sent.
    pub messages: u64,
    /// Bytes this block's lifecycle sent.
    pub bytes: u64,
}

impl BlockCommitRecord {
    /// End-to-end commit latency: proposal start to network commit.
    pub fn commit_latency(&self) -> Duration {
        self.network_commit.saturating_since(self.proposed_at)
    }

    /// Latency of the proposer cluster alone.
    pub fn home_latency(&self) -> Duration {
        self.home_commit.saturating_since(self.proposed_at)
    }
}

/// A pause point between lifecycle stages.
///
/// [`IciNetwork::propose_block_staged`] invokes its callback at each
/// boundary with mutable access to the simulated network, so fault
/// campaigns can crash or recover nodes *between* stages, and the next
/// stage sees the change. Membership, leader election, and owner
/// assignment are frozen at build time — a boundary crash affects vote
/// participation and message delivery, not who was elected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageBoundary {
    /// The block is sealed; dissemination has not started.
    AfterBuild,
    /// Home commit and leader-to-leader hops done; remote votes pending.
    AfterDistribute,
    /// Every cluster voted; the height is not yet committed or stored.
    AfterVerify,
}

/// One cluster's part of the height in flight. Who leads is frozen at
/// build (who belongs is the membership's, and who owns the body the
/// height's row of the owner table); the two instants are filled in as
/// the stages reach the cluster.
pub(crate) struct ClusterLeg {
    cluster: ClusterId,
    /// Who proposes the block inside the cluster: the proposer at home,
    /// elsewhere the member elected among those live at build — `None`
    /// when none was.
    leader: Option<NodeId>,
    /// The cluster's sequence stream: every jitter and fault draw its
    /// traffic for the height makes comes from here.
    stream: Stream,
    /// When `leader` holds the block and proposes it locally: the
    /// proposal instant at home, the end of the certificate check after
    /// the leader-to-leader hop elsewhere. `None` until then, and for
    /// good when there is no leader or the hop was lost.
    arrival: Option<SimTime>,
    /// The cluster's quorum-commit instant, once its vote round reached
    /// one.
    commit: Option<SimTime>,
}

/// The one height in flight: build creates it, distribute and verify
/// fill in its legs through `&mut`, commit consumes it.
struct HeightInFlight {
    block: Block,
    /// The state after `block`, as its builder executed it: what the
    /// height's header commits to and what the commit installs.
    post: WorldState,
    /// Causal trace id of the block.
    block_tid: u64,
    proposer: NodeId,
    /// When the proposer starts proposing: the committed clock plus the
    /// block's build cost.
    proposed_at: SimTime,
    home: ClusterLeg,
    /// Every other cluster, ascending by id.
    remotes: Vec<ClusterLeg>,
    /// The meter's total when the height was built; the commit record's
    /// traffic is what the height added since.
    meter_at_build: Counter,
}

/// Causal trace id of the block at `height` with id `block_id`.
fn block_trace_id(height: Height, block_id: &Digest) -> u64 {
    let mut salt = [0u8; 8];
    salt.copy_from_slice(&block_id.as_bytes()[..8]);
    ici_trace::derive_id(height, u64::from_le_bytes(salt))
}

impl IciNetwork {
    /// Selects the proposer cluster for `height`: clusters are ranked by a
    /// hash lottery on the parent id; the first with any live member wins.
    /// That is the lottery among the clusters with a live member, scored
    /// in one batch.
    pub fn proposer_cluster(&self, height: Height) -> Option<ClusterId> {
        let parent_id = self.tip().id();
        let live = self.cluster_ids().filter(|&c| self.has_live_member(c));
        lottery_winner(&parent_id, height, live.map(|c| u64::from(c.get())))
            .and_then(|id| u32::try_from(id).ok())
            .map(ClusterId::new)
    }

    /// Opens `cluster`'s leg of the height, with a sequence stream keyed
    /// by the cluster id, so every cluster — home included — draws
    /// jitter independently of sibling clusters and of the order they
    /// run in.
    fn open_leg(&self, cluster: ClusterId, leader: Option<NodeId>) -> ClusterLeg {
        ClusterLeg {
            cluster,
            leader,
            stream: self.net.stream(u64::from(cluster.get())),
            arrival: None,
            commit: None,
        }
    }

    /// Stage 1: election, block assembly on the committed tip and state,
    /// the height's row of the owner table, and per-cluster sequence
    /// streams.
    ///
    /// This is the only stage that touches the network's own sequence
    /// stream: one [`Network::advance_stream`] after taking the
    /// clusters' streams, so the next height's streams draw fresh
    /// randomness.
    ///
    /// # Errors
    ///
    /// [`IciError::NoLeader`] — no live proposer anywhere.
    fn stage_build(&mut self, pending: Vec<Transaction>) -> Result<HeightInFlight, IciError> {
        let _span = ici_telemetry::span!("core/stage_build");
        let parent = self.tip;
        let parent_id = parent.id();
        let height = parent.height + 1;

        let home = self.proposer_cluster(height).ok_or(IciError::NoLeader)?;
        let home_members = self.membership.members(home);
        let proposer = elect_live_leader(&parent_id, height, home_members, |n| self.net.is_up(n))
            .ok_or(IciError::NoLeader)?;

        // Build the block at the leader. The timestamp is derived from
        // the parent alone (strictly monotonic, which is all validation
        // requires), not from the simulation clock.
        let timestamp_ms = parent.timestamp_ms + 1;
        let mut builder =
            BlockBuilder::new(&parent, self.state.clone(), proposer.get(), timestamp_ms);
        builder.fill(pending);
        let (block, post) = builder.seal_with_state();
        let build_cost = cost::apply_transactions(block.transactions().len())
            + cost::hash(block.body_len() as u64);
        let proposed_at = self.clock + build_cost;

        self.owners
            .push_row(self.config.assignment, &block.id(), &self.membership);
        let mut home = self.open_leg(home, Some(proposer));
        home.arrival = Some(proposed_at);
        let mut remotes = std::mem::take(&mut self.remote_legs);
        remotes.extend(
            self.cluster_ids()
                .filter(|&other| other != home.cluster)
                .map(|other| {
                    let members = self.membership.members(other);
                    let leader =
                        elect_live_leader(&parent_id, height, members, |n| self.net.is_up(n));
                    self.open_leg(other, leader)
                }),
        );
        self.net.advance_stream();

        Ok(HeightInFlight {
            block_tid: block_trace_id(height, &block.id()),
            block,
            post,
            proposer,
            proposed_at,
            home,
            remotes,
            meter_at_build: self.net.meter().total(),
        })
    }

    /// Stage 4: installs the post-state the build sealed, updates
    /// storage holdings, and records the commit.
    ///
    /// Who stores what comes from the membership and the height's row
    /// of the owner table `stage_build` wrote, not from a second
    /// rendezvous pass: membership is the same now as then, because
    /// nothing that changes it can run while the lifecycle holds
    /// `&mut self` between the two stages. Liveness *can* change in
    /// between (stage-boundary crashes), so it is read here.
    ///
    /// # Errors
    ///
    /// [`IciError::NoQuorum`] — `home_commit` carried over from a failed
    /// home vote; the height's row is popped again, and the failed
    /// consensus traffic stays on the meter.
    fn stage_commit(
        &mut self,
        flight: HeightInFlight,
        home_commit: Result<SimTime, IciError>,
    ) -> Result<&BlockCommitRecord, IciError> {
        let _span = ici_telemetry::span!("core/stage_commit");
        let HeightInFlight {
            block,
            post,
            block_tid,
            proposer,
            proposed_at,
            home,
            mut remotes,
            meter_at_build,
            ..
        } = flight;
        let height = block.height();
        let body_bytes = block.body_len() as u64;
        let home_cluster = home.cluster;

        let home_commit = match home_commit {
            Ok(at) => at,
            Err(e) => {
                self.owners.pop_row();
                remotes.clear();
                self.remote_legs = remotes;
                return Err(e);
            }
        };

        // One pass over the clusters: live members of committed clusters
        // take the header, and live owners take the body.
        let mut commits = Vec::with_capacity(1 + remotes.len());
        let mut missed = Vec::new();
        for leg in std::iter::once(&home).chain(&remotes) {
            let Some(at) = leg.commit else {
                missed.push(leg.cluster);
                continue;
            };
            commits.push((leg.cluster, at));
            for &m in self.membership.members(leg.cluster) {
                if !self.net.is_up(m) {
                    continue;
                }
                self.holdings[m.index()].add_header();
                if self.owners.holds(height, leg.cluster, m) {
                    self.holdings[m.index()].add_body(height, body_bytes);
                }
            }
        }
        remotes.clear();
        self.remote_legs = remotes;
        let network_commit = commits
            .iter()
            .fold(home_commit, |latest, &(_, at)| latest.max(at));
        // Collected, not inserted one by one: the record outlives the
        // block, and a map built from the sorted pairs packs its nodes.
        let cluster_commits: BTreeMap<ClusterId, SimTime> = commits.into_iter().collect();
        self.state = post;
        self.tip = *block.header();
        let tx_count = block.transactions().len() as u32;
        self.chain.push(block);
        self.clock = network_commit;

        let meter_after = self.net.meter().total();
        ici_telemetry::counter_add("core/blocks_committed", ici_telemetry::Label::Global, 1);
        for (&cluster, &at) in &cluster_commits {
            let label = ici_telemetry::Label::Cluster(u64::from(cluster.get()));
            ici_telemetry::counter_add("core/cluster_commits", label, 1);
            ici_telemetry::observe(
                "core/cluster_commit_sim_us",
                label,
                at.saturating_since(proposed_at).as_micros(),
            );
        }
        ici_telemetry::observe(
            "core/commit_latency_sim_us",
            ici_telemetry::Label::Global,
            network_commit.saturating_since(proposed_at).as_micros(),
        );
        ici_telemetry::observe("core/body_bytes", ici_telemetry::Label::Global, body_bytes);
        if ici_trace::enabled() {
            ici_trace::record(TraceEvent {
                kind: TraceKind::Stage,
                name: "core/block",
                at_us: proposed_at.as_micros(),
                dur_us: network_commit.saturating_since(proposed_at).as_micros(),
                height,
                cluster: Some(u64::from(home_cluster.get())),
                node: Some(proposer.get()),
                bytes: body_bytes,
                id: block_tid,
                ..TraceEvent::default()
            });
            ici_trace::record(TraceEvent {
                kind: TraceKind::Stage,
                name: "core/store",
                at_us: network_commit.as_micros(),
                height,
                bytes: body_bytes,
                id: ici_trace::derive_id(block_tid, 3),
                parent: block_tid,
                ..TraceEvent::default()
            });
        }
        Ok(self.commit_log.push_mut(BlockCommitRecord {
            height,
            proposer,
            proposer_cluster: home_cluster,
            proposed_at,
            home_commit,
            cluster_commits,
            network_commit,
            missed_clusters: missed,
            tx_count,
            body_bytes,
            messages: meter_after.messages - meter_at_build.messages,
            bytes: meter_after.bytes - meter_at_build.bytes,
        }))
    }

    /// Runs the full lifecycle for one block assembled from `pending`.
    ///
    /// Invalid transactions in `pending` are skipped (mempool semantics);
    /// an empty block is legal. Returns the commit record.
    ///
    /// # Errors
    ///
    /// * [`IciError::NoLeader`] — no live proposer anywhere.
    /// * [`IciError::NoQuorum`] — the proposer cluster cannot commit.
    pub fn propose_block(
        &mut self,
        pending: Vec<Transaction>,
    ) -> Result<&BlockCommitRecord, IciError> {
        self.propose_block_staged(pending, |_, _| {})
    }

    /// Like [`IciNetwork::propose_block`], pausing at every
    /// [`StageBoundary`] to run `at_boundary` with mutable access to the
    /// simulated network. Fault campaigns crash or recover nodes there,
    /// and the stages after the boundary see it. Every boundary of a
    /// built height is visited, also when its home cluster fails to
    /// commit. With a no-op callback this is exactly `propose_block`.
    ///
    /// # Errors
    ///
    /// As [`IciNetwork::propose_block`].
    pub fn propose_block_staged(
        &mut self,
        pending: Vec<Transaction>,
        mut at_boundary: impl FnMut(StageBoundary, &mut Network),
    ) -> Result<&BlockCommitRecord, IciError> {
        let _span = ici_telemetry::span!("core/block_lifecycle");
        let mut flight = self.stage_build(pending)?;
        at_boundary(StageBoundary::AfterBuild, &mut self.net);
        let mut round = VoteRound {
            net: &mut self.net,
            scratches: &mut self.vote_scratch,
            membership: &self.membership,
            owners: &self.owners,
        };
        let home_commit = stage_distribute(&mut round, &mut flight);
        at_boundary(StageBoundary::AfterDistribute, &mut *round.net);
        if let Ok(home_commit) = home_commit {
            stage_verify(&mut round, &mut flight, home_commit);
        }
        at_boundary(StageBoundary::AfterVerify, &mut self.net);
        self.stage_commit(flight, home_commit)
    }

    /// Commits one block per batch in `batches`, in order. `after_commit`
    /// runs after each commit with the committed batch's index (round
    /// sampling hooks in here).
    ///
    /// # Errors
    ///
    /// The first height that fails ends the run with its error: its batch
    /// is not reported to `after_commit` and no later batch is built.
    pub fn propose_blocks(
        &mut self,
        batches: Vec<Vec<Transaction>>,
        mut after_commit: impl FnMut(&IciNetwork, usize),
    ) -> Result<(), IciError> {
        self.owners.reserve(batches.len());
        for (index, pending) in batches.into_iter().enumerate() {
            self.propose_block(pending)?;
            after_commit(self, index);
        }
        Ok(())
    }

    // Kept for the frozen benchmark only: `benchmark/src/surface.rs`
    // still passes a depth, which is ignored — one height is in flight,
    // always. The next `benchmark` PR calls `propose_blocks` and removes
    // this shim with the two depth shims in `ici-par`; nothing else may
    // call it.
    #[doc(hidden)]
    pub fn propose_blocks_pipelined(
        &mut self,
        batches: Vec<Vec<Transaction>>,
        _depth: usize,
        after_commit: impl FnMut(&IciNetwork, usize),
    ) -> Result<(), IciError> {
        self.propose_blocks(batches, after_commit)
    }
}

/// What a height's vote rounds work on: the one simulated network,
/// each cluster's vote-round scratch (indexed by cluster id and grown on
/// demand), and who belongs to and owns the body in each cluster.
struct VoteRound<'a> {
    net: &'a mut Network,
    scratches: &'a mut Vec<VoteScratch>,
    membership: &'a Membership,
    owners: &'a OwnerTable,
}

impl VoteRound<'_> {
    /// One cluster's vote round on its own stream, proposed by `leader`
    /// at `start`: the body to the owners, the header to everyone else,
    /// every member validating its `1/c` share before it votes. Home and
    /// remote clusters run the same round, each in its cluster's
    /// scratch. Records the quorum-commit instant in the leg and returns
    /// the quorum the round needed.
    fn run(
        &mut self,
        leg: &mut ClusterLeg,
        leader: NodeId,
        start: SimTime,
        block: &Block,
    ) -> usize {
        let body_bytes = block.body_len() as u64;
        let members = self.membership.members(leg.cluster);
        let owners = self.owners.column(block.height(), leg.cluster);
        // Every member validates the same share.
        let validation = cost::collaborative_member_validation(
            block.transactions().len(),
            body_bytes,
            members.len(),
        );
        let index = leg.cluster.index();
        if self.scratches.len() <= index {
            self.scratches.resize_with(index + 1, VoteScratch::default);
        }
        let scratch = &mut self.scratches[index];
        let (commit, quorum) = self.net.on_stream(&mut leg.stream, |net| {
            run_pbft_quorum_in(
                net,
                PbftInputs {
                    members,
                    leader,
                    start,
                    payload: |m| {
                        if owners.contains(&slot_of(m)) {
                            (MessageKind::BlockBody, HEADER_BYTES + body_bytes)
                        } else {
                            (MessageKind::BlockHeader, HEADER_BYTES)
                        }
                    },
                    validation: |_| validation,
                },
                scratch,
            )
        });
        leg.commit = commit;
        quorum
    }
}

/// Stage 2: the home cluster's vote round plus the leader-to-leader
/// block hops, each on the stream of the cluster it concerns. Returns
/// the home cluster's commit instant.
///
/// # Errors
///
/// [`IciError::NoQuorum`] — the home cluster did not commit. `live`
/// counts its members as the vote saw them, after the boundary. The
/// height still goes on to the commit stage; the traffic the failed
/// round sent stays on the meter.
fn stage_distribute(
    round: &mut VoteRound<'_>,
    flight: &mut HeightInFlight,
) -> Result<SimTime, IciError> {
    let _span = ici_telemetry::span!("core/stage_distribute", cluster = flight.home.cluster.get());
    let tracing = ici_trace::enabled();
    let height = flight.block.height();
    let block_tid = flight.block_tid;
    let proposed_at = flight.proposed_at;
    let body_bytes = flight.block.body_len() as u64;

    let home = &mut flight.home;
    if tracing {
        let ctx = ici_trace::SendCtx {
            sends: false,
            at_us: proposed_at.as_micros(),
            height,
            cluster: Some(u64::from(home.cluster.get())),
            parent: block_tid,
        };
        round
            .net
            .on_stream(&mut home.stream, |net| net.set_trace_ctx(ctx));
    }
    let quorum = round.run(home, flight.proposer, proposed_at, &flight.block);
    let Some(home_commit) = home.commit else {
        let members = round.membership.members(home.cluster);
        return Err(IciError::NoQuorum {
            cluster: home.cluster.get(),
            live: members.iter().filter(|&&m| round.net.is_up(m)).count(),
            needed: quorum,
        });
    };
    let cert_bytes = quorum as u64 * CERT_ENTRY_BYTES;

    // Leader → remote-leader hops. Each hop draws its delay from the
    // remote cluster's own stream, so hop jitter is independent of
    // sibling clusters and of when the remote vote round later runs.
    let proposer = flight.proposer;
    for leg in &mut flight.remotes {
        let Some(remote_leader) = leg.leader else {
            continue;
        };
        let cluster = Some(u64::from(leg.cluster.get()));
        leg.arrival = round.net.on_stream(&mut leg.stream, |net| {
            if tracing {
                net.set_trace_ctx(ici_trace::SendCtx {
                    sends: true,
                    at_us: home_commit.as_micros(),
                    height,
                    cluster,
                    parent: block_tid,
                });
            }
            let hop_tid = net.next_send_trace_id();
            let delay = net
                .send(
                    proposer,
                    remote_leader,
                    MessageKind::BlockFull,
                    HEADER_BYTES + body_bytes + cert_bytes,
                )
                .delay()?;
            // The remote leader checks the commit certificate before
            // re-proposing locally.
            let arrival = home_commit + delay + cost::verify_signatures(quorum);
            if tracing {
                net.set_trace_ctx(ici_trace::SendCtx {
                    sends: false,
                    at_us: arrival.as_micros(),
                    height,
                    cluster,
                    parent: hop_tid,
                });
            }
            Some(arrival)
        });
    }
    if tracing {
        ici_trace::record(TraceEvent {
            kind: TraceKind::Stage,
            name: "core/distribute",
            at_us: proposed_at.as_micros(),
            dur_us: home_commit.saturating_since(proposed_at).as_micros(),
            height,
            cluster: Some(u64::from(flight.home.cluster.get())),
            node: Some(flight.proposer.get()),
            bytes: body_bytes + cert_bytes,
            id: ici_trace::derive_id(block_tid, 4),
            parent: block_tid,
            ..TraceEvent::default()
        });
    }
    Ok(home_commit)
}

/// Stage 3: the vote round (collaborative verify + votes) of every
/// remote cluster the block reached, one after another. Runs only for a
/// height whose home cluster committed, at `home_commit`.
fn stage_verify(round: &mut VoteRound<'_>, flight: &mut HeightInFlight, home_commit: SimTime) {
    let _span = ici_telemetry::span!("core/stage_verify");
    let mut network_commit = home_commit;
    for leg in &mut flight.remotes {
        let (Some(leader), Some(arrival)) = (leg.leader, leg.arrival) else {
            continue;
        };
        let _cluster_span = ici_telemetry::span!("core/remote_commit", cluster = leg.cluster.get());
        round.run(leg, leader, arrival, &flight.block);
        if let Some(at) = leg.commit {
            network_commit = network_commit.max(at);
        }
    }
    if ici_trace::enabled() {
        ici_trace::record(TraceEvent {
            kind: TraceKind::Stage,
            name: "core/verify",
            at_us: home_commit.as_micros(),
            dur_us: network_commit.saturating_since(home_commit).as_micros(),
            height: flight.block.height(),
            bytes: flight.block.body_len() as u64,
            id: ici_trace::derive_id(flight.block_tid, 5),
            parent: flight.block_tid,
            ..TraceEvent::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IciConfig;
    use ici_chain::genesis::GenesisConfig;
    use ici_chain::transaction::Address;
    use ici_crypto::sig::Keypair;

    fn network(nodes: usize, cluster_size: usize, r: usize) -> IciNetwork {
        let config = IciConfig::builder()
            .nodes(nodes)
            .cluster_size(cluster_size)
            .replication(r)
            .genesis(GenesisConfig::uniform(64, 1_000_000))
            .seed(3)
            .build()
            .expect("valid");
        IciNetwork::new(config).expect("constructs")
    }

    fn transfers(n: u64, nonce: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::signed(
                    &Keypair::from_seed(i),
                    Address::from_seed(i + 1),
                    10,
                    1,
                    nonce,
                    vec![0u8; 64],
                )
            })
            .collect()
    }

    #[test]
    fn one_block_commits_in_every_cluster() {
        let mut net = network(32, 8, 2);
        let record = net
            .propose_block(transfers(10, 0))
            .expect("commits")
            .clone();
        assert_eq!(record.height, 1);
        assert_eq!(record.tx_count, 10);
        assert!(record.missed_clusters.is_empty());
        assert_eq!(record.cluster_commits.len(), 4);
        assert!(record.network_commit >= record.home_commit);
        assert!(record.commit_latency() > Duration::ZERO);
        assert_eq!(net.chain_len(), 2);
    }

    #[test]
    fn integrity_invariant_holds_after_many_blocks() {
        let mut net = network(24, 6, 2);
        for round in 0..5 {
            net.propose_block(transfers(8, round)).expect("commits");
        }
        assert_eq!(net.chain_len(), 6);
        for report in net.audit_all() {
            assert!(report.is_intact(), "cluster violated integrity: {report:?}");
        }
    }

    #[test]
    fn bodies_live_only_on_owners() {
        let mut net = network(32, 8, 2);
        net.propose_block(transfers(5, 0)).expect("commits");
        let block_id = net.block(1).expect("exists").id();
        for cluster in net.clusters() {
            let owners = net.owners_in_cluster(cluster, &block_id, 1);
            for &m in net.membership().members(cluster) {
                let has = net.holdings(m).expect("known").has_body(1);
                assert_eq!(has, owners.contains(&m), "node {m}");
            }
        }
    }

    #[test]
    fn per_node_storage_is_far_below_full_replica() {
        let mut net = network(64, 16, 2);
        for round in 0..8 {
            net.propose_block(transfers(20, round)).expect("commits");
        }
        let stats = net.storage_stats();
        let full = net.full_replica_bytes();
        // r/c = 2/16 = 12.5% of bodies + headers; well under half the full
        // replica even with header overhead.
        assert!(
            (stats.mean as u64) < full / 4,
            "mean {} vs full {}",
            stats.mean,
            full
        );
    }

    #[test]
    fn state_advances_with_transactions() {
        let mut net = network(16, 8, 2);
        net.propose_block(transfers(3, 0)).expect("commits");
        assert_eq!(net.state().nonce(&Address::from_seed(0)), 1);
        assert_eq!(
            net.state().root(),
            net.block(1).expect("exists").header().state_root
        );
    }

    #[test]
    fn invalid_transactions_are_skipped_not_fatal() {
        let mut net = network(16, 8, 2);
        let mut txs = transfers(2, 0);
        txs.push(Transaction::signed(
            &Keypair::from_seed(0),
            Address::from_seed(1),
            u64::MAX, // overspend
            0,
            1,
            Vec::new(),
        ));
        let record = net.propose_block(txs).expect("commits").clone();
        assert_eq!(record.tx_count, 2);
    }

    #[test]
    fn empty_block_is_committable() {
        let mut net = network(16, 8, 2);
        let record = net.propose_block(Vec::new()).expect("commits");
        assert_eq!(record.tx_count, 0);
        assert_eq!(record.body_bytes, 0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut net = network(16, 8, 2);
        let mut last = net.now();
        for round in 0..3 {
            net.propose_block(transfers(4, round)).expect("commits");
            assert!(net.now() > last);
            last = net.now();
        }
    }

    #[test]
    fn headers_go_everywhere_bodies_to_r_per_cluster() {
        let mut net = network(32, 8, 2);
        let record = net.propose_block(transfers(6, 0)).expect("commits").clone();
        // Per cluster: body to 2 owners, header to the other 6, leader-to-
        // leader full blocks to 3 remote clusters.
        let meter = net.net().meter();
        assert_eq!(meter.kind(MessageKind::BlockFull).messages, 3);
        // Home: leader ships to 7 others (2 owners incl. possibly leader).
        // Exact split depends on whether leaders are owners; check bounds.
        let body_msgs = meter.kind(MessageKind::BlockBody).messages;
        assert!((5..=8).contains(&body_msgs), "body messages {body_msgs}");
        assert!(record.messages > 0 && record.bytes > 0);
    }

    #[test]
    fn trace_reconstructs_block_path_across_clusters() {
        ici_trace::reset();
        ici_trace::set_enabled(true);
        let mut net = network(32, 8, 2);
        let record = net.propose_block(transfers(4, 0)).expect("commits").clone();
        ici_trace::set_enabled(false);
        let snap = ici_trace::snapshot();
        ici_trace::reset();

        let block = snap
            .events
            .iter()
            .find(|e| e.name == "core/block")
            .expect("block stage");
        assert_eq!(block.parent, 0, "the block stage is the causal root");
        assert_eq!(block.height, 1);
        assert_eq!(block.dur_us, record.commit_latency().as_micros());
        let store = snap
            .events
            .iter()
            .find(|e| e.name == "core/store")
            .expect("store stage");
        assert_eq!(store.parent, block.id);
        assert_eq!(store.at_us, record.network_commit.as_micros());

        // The stage spans descend from the block root and sit inside
        // its [proposed_at, network_commit] window.
        let dist = snap
            .events
            .iter()
            .find(|e| e.name == "core/distribute")
            .expect("distribute stage");
        assert_eq!(dist.parent, block.id);
        assert_eq!(dist.at_us, record.proposed_at.as_micros());
        assert_eq!(dist.dur_us, record.home_latency().as_micros());
        let verify = snap
            .events
            .iter()
            .find(|e| e.name == "core/verify")
            .expect("verify stage");
        assert_eq!(verify.parent, block.id);
        assert_eq!(verify.at_us, record.home_commit.as_micros());

        // Home commit descends directly from the block root.
        assert!(snap
            .events
            .iter()
            .any(|e| e.name == "consensus/commit" && e.parent == block.id));
        // Three remote clusters: each a traced block-full hop rooted at
        // the block, whose id the remote commit stages inherit.
        let hops: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.kind == ici_trace::TraceKind::Send)
            .collect();
        assert_eq!(hops.len(), 3, "one traced hop per remote cluster");
        for hop in hops {
            assert_eq!(hop.parent, block.id);
            assert_eq!(hop.node, Some(record.proposer.get()));
            assert!(
                snap.events
                    .iter()
                    .any(|e| e.name == "consensus/commit" && e.parent == hop.id),
                "no commit stage descends from hop {:016x}",
                hop.id
            );
        }
    }

    #[test]
    fn proposer_rotates_across_heights() {
        let mut net = network(32, 8, 2);
        let mut proposers = std::collections::HashSet::new();
        for round in 0..6 {
            let record = net.propose_block(transfers(2, round)).expect("commits");
            proposers.insert(record.proposer);
        }
        assert!(proposers.len() > 1, "single proposer across 6 heights");
    }

    #[test]
    fn staged_with_noop_boundaries_matches_propose_block() {
        let mut a = network(32, 8, 2);
        let mut b = network(32, 8, 2);
        for round in 0..3 {
            let ra = a
                .propose_block(transfers(5, round))
                .expect("commits")
                .clone();
            let mut boundaries = Vec::new();
            let rb = b
                .propose_block_staged(transfers(5, round), |stage, _net| {
                    boundaries.push(stage);
                })
                .expect("commits")
                .clone();
            assert_eq!(
                boundaries,
                [
                    StageBoundary::AfterBuild,
                    StageBoundary::AfterDistribute,
                    StageBoundary::AfterVerify
                ]
            );
            assert_eq!(ra.proposed_at, rb.proposed_at);
            assert_eq!(ra.home_commit, rb.home_commit);
            assert_eq!(ra.network_commit, rb.network_commit);
            assert_eq!(ra.cluster_commits, rb.cluster_commits);
            assert_eq!(ra.messages, rb.messages);
            assert_eq!(ra.bytes, rb.bytes);
        }
        assert_eq!(a.state().root(), b.state().root());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn boundary_crash_changes_participation_not_election() {
        // Crashing a non-leader home member after build must still
        // commit (quorum margin) and the proposer must be unchanged —
        // election is frozen at build time.
        let mut net = network(32, 8, 2);
        let reference = {
            let mut r = network(32, 8, 2);
            r.propose_block(transfers(3, 0)).expect("commits").clone()
        };
        let home = net.proposer_cluster(1).expect("live cluster");
        let members = net.membership().members(home).to_vec();
        let victim = *members
            .iter()
            .find(|&&m| m != reference.proposer)
            .expect("cluster has non-leaders");
        let record = net
            .propose_block_staged(transfers(3, 0), |stage, sim| {
                if stage == StageBoundary::AfterBuild {
                    sim.crash(victim);
                }
            })
            .expect("commits")
            .clone();
        assert_eq!(record.proposer, reference.proposer);
        assert_eq!(record.height, 1);
    }

    #[test]
    fn after_commit_sees_every_height_in_order() {
        let mut net = network(32, 8, 2);
        let mut seen = Vec::new();
        net.propose_blocks(
            (0..4).map(|round| transfers(3, round)).collect(),
            |net, index| {
                seen.push((index, net.commit_log().len()));
            },
        )
        .expect("commits");
        assert_eq!(seen, [(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    /// Four followers of height 1's home cluster: with them crashed the
    /// cluster is two short of its quorum of six.
    fn home_followers(net: &IciNetwork) -> Vec<NodeId> {
        let home = net.proposer_cluster(1).expect("live cluster");
        let proposer = network(32, 8, 2)
            .propose_block(Vec::new())
            .expect("commits")
            .proposer;
        net.membership()
            .members(home)
            .iter()
            .copied()
            .filter(|&m| m != proposer)
            .take(4)
            .collect()
    }

    #[test]
    fn height_that_loses_home_quorum_leaves_only_its_traffic() {
        let mut net = network(32, 8, 2);
        let home = net.proposer_cluster(1).expect("live cluster");
        let victims = home_followers(&net);
        let tip = *net.tip();
        let state_root = net.state().root();
        let holdings = net.holdings.clone();

        let err = net
            .propose_block_staged(transfers(3, 0), |stage, sim| {
                if stage == StageBoundary::AfterBuild {
                    for &victim in &victims {
                        sim.crash(victim);
                    }
                }
            })
            .expect_err("four of eight cannot reach a quorum of six");
        // `live` is what the vote saw, not what the build saw.
        assert_eq!(
            err,
            IciError::NoQuorum {
                cluster: home.get(),
                live: 4,
                needed: 6
            }
        );
        // The failed round's messages are on the meter: 7 pre-prepares,
        // then 7 prepares from each of the 4 live members; nobody
        // prepared, so no commit votes and no leader-to-leader hops.
        assert_eq!(net.net().meter().total().messages, 7 + 4 * 7);
        // Nothing else moved.
        assert_eq!(net.chain_len(), 1);
        assert_eq!(*net.tip(), tip);
        assert_eq!(net.now(), SimTime::ZERO);
        assert_eq!(net.state().root(), state_root);
        assert!(net.commit_log().is_empty());
        assert_eq!(net.holdings, holdings);
    }

    #[test]
    fn propose_blocks_stops_at_the_first_failed_height() {
        let mut net = network(32, 8, 2);
        for victim in home_followers(&net) {
            net.crash_node(victim).expect("known node");
        }
        let mut twin = network(32, 8, 2);
        for victim in home_followers(&twin) {
            twin.crash_node(victim).expect("known node");
        }
        let one_failed_height = {
            twin.propose_block(transfers(3, 0)).expect_err("no quorum");
            twin.net().meter().total()
        };

        let mut reported = Vec::new();
        let err = net
            .propose_blocks(
                (0..3).map(|round| transfers(3, round)).collect(),
                |_, index| reported.push(index),
            )
            .expect_err("the first height cannot commit");
        assert!(matches!(err, IciError::NoQuorum { live: 4, .. }), "{err}");
        assert!(reported.is_empty(), "a failed batch was reported");
        assert_eq!(net.chain_len(), 1);
        // A second built height would have sent its own failed round.
        assert_eq!(net.net().meter().total(), one_failed_height);
    }
}
