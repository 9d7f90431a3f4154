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
//! Every stage that handles a transaction asks for its signature — the
//! leader's `BlockBuilder::push` at proposal time, each member's
//! collaborative slice, commit-stage validation — and none of the asks is
//! skipped. The hashing is paid once per transaction object: the first
//! `Transaction::verify_signature` remembers its verdict in the
//! transaction, which the shared `Arc<[Transaction]>` body carries to
//! every later stage. Simulated time is unaffected — execution and hashing
//! are charged through the cost model.
//!
//! # Staged execution
//!
//! The lifecycle is factored into four explicit stages so heights can
//! overlap in a pipeline (see [`crate::pipeline`]):
//!
//! * [`IciNetwork::stage_build`] — election, block assembly, and network
//!   forks for every cluster (the only stage that advances the parent
//!   sequence stream);
//! * [`stage_distribute`] — home-cluster PBFT plus the leader-to-leader
//!   block hops, all on forks, on a **zero-based clock**;
//! * [`stage_verify`] — the remote clusters' PBFT rounds (the hot path:
//!   one plain loop over the clusters), also zero-based;
//! * [`IciNetwork::stage_commit`] — absorbs fork traffic, shifts every
//!   zero-based instant by the block's `proposed_at`, executes the block,
//!   and records the commit.
//!
//! Membership and owner assignment are computed once, in the build
//! stage, and travel with the height: each committed cluster's member
//! list and owner set reach the commit stage as built. That is sound
//! because membership cannot change in between — joins and leaves need
//! `&mut IciNetwork`, which the driver holds from build to commit, and
//! a [`StageBoundary`] callback is handed the simulated network only.
//!
//! Running the middle stages zero-based is exact, not approximate: link
//! jitter and fault draws depend only on each fork's sequence stream,
//! never on absolute time, so commit instants are affine in the stage
//! start (`ici-consensus` proves this property in its
//! `start_time_offsets_everything` test). The sequential composition
//! [`IciNetwork::propose_block`] uses the same stage functions and the
//! same trace capture/shift mechanics as the pipelined driver, so a
//! depth-1 run is byte-identical to a depth-N run.

use std::collections::{BTreeMap, BTreeSet};

use ici_chain::block::{Block, BlockHeader, Height};
use ici_chain::builder::BlockBuilder;
use ici_chain::state::WorldState;
use ici_chain::transaction::Transaction;
use ici_chain::validation::validate_block;
use ici_cluster::partition::ClusterId;
use ici_consensus::leader::elect_live_leader;
use ici_consensus::pbft::{run_pbft_commit, PbftInputs};
use ici_crypto::lottery::lottery_score;
use ici_crypto::sha256::Digest;
use ici_net::cost::CostModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};

use crate::error::IciError;
use crate::network::IciNetwork;

/// Bytes of one commit-certificate signature entry (signature + signer id +
/// digest reference).
pub const CERT_ENTRY_BYTES: u64 = 96;

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
/// campaigns can crash or recover nodes *between* stages; the carried
/// forks re-snapshot liveness before the next stage runs. Membership,
/// leader election, and owner assignment are frozen at build time — a
/// boundary crash affects vote participation and message delivery, not
/// who was elected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageBoundary {
    /// The block is sealed; dissemination has not started.
    AfterBuild,
    /// Home commit and leader-to-leader hops done; remote votes pending.
    AfterDistribute,
    /// Every cluster voted; the height is not yet committed or stored.
    AfterVerify,
}

/// Who stores what in one cluster if it commits the height: every live
/// member appends the header, live owners attach the body.
pub(crate) struct ClusterStorage {
    pub(crate) members: Vec<NodeId>,
    pub(crate) owners: BTreeSet<NodeId>,
}

/// One remote cluster's dissemination work order, snapshotted at build.
pub(crate) struct RemoteDispatch {
    pub(crate) cluster: ClusterId,
    pub(crate) members: Vec<NodeId>,
    pub(crate) leader: Option<NodeId>,
    pub(crate) owners: BTreeSet<NodeId>,
    pub(crate) fork: Network,
}

/// Output of the build stage: a sealed block plus everything the later
/// stages need, fully owned so it can cross a pipeline channel.
pub struct BuiltHeight {
    pub(crate) height: Height,
    pub(crate) parent: BlockHeader,
    pub(crate) block: Block,
    pub(crate) home: ClusterId,
    pub(crate) leader: NodeId,
    pub(crate) home_members: Vec<NodeId>,
    pub(crate) home_owners: BTreeSet<NodeId>,
    pub(crate) home_live: usize,
    pub(crate) home_fork: Network,
    pub(crate) remotes: Vec<RemoteDispatch>,
    pub(crate) cost: CostModel,
    pub(crate) n_txs: usize,
    pub(crate) header_bytes: u64,
    pub(crate) body_bytes: u64,
    pub(crate) build_cost: Duration,
    pub(crate) block_tid: u64,
}

impl BuiltHeight {
    /// Header of the sealed block — the speculative parent for the next
    /// height in a pipelined run.
    pub fn header(&self) -> &BlockHeader {
        self.block.header()
    }

    /// Re-snapshots liveness and fault configuration on every carried
    /// fork from the live network (stage-boundary fault hook).
    pub fn sync_liveness_from(&mut self, net: &Network) {
        self.home_fork.sync_liveness_from(net);
        for remote in &mut self.remotes {
            remote.fork.sync_liveness_from(net);
        }
    }
}

/// One remote cluster ready for its PBFT round: the block hop arrived
/// at `arrival_rel` (zero-based) and the fork's trace context already
/// points at the hop event.
pub(crate) struct RemoteVerify {
    pub(crate) cluster: ClusterId,
    pub(crate) members: Vec<NodeId>,
    pub(crate) leader: NodeId,
    pub(crate) owners: BTreeSet<NodeId>,
    pub(crate) fork: Network,
    pub(crate) arrival_rel: SimTime,
}

/// Output of the distribute stage. All instants are zero-based; the
/// commit stage shifts them by the block's `proposed_at`.
pub struct DistributedHeight {
    /// Set when the home cluster failed to commit. The payload still
    /// flows to [`IciNetwork::stage_commit`] so the traffic the failed
    /// consensus generated is absorbed into the meter, exactly as a
    /// non-staged run would have counted it.
    pub(crate) failed: Option<IciError>,
    pub(crate) height: Height,
    pub(crate) parent: BlockHeader,
    pub(crate) block: Block,
    pub(crate) home: ClusterId,
    pub(crate) leader: NodeId,
    pub(crate) home_members: Vec<NodeId>,
    pub(crate) home_owners: BTreeSet<NodeId>,
    pub(crate) home_fork: Network,
    pub(crate) home_commit_rel: SimTime,
    pub(crate) verifies: Vec<RemoteVerify>,
    /// Forks of clusters that missed dissemination (no live leader or a
    /// dropped hop); still absorbed at commit for meter fidelity.
    pub(crate) idle_forks: Vec<Network>,
    pub(crate) missed: Vec<ClusterId>,
    pub(crate) cost: CostModel,
    pub(crate) n_txs: usize,
    pub(crate) header_bytes: u64,
    pub(crate) body_bytes: u64,
    pub(crate) build_cost: Duration,
    pub(crate) block_tid: u64,
}

impl DistributedHeight {
    /// Re-snapshots liveness and fault configuration on every carried
    /// fork from the live network (stage-boundary fault hook).
    pub fn sync_liveness_from(&mut self, net: &Network) {
        self.home_fork.sync_liveness_from(net);
        for verify in &mut self.verifies {
            verify.fork.sync_liveness_from(net);
        }
        for fork in &mut self.idle_forks {
            fork.sync_liveness_from(net);
        }
    }
}

/// Output of the verify stage: every cluster's commit instant
/// (zero-based) plus the forks whose traffic the commit stage absorbs.
pub struct VerifiedHeight {
    pub(crate) failed: Option<IciError>,
    pub(crate) height: Height,
    pub(crate) parent: BlockHeader,
    pub(crate) block: Block,
    pub(crate) home: ClusterId,
    pub(crate) leader: NodeId,
    pub(crate) home_fork: Network,
    pub(crate) remote_forks: Vec<Network>,
    pub(crate) home_commit_rel: SimTime,
    pub(crate) cluster_commits_rel: BTreeMap<ClusterId, SimTime>,
    /// Storage orders of exactly the clusters in `cluster_commits_rel`.
    pub(crate) committed: Vec<ClusterStorage>,
    pub(crate) network_commit_rel: SimTime,
    pub(crate) missed: Vec<ClusterId>,
    pub(crate) n_txs: usize,
    pub(crate) body_bytes: u64,
    pub(crate) build_cost: Duration,
    pub(crate) block_tid: u64,
}

/// Runs `f` capturing the trace events and telemetry it records, so a
/// stage's observability can be merged at the commit sync point in a
/// fixed order regardless of which thread ran the stage.
pub(crate) fn capture_stage<T>(
    f: impl FnOnce() -> T,
) -> (T, ici_trace::TraceDelta, ici_telemetry::TelemetryDelta) {
    let ((out, trace), telemetry) = ici_telemetry::capture(|| ici_trace::capture(f));
    (out, trace, telemetry)
}

/// Shifts a zero-based stage instant into absolute simulation time.
fn shift_time(base: SimTime, rel: SimTime) -> SimTime {
    SimTime::from_micros(base.as_micros().saturating_add(rel.as_micros()))
}

/// Causal trace id of the block at `height` with id `block_id`. Derived
/// from data known at build time (never from `proposed_at`, which a
/// pipelined run only learns at commit).
fn block_trace_id(height: Height, block_id: &Digest) -> u64 {
    let mut salt = [0u8; 8];
    salt.copy_from_slice(&block_id.as_bytes()[..8]);
    ici_trace::derive_id(height, u64::from_le_bytes(salt))
}

impl IciNetwork {
    /// Selects the proposer cluster for `height`: clusters are ranked by a
    /// hash lottery on the parent id; the first with any live member wins.
    pub fn proposer_cluster(&self, height: Height) -> Option<ClusterId> {
        self.proposer_cluster_for(&self.tip().id(), height)
    }

    /// Lottery over an explicit parent id — the pipelined driver ranks
    /// against a speculative tip that is not yet committed.
    pub(crate) fn proposer_cluster_for(
        &self,
        parent_id: &Digest,
        height: Height,
    ) -> Option<ClusterId> {
        let mut scored: Vec<(u64, ClusterId)> = self
            .clusters()
            .into_iter()
            .map(|c| (lottery_score(parent_id, height, c.get() as u64), c))
            .collect();
        scored.sort_unstable();
        scored
            .into_iter()
            .map(|(_, c)| c)
            .find(|c| !self.live_members(*c).is_empty())
    }

    /// Stage 1: election, block assembly, and per-cluster network forks.
    ///
    /// `parent` and `pre_state` are passed explicitly (rather than read
    /// from the committed tip) so the pipelined driver can build height
    /// H+1 against the speculative output of height H. Returns the
    /// payload for [`stage_distribute`] plus the builder's speculative
    /// post-state for chaining.
    ///
    /// This is the only stage that touches the parent network's
    /// sequence stream (one [`Network::advance_stream`] after forking),
    /// so the fork seeds every height draws are independent of how far
    /// earlier heights have progressed.
    ///
    /// # Errors
    ///
    /// [`IciError::NoLeader`] — no live proposer anywhere.
    pub(crate) fn stage_build(
        &mut self,
        parent: BlockHeader,
        pre_state: WorldState,
        pending: Vec<Transaction>,
    ) -> Result<(BuiltHeight, WorldState), IciError> {
        let _span = ici_telemetry::span!("core/stage_build");
        let parent_id = parent.id();
        let height = parent.height + 1;
        let header_bytes = BlockHeader::ENCODED_LEN as u64;

        let home = self
            .proposer_cluster_for(&parent_id, height)
            .ok_or(IciError::NoLeader)?;
        let home_members = self.membership.active_members(home);
        let leader = {
            let net = &self.net;
            elect_live_leader(&parent_id, height, &home_members, |n| net.is_up(n))
                .ok_or(IciError::NoLeader)?
        };

        // Build the block at the leader. The timestamp is derived from
        // the parent alone (strictly monotonic, which is all validation
        // requires) — never from the commit clock, whose value for this
        // height is unknown while earlier heights are still in flight.
        let timestamp_ms = parent.timestamp_ms + 1;
        let mut builder = BlockBuilder::new(&parent, pre_state, leader.get(), timestamp_ms);
        builder.fill(pending);
        let (block, spec_state) = builder.seal_with_state();
        let block_id = block.id();
        let n_txs = block.transactions().len();
        let body_bytes = block.body_len() as u64;
        let build_cost =
            self.config.cost.apply_transactions(n_txs) + self.config.cost.hash(body_bytes);
        let block_tid = block_trace_id(height, &block_id);

        let home_owners: BTreeSet<NodeId> = self
            .dispatch_owners(&block_id, height, &home_members)
            .into_iter()
            .collect();
        let home_live = self.live_members(home).len();
        // Each cluster — home included — gets a network fork keyed by
        // its cluster id, so every cluster draws jitter independently of
        // thread count, sibling clusters, and pipeline depth.
        let home_fork = self.net.fork(u64::from(home.get()));
        let remotes: Vec<RemoteDispatch> = self
            .clusters()
            .into_iter()
            .filter(|&other| other != home)
            .map(|other| {
                let members = self.membership.active_members(other);
                let leader = {
                    let net = &self.net;
                    elect_live_leader(&parent_id, height, &members, |n| net.is_up(n))
                };
                let owners: BTreeSet<NodeId> = self
                    .dispatch_owners(&block_id, height, &members)
                    .into_iter()
                    .collect();
                let fork = self.net.fork(u64::from(other.get()));
                RemoteDispatch {
                    cluster: other,
                    members,
                    leader,
                    owners,
                    fork,
                }
            })
            .collect();
        self.net.advance_stream();

        Ok((
            BuiltHeight {
                height,
                parent,
                block,
                home,
                leader,
                home_members,
                home_owners,
                home_live,
                home_fork,
                remotes,
                cost: self.config.cost,
                n_txs,
                header_bytes,
                body_bytes,
                build_cost,
                block_tid,
            },
            spec_state,
        ))
    }

    /// Stage 4: absorbs every fork's traffic, shifts the zero-based
    /// stage results by the block's `proposed_at`, executes the block,
    /// updates storage holdings, and records the commit.
    ///
    /// The stage deltas are merged here — distribute first, then verify
    /// — so the trace and telemetry streams are identical whichever
    /// thread (or pipeline depth) produced them.
    ///
    /// Who stores what comes from the member lists and owner sets
    /// [`IciNetwork::stage_build`] computed (`verified.committed`), not
    /// from a second rendezvous pass: membership is the same now as
    /// then, because nothing that changes it can run while the driver
    /// holds `&mut self` between the two stages. Liveness *can* change
    /// in between (stage-boundary crashes), so it is read here.
    ///
    /// # Errors
    ///
    /// * [`IciError::NoQuorum`] — carried over from a failed home
    ///   commit; the failed consensus traffic is still absorbed first.
    /// * [`IciError::InvalidBlock`] — defensive: the sealed block failed
    ///   authoritative validation (indicates an internal bug).
    pub(crate) fn stage_commit(
        &mut self,
        verified: VerifiedHeight,
        mut dist_trace: ici_trace::TraceDelta,
        dist_telemetry: ici_telemetry::TelemetryDelta,
        mut verify_trace: ici_trace::TraceDelta,
        verify_telemetry: ici_telemetry::TelemetryDelta,
    ) -> Result<&BlockCommitRecord, IciError> {
        let _span = ici_telemetry::span!("core/stage_commit");
        let meter_before = self.net.meter().total();
        let proposed_at = self.clock + verified.build_cost;

        // Traffic first — also on failure: a failed consensus still sent
        // its messages, and the meter must say so.
        self.net.absorb(verified.home_fork);
        for fork in verified.remote_forks {
            self.net.absorb(fork);
        }
        let offset = proposed_at.as_micros();
        dist_trace.shift(offset);
        ici_trace::merge_delta(dist_trace);
        verify_trace.shift(offset);
        ici_trace::merge_delta(verify_trace);
        ici_telemetry::merge_delta(dist_telemetry);
        ici_telemetry::merge_delta(verify_telemetry);

        if let Some(err) = verified.failed {
            return Err(err);
        }

        let height = verified.height;
        let block = verified.block;
        let home = verified.home;
        let leader = verified.leader;
        let n_txs = verified.n_txs;
        let body_bytes = verified.body_bytes;
        let home_commit = shift_time(proposed_at, verified.home_commit_rel);
        let cluster_commits: BTreeMap<ClusterId, SimTime> = verified
            .cluster_commits_rel
            .iter()
            .map(|(&c, &t)| (c, shift_time(proposed_at, t)))
            .collect();
        let network_commit = shift_time(proposed_at, verified.network_commit_rel);
        let mut missed = verified.missed;

        // Authoritative execution (defensive re-validation).
        let post = validate_block(&block, &verified.parent, &self.state)?;
        self.state = post;

        // Storage: live members of committed clusters take the header;
        // live owners take the body.
        for storage in verified.committed {
            for m in storage.members {
                if !self.net.is_up(m) {
                    continue;
                }
                self.holdings[m.index()].add_header();
                if storage.owners.contains(&m) {
                    self.holdings[m.index()].add_body(height, body_bytes);
                }
            }
        }
        self.tip = *block.header();
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
            ici_trace::stage(
                "core/block",
                proposed_at.as_micros(),
                network_commit.saturating_since(proposed_at).as_micros(),
                height,
                Some(u64::from(home.get())),
                Some(leader.get()),
                body_bytes,
                verified.block_tid,
                0,
            );
            ici_trace::stage(
                "core/store",
                network_commit.as_micros(),
                0,
                height,
                None,
                None,
                body_bytes,
                ici_trace::derive_id(verified.block_tid, 3),
                verified.block_tid,
            );
        }
        missed.sort_unstable_by_key(|c| c.get());
        self.commit_log.push(BlockCommitRecord {
            height,
            proposer: leader,
            proposer_cluster: home,
            proposed_at,
            home_commit,
            cluster_commits,
            network_commit,
            missed_clusters: missed,
            tx_count: n_txs as u32,
            body_bytes,
            messages: meter_after.messages - meter_before.messages,
            bytes: meter_after.bytes - meter_before.bytes,
        });
        // lint:allow(panic) -- the record was pushed two statements up;
        // `last()` on a freshly extended Vec cannot be None
        Ok(self.commit_log.last().expect("just pushed"))
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
    /// * [`IciError::InvalidBlock`] — defensive: the sealed block failed
    ///   authoritative validation (indicates an internal bug).
    pub fn propose_block(
        &mut self,
        pending: Vec<Transaction>,
    ) -> Result<&BlockCommitRecord, IciError> {
        self.propose_block_staged(pending, |_, _| {})
    }

    /// Like [`IciNetwork::propose_block`], pausing at every
    /// [`StageBoundary`] to run `at_boundary` with mutable access to the
    /// simulated network. Fault campaigns crash or recover nodes there;
    /// the stage payload re-snapshots liveness before continuing. With a
    /// no-op callback this is exactly `propose_block`.
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
        let parent = *self.tip();
        let pre_state = self.state.clone();
        let (mut built, _spec_state) = self.stage_build(parent, pre_state, pending)?;
        at_boundary(StageBoundary::AfterBuild, &mut self.net);
        built.sync_liveness_from(&self.net);
        let (mut distributed, dist_trace, dist_telemetry) =
            capture_stage(|| stage_distribute(built));
        at_boundary(StageBoundary::AfterDistribute, &mut self.net);
        distributed.sync_liveness_from(&self.net);
        let (verified, verify_trace, verify_telemetry) =
            capture_stage(|| stage_verify(distributed));
        at_boundary(StageBoundary::AfterVerify, &mut self.net);
        self.stage_commit(
            verified,
            dist_trace,
            dist_telemetry,
            verify_trace,
            verify_telemetry,
        )
    }
}

/// Stage 2: home-cluster PBFT commit plus the leader-to-leader block
/// hops, entirely on the forks carried by `built`, on a zero-based
/// clock.
///
/// A free function over an owned payload so a pipeline worker can run
/// it without touching [`IciNetwork`]. On home-quorum failure the
/// result carries the error and the partially-spent home fork; it still
/// flows to the commit stage for meter fidelity.
pub(crate) fn stage_distribute(mut built: BuiltHeight) -> DistributedHeight {
    let _span = ici_telemetry::span!("core/stage_distribute", cluster = built.home.get());
    let tracing = ici_trace::enabled();
    let height = built.height;
    let block_tid = built.block_tid;
    let cost = built.cost;
    let header_bytes = built.header_bytes;
    let body_bytes = built.body_bytes;

    if tracing {
        built.home_fork.set_trace_ctx(ici_trace::SendCtx {
            sends: false,
            at_us: 0,
            height,
            cluster: Some(u64::from(built.home.get())),
            parent: block_tid,
        });
    }
    let c_home = built.home_members.len();
    let n_txs = built.n_txs;
    let home_owners = &built.home_owners;
    let report = run_pbft_commit(
        &mut built.home_fork,
        PbftInputs {
            members: &built.home_members,
            leader: built.leader,
            start: SimTime::ZERO,
            payload: |m| {
                if home_owners.contains(&m) {
                    (MessageKind::BlockBody, header_bytes + body_bytes)
                } else {
                    (MessageKind::BlockHeader, header_bytes)
                }
            },
            validation: |_| cost.collaborative_member_validation(n_txs, body_bytes, c_home),
        },
    );
    let home_commit_rel = if report.is_committed() {
        report.quorum_commit()
    } else {
        None
    };
    let Some(home_commit_rel) = home_commit_rel else {
        return DistributedHeight {
            failed: Some(IciError::NoQuorum {
                cluster: built.home.get(),
                live: built.home_live,
                needed: report.quorum,
            }),
            height,
            parent: built.parent,
            block: built.block,
            home: built.home,
            leader: built.leader,
            home_members: built.home_members,
            home_owners: built.home_owners,
            home_fork: built.home_fork,
            home_commit_rel: SimTime::ZERO,
            verifies: Vec::new(),
            idle_forks: built.remotes.into_iter().map(|r| r.fork).collect(),
            missed: Vec::new(),
            cost,
            n_txs,
            header_bytes,
            body_bytes,
            build_cost: built.build_cost,
            block_tid,
        };
    };
    let cert_bytes = report.quorum as u64 * CERT_ENTRY_BYTES;

    // Leader → remote-leader hops. Each hop draws its delay from the
    // remote cluster's own fork stream, so hop jitter is independent of
    // sibling clusters and of when the remote PBFT later runs.
    let mut verifies = Vec::with_capacity(built.remotes.len());
    let mut idle_forks = Vec::new();
    let mut missed = Vec::new();
    for remote in built.remotes {
        let mut fork = remote.fork;
        let Some(remote_leader) = remote.leader else {
            missed.push(remote.cluster);
            idle_forks.push(fork);
            continue;
        };
        if tracing {
            fork.set_trace_ctx(ici_trace::SendCtx {
                sends: true,
                at_us: home_commit_rel.as_micros(),
                height,
                cluster: Some(u64::from(remote.cluster.get())),
                parent: block_tid,
            });
        }
        let hop_tid = fork.next_send_trace_id();
        let Some(delay) = fork
            .send(
                built.leader,
                remote_leader,
                MessageKind::BlockFull,
                header_bytes + body_bytes + cert_bytes,
            )
            .delay()
        else {
            missed.push(remote.cluster);
            idle_forks.push(fork);
            continue;
        };
        // The remote leader checks the commit certificate before
        // re-proposing locally.
        let arrival_rel = home_commit_rel + delay + cost.verify_signatures(report.quorum);
        if tracing {
            fork.set_trace_ctx(ici_trace::SendCtx {
                sends: false,
                at_us: arrival_rel.as_micros(),
                height,
                cluster: Some(u64::from(remote.cluster.get())),
                parent: hop_tid,
            });
        }
        verifies.push(RemoteVerify {
            cluster: remote.cluster,
            members: remote.members,
            leader: remote_leader,
            owners: remote.owners,
            fork,
            arrival_rel,
        });
    }
    if tracing {
        ici_trace::stage(
            "core/distribute",
            0,
            home_commit_rel.as_micros(),
            height,
            Some(u64::from(built.home.get())),
            Some(built.leader.get()),
            body_bytes + cert_bytes,
            ici_trace::derive_id(block_tid, 4),
            block_tid,
        );
    }

    DistributedHeight {
        failed: None,
        height,
        parent: built.parent,
        block: built.block,
        home: built.home,
        leader: built.leader,
        home_members: built.home_members,
        home_owners: built.home_owners,
        home_fork: built.home_fork,
        home_commit_rel,
        verifies,
        idle_forks,
        missed,
        cost,
        n_txs,
        header_bytes,
        body_bytes,
        build_cost: built.build_cost,
        block_tid,
    }
}

/// Stage 3: every remote cluster's PBFT round (collaborative verify +
/// votes), one after another, zero-based.
///
/// A free function over an owned payload so a pipeline worker can run
/// it without touching [`IciNetwork`].
pub(crate) fn stage_verify(distributed: DistributedHeight) -> VerifiedHeight {
    let _span = ici_telemetry::span!("core/stage_verify");
    let tracing = ici_trace::enabled();
    let cost = distributed.cost;
    let header_bytes = distributed.header_bytes;
    let body_bytes = distributed.body_bytes;
    let n_txs = distributed.n_txs;
    let height = distributed.height;

    let mut cluster_commits_rel = BTreeMap::new();
    let mut committed = Vec::new();
    let mut missed = distributed.missed;
    let mut remote_forks = Vec::new();
    if distributed.failed.is_none() {
        cluster_commits_rel.insert(distributed.home, distributed.home_commit_rel);
        committed.push(ClusterStorage {
            members: distributed.home_members,
            owners: distributed.home_owners,
        });
        for rv in distributed.verifies {
            let _cluster_span =
                ici_telemetry::span!("core/remote_commit", cluster = rv.cluster.get());
            let mut fork = rv.fork;
            let c_remote = rv.members.len();
            let owners = &rv.owners;
            let report = run_pbft_commit(
                &mut fork,
                PbftInputs {
                    members: &rv.members,
                    leader: rv.leader,
                    start: rv.arrival_rel,
                    payload: |m| {
                        if owners.contains(&m) {
                            (MessageKind::BlockBody, header_bytes + body_bytes)
                        } else {
                            (MessageKind::BlockHeader, header_bytes)
                        }
                    },
                    validation: |_| {
                        cost.collaborative_member_validation(n_txs, body_bytes, c_remote)
                    },
                },
            );
            remote_forks.push(fork);
            match report.quorum_commit() {
                Some(t) => {
                    cluster_commits_rel.insert(rv.cluster, t);
                    committed.push(ClusterStorage {
                        members: rv.members,
                        owners: rv.owners,
                    });
                }
                None => missed.push(rv.cluster),
            }
        }
    }
    remote_forks.extend(distributed.idle_forks);
    // The home cluster's commit is always in the map on success, so
    // `max` has a witness; fall back to it rather than panicking.
    let network_commit_rel = cluster_commits_rel
        .values()
        .max()
        .copied()
        .unwrap_or(distributed.home_commit_rel);
    if tracing && distributed.failed.is_none() {
        ici_trace::stage(
            "core/verify",
            distributed.home_commit_rel.as_micros(),
            network_commit_rel
                .saturating_since(distributed.home_commit_rel)
                .as_micros(),
            height,
            None,
            None,
            body_bytes,
            ici_trace::derive_id(distributed.block_tid, 5),
            distributed.block_tid,
        );
    }

    VerifiedHeight {
        failed: distributed.failed,
        height,
        parent: distributed.parent,
        block: distributed.block,
        home: distributed.home,
        leader: distributed.leader,
        home_fork: distributed.home_fork,
        remote_forks,
        home_commit_rel: distributed.home_commit_rel,
        cluster_commits_rel,
        committed,
        network_commit_rel,
        missed,
        n_txs,
        body_bytes,
        build_cost: distributed.build_cost,
        block_tid: distributed.block_tid,
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
            for m in net.membership().active_members(cluster) {
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

        // The pipeline stage spans descend from the block root and sit
        // inside its [proposed_at, network_commit] window after the
        // commit-time shift.
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
        let members = net.membership().active_members(home);
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
}
