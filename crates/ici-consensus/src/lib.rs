//! Consensus and dissemination protocols for the reproduction.
//!
//! * [`mod@quorum`] — BFT quorum arithmetic (`f`, `2f+1`);
//! * [`leader`] — deterministic per-height leader lotteries;
//! * [`pbft`] — the message-metered three-phase intra-cluster commit used
//!   by ICIStrategy (payload and validation cost are injected, which is how
//!   collaborative verification plugs in);
//! * [`gossip`] — epidemic flooding (full-replication baseline transport);
//! * [`ida`] — Reed–Solomon IDA-gossip (RapidChain baseline transport).
//!
//! # Examples
//!
//! ```
//! use ici_consensus::pbft::{run_pbft_commit, PbftInputs};
//! use ici_net::link::LinkModel;
//! use ici_net::metrics::MessageKind;
//! use ici_net::network::Network;
//! use ici_net::node::NodeId;
//! use ici_net::time::{Duration, SimTime};
//! use ici_net::topology::{Placement, Topology};
//!
//! let topo = Topology::generate(7, &Placement::default(), 1);
//! let mut net = Network::new(topo, LinkModel::default());
//! let members: Vec<NodeId> = (0..7).map(NodeId::new).collect();
//!
//! let report = run_pbft_commit(&mut net, PbftInputs {
//!     members: &members,
//!     leader: NodeId::new(0),
//!     start: SimTime::ZERO,
//!     payload: |_| (MessageKind::BlockFull, 100_000),
//!     validation: |_| Duration::from_millis(3),
//! });
//! assert!(report.is_committed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gossip;
pub mod ida;
pub mod leader;
pub mod pbft;
pub mod quorum;

pub use gossip::{coverage, gossip_flood, GossipConfig};
pub use ida::{run_ida_dissemination, IdaConfig};
pub use leader::{elect_leader, elect_live_leader};
pub use pbft::{run_pbft_commit, run_vote_rounds, CommitReport, PbftInputs, VOTE_BYTES};
pub use quorum::{has_quorum, max_faulty, quorum};
