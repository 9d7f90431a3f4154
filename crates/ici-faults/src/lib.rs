//! Deterministic fault injection for the ICIStrategy simulator.
//!
//! The abstract's load-bearing claims — in-cluster collaborative storage
//! and verification, cheap bootstrap — only mean something when nodes
//! crash, lag, and rejoin. This crate turns an `ici-rng` seed into a
//! complete, replayable fault schedule:
//!
//! * [`plan`] — [`FaultPlan`]: a round-by-round schedule of node crashes
//!   and restarts (independent and cluster-correlated churn), network
//!   partition windows, a message-fault profile (drop / delay /
//!   duplicate / reorder), and Byzantine actor faults (equivocating
//!   proposers, false-verdict verifiers via [`ByzantineConfig`]). Same
//!   seed ⇒ byte-identical schedule, on every platform — failures found
//!   in CI replay exactly. Byzantine draws come from a dedicated stream,
//!   so crash-only plans are unchanged by the knob existing.
//!   [`FaultPlan::send_faults`] gives each round's
//!   [`ici_net::FaultConfig`] for the send path (round-keyed sub-seeds,
//!   so every round sees a fresh but reproducible loss pattern, and the
//!   partition open that round).
//!
//! A plan is just its rounds: the consumer applies each round's crashes
//! and restarts to its one network, which is the only live set. The
//! crate is std-only and panic-free; schedule construction returns
//! typed [`FaultError`]s instead of asserting. It deliberately knows
//! nothing about chains or storage: `ici-sim`'s run driver owns applying
//! the rounds to a network and driving repair.
//!
//! # Examples
//!
//! ```
//! use ici_faults::plan::{ChurnConfig, FaultPlanConfig};
//! use ici_net::node::NodeId;
//!
//! let clusters: Vec<Vec<NodeId>> = (0..3)
//!     .map(|c| (0..8).map(|i| NodeId::new(c * 8 + i)).collect())
//!     .collect();
//! let plan = FaultPlanConfig::new(7, 12, clusters)
//!     .churn(ChurnConfig {
//!         crash_prob: 0.05,
//!         restart_prob: 0.4,
//!         ..ChurnConfig::default()
//!     })
//!     .build()
//!     .expect("valid plan");
//!
//! // Same seed, same schedule — bit for bit.
//! let replay = FaultPlanConfig::new(7, 12, plan.clusters().to_vec())
//!     .churn(ChurnConfig {
//!         crash_prob: 0.05,
//!         restart_prob: 0.4,
//!         ..ChurnConfig::default()
//!     })
//!     .build()
//!     .expect("valid plan");
//! assert_eq!(plan.render(), replay.render());
//! assert_eq!(plan.fingerprint(), replay.fingerprint());
//!
//! for (round, send_faults) in plan.rounds().iter().zip(plan.send_faults()) {
//!     // apply round.crashes / round.restarts to the network under test,
//!     // install send_faults on the send path...
//!     assert!(round.crashes.len() <= 24);
//!     assert!(send_faults.is_inert(), "no message faults, no partitions");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;

pub use plan::{
    ByzantineConfig, ChurnConfig, FaultError, FaultPlan, FaultPlanConfig, MessageFaultSpec,
    PartitionPolicy, RoundFaults, VerdictFault,
};
