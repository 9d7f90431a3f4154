//! Storage layer for ICIStrategy: assignment, auditing, recovery, stats.
//!
//! * [`assignment`] — [`Assignment`], the deterministic block→owner rule
//!   inside a cluster (rendezvous hashing, consistent ring, round-robin);
//! * [`audit`] — the intra-cluster integrity invariant checker;
//! * [`recovery`] — re-replication planning after member failures;
//! * [`stats`] — per-node footprint summaries for the storage tables.
//!
//! # Examples
//!
//! ```
//! use ici_crypto::sha256::Sha256;
//! use ici_net::node::NodeId;
//! use ici_storage::assignment::{Assignment, AssignmentStrategy};
//!
//! let members: Vec<NodeId> = (0..16).map(NodeId::new).collect();
//! let block_id = Sha256::digest(b"block 42");
//! let owners = Assignment::Rendezvous.owners(&block_id, 42, &members, 2);
//! assert_eq!(owners.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod audit;
pub mod recovery;
pub mod stats;

pub use assignment::{Assignment, AssignmentStrategy};
pub use audit::{
    audit_cluster, audit_replicas, HeightSet, Holdings, IntegrityReport, ReplicaCount,
};
pub use recovery::{plan_chain_recovery, plan_recovery, BlockRef, RecoveryPlan, Transfer};
pub use stats::{format_bytes, StorageStats};
