//! Clustering substrate for ICIStrategy.
//!
//! * [`partition`] — the node→cluster assignment and its quality metrics;
//! * [`mod@kmeans`] — latency-aware clustering (k-means, balanced k-means) and
//!   the random-partition baseline;
//! * [`membership`] — cluster membership and the join policies.
//!
//! # Examples
//!
//! ```
//! use ici_cluster::kmeans::{balanced_kmeans, KMeansConfig};
//! use ici_net::topology::{Placement, Topology};
//!
//! let topo = Topology::generate(64, &Placement::default(), 7);
//! let partition = balanced_kmeans(&topo, &KMeansConfig::with_k(4, 7));
//! assert_eq!(partition.node_count(), 64);
//! assert!(partition.imbalance() <= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kmeans;
pub mod membership;
pub mod partition;

pub use kmeans::{balanced_kmeans, kmeans, random_partition, KMeansConfig};
pub use membership::{JoinPolicy, Membership};
pub use partition::{ClusterId, Partition};
