//! Configuration of an ICIStrategy network.

use ici_chain::block::Height;
use ici_chain::genesis::GenesisConfig;
use ici_cluster::kmeans::{balanced_kmeans, kmeans, random_partition, KMeansConfig};
use ici_cluster::partition::Partition;
use ici_crypto::sha256::Digest;
use ici_net::link::LinkModel;
use ici_net::node::NodeId;
use ici_net::topology::Topology;
use ici_storage::assignment::{
    AssignmentStrategy, RendezvousAssignment, RingAssignment, RoundRobinAssignment,
};

/// A violated configuration constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `nodes` was zero.
    ZeroNodes,
    /// `cluster_size` was zero.
    ZeroClusterSize,
    /// `replication` was zero.
    ZeroReplication,
    /// `replication` exceeded `cluster_size`, so bodies could not be
    /// placed on distinct members.
    ReplicationExceedsClusterSize {
        /// Requested replication factor.
        replication: usize,
        /// Configured cluster size.
        cluster_size: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroNodes => f.write_str("nodes must be positive"),
            ConfigError::ZeroClusterSize => f.write_str("cluster_size must be positive"),
            ConfigError::ZeroReplication => f.write_str("replication must be positive"),
            ConfigError::ReplicationExceedsClusterSize {
                replication,
                cluster_size,
            } => write!(
                f,
                "replication {replication} exceeds cluster size {cluster_size}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which clustering algorithm forms the clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Clustering {
    /// Balanced k-means over latency coordinates (the paper's intent:
    /// clusters are network-proximate and near-equal-sized).
    #[default]
    BalancedKMeans,
    /// Plain k-means (sizes float with geography).
    KMeans,
    /// Uniform random partition (clustering baseline).
    Random,
}

impl Clustering {
    /// Partitions `topology`'s nodes into `k` clusters with this
    /// algorithm, seeded by `seed`.
    pub(crate) fn partition(self, topology: &Topology, k: usize, seed: u64) -> Partition {
        match self {
            Clustering::BalancedKMeans => balanced_kmeans(topology, &KMeansConfig::with_k(k, seed)),
            Clustering::KMeans => kmeans(topology, &KMeansConfig::with_k(k, seed)),
            Clustering::Random => random_partition(topology.len(), k, seed),
        }
    }
}

/// Which block→owner assignment runs inside each cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Assignment {
    /// Rendezvous (HRW) hashing — default, minimal churn disruption.
    #[default]
    Rendezvous,
    /// Consistent-hash ring with 16 virtual nodes per member.
    Ring,
    /// Round-robin striping by height.
    RoundRobin,
}

/// The configured assignment is the strategy it names.
impl AssignmentStrategy for Assignment {
    fn owners(&self, id: &Digest, height: Height, members: &[NodeId], r: usize) -> Vec<NodeId> {
        match self {
            Assignment::Rendezvous => RendezvousAssignment.owners(id, height, members, r),
            Assignment::Ring => RingAssignment::default().owners(id, height, members, r),
            Assignment::RoundRobin => RoundRobinAssignment.owners(id, height, members, r),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Assignment::Rendezvous => RendezvousAssignment.name(),
            Assignment::Ring => RingAssignment::default().name(),
            Assignment::RoundRobin => RoundRobinAssignment.name(),
        }
    }
}

/// Full configuration of an ICIStrategy simulation.
#[derive(Clone, Debug)]
pub struct IciConfig {
    /// Total number of nodes `N`.
    pub nodes: usize,
    /// Target cluster size `c` (the number of clusters is `⌈N/c⌉`).
    pub cluster_size: usize,
    /// Intra-cluster replication factor `r` (bodies per block per cluster).
    pub replication: usize,
    /// Clustering algorithm.
    pub clustering: Clustering,
    /// Intra-cluster block assignment.
    pub assignment: Assignment,
    /// Link model (latency/bandwidth/jitter).
    pub link: LinkModel,
    /// Chain origin.
    pub genesis: GenesisConfig,
    /// Master seed (topology, clustering, lotteries).
    pub seed: u64,
}

impl Default for IciConfig {
    /// A laptop-scale default: 256 nodes, clusters of 32, `r = 2`.
    fn default() -> IciConfig {
        IciConfig {
            nodes: 256,
            cluster_size: 32,
            replication: 2,
            clustering: Clustering::default(),
            assignment: Assignment::default(),
            link: LinkModel::default(),
            genesis: GenesisConfig::default(),
            seed: 42,
        }
    }
}

impl IciConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> IciConfigBuilder {
        IciConfigBuilder {
            config: IciConfig::default(),
        }
    }

    /// Number of clusters this configuration produces.
    pub fn cluster_count(&self) -> usize {
        self.nodes.div_ceil(self.cluster_size).max(1)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.cluster_size == 0 {
            return Err(ConfigError::ZeroClusterSize);
        }
        if self.replication == 0 {
            return Err(ConfigError::ZeroReplication);
        }
        if self.replication > self.cluster_size {
            return Err(ConfigError::ReplicationExceedsClusterSize {
                replication: self.replication,
                cluster_size: self.cluster_size,
            });
        }
        Ok(())
    }
}

/// Builder for [`IciConfig`].
#[derive(Clone, Debug)]
pub struct IciConfigBuilder {
    config: IciConfig,
}

impl IciConfigBuilder {
    /// Sets the node count.
    pub fn nodes(mut self, n: usize) -> IciConfigBuilder {
        self.config.nodes = n;
        self
    }

    /// Sets the target cluster size.
    pub fn cluster_size(mut self, c: usize) -> IciConfigBuilder {
        self.config.cluster_size = c;
        self
    }

    /// Sets the replication factor.
    pub fn replication(mut self, r: usize) -> IciConfigBuilder {
        self.config.replication = r;
        self
    }

    /// Sets the clustering algorithm.
    pub fn clustering(mut self, c: Clustering) -> IciConfigBuilder {
        self.config.clustering = c;
        self
    }

    /// Sets the assignment strategy.
    pub fn assignment(mut self, a: Assignment) -> IciConfigBuilder {
        self.config.assignment = a;
        self
    }

    /// Sets the link model.
    pub fn link(mut self, l: LinkModel) -> IciConfigBuilder {
        self.config.link = l;
        self
    }

    /// Sets the genesis configuration.
    pub fn genesis(mut self, g: GenesisConfig) -> IciConfigBuilder {
        self.config.genesis = g;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, s: u64) -> IciConfigBuilder {
        self.config.seed = s;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn build(self) -> Result<IciConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(IciConfig::default().validate().is_ok());
        assert_eq!(IciConfig::default().cluster_count(), 8);
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = IciConfig::builder()
            .nodes(1000)
            .cluster_size(50)
            .replication(3)
            .clustering(Clustering::Random)
            .assignment(Assignment::RoundRobin)
            .seed(7)
            .build()
            .expect("valid");
        assert_eq!(cfg.nodes, 1000);
        assert_eq!(cfg.cluster_count(), 20);
        assert_eq!(cfg.clustering, Clustering::Random);
        assert_eq!(cfg.assignment, Assignment::RoundRobin);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(IciConfig::builder().nodes(0).build().is_err());
        assert!(IciConfig::builder().cluster_size(0).build().is_err());
        assert!(IciConfig::builder().replication(0).build().is_err());
        assert!(IciConfig::builder()
            .cluster_size(4)
            .replication(5)
            .build()
            .is_err());
    }

    #[test]
    fn cluster_count_rounds_up() {
        let cfg = IciConfig::builder()
            .nodes(100)
            .cluster_size(33)
            .build()
            .expect("valid");
        assert_eq!(cfg.cluster_count(), 4);
    }
}
