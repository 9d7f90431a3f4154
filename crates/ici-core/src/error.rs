//! Error types of the core protocol.

use std::error::Error;
use std::fmt;

use crate::config::ConfigError;
use ici_chain::block::Height;
use ici_chain::transaction::TxId;
use ici_net::node::NodeId;

/// Errors surfaced by the ICIStrategy network.
#[derive(Clone, Debug, PartialEq)]
pub enum IciError {
    /// Configuration failed validation.
    Config(ConfigError),
    /// No live leader could be elected in the proposer cluster.
    NoLeader,
    /// The proposer cluster could not assemble a commit quorum.
    NoQuorum {
        /// Cluster that failed to commit.
        cluster: u32,
        /// Members of it that were live when the vote ran.
        live: usize,
        /// Quorum required.
        needed: usize,
    },
    /// A queried block does not exist.
    UnknownHeight(Height),
    /// A queried transaction is not on the committed chain.
    UnknownTransaction(TxId),
    /// The queried body is not retrievable from any live node.
    BodyUnavailable(Height),
    /// No live node can send a joiner the header chain.
    HeadersUnavailable,
    /// The node id is not part of the network.
    UnknownNode(NodeId),
    /// Operation requires a live node but it is crashed.
    NodeDown(NodeId),
}

impl fmt::Display for IciError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IciError::Config(e) => write!(f, "invalid configuration: {e}"),
            IciError::NoLeader => f.write_str("no live leader available"),
            IciError::NoQuorum {
                cluster,
                live,
                needed,
            } => write!(
                f,
                "cluster c{cluster} cannot reach quorum: {live} live, {needed} needed"
            ),
            IciError::UnknownHeight(h) => write!(f, "no block at height {h}"),
            IciError::UnknownTransaction(id) => write!(f, "no transaction {id} on chain"),
            IciError::BodyUnavailable(h) => {
                write!(f, "body at height {h} unavailable from any live node")
            }
            IciError::HeadersUnavailable => {
                f.write_str("header chain unavailable from any live node")
            }
            IciError::UnknownNode(n) => write!(f, "unknown node {n}"),
            IciError::NodeDown(n) => write!(f, "node {n} is crashed"),
        }
    }
}

impl Error for IciError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IciError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for IciError {
    fn from(e: ConfigError) -> IciError {
        IciError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(IciError::Config(ConfigError::ZeroNodes)
            .to_string()
            .contains("nodes"));
        assert!(IciError::UnknownHeight(9).to_string().contains('9'));
        let id = ici_crypto::Sha256::digest(b"absent");
        assert!(IciError::UnknownTransaction(id)
            .to_string()
            .contains(&id.to_string()));
        assert!(IciError::NoQuorum {
            cluster: 2,
            live: 3,
            needed: 5
        }
        .to_string()
        .contains("c2"));
    }
}
