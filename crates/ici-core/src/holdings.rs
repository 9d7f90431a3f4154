//! Per-node storage holdings (metadata-level).
//!
//! Large sweeps (4,000 nodes × thousands of blocks) cannot afford to
//! materialise every replica's transaction data; what the experiments need
//! is byte-exact *accounting*. [`NodeHoldings`] tracks, per node, which
//! body heights it holds and the exact bytes, with headers accounted
//! analytically (every node keeps the full header chain). These holdings
//! are the only per-node store a run writes.

use ici_chain::block::{BlockHeader, Height};
use ici_storage::audit::HeightSet;

/// What one node stores.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeHoldings {
    /// Number of headers held (== chain length known to the node).
    headers: u64,
    /// Heights whose bodies are held.
    bodies: HeightSet,
    /// Exact bytes of held bodies.
    body_bytes: u64,
}

impl NodeHoldings {
    /// An empty store.
    pub fn new() -> NodeHoldings {
        NodeHoldings::default()
    }

    /// Records receipt of one more header.
    pub fn add_header(&mut self) {
        self.headers += 1;
    }

    /// Records receipt of the body at `height` of `bytes` bytes. Returns
    /// whether it was new.
    pub fn add_body(&mut self, height: Height, bytes: u64) -> bool {
        if self.bodies.insert(height) {
            self.body_bytes += bytes;
            true
        } else {
            false
        }
    }

    /// Drops the body at `height` of `bytes` bytes. Returns whether it was
    /// held.
    pub fn drop_body(&mut self, height: Height, bytes: u64) -> bool {
        if self.bodies.remove(&height) {
            self.body_bytes = self.body_bytes.saturating_sub(bytes);
            true
        } else {
            false
        }
    }

    /// Whether the body at `height` is held.
    pub fn has_body(&self, height: Height) -> bool {
        self.bodies.contains(&height)
    }

    /// Heights held, ascending.
    pub fn body_heights(&self) -> &HeightSet {
        &self.bodies
    }

    /// Number of bodies held.
    pub fn body_count(&self) -> usize {
        self.bodies.len()
    }

    /// Number of headers held.
    pub fn header_count(&self) -> u64 {
        self.headers
    }

    /// Byte footprint of held headers.
    pub fn header_bytes(&self) -> u64 {
        self.headers * BlockHeader::ENCODED_LEN as u64
    }

    /// Byte footprint of held bodies.
    pub fn body_bytes(&self) -> u64 {
        self.body_bytes
    }

    /// Total byte footprint (the per-node storage the tables report).
    pub fn total_bytes(&self) -> u64 {
        self.header_bytes() + self.body_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_tracks_adds_and_drops() {
        let mut h = NodeHoldings::new();
        h.add_header();
        h.add_header();
        assert!(h.add_body(1, 500));
        assert!(!h.add_body(1, 500), "duplicate add must be idempotent");
        assert!(h.add_body(0, 300));

        assert_eq!(h.header_count(), 2);
        assert_eq!(h.header_bytes(), 2 * BlockHeader::ENCODED_LEN as u64);
        assert_eq!(h.body_bytes(), 800);
        assert_eq!(h.total_bytes(), h.header_bytes() + 800);
        assert_eq!(h.body_count(), 2);
        assert!(h.has_body(0));

        assert!(h.drop_body(1, 500));
        assert!(!h.drop_body(1, 500));
        assert_eq!(h.body_bytes(), 300);
        assert_eq!(h.body_heights().iter().collect::<Vec<_>>(), vec![0]);
    }
}
