//! Closed-form storage and bootstrap models.
//!
//! The simulator measures; these formulas predict. The experiment harness
//! prints both so any disagreement between model and measurement is visible
//! in the tables (they agree to within header rounding), and the analytic
//! forms extend the sweeps to scales the simulator need not materialise.
//!
//! A joiner downloads what a member of its group stores, so each per-node
//! formula is also its strategy's bootstrap download.
//!
//! Notation: a ledger of `B` blocks with mean body size `s` and header size
//! `H`; network of `N` nodes; ICI clusters of size `c` with replication
//! `r`; RapidChain committees of size `m` giving `k = ⌈N/m⌉` shards.

use ici_chain::block::BlockHeader;

/// Shape of the ledger the strategies store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerShape {
    /// Total blocks across the whole system.
    pub blocks: u64,
    /// Mean encoded body size in bytes.
    pub mean_body_bytes: u64,
}

impl LedgerShape {
    /// Total ledger bytes (headers + bodies).
    pub fn total_bytes(&self) -> u64 {
        self.blocks * (BlockHeader::ENCODED_LEN as u64 + self.mean_body_bytes)
    }
}

/// Per-node storage under full replication: the whole ledger.
pub fn full_replication_per_node(shape: LedgerShape) -> f64 {
    shape.total_bytes() as f64
}

/// Per-node storage under RapidChain: the node's shard, fully replicated.
/// The ledger's `B` blocks are spread evenly over `k = ⌈N/m⌉` shards.
pub fn rapidchain_per_node(shape: LedgerShape, nodes: usize, committee_size: usize) -> f64 {
    let k = nodes.div_ceil(committee_size).max(1) as f64;
    shape.total_bytes() as f64 / k
}

/// Per-node storage under ICIStrategy: the full header chain plus an
/// `r/c` share of all bodies.
pub fn ici_per_node(shape: LedgerShape, cluster_size: usize, replication: usize) -> f64 {
    let headers = shape.blocks as f64 * BlockHeader::ENCODED_LEN as f64;
    let share = replication as f64 / cluster_size as f64;
    headers + shape.blocks as f64 * shape.mean_body_bytes as f64 * share
}

/// The headline ratio: ICI per-node storage over RapidChain per-node
/// storage. ≈ `k·r/c` for bodies ≫ headers; 0.25 at the paper's scales
/// (N = 4000, committees of 250 ⇒ k = 16; c = 64, r = 1).
pub fn ici_to_rapidchain_ratio(
    shape: LedgerShape,
    nodes: usize,
    committee_size: usize,
    cluster_size: usize,
    replication: usize,
) -> f64 {
    ici_per_node(shape, cluster_size, replication)
        / rapidchain_per_node(shape, nodes, committee_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> LedgerShape {
        LedgerShape {
            blocks: 10_000,
            mean_body_bytes: 1_000_000, // 1 MB blocks ⇒ headers negligible
        }
    }

    #[test]
    fn paper_scale_ratio_is_25_percent() {
        // N = 4000, committees of 250 ⇒ 16 shards; clusters of 64, r = 1.
        let ratio = ici_to_rapidchain_ratio(shape(), 4_000, 250, 64, 1);
        assert!(
            (ratio - 0.25).abs() < 0.01,
            "expected ≈0.25, got {ratio:.4}"
        );
    }

    #[test]
    fn full_replication_dominates_everything() {
        let s = shape();
        let full = full_replication_per_node(s);
        let rapid = rapidchain_per_node(s, 4_000, 250);
        assert!(full > rapid);
        assert!(full > ici_per_node(s, 64, 2));
        assert!(ici_per_node(s, 64, 1) < rapid);
    }

    #[test]
    fn ici_scales_inverse_with_cluster_size() {
        let s = shape();
        let c32 = ici_per_node(s, 32, 1);
        let c64 = ici_per_node(s, 64, 1);
        // Bodies dominate: doubling c roughly halves storage.
        assert!(c64 < c32 * 0.55, "c64 {c64} vs c32 {c32}");
    }

    #[test]
    fn ici_scales_linear_with_replication() {
        let s = shape();
        let r1 = ici_per_node(s, 64, 1);
        let r2 = ici_per_node(s, 64, 2);
        let headers = s.blocks as f64 * BlockHeader::ENCODED_LEN as f64;
        assert!((r2 - headers) / (r1 - headers) > 1.99);
    }

    #[test]
    fn rapidchain_shrinks_with_more_shards() {
        let s = shape();
        assert!(rapidchain_per_node(s, 8_000, 250) < rapidchain_per_node(s, 4_000, 250));
    }

    #[test]
    fn header_only_ledger_edge_case() {
        let s = LedgerShape {
            blocks: 100,
            mean_body_bytes: 0,
        };
        // With empty bodies ICI still stores all headers.
        assert_eq!(
            ici_per_node(s, 64, 1),
            100.0 * BlockHeader::ENCODED_LEN as f64
        );
    }
}
