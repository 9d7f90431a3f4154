//! **E6 / Fig. availability — chain availability under node failures.**
//!
//! Spreading bodies over `r` of `c` members trades storage for failure
//! slack. This experiment crashes a random fraction of all nodes and
//! audits every cluster: what fraction of heights is still served by at
//! least one live in-cluster owner, per replication factor — then runs
//! the re-replication protocol and reports the repaired availability and
//! the repair traffic it cost.
//!
//! Run: `cargo run --release -p ici-bench -- e6 [--paper]`

use ici_bench::{cluster_size, ici_config, standard_workload, Report, Scale};
use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_sim::runner::run_ici;
use ici_sim::table::Table;
use ici_storage::stats::format_bytes;

/// Deterministic pseudo-random crash set: `count` distinct nodes of `n`.
fn crash_set(n: usize, count: usize, seed: u64) -> Vec<NodeId> {
    let mut picked = Vec::new();
    let mut state = seed | 1;
    let mut seen = std::collections::HashSet::new();
    while picked.len() < count && seen.len() < n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = ((state >> 33) as usize) % n;
        if seen.insert(idx) {
            picked.push(NodeId::new(idx as u64));
        }
    }
    picked
}

pub fn run(scale: Scale) -> Report {
    let n = match scale {
        Scale::Small => 192,
        Scale::Paper => 1_024,
    };
    let c = cluster_size(scale);
    let blocks = 25;
    let txs = 30;

    let fractions = [0.05f64, 0.10, 0.20, 0.30, 0.40, 0.50];
    let mut table = Table::new(
        format!("E6: availability under random crashes, N={n}, c={c}, {blocks} blocks"),
        [
            "r",
            "failed %",
            "min cluster avail",
            "mean cluster avail",
            "after repair",
            "repair bytes",
            "cross-cluster fetches",
            "lost heights",
        ],
    );

    for r in [1usize, 2, 3] {
        for &frac in &fractions {
            let (mut network, _) =
                run_ici(ici_config(n, c, r, 21), blocks, txs, standard_workload(21));

            let crashed = crash_set(n, (n as f64 * frac) as usize, 77 + r as u64);
            for node in &crashed {
                network.crash_node(*node).expect("known node");
            }

            let reports = network.audit_all();
            let min_avail = reports
                .iter()
                .map(|rep| rep.availability())
                .fold(f64::INFINITY, f64::min);
            let mean_avail =
                reports.iter().map(|rep| rep.availability()).sum::<f64>() / reports.len() as f64;

            let repair_before = network.net().meter().kind(MessageKind::Repair).bytes;
            let repair_reports = network.repair_all();
            let repair_bytes =
                network.net().meter().kind(MessageKind::Repair).bytes - repair_before;
            let fetched: usize = repair_reports
                .iter()
                .map(|rep| rep.cross_cluster_fetches.len())
                .sum();
            let lost: usize = repair_reports
                .iter()
                .map(|rep| rep.unrecoverable.len())
                .sum();

            let after = network.audit_all();
            let min_after = after
                .iter()
                .map(|rep| rep.availability())
                .fold(f64::INFINITY, f64::min);

            table.row([
                r.to_string(),
                format!("{:.0}%", frac * 100.0),
                format!("{min_avail:.4}"),
                format!("{mean_avail:.4}"),
                format!("{min_after:.4}"),
                format_bytes(repair_bytes),
                fetched.to_string(),
                lost.to_string(),
            ]);
        }
    }

    Report {
        id: "E6",
        title: "Availability and recovery under node failures",
        params: format!("scale={scale:?}, N={n}, c={c}, blocks={blocks}, txs/block={txs}"),
        tables: vec![table],
        closing: None,
    }
}
