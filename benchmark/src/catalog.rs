//! The names the benchmark reports: workloads, end-to-end metrics and
//! the per-layer ledger. `BENCHMARK.json` at the repo root is printed
//! from this file (`--manifest`) and a test keeps the two equal.

use crate::json::Value;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 17;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// A workload's fixed name and the one-line reason it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "ici_wide",
        why: "N=512 c=16 r=2 (32 clusters), 300 blocks x 20 tx: many clusters, tiny blocks, so consensus vote rounds, owner assignment and net fork/absorb dominate and chain/crypto do little",
    },
    WorkloadInfo {
        name: "ici_bigblock",
        why: "N=64 c=16 r=2 (4 clusters), 48 blocks x 1000 tx over 4096 accounts: few clusters, heavy blocks, so chain validate/build, flat state root, signatures and Merkle dominate; mirror of ici_wide",
    },
    WorkloadInfo {
        name: "state_scale",
        why: "1M accounts zipf 1.1, 32 rounds of 1000 tx with x3 bursts, pool 2000, sharded v2 root: no network or consensus, the only working set (~195 MiB) larger than every cache; carries memory",
    },
    WorkloadInfo {
        name: "ici_churn",
        why: "N=128 c=16 r=2, 60 rounds x 40 tx, one fixed e_fault campaign: sequential staged lifecycle with crashes, partitions, message faults, repair and Merkle audit every round; carries the refusal share",
    },
    WorkloadInfo {
        name: "ici_read",
        why: "300-block chain on N=256 c=16 r=2 with 1 node in 8 crashed, 800 reads: 85% body queries, 10% transaction proofs, 5% joins; reads beside writes on the same core/storage structures",
    },
    WorkloadInfo {
        name: "strategy_compare",
        why: "ICI, full replication and RapidChain on one stream, N=512 c=16 r=1 committee 128, 120 blocks x 40 tx: the paper's comparison at shards*r/c = 0.25; only run of baselines, IDA, gossip",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `--check-repeat` compares two readings of an end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Repeat {
    /// Host-side: may differ by the bound.
    Within(f64),
    /// A pure function of the seed: must not differ at all.
    Exact,
}

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub repeat: Repeat,
    /// Defined on all six workloads, hence listed under `end_to_end`
    /// in `BENCHMARK.json`; the others ride in the ledger as `e2e.*`.
    pub universal: bool,
    pub meaning: &'static str,
}

/// Bound of every host-time metric, set-up included. The contract's
/// ceiling: identical code and inputs read 3 to 12 % apart from run to
/// run on the 2-vCPU sandbox this was sized on (its CPU time itself
/// drifts by that much over minutes), and a bound has to stay clear of
/// the spread it is judged against.
const HOST_TIME_BOUND: f64 = 0.25;

/// Bound of the allocation metrics, which repeat to within 0.7 %
/// across seeds and are the steadiest host-side signal there is.
const ALLOCATION_BOUND: f64 = 0.03;

/// Unit of simulated milliseconds, kept apart from host `ms`.
pub const SIM_MS: &str = "sim_ms";

pub const END_TO_END: [EndToEnd; 15] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        repeat: Repeat::Within(HOST_TIME_BOUND),
        universal: true,
        meaning: "host time to build the system and its inputs before the timed region",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        repeat: Repeat::Within(HOST_TIME_BOUND),
        universal: true,
        meaning: "operations completed per host second of the timed region",
    },
    EndToEnd {
        name: "tx_per_s",
        unit: "1/s",
        better: Better::Higher,
        repeat: Repeat::Within(HOST_TIME_BOUND),
        universal: true,
        meaning: "transactions committed, or returned to a reader, per host second",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        repeat: Repeat::Within(HOST_TIME_BOUND),
        universal: true,
        meaning: "median host time per operation",
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        repeat: Repeat::Within(ALLOCATION_BOUND),
        universal: true,
        meaning: "heap allocations per operation in the timed region",
    },
    EndToEnd {
        name: "alloc_kib_per_op",
        unit: "KiB",
        better: Better::Lower,
        repeat: Repeat::Within(ALLOCATION_BOUND),
        universal: true,
        meaning: "heap bytes requested per operation in the timed region",
    },
    EndToEnd {
        name: "peak_live_mib",
        unit: "MiB",
        better: Better::Lower,
        repeat: Repeat::Within(0.05),
        universal: true,
        meaning: "peak live heap of the workload's process",
    },
    EndToEnd {
        name: "virt_op_ms_p50",
        unit: SIM_MS,
        better: Better::Lower,
        repeat: Repeat::Exact,
        universal: false,
        meaning: "median simulated latency of an operation",
    },
    EndToEnd {
        name: "virt_op_ms_p95",
        unit: SIM_MS,
        better: Better::Lower,
        repeat: Repeat::Exact,
        universal: false,
        meaning: "95th-percentile simulated latency of an operation",
    },
    EndToEnd {
        name: "virt_tps",
        unit: "1/sim_s",
        better: Better::Higher,
        repeat: Repeat::Exact,
        universal: false,
        meaning: "committed transactions per simulated second",
    },
    EndToEnd {
        name: "net_kib_per_op",
        unit: "KiB",
        better: Better::Lower,
        repeat: Repeat::Exact,
        universal: false,
        meaning: "simulated bytes on the wire per operation",
    },
    EndToEnd {
        name: "net_msgs_per_op",
        unit: "count",
        better: Better::Lower,
        repeat: Repeat::Exact,
        universal: false,
        meaning: "simulated messages per operation",
    },
    EndToEnd {
        name: "storage_fraction",
        unit: "ratio",
        better: Better::Lower,
        repeat: Repeat::Exact,
        universal: false,
        meaning: "ICI mean per-node stored bytes over one full replica",
    },
    EndToEnd {
        name: "storage_vs_rapidchain",
        unit: "ratio",
        better: Better::Lower,
        repeat: Repeat::Exact,
        universal: false,
        meaning: "ICI mean per-node bytes over RapidChain mean per-node bytes",
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        repeat: Repeat::Exact,
        universal: false,
        meaning: "operations failed or refused over operations attempted",
    },
];

/// One row of the per-layer ledger.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Timings are reported twice, as `<name>_p50` and `<name>_tail`.
    pub timing: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
        timing: true,
    }
}

const fn single(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        timing: false,
    }
}

pub const LAYER: [LayerMetric; 66] = [
    timing("core.build_us", "us"),
    timing("core.distribute_us", "us"),
    timing("core.verify_us", "us"),
    timing("core.commit_us", "us"),
    single("core.op_us_tail", "us", Better::Lower),
    timing("core.network_new_ms", "ms"),
    timing("core.collab_verify_us", "us"),
    timing("core.query_body_us", "us"),
    timing("core.query_tx_ms", "ms"),
    timing("core.bootstrap_ms", "ms"),
    single("core.query_local_share", "ratio", Better::Higher),
    single("core.query_cross_share", "ratio", Better::Lower),
    timing("core.repair_all_ms", "ms"),
    timing("core.merkle_audit_all_ms", "ms"),
    timing("storage.audit_all_us", "us"),
    timing("consensus.pbft_commit_us_c16", "us"),
    timing("consensus.elect_leader_ns", "ns"),
    timing("consensus.gossip_flood_ms_n512", "ms"),
    timing("consensus.ida_ms_c128", "ms"),
    timing("storage.owners_ns_c16", "ns"),
    timing("storage.plan_recovery_us", "us"),
    timing("net.send_ns", "ns"),
    timing("net.fork_absorb_us_n512", "us"),
    timing("net.topology_generate_ms", "ms"),
    timing("cluster.balanced_kmeans_ms_n512_k32", "ms"),
    single("cluster.kmeans_iters", "count", Better::Lower),
    timing("cluster.join_us", "us"),
    single("net.vote_msgs_per_op", "count", Better::Lower),
    single("net.block_kib_per_op", "KiB", Better::Lower),
    single("net.bootstrap_kib_per_op", "KiB", Better::Lower),
    timing("chain.block_validate_us", "us"),
    timing("chain.block_seal_us", "us"),
    timing("chain.state_root_v1_us_4096", "us"),
    timing("chain.state_clone_us_4096", "us"),
    timing("chain.state_apply_ns", "ns"),
    timing("chain.state_root_v2_us", "us"),
    timing("chain.validate_in_place_us", "us"),
    single("chain.dirty_buckets_per_op", "count", Better::Lower),
    timing("chain.mempool_insert_ns", "ns"),
    timing("chain.mempool_take_us", "us"),
    timing("chain.mempool_prune_ns", "ns"),
    single("chain.mempool_admit_share", "ratio", Better::Higher),
    single("chain.mempool_evictions_per_op", "count", Better::Lower),
    timing("chain.tx_encode_ns", "ns"),
    timing("chain.tx_decode_ns", "ns"),
    timing("crypto.sha256_ns_per_kib", "ns"),
    timing("crypto.sig_verify_ns", "ns"),
    timing("crypto.sig_sign_ns", "ns"),
    timing("crypto.merkle_root_us_1000", "us"),
    timing("crypto.merkle_prove_verify_us", "us"),
    timing("crypto.rs_encode_us_per_block", "us"),
    timing("crypto.rs_reconstruct_us_per_block", "us"),
    timing("baselines.full_block_us", "us"),
    timing("baselines.rapidchain_round_us", "us"),
    single("baselines.full_storage_fraction", "ratio", Better::Lower),
    single(
        "baselines.rapidchain_storage_fraction",
        "ratio",
        Better::Lower,
    ),
    timing("faults.plan_build_ms", "ms"),
    single("faults.recovery_success_share", "ratio", Better::Higher),
    single("faults.repair_kib_per_crash", "KiB", Better::Lower),
    single("sim.fault_round_growth", "ratio", Better::Lower),
    timing("workload.tx_gen_ns_1m", "ns"),
    single("par.speedup", "ratio", Better::Higher),
    single("par.par_map_overhead_us", "us", Better::Lower),
    single("telemetry.enabled_overhead_share", "ratio", Better::Lower),
    single("trace.enabled_overhead_share", "ratio", Better::Lower),
    single("bench.trace_overhead_share", "ratio", Better::Lower),
];

/// A name a run reports, with its unit and direction.
#[derive(Clone, Debug, PartialEq)]
pub struct Reported {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// What `--trace 0` reports: the end-to-end metrics every workload has.
pub fn reported_end_to_end() -> Vec<&'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.universal).collect()
}

/// What `--trace 1` reports: every ledger row (timings expanded to
/// `_p50` and `_tail`), then as `e2e.<name>` the end-to-end metrics
/// some workload lacks. A metric a workload does not measure reads 0.
pub fn reported_per_layer() -> Vec<Reported> {
    let mut out = Vec::new();
    for m in &LAYER {
        let suffixes: &[&str] = if m.timing { &["_p50", "_tail"] } else { &[""] };
        for suffix in suffixes {
            out.push(Reported {
                name: format!("{}{suffix}", m.name),
                unit: m.unit,
                better: m.better,
            });
        }
    }
    for m in END_TO_END.iter().filter(|m| !m.universal) {
        out.push(Reported {
            name: format!("e2e.{}", m.name),
            unit: m.unit,
            better: m.better,
        });
    }
    out
}

/// `BENCHMARK.json`, in the shape the benchmark contract prescribes.
pub fn manifest() -> Value {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                reported_end_to_end()
                    .into_iter()
                    .map(|m| {
                        let Repeat::Within(bound) = m.repeat else {
                            unreachable!("universal metrics are host-side")
                        };
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                            ("bound", Value::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                reported_per_layer()
                    .into_iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name.to_string()));
        }
        let e2e = reported_end_to_end();
        let layers = reported_per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert_eq!(layers.len(), 46 * 2 + 20 + 8);
        assert!(layers.len() <= 128);
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        for (name, unit) in e2e
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .chain(layers.iter().map(|m| (m.name.clone(), m.unit)))
        {
            assert!(well_formed(&name, 64), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        // Set-up is reported, in seconds, and no bound is larger than its.
        assert_eq!(
            (e2e[0].name, e2e[0].unit, e2e[0].better),
            ("setup_s", "s", Better::Lower)
        );
        let bound = |m: &EndToEnd| match m.repeat {
            Repeat::Within(bound) => bound,
            Repeat::Exact => panic!("{} has no bound", m.name),
        };
        for m in &e2e {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25 && bound(m) <= bound(e2e[0]));
        }
    }

    #[test]
    fn every_layer_name_starts_with_a_known_layer() {
        const LAYERS: [&str; 16] = [
            "crypto",
            "chain",
            "net",
            "cluster",
            "storage",
            "consensus",
            "core",
            "baselines",
            "faults",
            "workload",
            "par",
            "sim",
            "telemetry",
            "trace",
            "bench",
            "e2e",
        ];
        for m in reported_per_layer() {
            let layer = m.name.split('.').next().expect("non-empty");
            assert!(LAYERS.contains(&layer), "{}", m.name);
        }
    }

    #[test]
    fn committed_manifest_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, manifest());
        assert_eq!(text, manifest().render_pretty());
    }
}
