#!/usr/bin/env bash
# The full gate, exactly as CI runs it. Fail fast: the first failing
# step aborts the run. Everything here is offline — the workspace has
# no registry dependencies (enforced by ici-lint's `deps` rule).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> SHA-256 kernel (ici-crypto differential suite)"
# Every host-time number below depends on which compression kernel the
# CPU selected, so name it once. A CPU that lists sha_ni but runs the
# suite with the hardware kernel skipped has a detection bug: digests
# stay right (the portable path), so only this check would notice the
# ~6x hashing cost coming back.
KERNEL_OUT=$(cargo test -q -p ici-crypto --lib kernels_agree -- --nocapture 2>&1) || {
    printf '%s\n' "$KERNEL_OUT"
    exit 1
}
printf '%s\n' "$KERNEL_OUT" | grep -m1 '^sha256 backend: ' | sed 's/^/    /'
if grep -qw sha_ni /proc/cpuinfo 2>/dev/null &&
    printf '%s\n' "$KERNEL_OUT" | grep -q 'hardware kernel skipped'; then
    echo "/proc/cpuinfo lists sha_ni but ici-crypto fell back to the portable kernel"
    exit 1
fi

echo "==> cargo test"
cargo test -q --workspace

echo "==> benchmark package (tests, then all six workloads at smoke size)"
# benchmark/ is its own workspace, so --workspace never reaches it. Its
# src/surface.rs is the frozen list of repo functions the benchmark
# calls: building and smoke-running it here is what catches a PR that
# renames or drops one of them.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- --smoke >/dev/null
# benchmark/ is frozen, its lock file included: cargo rewrites the lock
# when a repo crate's manifest gains or drops an in-repo dependency.
git diff --exit-code -- benchmark BENCHMARK.json

echo "==> ici-lint"
cargo run -q -p ici-lint

echo "==> ici-lint JSON report matches committed results/LINT.json"
cargo run -q -p ici-lint -- --format json > results/LINT.check.json
cmp results/LINT.check.json results/LINT.json || {
    echo "lint JSON drifted from results/LINT.json; regenerate it with"
    echo "  cargo run -q -p ici-lint -- --format json > results/LINT.json"
    rm results/LINT.check.json
    exit 1
}
rm results/LINT.check.json

echo "==> every committed experiment record regenerates byte for byte (all e* bins)"
# The records are the oracle for any change to the runners, the
# lifecycle or the workload: each bin at its default seed must rewrite
# its committed results/e*.json without moving a byte.
for src in crates/ici-bench/src/bin/e*.rs; do
    "./target/release/$(basename "$src" .rs)" >/dev/null
done
git diff --quiet -- 'results/e*.json' || {
    echo "experiment records drifted from the committed results/:"
    git diff --stat -- 'results/e*.json'
    exit 1
}

echo "==> telemetry smoke (E1 with ICI_TELEMETRY=1)"
ICI_TELEMETRY=1 cargo run -q --release -p ici-bench --bin e1_storage >/dev/null
python3 - <<'EOF'
import json
with open("results/e1.json") as f:
    record = json.load(f)
t = record.get("telemetry")
assert t is not None, "results/e1.json has no telemetry section"
assert t["spans"], "telemetry.spans is empty"
assert t["counters"], "telemetry.counters is empty"
subsystems = {s["name"].split("/", 1)[0] for s in t["spans"]}
stage_spans = {s["name"] for s in t["spans"] if s["name"].startswith("core/stage_")}
assert {"core/stage_build", "core/stage_distribute", "core/stage_verify",
        "core/stage_commit"} <= stage_spans, f"lifecycle stage spans missing: {stage_spans}"
series = record.get("series")
assert series, "results/e1.json has no per-round series under ICI_TELEMETRY=1"
sample = series[0]["samples"][0]
for key in ("committed_txs", "mempool_depth", "live_nodes", "stored_bytes", "traffic"):
    assert key in sample, f"series sample missing {key}"
print(f"    telemetry OK: {len(t['spans'])} span rows, "
      f"{len(t['counters'])} counters, subsystems: {', '.join(sorted(subsystems))}")
print(f"    lifecycle OK: all four stage spans present")
print(f"    series OK: {len(series)} runs, "
      f"{sum(len(s['samples']) for s in series)} round samples")
EOF

echo "==> causal trace smoke (E1 with ICI_TRACE=1)"
# The canonical event log must match the committed baseline.
ICI_TRACE=1 cargo run -q --release -p ici-bench --bin e1_storage >/dev/null
git diff --quiet -- results/TRACE_e1.json || {
    echo "trace drifted from committed results/TRACE_e1.json;"
    echo "regenerate with  ICI_TRACE=1 cargo run -q --release -p ici-bench --bin e1_storage"
    exit 1
}
# Tracing must never leak into the result record itself.
git diff --quiet -- results/e1.json || {
    echo "traced run changed committed results/e1.json"; exit 1;
}
python3 - <<'EOF'
import json
from collections import defaultdict
with open("results/TRACE_e1.chrome.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "chrome trace has no events"
slices = [e for e in events if e["ph"] in ("X", "i")]
assert slices, "chrome trace has no slices or instants"
last = defaultdict(lambda: -1)
for e in slices:
    track = (e["pid"], e["tid"])
    assert e["ts"] >= last[track], f"ts not monotone on track {track}: {e}"
    last[track] = e["ts"]
with open("results/TRACE_e1.json") as f:
    canonical = json.load(f)
assert canonical["dropped"] == 0, "e1 trace overflowed the event ring"
assert len(canonical["events"]) == len(slices), "canonical/chrome event counts differ"
print(f"    trace OK: {len(slices)} events on {len(last)} tracks")
EOF
rm results/TRACE_e1.chrome.json

# replay_pinned <bin> <record>: a pinned-seed experiment must replay
# byte for byte and match the committed record.
replay_pinned() {
    local bin="$1" record="$2"
    cargo run -q --release -p ici-bench --bin "$bin" -- --seed 42 >/dev/null
    cp "$record" "$record.ref"
    cargo run -q --release -p ici-bench --bin "$bin" -- --seed 42 >/dev/null
    cmp "$record.ref" "$record" || { echo "$bin did not replay byte for byte"; exit 1; }
    rm "$record.ref"
    git diff --quiet -- "$record" || {
        echo "$bin drifted from committed $record; regenerate with"
        echo "  cargo run -q --release -p ici-bench --bin $bin -- --seed 42"
        exit 1
    }
    echo "    determinism OK: $record replays and matches the committed record"
}

echo "==> fault-injection smoke (E-fault, pinned seed: replay, drift)"
replay_pinned e_fault results/e_fault.json
python3 - <<'EOF'
import json
with open("results/e_fault.json") as f:
    record = json.load(f)
rows = {r[0]: r[1] for r in record["tables"][0]["rows"]}
assert rows["recovery success rate"] == "100.0%", rows
assert rows["unrecoverable heights"] == "0", rows
assert int(rows["stage-boundary crashes"]) > 0, rows
cycles = record["tables"][1]["rows"]
assert all(int(r[1]) >= 1 for r in cycles), cycles
assert all(r[3] == "clean" for r in cycles), cycles
print(f"    fault smoke OK: byte-identical replay, "
      f"{rows['crash events']} crashes / {rows['restart events']} restarts "
      f"(+{rows['stage-boundary crashes']} at stage boundaries), "
      f"recovery {rows['recovery success rate']}, "
      f"{len(cycles)} clusters all cycled and audited clean")
EOF

echo "==> fault telemetry smoke (E-fault with ICI_TELEMETRY=1)"
ICI_TELEMETRY=1 cargo run -q --release -p ici-bench --bin e_fault -- --seed 42 >/dev/null
python3 - <<'EOF'
import json
with open("results/e_fault.json") as f:
    record = json.load(f)
t = record.get("telemetry")
assert t is not None, "results/e_fault.json has no telemetry section"
gauges = [g for g in t["gauges"] if g["name"] == "faults/live_nodes"]
assert gauges, "faults/live_nodes gauge missing"
assert any(s["name"].startswith("cluster/kmeans") for s in t["spans"]), \
    "cluster/kmeans spans missing"
# A replica is hashed when it is written: each height once when a
# certificate first sees it, once in the from-scratch final ruling, and
# once more per replica a repair wrote. A return to re-deriving the
# chain every round blows through this; wall clock on a noisy host
# would not say so.
counter = lambda name: sum(c["value"] for c in t["counters"] if c["name"] == name)
trees, chain_len = counter("core/merkle_audit_trees"), counter("core/blocks_committed") + 1
ceiling = 2 * chain_len + counter("core/replicas_written")
assert 0 < trees <= ceiling, \
    f"core/merkle_audit_trees = {trees}, want at most 2 x {chain_len} heights + written replicas = {ceiling}"
print(f"    fault telemetry OK: {len(gauges)} live-node gauge rows, "
      f"{trees} Merkle trees derived (ceiling {ceiling})")
EOF
# Restore the deterministic (telemetry-free) record the repo commits.
cargo run -q --release -p ici-bench --bin e_fault -- --seed 42 >/dev/null

echo "==> Byzantine smoke (E-byz, pinned seed: replay, drift)"
replay_pinned e_byz results/e_byz.json
python3 - <<'EOF'
import json
with open("results/e_byz.json") as f:
    record = json.load(f)
rows = {r[0]: r[1:] for r in record["tables"][0]["rows"]}
ici, full, rapidchain = range(3)
assert rows["equivocation detection rate"][ici] == "100.0%", rows
assert rows["undetected equivocations (hazard)"][ici] == "0", rows
assert rows["liar detection rate"][ici] == "100.0%", rows
assert int(rows["committed blocks"][ici]) > 0, rows
assert all(int(v) > 0 for v in rows["equivocation attempts"]), rows
print(f"    byz smoke OK: byte-identical replay, "
      f"{rows['equivocation attempts'][ici]} equivocations all detected, "
      f"{rows['lying verifiers named'][ici]} liars named, "
      f"wasted {rows['wasted fraction'][ici]} (ici) vs "
      f"{rows['wasted fraction'][full]} (full) / "
      f"{rows['wasted fraction'][rapidchain]} (rapidchain)")
EOF

echo "==> scale telemetry smoke (E-scale with ICI_TELEMETRY=1: lattice builds)"
# The v2 lattice is built at a state's first sharded_root() and carried
# by clones. E-scale constructs two states per run (the proposer's and
# the end-of-run replay reference; the validator's is a clone), so two
# builds. One per block would be an O(accounts) re-materialisation the
# peak-live ceiling below only catches indirectly.
ICI_TELEMETRY=1 ./target/release/e_scale --seed 42 >/dev/null
python3 - <<'EOF'
import json
with open("results/e_scale.json") as f:
    counters = json.load(f)["telemetry"]["counters"]
builds = sum(c["value"] for c in counters if c["name"] == "state/lattice_builds")
assert builds == 2, f"state/lattice_builds = {builds}, want one per constructed state (2)"
print(f"    lattice OK: {builds} builds for 2 constructed states")
EOF

echo "==> scale bench (E-scale, peak-live ceiling)"
# Telemetry-free, so this run also puts back the committed record.
SCALE_LINE=$(ICI_ALLOC_STATS=1 ./target/release/e_scale --seed 42 | grep '^SCALE_STATS ')
git diff --quiet -- results/e_scale.json || {
    echo "instrumented scale run changed committed results/e_scale.json"; exit 1;
}
python3 - "$SCALE_LINE" <<'EOF'
import json, sys
line = sys.argv[1]
fields = dict(kv.split("=", 1) for kv in line.split()[1:])
peak = int(fields["peak_live_bytes"])
# Ceiling: 64 MiB for the small tier (50k accounts). The healthy run
# peaks around 12 MiB; an O(accounts)-per-block regression (full-state
# clone, flat-root recompute in the hot loop) blows straight through it.
CEILING = 64 << 20
assert peak <= CEILING, f"peak live {peak} bytes exceeds ceiling {CEILING}"
record = {
    "id": "BENCH_scale",
    "title": "E-scale: throughput, commit latency, and peak live heap",
    "peak_live_ceiling_bytes": CEILING,
    "runs": [{
        "bin": "e_scale",
        "accounts": int(fields["accounts"]),
        "committed_txs": int(fields["committed"]),
        "wall_s": float(fields["wall_s"]),
        "tps": float(fields["tps"]),
        "commit_p50_ns": int(fields["commit_p50_ns"]),
        "commit_p90_ns": int(fields["commit_p90_ns"]),
        "commit_p99_ns": int(fields["commit_p99_ns"]),
        "peak_live_bytes": peak,
    }],
}
with open("results/BENCH_scale.json", "w") as f:
    json.dump(record, f, indent=2)
    f.write("\n")
r = record["runs"][0]
print(f"    e_scale: {r['committed_txs']} txs in {r['wall_s']:.2f}s "
      f"({r['tps']:.0f} tx/s), commit p99 {r['commit_p99_ns']/1e6:.2f} ms, "
      f"peak live {peak/2**20:.1f} MiB (ceiling {CEILING>>20} MiB)")
EOF

echo "==> allocation bench (ICI_ALLOC_STATS=1, e1/e7/e_fault)"
alloc_bench() { # alloc_bench <bin> [args...] -> "wall_s count bytes"
    python3 - "$@" <<'EOF'
import os, re, subprocess, sys, time
env = dict(os.environ, ICI_ALLOC_STATS="1")
start = time.monotonic()
out = subprocess.run(["./target/release/" + sys.argv[1], *sys.argv[2:]],
                     env=env, capture_output=True, text=True, check=True)
wall = time.monotonic() - start
m = re.search(r"ALLOC_STATS id=\S+ count=(\d+) bytes=(\d+)", out.stdout)
assert m, "no ALLOC_STATS line; is the counting allocator wired?"
print(f"{wall:.3f} {m.group(1)} {m.group(2)}")
EOF
}
E1_ALLOC=$(alloc_bench e1_storage)
E7_ALLOC=$(alloc_bench e7_throughput)
EF_ALLOC=$(alloc_bench e_fault --seed 42)
# The counting allocator must never leak into the result records: the
# instrumented runs have to reproduce the committed JSON byte for byte
# (digest caching and shared bodies included).
git diff --quiet -- results/e1.json results/e7.json results/e_fault.json || {
    echo "allocation-bench runs changed committed results/e*.json"; exit 1;
}
# shellcheck disable=SC2086
python3 - $E1_ALLOC $E7_ALLOC $EF_ALLOC <<'EOF'
import json, sys
vals = sys.argv[1:10]
# Pre-optimization reference: the zero-copy-pipeline PR's parent commit
# with the same counting allocator patched in.
BEFORE = {
    "e1_storage":    {"wall_s": 0.780, "allocs": 1_081_488, "alloc_bytes": 457_007_918},
    "e7_throughput": {"wall_s": 0.728, "allocs": 1_081_745, "alloc_bytes": 457_118_573},
    "e_fault":       {"wall_s": 0.093, "allocs": 57_794,    "alloc_bytes": 18_937_627},
}
GATED = {"e1_storage", "e7_throughput"}  # acceptance: >=30% fewer, count AND bytes
runs = []
for i, bin_name in enumerate(["e1_storage", "e7_throughput", "e_fault"]):
    wall, count, nbytes = float(vals[3*i]), int(vals[3*i+1]), int(vals[3*i+2])
    before = BEFORE[bin_name]
    run = {
        "bin": bin_name,
        "before": before,
        "after": {"wall_s": wall, "allocs": count, "alloc_bytes": nbytes},
        "alloc_reduction": round(1 - count / before["allocs"], 4),
        "bytes_reduction": round(1 - nbytes / before["alloc_bytes"], 4),
    }
    runs.append(run)
    print(f"    {bin_name}: {before['allocs']} -> {count} allocs "
          f"(-{run['alloc_reduction']:.1%}), "
          f"{before['alloc_bytes']} -> {nbytes} bytes (-{run['bytes_reduction']:.1%}), "
          f"{wall:.2f}s wall")
    if bin_name in GATED:
        assert run["alloc_reduction"] >= 0.30, f"{bin_name}: allocation-count gate (<30%)"
        assert run["bytes_reduction"] >= 0.30, f"{bin_name}: allocation-bytes gate (<30%)"
record = {
    "id": "BENCH_alloc",
    "title": "Zero-copy block pipeline: allocations and wall-clock, before vs after",
    "runs": runs,
}
with open("results/BENCH_alloc.json", "w") as f:
    json.dump(record, f, indent=2)
    f.write("\n")
print("    allocation gate OK: e1/e7 cleared 30% on count and bytes")
EOF

echo "==> perf trajectory vs HEAD (scripts/bench_compare)"
./scripts/bench_compare --threshold 10

echo "==> all green"
