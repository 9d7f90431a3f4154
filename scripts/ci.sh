#!/usr/bin/env bash
# The full gate, exactly as CI runs it. Fail fast: the first failing
# step aborts the run. Everything here is offline — the workspace has
# no registry dependencies (enforced by ici-lint's `deps` rule).

set -euo pipefail
cd "$(dirname "$0")/.."

# No step may leave a file behind or rewrite a committed one: the last
# step compares against this (empty on a clean checkout).
TREE_BEFORE=$(git status --porcelain)

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> SHA-256 kernel (ici-crypto differential suite)"
# Every host-time number (cargo bench, the benchmark) depends on which
# compression kernel the CPU selected, so name it once. A CPU that lists
# sha_ni but runs the suite with the hardware kernel skipped has a
# detection bug: digests stay right (the portable path), so only this
# check would notice the ~6x hashing cost coming back.
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
cargo run -q -p ici-lint -- --format json | cmp - results/LINT.json || {
    echo "lint JSON drifted from results/LINT.json; regenerate it with"
    echo "  cargo run -q -p ici-lint -- --format json > results/LINT.json"
    exit 1
}

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
print(f"    telemetry OK: {len(t['spans'])} span rows (all four stage spans), "
      f"{len(t['counters'])} counters, subsystems: {', '.join(sorted(subsystems))}")
print(f"    series OK: {len(series)} runs, "
      f"{sum(len(s['samples']) for s in series)} round samples")
EOF

echo "==> causal trace smoke (E1 with ICI_TRACE=1)"
# The canonical event log must match the committed baseline, and
# tracing must never leak into the result record itself.
ICI_TRACE=1 cargo run -q --release -p ici-bench --bin e1_storage >/dev/null
git diff --quiet -- results/TRACE_e1.json results/e1.json || {
    echo "traced run drifted from committed results/TRACE_e1.json or results/e1.json;"
    echo "regenerate with  ICI_TRACE=1 cargo run -q --release -p ici-bench --bin e1_storage"
    exit 1
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

# replay_pinned <bin> <record>: the loop above was the first run of the
# pinned seed; a second must land on the same committed bytes.
replay_pinned() {
    local bin="$1" record="$2"
    "./target/release/$bin" --seed 42 >/dev/null
    git diff --quiet -- "$record" || {
        echo "$bin did not replay $record byte for byte; if the change is meant, regenerate with"
        echo "  cargo run -q --release -p ici-bench --bin $bin -- --seed 42"
        exit 1
    }
    echo "    determinism OK: $record replays and matches the committed record"
}

echo "==> fault-injection smoke (E-fault, pinned seed: replay, drift)"
replay_pinned e_fault results/e_fault.json

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

echo "==> scale telemetry smoke (E-scale with ICI_TELEMETRY=1: lattice builds)"
# The v2 lattice is built at a state's first sharded_root() and carried
# by clones. E-scale constructs two states per run (the proposer's and
# the end-of-run replay reference; the validator's is a clone), so two
# builds; one per block would be an O(accounts) re-materialisation.
ICI_TELEMETRY=1 ./target/release/e_scale --seed 42 >/dev/null
python3 - <<'EOF'
import json
with open("results/e_scale.json") as f:
    counters = json.load(f)["telemetry"]["counters"]
builds = sum(c["value"] for c in counters if c["name"] == "state/lattice_builds")
assert builds == 2, f"state/lattice_builds = {builds}, want one per constructed state (2)"
print(f"    lattice OK: {builds} builds for 2 constructed states")
EOF
# Restore the deterministic (telemetry-free) record the repo commits.
./target/release/e_scale --seed 42 >/dev/null

echo "==> the run left the tree as it found it"
[ "$(git status --porcelain)" = "$TREE_BEFORE" ] || {
    echo "a step wrote or rewrote a file:"
    git status --porcelain
    exit 1
}

echo "==> all green"
