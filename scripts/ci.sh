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
# The bench targets are `test = false`, so nothing else here compiles
# them; they call the same protocol APIs the workspace does.
cargo build --release --benches -p ici-bench

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
# Neither line is anchored: `-q` progress dots can share its line.
printf '%s\n' "$KERNEL_OUT" | grep -m1 -o 'sha256 backend: .*' | sed 's/^/    /'
# The batched lotteries and rankings hash through the multi-lane entry
# point; its differential (kernels_agree_on_lanes) prints this line, so
# a rename that drops it from the filter fails here instead of passing.
printf '%s\n' "$KERNEL_OUT" | grep -m1 -o 'sha256 lanes: .*' | sed 's/^/    /' || {
    echo "the multi-lane kernel differential (kernels_agree_on_lanes) did not run"
    exit 1
}
if grep -qw sha_ni /proc/cpuinfo 2>/dev/null &&
    printf '%s\n' "$KERNEL_OUT" | grep -q 'hardware kernel skipped'; then
    echo "/proc/cpuinfo lists sha_ni but ici-crypto fell back to the portable kernel"
    exit 1
fi

echo "==> cargo test (includes the ici-lint gate, tests/lint_gate.rs)"
# Zero rustc warnings. Compiling the tests first builds what the run
# below runs, and cargo replays a cached crate's warnings, so a warm
# build reports them too.
TEST_BUILD=$(cargo test -q --workspace --no-run 2>&1) || {
    printf '%s\n' "$TEST_BUILD"
    exit 1
}
if printf '%s\n' "$TEST_BUILD" | grep -q '^warning'; then
    printf '%s\n' "$TEST_BUILD"
    echo "the workspace test build printed warnings"
    exit 1
fi
cargo test -q --workspace

echo "==> rustdoc, warnings denied"
# A doc link to a private item, or to an item that was deleted, fails
# here instead of rendering as dead text. Writes only under target/.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

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

echo "==> ici-bench check (14 records twice, E1 trace, telemetry counter and call-tree gates)"
# Runs every experiment in-process against results/, which it only
# reads; each gate is documented where it lives,
# crates/ici-bench/src/check.rs.
./target/release/ici-bench check

echo "==> the run left the tree as it found it"
[ "$(git status --porcelain)" = "$TREE_BEFORE" ] || {
    echo "a step wrote or rewrote a file:"
    git status --porcelain
    exit 1
}

echo "==> all green"
