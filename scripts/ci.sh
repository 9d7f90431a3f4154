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

echo "==> examples and the ici CLI, at their defaults"
# `cargo test` compiles the examples but runs none of them, and nothing
# else runs the `ici` binary. Together they take well under a second on
# a release build; the last step catches any file one of them writes.
cargo build --release --examples
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    ./target/release/examples/"$name" >/dev/null || {
        echo "example $name failed"
        exit 1
    }
done
for subcommand in simulate compare plan; do
    ./target/release/ici "$subcommand" >/dev/null || {
        echo "ici $subcommand failed"
        exit 1
    }
done

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
if grep -qw sha_ni /proc/cpuinfo 2>/dev/null &&
    printf '%s\n' "$KERNEL_OUT" | grep -q 'hardware kernel skipped'; then
    echo "/proc/cpuinfo lists sha_ni but ici-crypto fell back to the portable kernel"
    exit 1
fi
# The batched hashes (signatures, Merkle levels, locator ids, lotteries
# and rankings) run on the sixteen-lane AVX-512 kernel where the CPU has
# it; its differential (kernels_agree_on_sixteen_lanes) prints the
# agreement line, or the skip note on a CPU without AVX-512F/BW. A CPU
# that lists both flags but reports the kernel skipped has a detection
# bug, which only this check would notice (digests stay right, batches
# fold lane by lane).
printf '%s\n' "$KERNEL_OUT" | grep -m1 -o 'sha256 wide: .*\|wide kernel skipped.*' | sed 's/^/    /' || {
    echo "the sixteen-lane kernel differential (kernels_agree_on_sixteen_lanes) did not run"
    exit 1
}
if grep -qw avx512f /proc/cpuinfo 2>/dev/null && grep -qw avx512bw /proc/cpuinfo 2>/dev/null &&
    printf '%s\n' "$KERNEL_OUT" | grep -q 'wide kernel skipped'; then
    echo "/proc/cpuinfo lists avx512f and avx512bw but ici-crypto skipped the wide kernel"
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

echo "==> k-means at 4 096 and 16 384 nodes against the plain algorithms (release)"
# Too slow for the debug build above: the plain reference sorts a
# million triples at 16 384 nodes. Also bounds balanced k-means there
# at 0.2 s.
cargo test --release -q --test kmeans_differential -- --ignored

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
