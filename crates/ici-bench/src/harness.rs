//! A tiny std-only micro-benchmark harness.
//!
//! Replaces the former `criterion` dev-dependency so `cargo bench`
//! works in fully offline builds. It is intentionally simple: warm up,
//! run timed iterations for a fixed 300 ms and at least 10 of them,
//! report min / median / mean / p90 / p99. Good enough to bound
//! cost-model constants and to spot order-of-magnitude regressions; it
//! does not attempt criterion-grade statistics, and nothing gates on
//! it — the gated host-side numbers are `BENCHMARK.json`'s.
//!
//! Output opens with one `host:` line (CPU count, the SHA-256 kernel
//! the CPU selected).

use ici_crypto::Sha256;
use std::sync::Once;
use std::time::{Duration, Instant};

/// Time budget of one benchmark.
const BUDGET: Duration = Duration::from_millis(300);
/// Timed iterations a benchmark runs even when one overruns the budget.
const MIN_ITERS: usize = 10;

/// Runs one benchmark and prints a result line.
///
/// `setup` builds fresh input for every timed iteration (its cost is
/// excluded); `routine` consumes it and returns a value that is dropped
/// outside the timed region.
pub fn bench_with_setup<S, R, I, O>(name: &str, setup: S, routine: R)
where
    S: FnMut() -> I,
    R: FnMut(I) -> O,
{
    run(name, BUDGET, MIN_ITERS, setup, routine);
}

fn run<S, R, I, O>(name: &str, budget: Duration, min_iters: usize, mut setup: S, mut routine: R)
where
    S: FnMut() -> I,
    R: FnMut(I) -> O,
{
    // Warm-up: one untimed pass.
    let warm_input = setup();
    let _ = routine(warm_input);

    let mut samples_ns: Vec<u128> = Vec::new();
    let started = Instant::now(); // lint:allow(wall-clock) -- bench budget clock, reporting only
    while samples_ns.len() < min_iters || started.elapsed() < budget {
        let input = setup();
        let t0 = Instant::now(); // lint:allow(wall-clock) -- the measurement itself
        let out = routine(input);
        let elapsed = t0.elapsed();
        drop(out);
        samples_ns.push(elapsed.as_nanos());
        if samples_ns.len() >= 1_000_000 {
            break; // safety valve for sub-microsecond routines
        }
    }
    report(name, &mut samples_ns);
}

/// Runs one benchmark with no per-iteration setup.
pub fn bench<R, O>(name: &str, mut routine: R)
where
    R: FnMut() -> O,
{
    bench_with_setup(name, || (), |()| routine());
}

/// Summary statistics of one benchmark's timed samples, in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BenchStats {
    /// Timed iterations.
    iters: usize,
    /// Fastest sample.
    min_ns: u128,
    /// Middle sample.
    median_ns: u128,
    /// Mean sample.
    mean_ns: u128,
    /// 90th-percentile sample (nearest-rank).
    p90_ns: u128,
    /// 99th-percentile sample (nearest-rank).
    p99_ns: u128,
}

/// Computes summary statistics over (sorted-in-place) samples. Returns
/// `None` for an empty slice.
fn stats(samples_ns: &mut [u128]) -> Option<BenchStats> {
    samples_ns.sort_unstable();
    let n = samples_ns.len();
    if n == 0 {
        return None;
    }
    let rank = |p: f64| -> u128 {
        let idx = ((p / 100.0) * n as f64).ceil() as usize;
        samples_ns[idx.clamp(1, n) - 1]
    };
    Some(BenchStats {
        iters: n,
        min_ns: samples_ns[0],
        median_ns: samples_ns[n / 2],
        mean_ns: samples_ns.iter().sum::<u128>() / n as u128,
        p90_ns: rank(90.0),
        p99_ns: rank(99.0),
    })
}

fn report(name: &str, samples_ns: &mut [u128]) {
    let Some(s) = stats(samples_ns) else {
        println!("{name:<44} no samples");
        return;
    };
    // Every number below is host time, and most of it is hashing: say
    // which SHA-256 kernel this CPU selected, so no row is ambiguous
    // about the hardware behind it.
    static HOST_LINE: Once = Once::new();
    HOST_LINE.call_once(|| {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("host: {cpus} cpu(s), sha256 kernel {}", Sha256::backend());
    });
    println!(
        "{name:<44} min {:>11}  median {:>11}  mean {:>11}  p90 {:>11}  p99 {:>11}  ({} iters)",
        fmt_ns(s.min_ns),
        fmt_ns(s.median_ns),
        fmt_ns(s.mean_ns),
        fmt_ns(s.p90_ns),
        fmt_ns(s.p99_ns),
        s.iters,
    );
}

/// Renders a nanosecond quantity with a human-scale unit.
pub fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut iters = 0usize;
        run(
            "harness/self_test",
            Duration::ZERO,
            MIN_ITERS,
            || (),
            |()| iters += 1,
        );
        // A spent budget still gets the warm-up pass and the minimum.
        assert_eq!(iters, 1 + MIN_ITERS);
    }

    #[test]
    fn formatting_covers_all_magnitudes() {
        assert!(fmt_ns(12).contains("ns"));
        assert!(fmt_ns(12_345).contains("µs"));
        assert!(fmt_ns(12_345_678).contains("ms"));
        assert!(fmt_ns(12_345_678_901).contains("s"));
    }

    #[test]
    fn stats_percentiles_use_nearest_rank() {
        let mut samples: Vec<u128> = (1..=100).collect();
        let s = stats(&mut samples).expect("non-empty");
        assert_eq!(s.iters, 100);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.p90_ns, 90);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.mean_ns, 50);
    }

    #[test]
    fn stats_single_sample_is_every_quantile() {
        let mut samples = vec![42u128];
        let s = stats(&mut samples).expect("non-empty");
        assert_eq!(s.min_ns, 42);
        assert_eq!(s.median_ns, 42);
        assert_eq!(s.p90_ns, 42);
        assert_eq!(s.p99_ns, 42);
    }

    #[test]
    fn stats_empty_is_none() {
        assert!(stats(&mut []).is_none());
    }
}
