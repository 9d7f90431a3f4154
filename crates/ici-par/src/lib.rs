//! Deterministic data-parallel execution for the workspace.
//!
//! The offline policy (see `lint.toml`) rules out rayon, so this crate
//! is the in-tree equivalent: a process-wide worker pool (threads are
//! spawned once and reused across calls) behind three primitives —
//! [`par_map`], [`par_chunks`], and [`par_for_each_indexed`] — whose
//! outputs are **byte-identical regardless of thread count**.
//!
//! # Determinism contract
//!
//! * Results are gathered **in item-index order**; scheduling order is
//!   never observable through return values.
//! * Closures receive the **item index** so any per-item randomness or
//!   labeling can be derived from it, never from which thread ran it.
//! * Chunk geometry passed to [`par_chunks`] comes from the caller
//!   (data-size-derived), never from the thread count, so callers that
//!   accumulate floats per chunk stay thread-count-invariant.
//! * With `ICI_PAR_THREADS=1` the primitives run strictly serially on
//!   the calling thread — the exact same code path minus the pool.
//!
//! # Sizing
//!
//! The degree of parallelism comes from the `ICI_PAR_THREADS`
//! environment variable at first use (`0` or unset = available
//! hardware parallelism); [`set_threads`] overrides it at runtime.
//! Workers are spawned lazily up to `degree - 1` (the calling thread
//! always executes the first share itself) and then parked on a
//! condvar between calls.
//!
//! # Telemetry
//!
//! Worker threads have their own `ici-telemetry` thread-local
//! registries. Each task drains its registry after running
//! ([`ici_telemetry::drain_delta`]) and ships the delta back with its
//! result; the calling thread merges the deltas **in task order**
//! ([`ici_telemetry::merge_delta`]), so no worker-side counters,
//! histograms, spans, or events are lost. Trace events get the same
//! treatment ([`ici_trace::drain_delta`] / [`ici_trace::merge_delta`]):
//! because share 0 runs on the calling thread first and worker deltas
//! merge in task-index order, the merged event sequence is identical
//! to a serial run, which is what keeps trace exports byte-identical
//! across thread counts.
//!
//! # Panics
//!
//! A panic inside a closure is caught on the worker, shipped back, and
//! re-raised on the calling thread (lowest panicking task index wins),
//! mirroring serial behavior. Nested calls from inside a worker run
//! inline serially, so the pool cannot deadlock on itself.
//!
//! # Examples
//!
//! ```
//! let squares = ici_par::par_map(vec![1u64, 2, 3, 4], |i, x| x * x + i as u64);
//! assert_eq!(squares, vec![1, 5, 11, 19]);
//!
//! let sums: Vec<u64> = ici_par::par_chunks((0..10u64).collect(), 4, |_idx, chunk| {
//!     chunk.iter().sum()
//! });
//! assert_eq!(sums, vec![6, 22, 17]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use ici_telemetry::TelemetryDelta;

/// Environment variable that sizes the pool at first use. `0` or unset
/// means "use available hardware parallelism"; `1` forces strictly
/// serial execution.
pub const ENV_VAR: &str = "ICI_PAR_THREADS";

/// Upper bound on the degree of parallelism (a guard against absurd
/// `ICI_PAR_THREADS` values, not a tuning knob).
pub const MAX_THREADS: usize = 256;

/// Configured degree of parallelism; `0` means "not yet resolved".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the submitting threads and the pool workers.
#[derive(Default)]
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

/// The process-wide pool: a job queue plus a count of spawned workers.
struct Pool {
    shared: Arc<Shared>,
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set on pool worker threads; nested par calls run inline.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Recovers a usable guard from a possibly poisoned mutex. Poisoning
/// only means another thread panicked mid-critical-section; the queue
/// and counters stay structurally valid, and dropping work on the
/// floor would deadlock callers.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The configured degree of parallelism (resolving `ICI_PAR_THREADS`
/// on first use).
pub fn threads() -> usize {
    let current = THREADS.load(Ordering::Relaxed);
    if current != 0 {
        return current;
    }
    let from_env = std::env::var(ENV_VAR)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    let resolved = from_env
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .min(MAX_THREADS);
    // A concurrent first call resolves the same value; the race is benign.
    THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the degree of parallelism (clamped to `1..=MAX_THREADS`).
/// Outputs do not depend on this value — it only changes scheduling —
/// so racing callers (e.g. parallel tests) stay correct.
pub fn set_threads(n: usize) {
    THREADS.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

// Kept for the frozen benchmark only: `benchmark/src/surface.rs` prints
// the depth on its host line and resets it between phases. The stage
// machine they sized is gone — one height is in flight, always — so the
// depth is the constant 1 and setting it does nothing. The next
// `benchmark` PR removes both, with the depth-taking shim of
// `IciNetwork::propose_blocks` in `ici-core`; nothing else may call
// them.
#[doc(hidden)]
pub fn pipeline_depth() -> usize {
    1
}
#[doc(hidden)]
pub fn set_pipeline_depth(_n: usize) {}

/// Whether the current thread is a pool worker.
fn in_worker() -> bool {
    IS_WORKER.with(|w| w.get())
}

fn worker_loop(shared: Arc<Shared>) {
    IS_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut queue = lock_or_recover(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = match shared.available.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        job();
    }
}

/// Ensures at least `needed` workers exist; returns how many are
/// actually running (spawning can fail under resource exhaustion, in
/// which case callers fall back to inline execution).
fn ensure_workers(pool: &Pool, needed: usize) -> usize {
    let mut spawned = lock_or_recover(&pool.spawned);
    while *spawned < needed {
        let shared = Arc::clone(&pool.shared);
        let spawn = std::thread::Builder::new()
            .name(format!("ici-par-{}", *spawned))
            .spawn(move || worker_loop(shared));
        match spawn {
            Ok(_) => *spawned += 1,
            Err(_) => break,
        }
    }
    *spawned
}

fn submit(pool: &Pool, job: Job) {
    lock_or_recover(&pool.shared.queue).push_back(job);
    pool.shared.available.notify_one();
}

/// Result of one remote task: either the mapped outputs plus the
/// worker's drained telemetry and trace deltas, or the payload of a
/// caught panic.
type TaskResult<O> =
    Result<(Vec<O>, TelemetryDelta, ici_trace::TraceDelta), Box<dyn std::any::Any + Send>>;

/// The execution core: maps `work` through `f` (which receives the
/// item's global index), splitting it into `degree` contiguous shares.
/// Share 0 runs on the calling thread; the rest run on pool workers.
/// Outputs are gathered in index order.
fn run<I, O, F>(work: Vec<I>, f: F) -> Vec<O>
where
    I: Send + 'static,
    O: Send + 'static,
    F: Fn(usize, I) -> O + Send + Sync + 'static,
{
    let n = work.len();
    let degree = threads().min(n);
    let pool_workers = if degree > 1 && !in_worker() {
        let pool = POOL.get_or_init(|| Pool {
            shared: Arc::new(Shared::default()),
            spawned: Mutex::new(0),
        });
        ensure_workers(pool, degree - 1)
    } else {
        0
    };
    if degree <= 1 || in_worker() || pool_workers == 0 {
        return work
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let pool = match POOL.get() {
        Some(pool) => pool,
        None => {
            // Unreachable (initialized above); degrade to serial.
            return work
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
    };

    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel::<(usize, TaskResult<O>)>();
    let base = n / degree;
    let extra = n % degree;
    let mut items = work.into_iter();
    let mut own_share: Vec<I> = Vec::new();
    let mut start = 0;
    for task in 0..degree {
        let len = base + usize::from(task < extra);
        let share: Vec<I> = items.by_ref().take(len).collect();
        if task == 0 {
            own_share = share;
        } else {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            let job: Job = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    share
                        .into_iter()
                        .enumerate()
                        .map(|(j, item)| f(start + j, item))
                        .collect::<Vec<O>>()
                }));
                // Drain even on panic so a poisoned task cannot leak its
                // partial telemetry or trace events into the worker's
                // next task.
                let delta = ici_telemetry::drain_delta();
                let trace = ici_trace::drain_delta();
                let _ = tx.send((task, outcome.map(|out| (out, delta, trace))));
            });
            submit(pool, job);
        }
        start += len;
    }
    drop(tx);

    // The calling thread executes share 0 while workers run the rest.
    // Its telemetry lands directly in the caller's registry, which is
    // exactly where worker deltas get merged below.
    let mut gathered: Vec<O> = own_share
        .into_iter()
        .enumerate()
        .map(|(j, item)| f(j, item))
        .collect();

    let mut remote: Vec<Option<Vec<O>>> = (1..degree).map(|_| None).collect();
    let mut deltas: Vec<Option<TelemetryDelta>> = (1..degree).map(|_| None).collect();
    let mut traces: Vec<Option<ici_trace::TraceDelta>> = (1..degree).map(|_| None).collect();
    let mut panic_payload: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
    for _ in 1..degree {
        match rx.recv() {
            Ok((task, Ok((out, delta, trace)))) => {
                if let Some(slot) = task.checked_sub(1).and_then(|i| remote.get_mut(i)) {
                    *slot = Some(out);
                }
                if let Some(slot) = task.checked_sub(1).and_then(|i| deltas.get_mut(i)) {
                    *slot = Some(delta);
                }
                if let Some(slot) = task.checked_sub(1).and_then(|i| traces.get_mut(i)) {
                    *slot = Some(trace);
                }
            }
            Ok((task, Err(payload))) => {
                let replace = panic_payload.as_ref().is_none_or(|(t, _)| task < *t);
                if replace {
                    panic_payload = Some((task, payload));
                }
            }
            // Every submitted job sends exactly once; a closed channel
            // before all results arrive is unreachable. Treat it like a
            // worker panic rather than returning truncated results.
            Err(_) => {
                panic_payload = Some((usize::MAX, Box::new("ici-par: result channel closed")));
                break;
            }
        }
    }
    // Merge worker telemetry and trace events in task order so the
    // aggregate streams are scheduling-independent.
    for delta in deltas.into_iter().flatten() {
        ici_telemetry::merge_delta(delta);
    }
    for trace in traces.into_iter().flatten() {
        ici_trace::merge_delta(trace);
    }
    if let Some((_, payload)) = panic_payload {
        resume_unwind(payload);
    }
    for out in remote.into_iter().flatten() {
        gathered.extend(out);
    }
    gathered
}

/// Maps `f` over `items` in parallel; `f` receives each item's index.
/// The output order (and content) is identical to the serial
/// `items.into_iter().enumerate().map(f).collect()`.
pub fn par_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send + 'static,
    O: Send + 'static,
    F: Fn(usize, I) -> O + Send + Sync + 'static,
{
    run(items, f)
}

/// Splits `items` into contiguous chunks of `chunk_len` (the last chunk
/// may be shorter) and maps `f` over the chunks in parallel; `f`
/// receives each chunk's index. `chunk_len == 0` is treated as "one
/// chunk". Because the geometry depends only on the caller's
/// `chunk_len`, per-chunk accumulation (e.g. float sums) is identical
/// for every thread count.
pub fn par_chunks<I, O, F>(items: Vec<I>, chunk_len: usize, f: F) -> Vec<O>
where
    I: Send + 'static,
    O: Send + 'static,
    F: Fn(usize, &[I]) -> O + Send + Sync + 'static,
{
    let chunk_len = if chunk_len == 0 {
        items.len().max(1)
    } else {
        chunk_len
    };
    let mut chunks: Vec<Vec<I>> = Vec::with_capacity(items.len().div_ceil(chunk_len));
    let mut items = items.into_iter();
    loop {
        let chunk: Vec<I> = items.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    run(chunks, move |i, chunk| f(i, &chunk))
}

/// Runs `f` over `items` in parallel for its side effects (through the
/// items it owns); `f` receives each item's index.
pub fn par_for_each_indexed<I, F>(items: Vec<I>, f: F)
where
    I: Send + 'static,
    F: Fn(usize, I) + Send + Sync + 'static,
{
    let _: Vec<()> = run(items, move |i, item| f(i, item));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_index_order() {
        set_threads(4);
        let out = par_map((0..1000u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..1000u64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let input: Vec<u64> = (0..513).collect();
        set_threads(1);
        let serial = par_map(input.clone(), |i, x| x.wrapping_mul(i as u64 + 7));
        set_threads(4);
        let parallel = par_map(input, |i, x| x.wrapping_mul(i as u64 + 7));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_chunks_geometry_is_data_derived() {
        let input: Vec<u32> = (0..103).collect();
        set_threads(1);
        let serial: Vec<u64> = par_chunks(input.clone(), 10, |idx, c| {
            idx as u64 + c.iter().map(|&x| u64::from(x)).sum::<u64>()
        });
        set_threads(4);
        let parallel: Vec<u64> = par_chunks(input, 10, |idx, c| {
            idx as u64 + c.iter().map(|&x| u64::from(x)).sum::<u64>()
        });
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 11);
    }

    #[test]
    fn par_chunks_zero_len_means_one_chunk() {
        set_threads(4);
        let out: Vec<usize> = par_chunks(vec![1, 2, 3], 0, |_idx, c| c.len());
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        set_threads(4);
        let out: Vec<u8> = par_map(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
        let chunks: Vec<usize> = par_chunks(Vec::<u8>::new(), 4, |_, c| c.len());
        assert!(chunks.is_empty());
    }

    #[test]
    fn for_each_visits_every_index_once() {
        use std::sync::atomic::AtomicU64;
        set_threads(4);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        par_for_each_indexed((0..64u64).collect(), move |i, x| {
            assert_eq!(i as u64, x);
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        set_threads(4);
        let out = par_map((0..8u64).collect(), |_, x| {
            // Nested call from a worker (or the caller) must not deadlock.
            par_map((0..4u64).collect(), move |_, y| y + x)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[0], 6);
        assert_eq!(out[7], 6 + 4 * 7);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        set_threads(4);
        let result = std::panic::catch_unwind(|| {
            par_map((0..100u32).collect(), |_, x| {
                if x == 73 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn worker_telemetry_is_merged_into_the_caller() {
        ici_telemetry::set_enabled(true);
        ici_telemetry::reset();
        set_threads(4);
        par_for_each_indexed((0..32u64).collect(), |_, _x| {
            ici_telemetry::counter_add("par/test_items", ici_telemetry::Label::Global, 1);
        });
        let snap = ici_telemetry::snapshot();
        ici_telemetry::set_enabled(false);
        let total: u64 = snap
            .counters
            .iter()
            .filter(|c| c.name == "par/test_items")
            .map(|c| c.value)
            .sum();
        assert_eq!(total, 32);
    }

    #[test]
    fn worker_trace_events_merge_in_task_order() {
        ici_trace::set_enabled(true);
        ici_trace::reset();
        set_threads(4);
        par_for_each_indexed((0..32u64).collect(), |i, _x| {
            ici_trace::mark(
                "par/test_mark",
                i as u64,
                0,
                None,
                None,
                ici_trace::mint_id(i as u64),
                0,
            );
        });
        let snap = ici_trace::snapshot();
        ici_trace::set_enabled(false);
        ici_trace::reset();
        let marks: Vec<&ici_trace::TraceEvent> = snap
            .events
            .iter()
            .filter(|e| e.name == "par/test_mark")
            .collect();
        assert_eq!(marks.len(), 32);
        // Task-order merging yields the serial event order: share 0
        // first (recorded directly by the caller), then each worker's
        // share by task index — i.e. item order, since shares are
        // contiguous.
        let order: Vec<u64> = marks.iter().map(|e| e.at_us).collect();
        assert_eq!(order, (0..32u64).collect::<Vec<_>>());
        for pair in marks.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn threads_env_resolution_clamps() {
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(MAX_THREADS + 10);
        assert_eq!(threads(), MAX_THREADS);
        set_threads(4);
        assert_eq!(threads(), 4);
    }
}
