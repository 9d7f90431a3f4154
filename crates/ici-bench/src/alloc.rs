//! Allocation accounting for every process that links `ici-bench`.
//!
//! Linking `ici-bench` installs [`CountingAlloc`] as the process global
//! allocator: a zero-configuration wrapper around [`System`] that
//! counts every allocation and requested byte in relaxed atomics, and
//! additionally tracks the live heap (allocated minus freed) with a
//! peak high-water mark. The counters always run (a few uncontended
//! atomic ops per allocation) and nothing here prints them: the one
//! reader is the frozen `benchmark/` package, which samples [`stats`]
//! around each workload and reports `allocs_per_op`,
//! `alloc_kib_per_op` and `peak_live_mib` (`BENCHMARK.json`).
//!
//! This is the one file in the workspace allowed to use `unsafe`:
//! implementing [`GlobalAlloc`] is impossible without it, and the
//! wrapper adds no invariants of its own — every call forwards verbatim
//! to [`System`]. The carve-out is explicit in `lint.toml`
//! (`unsafe_files`), and the crate root still carries
//! `#![deny(unsafe_code)]` so nothing outside this file can follow.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Currently live (allocated minus freed) bytes.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE_BYTES`].
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Records `size` freshly allocated bytes and advances the peak.
///
/// The load/fetch_max pair is not atomic as a unit, but any interleaved
/// concurrent update only ever *raises* the peak, so the mark never
/// understates a level the process actually reached.
fn record_alloc(size: u64) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// [`System`] wrapper that counts allocations and requested bytes.
///
/// `dealloc` does not reduce `count`/`bytes` — the cumulative signal
/// for the zero-copy work is how much the process *asks for* — but it
/// does reduce the live-byte gauge feeding the peak high-water mark.
/// `realloc` counts as one allocation of the new size (the common grow
/// path allocates-and-copies under the hood) and adjusts the live gauge
/// by the size delta.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the atomics touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        let old = layout.size() as u64;
        let new = new_size as u64;
        let live = if new >= old {
            LIVE_BYTES.fetch_add(new - old, Ordering::Relaxed) + (new - old)
        } else {
            LIVE_BYTES.fetch_sub(old - new, Ordering::Relaxed) - (old - new)
        };
        PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A snapshot of the process-wide allocation counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations since process start (alloc + alloc_zeroed + realloc).
    pub count: u64,
    /// Bytes requested across those allocations.
    pub bytes: u64,
    /// Bytes currently live (allocated minus freed).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start.
    pub peak_live_bytes: u64,
}

/// Reads the counters. `count`/`bytes`/`peak_live_bytes` are monotonic
/// within a process and never reset; `live_bytes` is a gauge.
pub fn stats() -> AllocStats {
    AllocStats {
        count: ALLOC_COUNT.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_observe_heap_traffic() {
        let before = stats();
        let v: Vec<u64> = Vec::with_capacity(1024);
        let after = stats();
        drop(v);
        assert!(after.count > before.count, "allocation was not counted");
        assert!(
            after.bytes - before.bytes >= 8 * 1024,
            "byte counter missed the 8 KiB buffer: {} -> {}",
            before.bytes,
            after.bytes
        );
    }

    #[test]
    fn stats_are_monotonic() {
        let a = stats();
        let _touch = vec![0u8; 64];
        let b = stats();
        assert!(b.count >= a.count && b.bytes >= a.bytes);
        assert!(b.peak_live_bytes >= a.peak_live_bytes);
    }

    #[test]
    fn peak_live_tracks_high_water_not_current() {
        // The gauge is process-wide and sibling tests free memory on
        // other threads meanwhile: a buffer well above that noise.
        const BIG: u64 = 8 << 20;
        const NOISE: u64 = 1 << 20;
        let before = stats();
        {
            let _big = vec![0u8; BIG as usize];
            let held = stats();
            assert!(held.live_bytes + NOISE >= before.live_bytes + BIG);
        }
        // The peak survives the free while the gauge drops.
        let after = stats();
        assert!(after.peak_live_bytes + NOISE >= before.live_bytes + BIG);
        assert!(after.live_bytes + NOISE < after.peak_live_bytes);
    }
}
