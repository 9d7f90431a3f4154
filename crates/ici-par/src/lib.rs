//! What is left of the workspace's thread pool: nothing runs here.
//!
//! Every computation in the workspace is a plain loop on the calling
//! thread (DESIGN.md, "Single-threaded by construction"). The crate
//! survives as five shims for one caller outside the workspace.

#![forbid(unsafe_code)]

// Kept for the frozen benchmark only: `benchmark/src/surface.rs` prints
// the thread count and pipeline depth on its host line, resets both
// between phases and times `par_map` as a per-layer probe. The pool and
// the stage machine they sized are gone, so both counts are the
// constant 1, both setters do nothing and `par_map` is an in-order map.
// The crate's two dependencies, and the `ici-par` line in every other
// crate's manifest, stay only because dropping one rewrites the frozen
// `benchmark/Cargo.lock`. The next `benchmark` PR removes all of it,
// with the depth-taking shim of `IciNetwork::propose_blocks` in
// `ici-core`; nothing in this repository may call these.
#[doc(hidden)]
pub fn threads() -> usize {
    1
}
#[doc(hidden)]
pub fn set_threads(_n: usize) {}
#[doc(hidden)]
pub fn pipeline_depth() -> usize {
    1
}
#[doc(hidden)]
pub fn set_pipeline_depth(_n: usize) {}
#[doc(hidden)]
pub fn par_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    F: Fn(usize, I) -> O,
{
    items
        .into_iter()
        .enumerate()
        .map(|(i, item)| f(i, item))
        .collect()
}
