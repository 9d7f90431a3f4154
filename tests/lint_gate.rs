//! The static-analysis gate, run by tier 1.
//!
//! `cargo run -p ici-lint` is the same check from the command line;
//! this test makes `cargo test` at the root refuse a tree that gate
//! refuses (an unwaived finding, or a site total above its `[limits]`
//! entry in `lint.toml`).

use std::path::Path;

#[test]
fn workspace_passes_the_lint_gate() {
    let outcome = ici_lint::run(Path::new(env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("ici-lint could not run: {e}"));
    assert!(outcome.clean(), "{}", ici_lint::render_report(&outcome));
}
