//! Lint configuration, read from `lint.toml` at the workspace root.
//!
//! The file is the only copy of the policy: a list it omits is empty,
//! a site total its `[limits]` table omits is not gated, and a tree
//! without the file is an error, never a gate run under some other
//! policy.

use crate::toml;
use std::collections::BTreeMap;
use std::path::Path;

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Crates whose non-test code must be panic-free or waived.
    pub protocol_crates: Vec<String>,
    /// Path substrings (forward slashes) where lossy `as` casts are
    /// flagged.
    pub cast_paths: Vec<String>,
    /// External dependency names permitted in any Cargo.toml. Path
    /// dependencies are always allowed; this list covers registry
    /// dependencies and is empty under the hermetic-build policy.
    pub deps_allow: Vec<String>,
    /// Path substrings (forward slashes) exempt from the `unsafe`
    /// keyword ban. A crate owning an entry here may carry
    /// `#![deny(unsafe_code)]` in its root instead of `forbid`, so the
    /// listed file can opt back in with `#![allow(unsafe_code)]`.
    /// Reserved for code that is impossible in safe Rust (the counting
    /// `GlobalAlloc` in ici-bench, the SHA-NI intrinsics in ici-crypto).
    pub unsafe_files: Vec<String>,
    /// Crates gated by `unordered-iter` (protocol crates plus anything
    /// whose output feeds byte-compared artifacts, e.g. ici-workload).
    pub determinism_crates: Vec<String>,
    /// Path substrings (forward slashes) sanctioned to read the process
    /// environment (`env-read` rule). Reserved for configuration entry
    /// points like the telemetry switch (`ICI_TELEMETRY`), which no
    /// committed artifact depends on.
    pub env_read_files: Vec<String>,
    /// Crates allowed to spawn OS threads (`rogue-thread` rule). Empty:
    /// the workspace is single-threaded by construction.
    pub thread_crates: Vec<String>,
    /// Ceilings on the site totals a run computes (`[limits]`), e.g.
    /// `protocol_panic_sites = 7`. A total above its limit fails the
    /// gate; a key no run computes is a config error.
    pub limits: BTreeMap<String, usize>,
}

impl Config {
    /// Load `<root>/lint.toml`. A missing or malformed file is a hard
    /// error.
    pub fn load(root: &Path) -> Result<Config, String> {
        let path = root.join("lint.toml");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = toml::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        // A list the file omits is empty: nothing is gated that the
        // file does not name.
        let list = |table: &str, key: &str| match doc.get(table, key) {
            None => Ok(Vec::new()),
            Some(value) => value
                .as_str_array()
                .map(<[String]>::to_vec)
                .ok_or_else(|| format!("lint.toml: `{table}.{key}` must be an array of strings")),
        };
        let mut limits = BTreeMap::new();
        for (key, value) in doc.table("limits").into_iter().flatten() {
            let limit = value
                .as_int()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| {
                    format!("lint.toml: `limits.{key}` must be a non-negative integer")
                })?;
            limits.insert(key.clone(), limit);
        }
        Ok(Config {
            protocol_crates: list("lint", "protocol_crates")?,
            cast_paths: list("lint", "cast_paths")?,
            deps_allow: list("deps", "allow")?,
            unsafe_files: list("lint", "unsafe_files")?,
            determinism_crates: list("determinism", "crates")?,
            env_read_files: list("determinism", "env_read_files")?,
            thread_crates: list("determinism", "thread_crates")?,
            limits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Invariants of the shipped policy that no single rule checks.
    #[test]
    fn shipped_policy_gates_determinism_over_every_protocol_crate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let c = Config::load(&root).expect("the workspace ships a lint.toml");
        assert!(c.protocol_crates.iter().any(|s| s == "ici-core"));
        for p in &c.protocol_crates {
            assert!(
                c.determinism_crates.contains(p),
                "{p} must be determinism-gated"
            );
        }
        assert!(c.determinism_crates.iter().any(|s| s == "ici-workload"));
        assert!(c.deps_allow.is_empty());
        assert!(c.thread_crates.is_empty());
        assert_eq!(c.limits.get("rogue_thread_sites"), Some(&0));
    }

    #[test]
    fn missing_file_is_an_error() {
        let e = Config::load(Path::new("/nonexistent-lint-root")).expect_err("no policy");
        assert!(e.contains("lint.toml"), "{e}");
    }
}
