//! Lint configuration, read from `lint.toml` at the workspace root.
//!
//! Every knob has an in-code default mirroring the committed file, so
//! the gate still runs (with the standard policy) if the file is
//! missing — e.g. in fixture trees that only exercise one rule.

use crate::toml;
use std::path::Path;

/// Parsed `lint.toml`.
#[derive(Debug, Clone)]
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
}

impl Default for Config {
    fn default() -> Self {
        Config {
            protocol_crates: [
                "ici-core",
                "ici-consensus",
                "ici-chain",
                "ici-cluster",
                "ici-storage",
                "ici-crypto",
                "ici-net",
                "ici-par",
                "ici-telemetry",
                "ici-trace",
                "ici-faults",
                "ici-prop",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            cast_paths: [
                "ici-chain/src/codec.rs",
                "ici-chain/src/block.rs",
                "ici-chain/src/transaction.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            deps_allow: Vec::new(),
            unsafe_files: vec![
                "ici-bench/src/alloc.rs".to_string(),
                "ici-crypto/src/sha256_x86.rs".to_string(),
            ],
            determinism_crates: [
                "ici-core",
                "ici-consensus",
                "ici-chain",
                "ici-cluster",
                "ici-storage",
                "ici-crypto",
                "ici-net",
                "ici-par",
                "ici-telemetry",
                "ici-trace",
                "ici-faults",
                "ici-workload",
                "ici-prop",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            env_read_files: ["ici-telemetry/src/lib.rs", "ici-trace/src/lib.rs"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            thread_crates: Vec::new(),
        }
    }
}

impl Config {
    /// Load `<root>/lint.toml`, falling back to defaults when absent.
    /// A present-but-malformed file is a hard error.
    pub fn load(root: &Path) -> Result<Config, String> {
        let path = root.join("lint.toml");
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Config::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let doc = toml::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut config = Config::default();
        if let Some(v) = doc.get("lint", "protocol_crates") {
            config.protocol_crates = str_list(v, "lint.protocol_crates")?;
        }
        if let Some(v) = doc.get("lint", "cast_paths") {
            config.cast_paths = str_list(v, "lint.cast_paths")?;
        }
        if let Some(v) = doc.get("deps", "allow") {
            config.deps_allow = str_list(v, "deps.allow")?;
        }
        if let Some(v) = doc.get("lint", "unsafe_files") {
            config.unsafe_files = str_list(v, "lint.unsafe_files")?;
        }
        if let Some(v) = doc.get("determinism", "crates") {
            config.determinism_crates = str_list(v, "determinism.crates")?;
        }
        if let Some(v) = doc.get("determinism", "env_read_files") {
            config.env_read_files = str_list(v, "determinism.env_read_files")?;
        }
        if let Some(v) = doc.get("determinism", "thread_crates") {
            config.thread_crates = str_list(v, "determinism.thread_crates")?;
        }
        Ok(config)
    }
}

fn str_list(value: &toml::Value, what: &str) -> Result<Vec<String>, String> {
    value
        .as_str_array()
        .map(<[String]>::to_vec)
        .ok_or_else(|| format!("lint.toml: `{what}` must be an array of strings"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_protocol_crates() {
        let c = Config::default();
        assert!(c.protocol_crates.iter().any(|s| s == "ici-core"));
        assert!(c.protocol_crates.iter().any(|s| s == "ici-crypto"));
        assert!(c.deps_allow.is_empty());
    }

    #[test]
    fn determinism_defaults_extend_protocol_scope() {
        let c = Config::default();
        for p in &c.protocol_crates {
            assert!(
                c.determinism_crates.contains(p),
                "{p} must be determinism-gated"
            );
        }
        assert!(c.determinism_crates.iter().any(|s| s == "ici-workload"));
        assert!(c.thread_crates.is_empty());
        assert!(c.env_read_files.iter().all(|s| !s.contains("ici-par")));
    }

    #[test]
    fn missing_file_falls_back_to_defaults() {
        let c = Config::load(Path::new("/nonexistent-lint-root")).expect("defaults");
        assert_eq!(c.protocol_crates, Config::default().protocol_crates);
    }
}
