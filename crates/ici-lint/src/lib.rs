//! `ici-lint` — the workspace's zero-dependency static-analysis gate.
//!
//! Run as `cargo run -p ici-lint`; the root package's
//! `tests/lint_gate.rs` runs the same gate under `cargo test`. The
//! engine lexes every workspace source file into a token stream
//! ([`lexer`]), applies the general rule set ([`rules`]) and the
//! determinism rule family ([`determinism`]), and reports every
//! unwaived finding and every site total above its `[limits]` entry
//! with `file:line` spans. Exit status: `0` clean, `1` violations, `2`
//! usage, config or I/O failure.
//!
//! Policy lives in `lint.toml` at the repo root ([`config`]); per-site
//! exemptions use inline `// lint:allow(rule) -- reason` waivers
//! ([`scanner`]). Waived sites are still counted: the engine reports
//! them in the JSON output (`--format json`), counts them in the site
//! totals, and flags waivers that no longer suppress anything as stale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod determinism;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scanner;
pub mod toml;

use config::Config;
use report::{json_escape, Finding, StaleWaiver};
use rules::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything one lint run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Findings that fail the gate: unwaived rule findings, then one
    /// `limits` finding per site total above its ceiling.
    pub violations: Vec<Finding>,
    /// Findings suppressed by an inline waiver (never gate-failing).
    pub waived: Vec<Finding>,
    /// Waivers that no longer suppress anything (gated only through
    /// the `stale_waivers` limit).
    pub stale_waivers: Vec<StaleWaiver>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Number of manifests checked by the `deps` rule.
    pub manifests_checked: usize,
    /// Site totals computed this run, the keys `[limits]` may name.
    pub stats: BTreeMap<String, usize>,
}

impl Outcome {
    /// True when the gate passes.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-rule site totals. Each counts every non-test site, waived or
/// not, so a `[limits]` ceiling bounds total debt per rule even when
/// waivers keep every single site green.
const SITE_STATS: &[(&str, &str)] = &[
    ("protocol_panic_sites", "panic"),
    ("unordered_iter_sites", "unordered-iter"),
    ("wall_clock_sites", "wall-clock"),
    ("rogue_thread_sites", "rogue-thread"),
    ("env_read_sites", "env-read"),
    ("entropy_sites", "entropy"),
];

/// Run the lint over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Outcome, String> {
    let files = collect_sources(root)?;
    let manifests = collect_manifests(root)?;
    if files.is_empty() && manifests.is_empty() {
        // A gate that scans nothing passes vacuously — a misspelled
        // `--root` in CI must be loud, not green.
        return Err(format!("nothing to lint under {}", root.display()));
    }
    let config = Config::load(root)?;

    let mut findings = rules::check_panic(&files, &config);
    findings.extend(rules::check_unsafe(&files, &config));
    findings.extend(rules::check_casts(&files, &config));
    findings.extend(rules::check_error_discipline(&files, &config));
    findings.extend(rules::check_deps(&manifests, &config));
    findings.extend(rules::check_rehash(&files, &config));
    findings.extend(rules::check_waivers(&files));
    findings.extend(determinism::check_unordered_iter(&files, &config));
    findings.extend(determinism::check_wall_clock(&files, &config));
    findings.extend(determinism::check_rogue_thread(&files, &config));
    findings.extend(determinism::check_env_read(&files, &config));
    findings.extend(determinism::check_entropy(&files, &config));

    let mut stats = BTreeMap::new();
    for (stat, rule) in SITE_STATS {
        let sites = findings.iter().filter(|f| f.rule == *rule).count();
        stats.insert(stat.to_string(), sites);
    }

    let (waived, mut violations): (Vec<Finding>, Vec<Finding>) =
        findings.into_iter().partition(|f| f.waived);
    let stale_waivers = find_stale_waivers(&files, &waived);
    stats.insert("stale_waivers".to_string(), stale_waivers.len());

    // A waived site is in no unwaived finding but in its total.
    for (key, &limit) in &config.limits {
        let total = *stats.get(key).ok_or_else(|| {
            format!("lint.toml: `limits.{key}` names no site total this gate computes")
        })?;
        if total > limit {
            violations.push(Finding::new(
                "limits",
                "lint.toml",
                0,
                format!("{key}: {total} site(s), limit {limit}"),
            ));
        }
    }

    Ok(Outcome {
        violations,
        waived,
        stale_waivers,
        files_scanned: files.len(),
        manifests_checked: manifests.len(),
        stats,
    })
}

/// Waivers that no longer suppress anything: every parsed waiver
/// naming a waivable rule must correspond to a waived finding on its
/// line. (Waivers naming unknown rules are already violations via the
/// `waiver` rule and are not double-reported here.)
fn find_stale_waivers(files: &[SourceFile], waived: &[Finding]) -> Vec<StaleWaiver> {
    let mut out = Vec::new();
    for file in files {
        for (line, waiver) in file.scanned.all_waivers() {
            if !rules::WAIVABLE_RULES.contains(&waiver.rule.as_str()) {
                continue;
            }
            let used = waived
                .iter()
                .any(|f| f.file == file.rel_path && f.line == line && f.rule == waiver.rule);
            if !used {
                out.push(StaleWaiver {
                    file: file.rel_path.clone(),
                    line,
                    rule: waiver.rule.clone(),
                });
            }
        }
    }
    out
}

/// Render the human report for an outcome. Returns the text rather
/// than printing so tests can assert on it.
pub fn render_report(outcome: &Outcome) -> String {
    let mut out = String::new();
    for finding in &outcome.violations {
        out.push_str(&finding.to_string());
        out.push('\n');
    }
    if !outcome.stale_waivers.is_empty() {
        out.push_str("\nstale waivers (delete them):\n");
        for stale in &outcome.stale_waivers {
            out.push_str("  ");
            out.push_str(&stale.to_string());
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "\nici-lint: {} file(s), {} manifest(s); {} new violation(s), {} waived, \
         {} stale waiver(s)\n",
        outcome.files_scanned,
        outcome.manifests_checked,
        outcome.violations.len(),
        outcome.waived.len(),
        outcome.stale_waivers.len(),
    ));
    out
}

/// Render the machine-readable report (`--format json`).
///
/// One JSON object with every finding (violations and waived), stale
/// waivers, per-rule stats, and a summary block. Ordering is fully
/// deterministic — findings sort by (file, line, rule, message), stats
/// by key — so the `determinism` fixture's golden can pin the whole
/// report byte for byte.
pub fn render_json(outcome: &Outcome) -> String {
    let mut rows: Vec<&Finding> = outcome.violations.iter().chain(&outcome.waived).collect();
    rows.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });

    let mut out = String::from("{\n  \"findings\": [\n");
    let finding_rows: Vec<String> = rows
        .iter()
        .map(|f| {
            format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"waived\": {}, \
                 \"message\": \"{}\"}}",
                json_escape(&f.rule),
                json_escape(&f.file),
                f.line,
                f.waived,
                json_escape(&f.message),
            )
        })
        .collect();
    out.push_str(&finding_rows.join(",\n"));
    if !finding_rows.is_empty() {
        out.push('\n');
    }
    out.push_str("  ],\n  \"stale_waivers\": [\n");
    let stale_rows: Vec<String> = outcome
        .stale_waivers
        .iter()
        .map(|s| {
            format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\"}}",
                json_escape(&s.file),
                s.line,
                json_escape(&s.rule),
            )
        })
        .collect();
    out.push_str(&stale_rows.join(",\n"));
    if !stale_rows.is_empty() {
        out.push('\n');
    }
    out.push_str("  ],\n  \"stats\": {\n");
    let stat_rows: Vec<String> = outcome
        .stats
        .iter()
        .map(|(k, v)| format!("    \"{}\": {}", json_escape(k), v))
        .collect();
    out.push_str(&stat_rows.join(",\n"));
    if !stat_rows.is_empty() {
        out.push('\n');
    }
    out.push_str(&format!(
        "  }},\n  \"summary\": {{\n    \"files_scanned\": {},\n    \"manifests_checked\": {},\n    \
         \"new_violations\": {},\n    \"waived\": {},\n    \"stale_waivers\": {}\n  }}\n}}\n",
        outcome.files_scanned,
        outcome.manifests_checked,
        outcome.violations.len(),
        outcome.waived.len(),
        outcome.stale_waivers.len(),
    ));
    out
}

/// Collect `SourceFile`s: `crates/<name>/src/**/*.rs` for every crate
/// directory, plus the root package's `src/**/*.rs`.
fn collect_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for crate_dir in sorted_dirs(&crates_dir)? {
        let crate_name = dir_name(&crate_dir);
        let src = crate_dir.join("src");
        if src.is_dir() {
            for path in rust_files_under(&src)? {
                files.push(load_source(root, &path, &crate_name)?);
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        for path in rust_files_under(&root_src)? {
            files.push(load_source(root, &path, "")?);
        }
    }
    Ok(files)
}

fn load_source(root: &Path, path: &Path, crate_name: &str) -> Result<SourceFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(SourceFile {
        rel_path: rel_path(root, path),
        crate_name: crate_name.to_string(),
        scanned: scanner::scan(&text),
    })
}

/// Collect `(rel_path, text)` for the root manifest and every
/// depth-one crate manifest. Fixture trees nested deeper (e.g. under
/// `crates/ici-lint/tests/fixtures/`) are deliberately invisible.
fn collect_manifests(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut manifests = Vec::new();
    let mut candidates = vec![root.join("Cargo.toml")];
    for crate_dir in sorted_dirs(&root.join("crates"))? {
        candidates.push(crate_dir.join("Cargo.toml"));
    }
    for path in candidates {
        if !path.is_file() {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        manifests.push((rel_path(root, &path), text));
    }
    Ok(manifests)
}

/// Immediate subdirectories, sorted by name; empty when the directory
/// does not exist.
fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files_under(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let entries =
            std::fs::read_dir(&current).map_err(|e| format!("{}: {e}", current.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", current.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn dir_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_paths_use_forward_slashes() {
        let root = Path::new("/a/b");
        assert_eq!(
            rel_path(root, Path::new("/a/b/crates/x/src/lib.rs")),
            "crates/x/src/lib.rs"
        );
    }

    #[test]
    fn missing_crates_dir_is_empty_not_error() {
        assert!(sorted_dirs(Path::new("/nonexistent-xyz"))
            .expect("ok")
            .is_empty());
    }
}
