//! The ratchet: `lint-baseline.toml`.
//!
//! The baseline records, per `(rule, file)` pair, how many violations
//! existed when the baseline was last updated. The gate fails only when
//! a pair's *current* count exceeds its baselined count, so new
//! violations are blocked while pre-existing debt is tolerated — and
//! counts can only go down over time (`--update-baseline` rewrites the
//! file from the current tree). The `[stats]` table holds per-rule site
//! totals, waived sites included, under the same rule: a total the run
//! computes may not exceed its entry.
//!
//! Counts are keyed by `(rule, file)` rather than exact line numbers so
//! unrelated edits that shift lines do not churn the file.

use crate::report::Finding;
use crate::toml;
use std::collections::BTreeMap;
use std::path::Path;

/// File name of the committed ratchet, relative to the repo root.
pub const BASELINE_FILE: &str = "lint-baseline.toml";

/// Parsed baseline.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    /// `rule:file` → tolerated violation count.
    pub counts: BTreeMap<String, i64>,
    /// Site totals and historical markers (`[stats]`), e.g.
    /// `wall_clock_sites`, `seed_panic_sites`.
    pub stats: BTreeMap<String, i64>,
}

/// The verdict after applying the ratchet to a finding set.
#[derive(Debug, Default)]
pub struct RatchetOutcome {
    /// Findings not covered by the baseline — these fail the gate.
    pub new_violations: Vec<Finding>,
    /// Findings suppressed as pre-existing debt.
    pub baselined: Vec<Finding>,
    /// Keys whose current count undershoots the baseline — the ratchet
    /// can be tightened with `--update-baseline`.
    pub improvements: Vec<String>,
}

/// One changed count between the committed baseline and a rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineChange {
    /// The `rule:file` key, or `stats.<name>` for a site total.
    pub key: String,
    /// Tolerated count before.
    pub old: i64,
    /// Count after the rewrite.
    pub new: i64,
}

impl BaselineChange {
    /// True when the rewrite would loosen the ratchet.
    pub fn is_raise(&self) -> bool {
        self.new > self.old
    }
}

impl std::fmt::Display for BaselineChange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} -> {}", self.key, self.old, self.new)
    }
}

impl Baseline {
    /// Load `<root>/lint-baseline.toml`; an absent file is an empty
    /// baseline (every finding is new).
    pub fn load(root: &Path) -> Result<Baseline, String> {
        let path = root.join(BASELINE_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Baseline::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parse baseline text.
    pub fn parse(text: &str) -> Result<Baseline, toml::TomlError> {
        let doc = toml::parse(text)?;
        let mut baseline = Baseline::default();
        if let Some(table) = doc.table("counts") {
            for (key, value) in table {
                if let Some(n) = value.as_int() {
                    baseline.counts.insert(key.clone(), n);
                }
            }
        }
        if let Some(table) = doc.table("stats") {
            for (key, value) in table {
                if let Some(n) = value.as_int() {
                    baseline.stats.insert(key.clone(), n);
                }
            }
        }
        Ok(baseline)
    }

    /// Apply the ratchet: partition findings into new violations and
    /// baselined debt.
    pub fn apply(&self, findings: Vec<Finding>) -> RatchetOutcome {
        let mut by_key: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
        for finding in findings {
            by_key
                .entry(finding.baseline_key())
                .or_default()
                .push(finding);
        }
        let mut outcome = RatchetOutcome::default();
        for (key, group) in &by_key {
            let allowed = self.counts.get(key).copied().unwrap_or(0);
            let current = group.len() as i64;
            if current > allowed {
                // The whole group is reported: with count-based keys we
                // cannot tell old sites from new ones, and showing every
                // span is more actionable than showing none.
                outcome.new_violations.extend(group.iter().cloned());
            } else {
                outcome.baselined.extend(group.iter().cloned());
                if current < allowed {
                    outcome
                        .improvements
                        .push(format!("{key}: baseline {allowed}, now {current}"));
                }
            }
        }
        // Baselined keys with zero current findings are also stale.
        for (key, allowed) in &self.counts {
            if *allowed > 0 && !by_key.contains_key(key) {
                outcome
                    .improvements
                    .push(format!("{key}: baseline {allowed}, now 0"));
            }
        }
        outcome
    }

    /// Count findings per baseline key.
    pub fn counts_of(findings: &[Finding]) -> BTreeMap<String, i64> {
        let mut counts: BTreeMap<String, i64> = BTreeMap::new();
        for finding in findings {
            *counts.entry(finding.baseline_key()).or_insert(0) += 1;
        }
        counts
    }

    /// Every key whose count would change if the baseline were
    /// rewritten with `new_counts` (absent keys count as 0 on either
    /// side), in key order.
    pub fn diff(&self, new_counts: &BTreeMap<String, i64>) -> Vec<BaselineChange> {
        let mut keys: Vec<&String> = self.counts.keys().chain(new_counts.keys()).collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .filter_map(|key| {
                let old = self.counts.get(key).copied().unwrap_or(0);
                let new = new_counts.get(key).copied().unwrap_or(0);
                (old != new).then(|| BaselineChange {
                    key: key.clone(),
                    old,
                    new,
                })
            })
            .collect()
    }

    /// Render baseline text from the current findings and stats.
    /// `previous` stats keys are preserved unless overridden — this
    /// keeps historical markers like `seed_panic_sites` intact across
    /// `--update-baseline` runs.
    pub fn render(
        findings: &[Finding],
        stats: &BTreeMap<String, i64>,
        previous: &Baseline,
    ) -> String {
        let counts = Baseline::counts_of(findings);
        let mut merged = previous.stats.clone();
        for (k, v) in stats {
            merged.insert(k.clone(), *v);
        }
        let mut out = String::new();
        out.push_str(
            "# Ratchet for `cargo run -p ici-lint`. Regenerate with\n\
             # `cargo run -p ici-lint -- --update-baseline`; counts may only go down.\n",
        );
        if !merged.is_empty() {
            out.push_str("\n[stats]\n");
            for (key, value) in &merged {
                out.push_str(&format!("{key} = {value}\n"));
            }
        }
        out.push_str("\n[counts]\n");
        for (key, value) in &counts {
            out.push_str(&format!("\"{key}\" = {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(rule: &str, file: &str, line: usize) -> Finding {
        Finding::new(rule, file, line, "m")
    }

    #[test]
    fn empty_baseline_reports_everything() {
        let b = Baseline::default();
        let out = b.apply(vec![f("panic", "a.rs", 1), f("panic", "a.rs", 2)]);
        assert_eq!(out.new_violations.len(), 2);
        assert!(out.baselined.is_empty());
    }

    #[test]
    fn within_baseline_is_suppressed() {
        let b = Baseline::parse("[counts]\n\"panic:a.rs\" = 2\n").expect("parses");
        let out = b.apply(vec![f("panic", "a.rs", 1), f("panic", "a.rs", 2)]);
        assert!(out.new_violations.is_empty());
        assert_eq!(out.baselined.len(), 2);
        assert!(out.improvements.is_empty());
    }

    #[test]
    fn exceeding_baseline_reports_the_group() {
        let b = Baseline::parse("[counts]\n\"panic:a.rs\" = 1\n").expect("parses");
        let out = b.apply(vec![f("panic", "a.rs", 1), f("panic", "a.rs", 2)]);
        assert_eq!(out.new_violations.len(), 2);
        assert!(out.baselined.is_empty());
    }

    #[test]
    fn diff_covers_raises_drops_and_disappearances() {
        let b =
            Baseline::parse("[counts]\n\"panic:a.rs\" = 3\n\"cast:b.rs\" = 1\n").expect("parses");
        let new_counts = Baseline::counts_of(&[
            f("panic", "a.rs", 1),
            f("error", "c.rs", 4),
            f("error", "c.rs", 9),
        ]);
        let changes = b.diff(&new_counts);
        assert_eq!(changes.len(), 3, "{changes:?}");
        assert_eq!(changes[0].to_string(), "cast:b.rs: 1 -> 0");
        assert!(!changes[0].is_raise());
        assert_eq!(changes[1].to_string(), "error:c.rs: 0 -> 2");
        assert!(changes[1].is_raise());
        assert_eq!(changes[2].to_string(), "panic:a.rs: 3 -> 1");
        assert!(b.diff(&b.counts.clone()).is_empty(), "no change, no diff");
    }

    #[test]
    fn undershoot_is_an_improvement() {
        let b =
            Baseline::parse("[counts]\n\"panic:a.rs\" = 3\n\"cast:b.rs\" = 2\n").expect("parses");
        let out = b.apply(vec![f("panic", "a.rs", 1)]);
        assert!(out.new_violations.is_empty());
        assert_eq!(out.improvements.len(), 2);
    }

    #[test]
    fn render_round_trips_and_preserves_stats() {
        let previous = Baseline::parse("[stats]\nseed_panic_sites = 282\n").expect("parses");
        let mut stats = BTreeMap::new();
        stats.insert("protocol_panic_sites".to_string(), 30i64);
        let text = Baseline::render(
            &[
                f("panic", "a.rs", 1),
                f("panic", "a.rs", 9),
                f("cast", "b.rs", 2),
            ],
            &stats,
            &previous,
        );
        let reparsed = Baseline::parse(&text).expect("round trips");
        assert_eq!(reparsed.counts.get("panic:a.rs"), Some(&2));
        assert_eq!(reparsed.counts.get("cast:b.rs"), Some(&1));
        assert_eq!(reparsed.stats.get("seed_panic_sites"), Some(&282));
        assert_eq!(reparsed.stats.get("protocol_panic_sites"), Some(&30));
    }
}
