//! Findings, the text report, and JSON primitives.

use std::fmt;

/// One rule violation, anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name: `panic`, `unsafe`, `cast`, `error`, `deps`, `waiver`,
    /// `rehash`, one of the determinism family (`unordered-iter`,
    /// `wall-clock`, `rogue-thread`, `env-read`, `entropy`), or `limits`
    /// for a site total above its `lint.toml` `[limits]` entry.
    pub rule: String,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number (0 when the finding is file-level).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// True when an inline `lint:allow` waiver suppresses this site.
    /// Waived findings never fail the gate but are still counted in
    /// stats and reported in the JSON output.
    pub waived: bool,
}

impl Finding {
    /// Build an unwaived finding.
    pub fn new(
        rule: impl Into<String>,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule: rule.into(),
            file: file.into(),
            line,
            message: message.into(),
            waived: false,
        }
    }

    /// Mark the finding as suppressed by an inline waiver.
    pub fn waived(mut self, waived: bool) -> Self {
        self.waived = waived;
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// A waiver that no longer suppresses anything. Listed in the output
/// and counted in the `stale_waivers` stat, which fails the gate once
/// it exceeds its `[limits]` entry — so they get cleaned up instead of
/// rotting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleWaiver {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line the waiver applies to.
    pub line: usize,
    /// The rule the waiver names.
    pub rule: String,
}

impl fmt::Display for StaleWaiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: stale `lint:allow({})` — no finding left to suppress",
            self.file, self.line, self.rule
        )
    }
}

/// Escape a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_span_and_rule() {
        let f = Finding::new(
            "panic",
            "crates/ici-core/src/spv.rs",
            102,
            "call to `unwrap()`",
        );
        assert_eq!(
            f.to_string(),
            "crates/ici-core/src/spv.rs:102: [panic] call to `unwrap()`"
        );
        let g = Finding::new("deps", "Cargo.toml", 0, "dependency `rand` not allowed");
        assert_eq!(
            g.to_string(),
            "Cargo.toml: [deps] dependency `rand` not allowed"
        );
    }

    #[test]
    fn findings_default_unwaived() {
        let f = Finding::new("panic", "a.rs", 1, "m");
        assert!(!f.waived);
        assert!(f.waived(true).waived);
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
