//! End-to-end tests over the fixture trees in `tests/fixtures/`.
//!
//! The limit tests copy a fixture into a throwaway directory under the
//! system temp dir so they can rewrite sources and policy without
//! touching the committed fixtures.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A unique scratch copy of a fixture; removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn of(fixture_name: &str, case: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!(
            "ici-lint-{}-{}-{}",
            std::process::id(),
            fixture_name,
            case
        ));
        let _ = fs::remove_dir_all(&root);
        copy_tree(&fixture(fixture_name), &root).expect("copy fixture");
        Scratch { root }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst)?;
        } else {
            fs::copy(&src, &dst)?;
        }
    }
    Ok(())
}

fn rule_set(outcome: &ici_lint::Outcome) -> BTreeSet<String> {
    outcome.violations.iter().map(|f| f.rule.clone()).collect()
}

#[test]
fn clean_fixture_passes() {
    let outcome = ici_lint::run(&fixture("clean")).expect("runs");
    assert!(
        outcome.clean(),
        "unexpected findings: {:?}",
        outcome.violations
    );
    assert_eq!(outcome.files_scanned, 2);
    assert_eq!(outcome.manifests_checked, 2);
    assert!(outcome.stale_waivers.is_empty(), "both waivers are live");
}

#[test]
fn violations_fixture_trips_every_general_rule() {
    let outcome = ici_lint::run(&fixture("violations")).expect("runs");
    assert!(!outcome.clean());
    let rules = rule_set(&outcome);
    let expected: BTreeSet<String> = [
        "panic", "unsafe", "cast", "error", "deps", "waiver", "rehash",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(rules, expected, "{:?}", outcome.violations);

    // Findings carry file:line spans.
    let cast = outcome
        .violations
        .iter()
        .find(|f| f.rule == "cast")
        .expect("cast finding");
    assert_eq!(cast.file, "crates/demo/src/codec.rs");
    assert_eq!(cast.line, 5);
    let deps = outcome
        .violations
        .iter()
        .find(|f| f.rule == "deps")
        .expect("deps finding");
    assert!(deps.message.contains("`rand`"));

    // The two token-matched signature findings and the rehash call.
    let lines = |rule: &str| -> Vec<usize> {
        outcome
            .violations
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.line)
            .collect()
    };
    assert_eq!(lines("error"), [7, 15]);
    assert_eq!(lines("rehash"), [38]);
}

#[test]
fn determinism_fixture_trips_each_rule_exactly_once() {
    let outcome = ici_lint::run(&fixture("determinism")).expect("runs");
    assert!(!outcome.clean());
    let expected = [
        ("unordered-iter", "crates/demo/src/unordered.rs"),
        ("wall-clock", "crates/demo/src/clock.rs"),
        ("rogue-thread", "crates/demo/src/threads.rs"),
        ("env-read", "crates/demo/src/envread.rs"),
        ("entropy", "crates/demo/src/entropy.rs"),
    ];
    for (rule, file) in expected {
        let hits: Vec<_> = outcome
            .violations
            .iter()
            .filter(|f| f.rule == rule)
            .collect();
        assert_eq!(hits.len(), 1, "rule {rule}: {hits:?}");
        assert_eq!(hits[0].file, file, "rule {rule}");
        assert!(hits[0].line > 0, "rule {rule} carries a span");
    }
    assert_eq!(
        outcome.violations.len(),
        expected.len(),
        "nothing else fires: {:?}",
        outcome.violations
    );
    // Each rule's site stat counts its one finding.
    for (stat, want) in [
        ("unordered_iter_sites", 1),
        ("wall_clock_sites", 1),
        ("rogue_thread_sites", 1),
        ("env_read_sites", 1),
        ("entropy_sites", 1),
        ("protocol_panic_sites", 0),
    ] {
        assert_eq!(outcome.stats.get(stat), Some(&want), "{stat}");
    }
}

#[test]
fn json_report_matches_committed_golden() {
    let outcome = ici_lint::run(&fixture("determinism")).expect("runs");
    let rendered = ici_lint::render_json(&outcome);
    let golden_path = fixture("determinism").join("expected.json");
    let golden = fs::read_to_string(&golden_path).expect("committed golden expected.json");
    assert_eq!(
        rendered,
        golden,
        "JSON report drifted from {}; update the golden deliberately",
        golden_path.display()
    );
}

#[test]
fn report_renders_spans_and_summary() {
    let outcome = ici_lint::run(&fixture("violations")).expect("runs");
    let report = ici_lint::render_report(&outcome);
    assert!(report.contains("crates/demo/src/codec.rs:5: [cast]"));
    assert!(report.contains("new violation(s)"));
    assert!(report.contains("stale waiver(s)"));
}

/// Append a `[limits]` table to a scratch tree's policy.
fn with_limits(scratch: &Scratch, limits: &str) {
    let path = scratch.root.join("lint.toml");
    let mut text = fs::read_to_string(&path).expect("read");
    text.push_str("\n[limits]\n");
    text.push_str(limits);
    fs::write(&path, text).expect("write");
}

#[test]
fn total_above_its_limit_fails_the_gate() {
    // The clean fixture's one panic site is waived, so no unwaived
    // finding can see it; its site total can.
    let scratch = Scratch::of("clean", "over-limit");
    with_limits(&scratch, "protocol_panic_sites = 0\n");

    let outcome = ici_lint::run(&scratch.root).expect("runs");
    assert!(!outcome.clean(), "a total past its limit must fail");
    let [finding] = outcome.violations.as_slice() else {
        panic!("one finding: {:?}", outcome.violations);
    };
    assert_eq!(finding.rule, "limits");
    assert_eq!(finding.file, "lint.toml");
    assert_eq!(finding.message, "protocol_panic_sites: 1 site(s), limit 0");
    let report = ici_lint::render_report(&outcome);
    assert!(
        report.contains("lint.toml: [limits] protocol_panic_sites"),
        "{report}"
    );
}

#[test]
fn total_at_or_under_its_limit_passes_and_unlisted_totals_are_not_gated() {
    let scratch = Scratch::of("clean", "within-limit");
    // `protocol_panic_sites` sits at its limit; `wall_clock_sites` (0)
    // under it; `stale_waivers` and the rest are unlisted.
    with_limits(&scratch, "protocol_panic_sites = 1\nwall_clock_sites = 3\n");

    let outcome = ici_lint::run(&scratch.root).expect("runs");
    assert!(outcome.clean(), "{:?}", outcome.violations);

    // Unlisted: a stale waiver pushes `stale_waivers` to 1 and the
    // gate still passes (see also the stale-waiver test below).
    let lib = scratch.root.join("crates/demo/src/lib.rs");
    let text = fs::read_to_string(&lib).expect("read");
    fs::write(
        &lib,
        text.replace(
            "    assert!(input.len() < 1 << 20, \"bounded by construction\");",
            "",
        ),
    )
    .expect("write");
    let outcome = ici_lint::run(&scratch.root).expect("runs");
    assert_eq!(outcome.stats.get("stale_waivers"), Some(&1));
    assert!(outcome.clean(), "{:?}", outcome.violations);
}

#[test]
fn stale_waiver_fails_through_its_limit() {
    let scratch = Scratch::of("clean", "stale-limit");
    with_limits(&scratch, "stale_waivers = 0\n");
    let lib = scratch.root.join("crates/demo/src/lib.rs");
    let text = fs::read_to_string(&lib).expect("read");
    fs::write(
        &lib,
        text.replace(
            "    assert!(input.len() < 1 << 20, \"bounded by construction\");",
            "",
        ),
    )
    .expect("write");

    let outcome = ici_lint::run(&scratch.root).expect("runs");
    let rules: Vec<&str> = outcome
        .violations
        .iter()
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(rules, ["stale_waivers: 1 site(s), limit 0"]);
}

#[test]
fn unknown_limit_key_is_a_config_error() {
    let scratch = Scratch::of("clean", "unknown-limit");
    // A historical marker no run computes is no longer tolerated.
    with_limits(&scratch, "seed_panic_sites = 282\n");
    let err = ici_lint::run(&scratch.root).expect_err("must not gate on an unknown key");
    assert!(err.contains("limits.seed_panic_sites"), "{err}");

    let scratch = Scratch::of("clean", "bad-limit");
    with_limits(&scratch, "protocol_panic_sites = \"seven\"\n");
    let err = ici_lint::run(&scratch.root).expect_err("a limit is a number");
    assert!(err.contains("limits.protocol_panic_sites"), "{err}");
}

#[test]
fn stale_waivers_are_reported_but_do_not_fail_the_gate() {
    let scratch = Scratch::of("clean", "stale");
    // Remove the panic site but keep its waiver: the waiver goes stale.
    let lib = scratch.root.join("crates/demo/src/lib.rs");
    let text = fs::read_to_string(&lib).expect("read");
    let without_site = text.replace(
        "    assert!(input.len() < 1 << 20, \"bounded by construction\");",
        "    debug_assert!(input.len() < 1 << 20);",
    );
    assert_ne!(text, without_site);
    fs::write(&lib, without_site).expect("write");

    let outcome = ici_lint::run(&scratch.root).expect("runs");
    assert!(outcome.clean(), "{:?}", outcome.violations);
    assert_eq!(
        outcome.stale_waivers.len(),
        1,
        "{:?}",
        outcome.stale_waivers
    );
    assert_eq!(outcome.stale_waivers[0].rule, "panic");
    assert_eq!(outcome.stats.get("stale_waivers"), Some(&1));
    let report = ici_lint::render_report(&outcome);
    assert!(report.contains("stale `lint:allow(panic)`"), "{report}");
}

#[test]
fn empty_root_is_an_error_not_a_vacuous_pass() {
    let err = ici_lint::run(Path::new("/nonexistent-lint-root-xyz")).expect_err("must not pass");
    assert!(err.contains("nothing to lint"), "{err}");
}

#[test]
fn a_tree_without_its_policy_file_is_an_error_not_a_default_policy() {
    let scratch = Scratch::of("clean", "no-policy");
    fs::remove_file(scratch.root.join("lint.toml")).expect("fixture ships a lint.toml");
    let err = ici_lint::run(&scratch.root).expect_err("must not gate without a policy");
    assert!(err.contains("lint.toml"), "{err}");
}

#[test]
fn stats_track_panic_sites_including_waived() {
    // The clean fixture has exactly one (waived) panic site.
    let outcome = ici_lint::run(&fixture("clean")).expect("runs");
    assert_eq!(outcome.stats.get("protocol_panic_sites"), Some(&1));
    assert_eq!(outcome.waived.len(), 2, "panic + cast waivers are live");
}
