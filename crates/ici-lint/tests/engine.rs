//! End-to-end tests over the fixture trees in `tests/fixtures/`.
//!
//! The ratchet tests copy a fixture into a throwaway directory under
//! the system temp dir so they can rewrite sources and baselines
//! without touching the committed fixtures.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use ici_lint::Options;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check() -> Options {
    Options::default()
}

fn update() -> Options {
    Options {
        update_baseline: true,
        allow_regress: false,
    }
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
    outcome
        .ratchet
        .new_violations
        .iter()
        .map(|f| f.rule.clone())
        .collect()
}

#[test]
fn clean_fixture_passes() {
    let outcome = ici_lint::run(&fixture("clean"), check()).expect("runs");
    assert!(
        outcome.clean(),
        "unexpected findings: {:?}",
        outcome.ratchet.new_violations
    );
    assert_eq!(outcome.files_scanned, 2);
    assert_eq!(outcome.manifests_checked, 2);
    assert!(outcome.ratchet.baselined.is_empty());
    assert!(outcome.stale_waivers.is_empty(), "both waivers are live");
}

#[test]
fn violations_fixture_trips_every_general_rule() {
    let outcome = ici_lint::run(&fixture("violations"), check()).expect("runs");
    assert!(!outcome.clean());
    let rules = rule_set(&outcome);
    let expected: BTreeSet<String> = [
        "panic", "unsafe", "cast", "error", "deps", "waiver", "rehash",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(rules, expected, "{:?}", outcome.ratchet.new_violations);

    // Findings carry file:line spans.
    let cast = outcome
        .ratchet
        .new_violations
        .iter()
        .find(|f| f.rule == "cast")
        .expect("cast finding");
    assert_eq!(cast.file, "crates/demo/src/codec.rs");
    assert_eq!(cast.line, 5);
    let deps = outcome
        .ratchet
        .new_violations
        .iter()
        .find(|f| f.rule == "deps")
        .expect("deps finding");
    assert!(deps.message.contains("`rand`"));
}

#[test]
fn determinism_fixture_trips_each_rule_exactly_once() {
    let outcome = ici_lint::run(&fixture("determinism"), check()).expect("runs");
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
            .ratchet
            .new_violations
            .iter()
            .filter(|f| f.rule == rule)
            .collect();
        assert_eq!(hits.len(), 1, "rule {rule}: {hits:?}");
        assert_eq!(hits[0].file, file, "rule {rule}");
        assert!(hits[0].line > 0, "rule {rule} carries a span");
    }
    assert_eq!(
        outcome.ratchet.new_violations.len(),
        expected.len(),
        "nothing else fires: {:?}",
        outcome.ratchet.new_violations
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
    let outcome = ici_lint::run(&fixture("determinism"), check()).expect("runs");
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
    let outcome = ici_lint::run(&fixture("violations"), check()).expect("runs");
    let report = ici_lint::render_report(&outcome);
    assert!(report.contains("crates/demo/src/codec.rs:5: [cast]"));
    assert!(report.contains("new violation(s)"));
    assert!(report.contains("stale waiver(s)"));
}

#[test]
fn update_baseline_suppresses_existing_debt() {
    let scratch = Scratch::of("violations", "update");
    let updated = ici_lint::run(&scratch.root, update()).expect("runs");
    assert!(
        updated.clean(),
        "--update-baseline run must pass: {:?}",
        updated.ratchet.new_violations
    );
    assert!(scratch.root.join("lint-baseline.toml").is_file());
    assert!(
        updated
            .baseline_diff
            .iter()
            .any(|c| c.contains("cast:crates/demo/src/codec.rs: 0 -> 1")),
        "creation prints the count diff: {:?}",
        updated.baseline_diff
    );

    let second = ici_lint::run(&scratch.root, check()).expect("runs");
    assert!(second.clean());
    assert!(
        !second.ratchet.baselined.is_empty(),
        "debt is counted, not hidden"
    );
}

#[test]
fn update_baseline_refuses_raises_without_allow_regress() {
    let scratch = Scratch::of("violations", "regress");
    ici_lint::run(&scratch.root, update()).expect("create baseline");
    let before = fs::read_to_string(scratch.root.join("lint-baseline.toml")).expect("read");

    // One more panic site than the baseline tolerates.
    let lib = scratch.root.join("crates/demo/src/lib.rs");
    let mut text = fs::read_to_string(&lib).expect("read");
    text.push_str(
        "\n/// Extra panic site.\npub fn extra(x: &[u8]) -> u8 {\n    *x.last().unwrap()\n}\n",
    );
    fs::write(&lib, text).expect("write");

    let err = ici_lint::run(&scratch.root, update()).expect_err("must refuse the raise");
    assert!(err.contains("--allow-regress"), "{err}");
    assert!(
        err.contains("panic:crates/demo/src/lib.rs: 1 -> 2"),
        "refusal names the raised count: {err}"
    );
    let after = fs::read_to_string(scratch.root.join("lint-baseline.toml")).expect("read");
    assert_eq!(before, after, "refused update must not touch the file");

    let accepted = ici_lint::run(
        &scratch.root,
        Options {
            update_baseline: true,
            allow_regress: true,
        },
    )
    .expect("allow-regress accepts");
    assert!(accepted.clean());
    assert!(
        accepted
            .baseline_diff
            .iter()
            .any(|c| c.contains("panic:crates/demo/src/lib.rs: 1 -> 2")),
        "diff printed on accepted regress: {:?}",
        accepted.baseline_diff
    );
}

#[test]
fn ratchet_fails_when_a_count_grows() {
    let scratch = Scratch::of("violations", "grow");
    ici_lint::run(&scratch.root, update()).expect("baseline");

    let lib = scratch.root.join("crates/demo/src/lib.rs");
    let mut text = fs::read_to_string(&lib).expect("read");
    text.push_str("\n/// One more panic site than the baseline allows.\n");
    text.push_str("pub fn fourth(input: &[u8]) -> u8 {\n    *input.last().unwrap()\n}\n");
    fs::write(&lib, text).expect("write");

    let outcome = ici_lint::run(&scratch.root, check()).expect("runs");
    assert!(!outcome.clean(), "growth past the baseline must fail");
    // The file's count and the rule's site total both grew.
    assert!(outcome.ratchet.new_violations.iter().all(|f| {
        (f.rule == "panic" && f.file == "crates/demo/src/lib.rs") || f.rule == "stats"
    }));
}

#[test]
fn stat_above_its_baseline_fails_the_gate() {
    // The clean fixture's one panic site is waived, so no per-file count
    // can see it; its site total can.
    let scratch = Scratch::of("clean", "stat-over");
    fs::write(
        scratch.root.join("lint-baseline.toml"),
        "[stats]\nprotocol_panic_sites = 0\n\n[counts]\n",
    )
    .expect("write");

    let outcome = ici_lint::run(&scratch.root, check()).expect("runs");
    assert!(!outcome.clean(), "a stat past its baseline must fail");
    let [finding] = outcome.ratchet.new_violations.as_slice() else {
        panic!("one finding: {:?}", outcome.ratchet.new_violations);
    };
    assert_eq!(finding.rule, "stats");
    assert_eq!(finding.file, "lint-baseline.toml");
    assert_eq!(finding.message, "protocol_panic_sites: baseline 0, now 1");

    // Raising it takes the same explicit flag a count does.
    let err = ici_lint::run(&scratch.root, update()).expect_err("must refuse the raise");
    assert!(
        err.contains("stats.protocol_panic_sites: 0 -> 1"),
        "refusal names the raised stat: {err}"
    );
}

#[test]
fn stat_within_its_baseline_passes_and_uncomputed_keys_are_left_alone() {
    let scratch = Scratch::of("clean", "stat-within");
    // `seed_panic_sites` is a historical marker no run computes;
    // `wall_clock_sites` is computed (0 here) and under its entry.
    fs::write(
        scratch.root.join("lint-baseline.toml"),
        "[stats]\nprotocol_panic_sites = 1\nseed_panic_sites = 0\nwall_clock_sites = 3\n\n[counts]\n",
    )
    .expect("write");

    let outcome = ici_lint::run(&scratch.root, check()).expect("runs");
    assert!(outcome.clean(), "{:?}", outcome.ratchet.new_violations);
    assert_eq!(outcome.stats.get("seed_panic_sites"), None);

    let updated = ici_lint::run(&scratch.root, update()).expect("lowering needs no flag");
    assert!(updated
        .baseline_diff
        .contains(&"stats.wall_clock_sites: 3 -> 0".to_string()));
    let text = fs::read_to_string(scratch.root.join("lint-baseline.toml")).expect("read");
    assert!(text.contains("seed_panic_sites = 0"), "{text}");
    assert!(text.contains("wall_clock_sites = 0"), "{text}");
}

#[test]
fn ratchet_reports_improvements_when_a_count_shrinks() {
    let scratch = Scratch::of("violations", "shrink");
    ici_lint::run(&scratch.root, update()).expect("baseline");

    // Fix the cast violation: the codec file's count drops 1 -> 0.
    let codec = scratch.root.join("crates/demo/src/codec.rs");
    let text = fs::read_to_string(&codec).expect("read");
    let fixed = text.replace(
        "len as u32",
        "u32::try_from(len & 0xFFFF_FFFF).unwrap_or(0)",
    );
    assert_ne!(text, fixed);
    fs::write(&codec, fixed).expect("write");

    let outcome = ici_lint::run(&scratch.root, check()).expect("runs");
    assert!(outcome.clean(), "{:?}", outcome.ratchet.new_violations);
    assert!(
        outcome
            .ratchet
            .improvements
            .iter()
            .any(|i| i.contains("cast") && i.contains("codec.rs")),
        "improvements: {:?}",
        outcome.ratchet.improvements
    );
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

    let outcome = ici_lint::run(&scratch.root, check()).expect("runs");
    assert!(outcome.clean(), "{:?}", outcome.ratchet.new_violations);
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
    let err =
        ici_lint::run(Path::new("/nonexistent-lint-root-xyz"), check()).expect_err("must not pass");
    assert!(err.contains("nothing to lint"), "{err}");
}

#[test]
fn a_tree_without_its_policy_file_is_an_error_not_a_default_policy() {
    let scratch = Scratch::of("clean", "no-policy");
    fs::remove_file(scratch.root.join("lint.toml")).expect("fixture ships a lint.toml");
    let err = ici_lint::run(&scratch.root, check()).expect_err("must not gate without a policy");
    assert!(err.contains("lint.toml"), "{err}");
}

#[test]
fn stats_track_panic_sites_including_waived() {
    // The clean fixture has exactly one (waived) panic site.
    let outcome = ici_lint::run(&fixture("clean"), check()).expect("runs");
    assert_eq!(outcome.stats.get("protocol_panic_sites"), Some(&1));
    assert_eq!(outcome.waived.len(), 2, "panic + cast waivers are live");
}
