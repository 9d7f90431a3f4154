//! The docs against the tree.
//!
//! Every workspace member (each `crates/*` package and the root
//! package) has exactly one row in DESIGN.md's "Repository inventory"
//! table, and every row names a member. A row is keyed by the first
//! backticked name in its first cell, less any `crates/` prefix.
//!
//! Every backticked repo path in README, DESIGN and EXPERIMENTS exists,
//! or is followed on its line by `` (deleted in `<commit>`)``.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

const HEADING: &str = "## Repository inventory";

/// The docs whose backticked paths must resolve.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The tracked top-level directories: a backticked span starting with
/// one of them is a path from the repo root.
const TOP_DIRS: [&str; 7] = [
    "benchmark",
    "crates",
    "examples",
    "results",
    "scripts",
    "src",
    "tests",
];

/// The workspace members by package directory name, and the root
/// package by its name.
fn members(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| {
            dir.file_name()
                .expect("named")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest reads");
    let package = manifest
        .split("[package]")
        .nth(1)
        .and_then(|section| section.lines().find(|l| l.starts_with("name")))
        .and_then(|line| line.split('"').nth(1))
        .expect("root package name");
    names.push(package.to_string());
    names
}

/// The inventory's rows as `(line number, key)`, and the heading's line.
fn rows(design: &str) -> (usize, Vec<(usize, String)>) {
    let lines: Vec<&str> = design.lines().collect();
    let heading = lines
        .iter()
        .position(|l| l.starts_with(HEADING))
        .expect("DESIGN.md has the inventory heading");
    let mut rows = Vec::new();
    for (i, line) in lines.iter().enumerate().skip(heading + 1) {
        if line.starts_with("## ") {
            break;
        }
        let Some(cell) = line.strip_prefix('|').and_then(|l| l.split('|').next()) else {
            continue;
        };
        // The header row and its rule name nothing in backticks.
        let Some(name) = cell.split('`').nth(1) else {
            continue;
        };
        let key = name.strip_prefix("crates/").unwrap_or(name);
        rows.push((i + 1, key.to_string()));
    }
    (heading + 1, rows)
}

fn inventory_problems(design: &str, members: &[String]) -> Vec<String> {
    let (heading, rows) = rows(design);
    let mut lines_of: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut problems = Vec::new();
    for (line, key) in &rows {
        if members.contains(key) {
            lines_of.entry(key.as_str()).or_default().push(*line);
        } else {
            problems.push(format!(
                "DESIGN.md:{line}: inventory row names `{key}`, not a workspace member"
            ));
        }
    }
    for member in members {
        match lines_of.get(member.as_str()).map(Vec::as_slice) {
            None | Some([]) => problems.push(format!(
                "DESIGN.md:{heading}: the inventory has no row for workspace member `{member}`"
            )),
            Some([_]) => {}
            Some(lines) => problems.push(format!(
                "DESIGN.md:{}: workspace member `{member}` has {} inventory rows (lines {lines:?})",
                lines[1],
                lines.len()
            )),
        }
    }
    problems
}

#[test]
fn every_workspace_member_has_exactly_one_inventory_row() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md reads");
    let members = members(root);
    assert!(members.len() > 1, "members {members:?}");
    let problems = inventory_problems(&design, &members);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// The check itself: a dropped row, a duplicated one and a row for a
/// crate that does not exist are each reported at their line.
#[test]
fn the_inventory_check_names_the_line() {
    let design = "intro\n## Repository inventory\n\n| Crate | Role |\n|---|---|\n\
                  | `crates/a` | one |\n| `crates/b` | two |\n| `crates/b` | again |\n\
                  | `crates/gone` | old |\n| root `top` package | root |\n## Next\n| `crates/c` | later |\n";
    let members = ["a", "b", "c", "top"].map(String::from).to_vec();
    assert_eq!(
        inventory_problems(design, &members),
        [
            "DESIGN.md:9: inventory row names `gone`, not a workspace member",
            "DESIGN.md:8: workspace member `b` has 2 inventory rows (lines [7, 8])",
            "DESIGN.md:2: the inventory has no row for workspace member `c`",
        ]
    );
}

/// The repo-root path a backticked span names, if it names one: no
/// whitespace and no pattern or placeholder characters, and a first
/// component that is a top-level directory, or a crate (`ici-*`, taken
/// from `crates/`).
fn repo_path(span: &str) -> Option<String> {
    if span.contains(|c: char| c.is_whitespace() || "*<>{}".contains(c)) {
        return None;
    }
    let (first, _) = span.split_once('/')?;
    if TOP_DIRS.contains(&first) {
        Some(span.to_string())
    } else if first.starts_with("ici-") {
        Some(format!("crates/{span}"))
    } else {
        None
    }
}

/// Whether `rest`, the text after a span, opens with
/// `` (deleted in `<commit>`)``, the commit a 7- to 40-digit hex id.
fn names_deleting_commit(rest: &str) -> bool {
    rest.strip_prefix(" (deleted in `")
        .and_then(|r| r.split_once("`)"))
        .is_some_and(|(id, _)| {
            (7..=40).contains(&id.len()) && id.chars().all(|c| c.is_ascii_hexdigit())
        })
}

/// Every backticked repo path of `text` (the doc `doc`) that `exists`
/// rejects and that names no deleting commit, reported at its line.
/// Fenced code blocks are skipped.
fn path_problems(doc: &str, text: &str, exists: impl Fn(&str) -> bool) -> Vec<String> {
    let mut problems = Vec::new();
    let mut fenced = false;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let mut pieces = line.split('`');
        let mut offset = 0;
        while let (Some(outside), Some(span)) = (pieces.next(), pieces.next()) {
            offset += outside.len() + span.len() + 2;
            let Some(path) = repo_path(span) else {
                continue;
            };
            if !exists(&path) && !names_deleting_commit(line.get(offset..).unwrap_or("")) {
                problems.push(format!(
                    "{doc}:{}: `{span}` is not in the tree and names no commit it was deleted in",
                    i + 1
                ));
            }
        }
    }
    problems
}

#[test]
fn every_backticked_repo_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut problems = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc reads");
        problems.extend(path_problems(doc, &text, |path| root.join(path).exists()));
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// The check itself: a missing path is reported at its line, however it
/// is spelled; a present one, a deleted one that names its commit, a
/// glob, a counter name and a fenced block are not.
#[test]
fn the_path_check_names_the_line() {
    let doc = "See `crates/a/src/lib.rs` and `ici-a/src/gone.rs`.\n\
               `src/old.rs` (deleted in `abc1234`) and `tests/x.rs` (deleted in `xyz`).\n\
               `results/e*.json`, `net/fault_drops`, `/proc/cpuinfo`, `r/c`.\n\
               ```\n`scripts/absent.sh`\n```\n\
               Last: `scripts/absent.sh`\n";
    let exists = |path: &str| path == "crates/a/src/lib.rs";
    assert_eq!(
        path_problems("DOC.md", doc, exists),
        [
            "DOC.md:1: `ici-a/src/gone.rs` is not in the tree and names no commit it was deleted in",
            "DOC.md:2: `tests/x.rs` is not in the tree and names no commit it was deleted in",
            "DOC.md:7: `scripts/absent.sh` is not in the tree and names no commit it was deleted in",
        ]
    );
}
