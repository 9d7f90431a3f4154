//! The docs against the tree.
//!
//! Every workspace member (each `crates/*` package and the root
//! package) has exactly one row in DESIGN.md's "Repository inventory"
//! table, and every row names a member. A row is keyed by the first
//! backticked name in its first cell, less any `crates/` prefix.
//!
//! Every backticked repo path in README, DESIGN and EXPERIMENTS exists,
//! or is followed on its line by `` (deleted in `<commit>`)``.
//!
//! Every `file.rs:N` reference there names a file of the tree with at
//! least N lines, unless it is pinned to a commit: its line, or the
//! header row of its table, says `` (at `<commit>`)``.
//!
//! Every `ICI_*` variable named there is one the tree reads (a string
//! literal of that name in non-test source), or is followed on its line
//! by `` (retired in `<commit>`)``.
//!
//! Every experiment id named there (`e4`, `E-fault`, `e_scale`) is a
//! row of `ici-bench`'s `experiments::TABLE`, or its line says
//! `` (retired in `<commit>`)``.

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

/// Whether `id` is a 7- to 40-digit hex commit id.
fn is_commit(id: &str) -> bool {
    (7..=40).contains(&id.len()) && id.chars().all(|c| c.is_ascii_hexdigit())
}

/// Whether `rest`, the text after a span, opens with
/// `` (<event> in `<commit>`)``.
fn names_commit(rest: &str, event: &str) -> bool {
    rest.strip_prefix(" (")
        .and_then(|r| r.strip_prefix(event))
        .and_then(|r| r.strip_prefix(" in `"))
        .and_then(|r| r.split_once("`)"))
        .is_some_and(|(id, _)| is_commit(id))
}

/// Whether `rest`, the text after a span, opens with
/// `` (deleted in `<commit>`)``.
fn names_deleting_commit(rest: &str) -> bool {
    names_commit(rest, "deleted")
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

/// Whether `line` pins what it says to a commit: `` (at `<commit>`)``.
fn pins_commit(line: &str) -> bool {
    line.split("(at `")
        .skip(1)
        .any(|r| r.split_once("`)").is_some_and(|(id, _)| is_commit(id)))
}

/// The `file.rs:N` references of `line`, as `(file, N)`.
fn line_refs(line: &str) -> Vec<(&str, usize)> {
    let name_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut refs = Vec::new();
    for (at, _) in line.match_indices(".rs:") {
        let start = line[..at]
            .rfind(|c: char| !name_char(c))
            .map_or(0, |i| i + 1);
        let digits = &line[at + 4..];
        let end = digits
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(digits.len());
        if let (Ok(n), true) = (digits[..end].parse(), start < at) {
            refs.push((&line[start..at + 3], n));
        }
    }
    refs
}

/// Every `file.rs:N` reference of `text` (the doc `doc`) that points
/// past the end of its file, or names none, reported at its line.
/// `lines_of` gives the longest length among the tree's files the name
/// can mean, or `None` if it means none. A reference is exempt when its
/// line, or the header row of its table, pins it to a commit. Fenced
/// code blocks are skipped.
fn line_ref_problems(
    doc: &str,
    text: &str,
    lines_of: impl Fn(&str) -> Option<usize>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut fenced = false;
    // Whether the table the previous line belongs to is pinned.
    let mut table: Option<bool> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let pinned = if line.starts_with('|') {
            *table.get_or_insert(pins_commit(line))
        } else {
            table = None;
            pins_commit(line)
        };
        if pinned {
            continue;
        }
        for (file, n) in line_refs(line) {
            let problem = match lines_of(file) {
                None => "names no file in the tree".to_string(),
                Some(len) if len < n => format!("points past the file's end ({len} lines)"),
                Some(_) => continue,
            };
            problems.push(format!("{doc}:{}: `{file}:{n}` {problem}", i + 1));
        }
    }
    problems
}

/// Every `.rs` file under `dir`, as a path relative to `root`, with its
/// text. Hidden directories and build output are skipped.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).expect("directory lists") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().expect("named").to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path).expect("source reads");
            let rel = path.strip_prefix(root).expect("under the root");
            out.push((rel.to_string_lossy().into_owned(), text));
        }
    }
}

#[test]
fn every_line_reference_is_in_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, root, &mut files);
    // A reference means every file it is a path suffix of.
    let lines_of = |name: &str| {
        let suffix = format!("/{name}");
        files
            .iter()
            .filter(|(rel, _)| rel == name || rel.ends_with(&suffix))
            .map(|(_, text)| text.lines().count())
            .max()
    };
    let mut problems = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc reads");
        problems.extend(line_ref_problems(doc, &text, lines_of));
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// The check itself: a reference past its file's end or to no file is
/// reported at its line; one in range, one on a pinned line, the rows of
/// a pinned table and a fenced block are not.
#[test]
fn the_line_reference_check_names_the_line() {
    let doc = "See `mempool.rs:12` and `mempool.rs:9999`.\n\
               `gone.rs:3` is live.\n\
               `ici-a/src/lib.rs:40` as it stood (at `abc1234`).\n\
               | site (at `801014f`) | note |\n|---|---|\n| `gone.rs:1` | old |\n\n\
               | site | note |\n|---|---|\n| `gone.rs:2` | live |\n\
               ```\ngone.rs:5\n```\n";
    let lines_of = |name: &str| (name == "mempool.rs").then_some(400);
    assert_eq!(
        line_ref_problems("DOC.md", doc, lines_of),
        [
            "DOC.md:1: `mempool.rs:9999` points past the file's end (400 lines)",
            "DOC.md:2: `gone.rs:3` names no file in the tree",
            "DOC.md:10: `gone.rs:2` names no file in the tree",
        ]
    );
}

/// The `ICI_*` names of `line`, each with the text after it: after its
/// backticked span's closing backtick when it sits in one.
fn env_vars(line: &str) -> Vec<(&str, &str)> {
    let mut vars = Vec::new();
    for (at, _) in line.match_indices("ICI_") {
        let before = line[..at].chars().next_back();
        if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let tail = &line[at..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        let name = &tail[..len];
        if name.ends_with('_') {
            continue;
        }
        let in_span = line[..at].matches('`').count() % 2 == 1;
        let rest = if in_span {
            tail.split_once('`').map_or("", |(_, rest)| rest)
        } else {
            &tail[len..]
        };
        vars.push((name, rest));
    }
    vars
}

/// Every `ICI_*` variable of `text` (the doc `doc`) that `read` rejects
/// and that is not marked `` (retired in `<commit>`)``, reported at its
/// line. Fenced blocks are checked too: a command there sets a variable.
fn env_problems(doc: &str, text: &str, read: impl Fn(&str) -> bool) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for (name, rest) in env_vars(line) {
            if !read(name) && !names_commit(rest, "retired") {
                problems.push(format!(
                    "{doc}:{}: `{name}` is read nowhere in the tree and is not marked retired",
                    i + 1
                ));
            }
        }
    }
    problems
}

/// Every non-test source file's text: each crate's `src` and the root
/// package's.
fn sources(root: &Path) -> String {
    let mut dirs = vec![root.join("src")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ lists") {
        dirs.push(entry.expect("crates/ entry").path().join("src"));
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|dir| dir.is_dir()) {
        rust_files(root, dir, &mut files);
    }
    files.into_iter().map(|(_, text)| text).collect()
}

#[test]
fn every_named_env_var_is_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(root);
    let read = |name: &str| sources.contains(&format!("\"{name}\""));
    assert!(read("ICI_TELEMETRY"), "the telemetry switch is found");
    let mut problems = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc reads");
        problems.extend(env_problems(doc, &text, read));
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// The check itself: a variable the tree does not read is reported at
/// its line, in a span, in a fenced command or bare; a read one, a
/// retired one and a glob are not.
#[test]
fn the_env_var_check_names_the_line() {
    let doc = "Set `ICI_ON=1` or `ICI_OFF`.\n\
               `ICI_OLD=4` (retired in `abc1234`), `ICI_*`, NOT_ICI_X.\n\
               ```\nICI_GONE=1 cargo run\n```\n\
               `ICI_LATE` (retired in `xyz`)\n";
    let read = |name: &str| name == "ICI_ON";
    assert_eq!(
        env_problems("DOC.md", doc, read),
        [
            "DOC.md:1: `ICI_OFF` is read nowhere in the tree and is not marked retired",
            "DOC.md:4: `ICI_GONE` is read nowhere in the tree and is not marked retired",
            "DOC.md:6: `ICI_LATE` is read nowhere in the tree and is not marked retired",
        ]
    );
}

/// Where `experiments::TABLE` is written, one `row("<id>", ..)` a row.
const EXPERIMENT_TABLE: &str = "crates/ici-bench/src/experiments/mod.rs";

/// The experiment ids of `line`, as written and in `TABLE`'s spelling:
/// an `e` or `E` that starts a word, then digits, or `_` or `-` and
/// lowercase letters, ending the word. `e9_assignment` (a module) and
/// `e2e` are no ids.
fn experiment_ids(line: &str) -> Vec<(&str, String)> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut ids = Vec::new();
    for (at, _) in line.match_indices(['e', 'E']) {
        if line[..at].chars().next_back().is_some_and(word) {
            continue;
        }
        let tail = &line[at + 1..];
        let len = match tail.chars().next() {
            Some(c) if c.is_ascii_digit() => tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len()),
            Some('_' | '-') => {
                let letters = tail[1..]
                    .find(|c: char| !c.is_ascii_lowercase())
                    .unwrap_or(tail.len() - 1);
                if letters == 0 {
                    continue;
                }
                letters + 1
            }
            _ => continue,
        };
        if tail[len..].chars().next().is_some_and(word) {
            continue;
        }
        let written = &line[at..at + 1 + len];
        ids.push((written, written.to_ascii_lowercase().replace('-', "_")));
    }
    ids
}

/// Every experiment id of `text` (the doc `doc`) that is not one of
/// `rows`, on a line that does not mark it retired, reported at its
/// line. Fenced blocks are checked too: a command there runs a row.
fn experiment_problems(doc: &str, text: &str, rows: &[String]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let retired = line
            .split("(retired in `")
            .skip(1)
            .any(|r| r.split_once("`)").is_some_and(|(id, _)| is_commit(id)));
        for (written, id) in experiment_ids(line) {
            if !retired && !rows.contains(&id) {
                problems.push(format!(
                    "{doc}:{}: experiment `{written}` is not a row of `experiments::TABLE` \
                     and its line does not mark it retired",
                    i + 1
                ));
            }
        }
    }
    problems
}

/// The ids of `experiments::TABLE`, read from its source.
fn table_rows(source: &str) -> Vec<String> {
    source
        .split("row(\"")
        .skip(1)
        .filter_map(|rest| rest.split_once('"'))
        .map(|(id, _)| id.to_string())
        .collect()
}

#[test]
fn every_named_experiment_is_a_table_row() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let source = fs::read_to_string(root.join(EXPERIMENT_TABLE)).expect("the table reads");
    let rows = table_rows(&source);
    assert!(
        rows.iter().any(|r| r == "e1") && rows.iter().any(|r| r == "e_fault"),
        "{EXPERIMENT_TABLE} rows {rows:?}"
    );
    let mut problems = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc reads");
        problems.extend(experiment_problems(doc, &text, &rows));
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

/// The check itself: an id that is no row is reported at its line, in
/// any spelling, in a span or a fenced command; a row, a retired id,
/// a module name, `e2e` and a word that merely starts with `e` are not.
#[test]
fn the_experiment_check_names_the_line() {
    let rows = table_rows(
        "pub static TABLE: [Experiment; 3] = [\n    row(\"e1\", Fixed(a)),\n    \
         row(\"e_fault\", Seeded(b)),\n    row(\"e10\", Fixed(c)),\n];\n",
    );
    assert_eq!(rows, ["e1", "e_fault", "e10"]);
    let doc = "E1, `e10`, E-fault and `results/e_fault.json` hold.\n\
               E12 and `e_gone` do not.\n\
               `e7` (retired in `abc1234`); `e9_assignment`, e2e, every, E-1.\n\
               ```\nici-bench e4\n```\n\
               E-Scale, e3x, e-fault.\n";
    assert_eq!(
        experiment_problems("DOC.md", doc, &rows),
        [
            "DOC.md:2: experiment `E12` is not a row of `experiments::TABLE` and its line does not mark it retired",
            "DOC.md:2: experiment `e_gone` is not a row of `experiments::TABLE` and its line does not mark it retired",
            "DOC.md:5: experiment `e4` is not a row of `experiments::TABLE` and its line does not mark it retired",
        ]
    );
}
