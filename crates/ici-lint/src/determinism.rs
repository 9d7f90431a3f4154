//! The determinism rule family.
//!
//! Every node in the simulated network must derive the same cluster
//! assignment, shard placement, and audit verdict from the same inputs
//! — the whole verification story (byte-compared `results/e*.json`,
//! pinned golden runs, replayed fault schedules) rests on it. These
//! five rules turn that discipline from an end-to-end byte comparison
//! into a static guarantee:
//!
//! * `unordered-iter` — iterating, collecting, draining, or extending
//!   from a `HashMap`/`HashSet` in the determinism-gated crates. The
//!   iteration order of the std hash containers depends on a per-map
//!   layout that is deterministic today only by accident of our
//!   fixed-hasher choices; point lookups (`.get`, `.contains_key`,
//!   `.insert`, `.remove`, `.entry`, `.len`) stay legal.
//! * `wall-clock` — `Instant::now()` / `SystemTime` reads. Protocol
//!   time comes from the simulation clock; real timestamps may only
//!   appear at the waived measurement sites in `ici-bench` and
//!   `ici-telemetry`.
//! * `rogue-thread` — `std::thread::{spawn, scope, Builder}` outside
//!   the crates `lint.toml` allows them in. The shipped list is empty:
//!   every computation is a loop on its caller's thread, so no result
//!   can depend on a schedule.
//! * `env-read` — `std::env::{var, var_os, vars, vars_os}` outside the
//!   sanctioned configuration modules. Environment reads scattered
//!   through protocol code make a run irreproducible from its recorded
//!   inputs. (`env::args` CLI parsing is not flagged.)
//! * `entropy` — seeding from OS entropy (`OsRng`, `from_entropy`,
//!   `thread_rng`, `getrandom`, an explicit `RandomState`). All
//!   randomness derives from plumbed, recorded seeds.
//!
//! All five skip `#[cfg(test)]` code and emit waived findings (rather
//! than skipping waived sites) so the engine can count total sites and
//! detect stale waivers.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::rules::SourceFile;
use crate::scanner::token_seq_positions;

/// Methods on a hash container whose results depend on iteration order.
const ORDER_DEPENDENT_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Entropy-source identifiers; any appearance outside tests is a
/// finding.
const ENTROPY_IDENTS: &[&str] = &[
    "OsRng",
    "from_entropy",
    "thread_rng",
    "getrandom",
    "RandomState",
];

/// Emit one finding, resolving test-exemption and waiver state.
fn emit(findings: &mut Vec<Finding>, file: &SourceFile, rule: &str, line: usize, message: String) {
    if file.scanned.line_in_test(line) {
        return;
    }
    findings.push(
        Finding::new(rule, &file.rel_path, line, message)
            .waived(file.scanned.is_waived(line, rule)),
    );
}

/// `unordered-iter`: order-dependent consumption of `HashMap`/`HashSet`
/// bindings in the determinism-gated crates.
///
/// Pass 1 resolves which names are hash containers — from type
/// annotations (`name: HashMap<..>`, including `&`/`&mut`/fully
/// qualified forms) and from constructor assignments
/// (`name = HashMap::new()` / `with_capacity` / `from` / `default`).
/// Pass 2 flags order-dependent uses of those names: method calls from
/// [`ORDER_DEPENDENT_METHODS`], direct `for .. in [&][mut][self.]name`,
/// and `.extend([&]name)`.
pub fn check_unordered_iter(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !config.determinism_crates.contains(&file.crate_name) {
            continue;
        }
        let tokens = &file.scanned.tokens;
        let bindings = hash_container_bindings(tokens);
        if bindings.is_empty() {
            continue;
        }

        for (at, tok) in tokens.iter().enumerate() {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let Some(container) = bindings.get(&tok.text) else {
                continue;
            };
            // `name . method (` with an order-dependent method.
            let method_call = tokens.get(at + 1).is_some_and(|t| t.text == ".")
                && tokens.get(at + 3).is_some_and(|t| t.text == "(")
                && tokens
                    .get(at + 2)
                    .is_some_and(|t| ORDER_DEPENDENT_METHODS.contains(&t.text.as_str()));
            if method_call {
                let method = &tokens[at + 2].text;
                emit(
                    &mut findings,
                    file,
                    "unordered-iter",
                    tok.line,
                    format!(
                        "`{}.{}()` iterates a {} in nondeterministic order — use a BTree \
                         container, a sorted key snapshot, or waive with a reason",
                        tok.text, method, container
                    ),
                );
                continue;
            }
            if for_loop_over(tokens, at) {
                emit(
                    &mut findings,
                    file,
                    "unordered-iter",
                    tok.line,
                    format!(
                        "`for .. in {}` iterates a {} in nondeterministic order — use a \
                         BTree container, a sorted key snapshot, or waive with a reason",
                        tok.text, container
                    ),
                );
                continue;
            }
            if extend_from(tokens, at) {
                emit(
                    &mut findings,
                    file,
                    "unordered-iter",
                    tok.line,
                    format!(
                        "`.extend({})` drains a {} in nondeterministic order — use a BTree \
                         container, a sorted key snapshot, or waive with a reason",
                        tok.text, container
                    ),
                );
            }
        }
    }
    findings
}

/// Resolve binding names that hold a `HashMap` or `HashSet`, mapped to
/// the container type name (for messages).
fn hash_container_bindings(tokens: &[Token]) -> BTreeMap<String, &'static str> {
    let mut bindings = BTreeMap::new();
    for (at, tok) in tokens.iter().enumerate() {
        let container: &'static str = if tok.is_ident("HashMap") {
            "HashMap"
        } else if tok.is_ident("HashSet") {
            "HashSet"
        } else {
            continue;
        };
        // Constructor assignment: `name = HashMap::new()` etc.
        let is_ctor = tokens.get(at + 1).is_some_and(|t| t.text == "::")
            && tokens.get(at + 2).is_some_and(|t| {
                matches!(
                    t.text.as_str(),
                    "new" | "with_capacity" | "from" | "default"
                )
            });
        if is_ctor {
            if let Some(name) = assigned_name(tokens, at) {
                bindings.insert(name, container);
                continue;
            }
        }
        // Type annotation: `name: [&][mut] [std::collections::] HashMap<..>`.
        if let Some(name) = annotated_name(tokens, at) {
            bindings.insert(name, container);
        }
    }
    bindings
}

/// For a container token in expression position, the name it is
/// assigned to: scan back over an optional qualified-path prefix to
/// `name =`.
fn assigned_name(tokens: &[Token], container_at: usize) -> Option<String> {
    let mut i = container_at;
    // Skip `std :: collections ::` style prefixes.
    while i >= 2 && tokens[i - 1].text == "::" && tokens[i - 2].kind == TokenKind::Ident {
        i -= 2;
    }
    if i < 2 || tokens[i - 1].text != "=" {
        return None;
    }
    let name = &tokens[i - 2];
    (name.kind == TokenKind::Ident).then(|| name.text.clone())
}

/// For a container token in type position, the annotated binding name:
/// scan back over `&`, `'lifetime`, `mut`, and qualified-path prefixes
/// to `name :`.
fn annotated_name(tokens: &[Token], container_at: usize) -> Option<String> {
    let mut i = container_at;
    while i >= 2 && tokens[i - 1].text == "::" && tokens[i - 2].kind == TokenKind::Ident {
        i -= 2;
    }
    while i >= 1
        && (tokens[i - 1].text == "&"
            || tokens[i - 1].kind == TokenKind::Lifetime
            || tokens[i - 1].is_ident("mut"))
    {
        i -= 1;
    }
    if i < 2 || tokens[i - 1].text != ":" {
        return None;
    }
    let name = &tokens[i - 2];
    (name.kind == TokenKind::Ident).then(|| name.text.clone())
}

/// True when the binding ident at `at` is the subject of a `for .. in`
/// loop: scanning back over `&`, `mut`, `self .` reaches `in`, and the
/// token after the (possibly field-accessed) subject opens the body.
fn for_loop_over(tokens: &[Token], at: usize) -> bool {
    let mut i = at;
    if i >= 2 && tokens[i - 1].text == "." && tokens[i - 2].is_ident("self") {
        i -= 2;
    }
    while i >= 1 && (tokens[i - 1].text == "&" || tokens[i - 1].is_ident("mut")) {
        i -= 1;
    }
    if i < 1 || !tokens[i - 1].is_ident("in") {
        return false;
    }
    tokens.get(at + 1).is_some_and(|t| t.text == "{")
}

/// True when the binding ident at `at` is the argument of
/// `.extend([&]name)`.
fn extend_from(tokens: &[Token], at: usize) -> bool {
    if !tokens.get(at + 1).is_some_and(|t| t.text == ")") {
        return false;
    }
    let mut i = at;
    if i >= 1 && tokens[i - 1].text == "&" {
        i -= 1;
    }
    i >= 3
        && tokens[i - 1].text == "("
        && tokens[i - 2].is_ident("extend")
        && tokens[i - 3].text == "."
}

/// `wall-clock`: real-time reads. Workspace-wide; the measurement
/// sites in `ici-bench`/`ici-telemetry` carry written waivers.
pub fn check_wall_clock(files: &[SourceFile], _config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        for at in token_seq_positions(&file.scanned.tokens, &["Instant", "::", "now"]) {
            emit(
                &mut findings,
                file,
                "wall-clock",
                file.scanned.tokens[at].line,
                "`Instant::now()` reads the wall clock — protocol time comes from the \
                 simulation clock; only waived measurement sites may read real time"
                    .to_string(),
            );
        }
        for tok in &file.scanned.tokens {
            if tok.is_ident("SystemTime") {
                emit(
                    &mut findings,
                    file,
                    "wall-clock",
                    tok.line,
                    "`SystemTime` reads the wall clock — derive timestamps from plumbed \
                     simulation time"
                        .to_string(),
                );
            }
        }
    }
    findings
}

/// `rogue-thread`: OS threads outside the crates `lint.toml` allows
/// them in (none, in this workspace).
pub fn check_rogue_thread(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    const THREAD_SEQS: &[(&[&str], &str)] = &[
        (&["thread", "::", "spawn"], "thread::spawn"),
        (&["thread", "::", "scope"], "thread::scope"),
        (&["thread", "::", "Builder"], "thread::Builder"),
    ];
    let mut findings = Vec::new();
    for file in files {
        if config.thread_crates.contains(&file.crate_name) {
            continue;
        }
        for (seq, display) in THREAD_SEQS {
            for at in token_seq_positions(&file.scanned.tokens, seq) {
                emit(
                    &mut findings,
                    file,
                    "rogue-thread",
                    file.scanned.tokens[at].line,
                    format!(
                        "`{display}` starts an OS thread — the workspace is single-threaded \
                         by construction; results must not depend on a schedule"
                    ),
                );
            }
        }
    }
    findings
}

/// `env-read`: process-environment reads outside the sanctioned
/// configuration modules. `env::args` is deliberately not flagged —
/// CLI argument parsing is an explicit input, not ambient state.
pub fn check_env_read(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os"];
    let mut findings = Vec::new();
    for file in files {
        if config
            .env_read_files
            .iter()
            .any(|p| file.rel_path.contains(p.as_str()))
        {
            continue;
        }
        let tokens = &file.scanned.tokens;
        for at in token_seq_positions(tokens, &["env", "::"]) {
            let Some(call) = tokens.get(at + 2) else {
                continue;
            };
            if call.kind == TokenKind::Ident && ENV_READS.contains(&call.text.as_str()) {
                emit(
                    &mut findings,
                    file,
                    "env-read",
                    tokens[at].line,
                    format!(
                        "`env::{}` reads ambient process state — plumb configuration \
                         explicitly or read it in a sanctioned config module",
                        call.text
                    ),
                );
            }
        }
    }
    findings
}

/// `entropy`: seeding from OS entropy instead of plumbed seeds.
pub fn check_entropy(files: &[SourceFile], _config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        for tok in &file.scanned.tokens {
            if tok.kind == TokenKind::Ident && ENTROPY_IDENTS.contains(&tok.text.as_str()) {
                emit(
                    &mut findings,
                    file,
                    "entropy",
                    tok.line,
                    format!(
                        "`{}` draws OS entropy — all randomness must derive from plumbed, \
                         recorded seeds so runs replay byte-identically",
                        tok.text
                    ),
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn file(crate_name: &str, rel_path: &str, source: &str) -> SourceFile {
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            scanned: scan(source),
        }
    }

    /// The policy these tests assume; the shipped one is `lint.toml`.
    fn config() -> Config {
        let list = |items: &[&str]| items.iter().map(|s| s.to_string()).collect();
        Config {
            determinism_crates: list(&["ici-core", "ici-chain", "ici-cluster", "ici-net"]),
            env_read_files: list(&["ici-telemetry/src/lib.rs"]),
            ..Config::default()
        }
    }

    #[test]
    fn unordered_iter_flags_iteration_not_lookup() {
        let src = "\
struct S { index: HashMap<u64, u64> }
fn f(&self) {
    let hit = self.index.get(&k);
    let n = self.index.len();
    for (k, v) in &self.index {
        touch(k, v);
    }
    let keys: Vec<u64> = self.index.keys().copied().collect();
}
";
        let files = vec![file("ici-chain", "crates/ici-chain/src/x.rs", src)];
        let findings = check_unordered_iter(&files, &config());
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[0].line, 5, "for-loop flagged");
        assert_eq!(findings[1].line, 8, ".keys() flagged");
    }

    #[test]
    fn unordered_iter_resolves_ctor_assignments() {
        let src = "\
fn f() {
    let mut seen = HashSet::new();
    seen.insert(1);
    if seen.contains(&1) {}
    for v in &seen {
        touch(v);
    }
    out.extend(&seen);
}
";
        let files = vec![file("ici-cluster", "crates/ici-cluster/src/y.rs", src)];
        let findings = check_unordered_iter(&files, &config());
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("for .. in seen"));
        assert!(findings[1].message.contains(".extend(seen)"));
    }

    #[test]
    fn unordered_iter_resolves_qualified_and_ref_annotations() {
        let src = "\
fn f(peers: &std::collections::HashMap<u64, Peer>) {
    for (id, p) in peers {
        touch(id, p);
    }
}
";
        // `for .. in peers { ` — the subject is the bare ident.
        let files = vec![file("ici-net", "crates/ici-net/src/z.rs", src)];
        let findings = check_unordered_iter(&files, &config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn unordered_iter_scoped_to_determinism_crates() {
        let src = "fn f(m: HashMap<u64, u64>) { for v in m.values() { touch(v); } }\n";
        let files = vec![
            file("ici-chain", "crates/ici-chain/src/a.rs", src),
            file("ici-lint", "crates/ici-lint/src/b.rs", src),
        ];
        let findings = check_unordered_iter(&files, &config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "crates/ici-chain/src/a.rs");
    }

    #[test]
    fn unordered_iter_respects_waivers_and_tests() {
        let src = "\
fn f(m: HashMap<u64, u64>) {
    let total: u64 = m.values().sum(); // lint:allow(unordered-iter) -- sum is commutative
}
#[cfg(test)]
mod tests {
    fn t(m: HashMap<u64, u64>) { for v in m.values() { touch(v); } }
}
";
        let files = vec![file("ici-core", "crates/ici-core/src/a.rs", src)];
        let findings = check_unordered_iter(&files, &config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].waived);
    }

    #[test]
    fn unordered_iter_ignores_unrelated_bindings() {
        let src = "\
fn f(m: BTreeMap<u64, u64>, names: Vec<String>) {
    for v in m.values() { touch(v); }
    for n in &names { touch(n); }
}
";
        let files = vec![file("ici-chain", "crates/ici-chain/src/a.rs", src)];
        assert!(check_unordered_iter(&files, &config()).is_empty());
    }

    #[test]
    fn wall_clock_flags_instant_and_system_time() {
        let src = "\
fn f() {
    let t0 = Instant::now();
    let wall = SystemTime::now();
    let t1 = Instant::now(); // lint:allow(wall-clock) -- bench measurement
}
";
        let files = vec![file("ici-sim", "crates/ici-sim/src/a.rs", src)];
        let findings = check_wall_clock(&files, &config());
        // Instant::now ×2 + SystemTime ×1.
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert_eq!(findings.iter().filter(|f| f.waived).count(), 1);
    }

    #[test]
    fn rogue_thread_exempts_thread_crates() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let files = vec![
            file("demo-pool", "crates/demo-pool/src/lib.rs", src),
            file("ici-sim", "crates/ici-sim/src/a.rs", src),
        ];
        // The shipped policy allows no crate; the allow-list itself is
        // still a feature of the rule.
        let allowing = Config {
            thread_crates: vec!["demo-pool".to_string()],
            ..config()
        };
        assert_eq!(check_rogue_thread(&files, &config()).len(), 2);
        let findings = check_rogue_thread(&files, &allowing);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "crates/ici-sim/src/a.rs");
        assert!(findings[0].message.contains("thread::spawn"));
    }

    #[test]
    fn rogue_thread_catches_scope_and_builder() {
        let src = "fn f() { thread::scope(|s| {}); let b = thread::Builder::new(); }\n";
        let files = vec![file("ici-net", "crates/ici-net/src/a.rs", src)];
        let findings = check_rogue_thread(&files, &config());
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn env_read_exempts_sanctioned_files_and_cli_args() {
        let src = "fn f() { let t = std::env::var(\"ICI_TELEMETRY\"); let a: Vec<_> = std::env::args().collect(); }\n";
        let files = vec![
            file("ici-telemetry", "crates/ici-telemetry/src/lib.rs", src),
            file("ici-sim", "crates/ici-sim/src/a.rs", src),
        ];
        let findings = check_env_read(&files, &config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "crates/ici-sim/src/a.rs");
        assert!(findings[0].message.contains("env::var"));
    }

    #[test]
    fn entropy_flags_os_sources() {
        let src = "\
fn f() {
    let mut rng = StdRng::from_entropy();
    let s: RandomState = RandomState::new();
}
fn g(seed: u64) { let rng = StdRng::seed_from_u64(seed); }
";
        let files = vec![file("ici-sim", "crates/ici-sim/src/a.rs", src)];
        let findings = check_entropy(&files, &config());
        assert_eq!(
            findings.len(),
            3,
            "from_entropy + RandomState x2: {findings:?}"
        );
        assert!(check_entropy(
            &[file(
                "ici-sim",
                "crates/ici-sim/src/b.rs",
                "fn g(seed: u64) { seed_from(seed); }\n"
            )],
            &config()
        )
        .is_empty());
    }

    #[test]
    fn entropy_and_wall_clock_skip_tests() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { let _ = Instant::now(); let _ = StdRng::from_entropy(); }
}
";
        let files = vec![file("ici-sim", "crates/ici-sim/src/a.rs", src)];
        assert!(check_wall_clock(&files, &config()).is_empty());
        assert!(check_entropy(&files, &config()).is_empty());
    }
}
