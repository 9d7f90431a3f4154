//! The general rule set (the determinism family lives in
//! [`crate::determinism`]).
//!
//! Seven rules over the scanned workspace:
//!
//! * `panic` — protocol crates must not contain panic paths outside
//!   `#[cfg(test)]` code (waivable per-site).
//! * `unsafe` — every crate root carries `#![forbid(unsafe_code)]` and
//!   no source uses the `unsafe` keyword (never waivable). Files on
//!   the `unsafe_files` allowlist are exempt from the keyword ban, and
//!   a crate owning such a file may use `#![deny(unsafe_code)]` in its
//!   root instead of `forbid`.
//! * `cast` — lossy `as` narrowing in codec/wire paths (waivable).
//! * `error` — public fallible APIs must return typed errors, not
//!   stringly `Result<_, String>` or `Option` dressed as failure
//!   (waivable).
//! * `deps` — every Cargo.toml dependency is either a `path`
//!   dependency or on the allowlist (never waivable).
//! * `rehash` — `double_sha256(&x.to_bytes())` in protocol crates
//!   re-encodes into a throwaway `Vec` just to hash it; use the
//!   hashing sink (`ici_chain::hashing`) instead (waivable).
//! * `waiver` — waiver hygiene: malformed waivers and waivers naming
//!   unknown or non-waivable rules.
//!
//! Every rule matches the token stream ([`crate::lexer`]). Waivable
//! rules do not skip waived sites — they emit them with
//! `Finding::waived` set, so the engine can count every site, detect
//! stale waivers, and report waived debt in the JSON output. Only
//! unwaived findings fail the gate.

use crate::config::Config;
use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::scanner::{token_seq_positions, ScannedFile};
use crate::toml::{self, Value};

/// A scanned source file plus its workspace location.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel_path: String,
    /// Owning crate directory name (`ici-core`, ...); empty for the
    /// root package.
    pub crate_name: String,
    /// Scanner output.
    pub scanned: ScannedFile,
}

/// Rule names that a `lint:allow(..)` waiver may reference.
pub const WAIVABLE_RULES: &[&str] = &[
    "panic",
    "cast",
    "error",
    "rehash",
    "unordered-iter",
    "wall-clock",
    "rogue-thread",
    "env-read",
    "entropy",
];

/// Token sequences that open a panic path, with the display name used
/// in messages. `debug_assert*` is deliberately absent: it compiles
/// out of release builds and is the sanctioned way to state internal
/// invariants.
const PANIC_SEQS: &[(&[&str], &str)] = &[
    (&["panic", "!"], "panic!"),
    (&["unreachable", "!"], "unreachable!"),
    (&["todo", "!"], "todo!"),
    (&["unimplemented", "!"], "unimplemented!"),
    (&[".", "unwrap", "(", ")"], ".unwrap()"),
    (&[".", "expect", "("], ".expect("),
    (&["assert", "!"], "assert!"),
    (&["assert_eq", "!"], "assert_eq!"),
    (&["assert_ne", "!"], "assert_ne!"),
];

/// Lossy narrowing targets flagged in codec/wire paths.
const NARROWING_SEQS: &[(&[&str], &str)] = &[
    (&["as", "u8"], "as u8"),
    (&["as", "u16"], "as u16"),
    (&["as", "u32"], "as u32"),
    (&["as", "usize"], "as usize"),
];

/// `panic` rule, matched on the token stream. Waived sites are
/// included with `waived` set; the total (waived or not) feeds the
/// `protocol_panic_sites` stat.
pub fn check_panic(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !config.protocol_crates.contains(&file.crate_name) {
            continue;
        }
        for (seq, display) in PANIC_SEQS {
            for at in token_seq_positions(&file.scanned.tokens, seq) {
                let line = file.scanned.tokens[at].line;
                if file.scanned.line_in_test(line) {
                    continue;
                }
                findings.push(
                    Finding::new(
                        "panic",
                        &file.rel_path,
                        line,
                        format!(
                            "panic path `{display}` in protocol crate `{}`",
                            file.crate_name
                        ),
                    )
                    .waived(file.scanned.is_waived(line, "panic")),
                );
            }
        }
    }
    findings
}

/// `unsafe` rule: crate roots must forbid unsafe code, and the keyword
/// must not appear anywhere (including tests — `forbid` covers them).
///
/// The one escape hatch is `config.unsafe_files`: a file on that list
/// skips the keyword ban, and a crate owning such a file may carry
/// `#![deny(unsafe_code)]` in its root instead of `forbid` (deny is
/// overridable at inner scope, which is exactly what lets the listed
/// file opt back in with `#![allow(unsafe_code)]`).
pub fn check_unsafe(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    const FORBID: &[&str] = &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    const DENY: &[&str] = &["#", "!", "[", "deny", "(", "unsafe_code", ")", "]"];
    let mut findings = Vec::new();
    for file in files {
        let is_crate_root = file.rel_path.ends_with("/src/lib.rs") || file.rel_path == "src/lib.rs";
        if is_crate_root {
            let has_forbid = !token_seq_positions(&file.scanned.tokens, FORBID).is_empty();
            let has_deny = !token_seq_positions(&file.scanned.tokens, DENY).is_empty();
            let crate_has_carveout = !file.crate_name.is_empty()
                && config
                    .unsafe_files
                    .iter()
                    .any(|p| p.starts_with(&format!("{}/", file.crate_name)));
            if !has_forbid && !(crate_has_carveout && has_deny) {
                findings.push(Finding::new(
                    "unsafe",
                    &file.rel_path,
                    1,
                    "crate root is missing `#![forbid(unsafe_code)]`",
                ));
            }
        }
        if config
            .unsafe_files
            .iter()
            .any(|p| file.rel_path.contains(p.as_str()))
        {
            continue;
        }
        // Exact ident matching: `unsafe_code` in the lint attributes is
        // a different token and can never false-positive here.
        for at in token_seq_positions(&file.scanned.tokens, &["unsafe"]) {
            findings.push(Finding::new(
                "unsafe",
                &file.rel_path,
                file.scanned.tokens[at].line,
                "`unsafe` keyword (this workspace is 100% safe Rust)",
            ));
        }
    }
    findings
}

/// `rehash` rule: hashing a value by materializing its encoding first
/// (`double_sha256(&x.to_bytes())`) allocates a throwaway `Vec` on
/// every call. Protocol code should write the encoding into a hash
/// message via `ici_chain::hashing::double_sha256_encodable` instead.
/// Matched as `double_sha256 ( &` with `. to_bytes ( )` inside the
/// call's parentheses. Waivable: the one intended site is
/// `ici_chain::hashing::double_sha256_of_bytes`, the reference the
/// message-writing path is pinned against.
pub fn check_rehash(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !config.protocol_crates.contains(&file.crate_name) {
            continue;
        }
        let tokens = &file.scanned.tokens;
        for at in token_seq_positions(tokens, &["double_sha256", "(", "&"]) {
            let line = tokens[at].line;
            let args = &tokens[at + 2..closing(tokens, at + 1)];
            if file.scanned.line_in_test(line)
                || token_seq_positions(args, &[".", "to_bytes", "(", ")"]).is_empty()
            {
                continue;
            }
            findings.push(
                Finding::new(
                    "rehash",
                    &file.rel_path,
                    line,
                    "`double_sha256(&x.to_bytes())` re-encodes into a Vec just to hash it \
                     — write it into a hash message via `hashing::double_sha256_encodable`",
                )
                .waived(file.scanned.is_waived(line, "rehash")),
            );
        }
    }
    findings
}

/// Index of the token closing the bracket opened at `tokens[open]`
/// (`tokens.len()` when it never closes).
fn closing(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (at, tok) in tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return at;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// `cast` rule: lossy `as` narrowing in configured codec/wire paths,
/// matched on the token stream.
pub fn check_casts(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !config
            .cast_paths
            .iter()
            .any(|p| file.rel_path.contains(p.as_str()))
        {
            continue;
        }
        for (seq, display) in NARROWING_SEQS {
            for at in token_seq_positions(&file.scanned.tokens, seq) {
                let line = file.scanned.tokens[at].line;
                if file.scanned.line_in_test(line) {
                    continue;
                }
                findings.push(
                    Finding::new(
                        "cast",
                        &file.rel_path,
                        line,
                        format!(
                            "lossy `{display}` in a codec path — use `try_from` or mask explicitly"
                        ),
                    )
                    .waived(file.scanned.is_waived(line, "cast")),
                );
            }
        }
    }
    findings
}

/// `error` rule: public fallible APIs in protocol crates must surface
/// typed errors. The signature is the tokens from `pub fn NAME` to the
/// `{` or `;` at depth 0.
pub fn check_error_discipline(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        if !config.protocol_crates.contains(&file.crate_name) {
            continue;
        }
        let tokens = &file.scanned.tokens;
        for at in token_seq_positions(tokens, &["pub", "fn"]) {
            let line = tokens[at].line;
            if file.scanned.line_in_test(line) {
                continue;
            }
            if let Some(problem) = signature_problem(&tokens[at..]) {
                findings.push(
                    Finding::new("error", &file.rel_path, line, problem)
                        .waived(file.scanned.is_waived(line, "error")),
                );
            }
        }
    }
    findings
}

/// Why the signature opening `sig` (`pub fn NAME ...`) violates error
/// discipline, if it does.
fn signature_problem(sig: &[Token]) -> Option<String> {
    let name = sig.get(2).filter(|t| t.kind == TokenKind::Ident)?;
    let name = name.text.as_str();
    let ret = return_type(sig)?;
    if let Some(err) = result_error_type(ret) {
        let err_type = render(err);
        let stringly = err_type == "String"
            || err_type == "&str"
            || err_type == "&'static str"
            || err_type.starts_with("Box<dyn");
        if stringly {
            return Some(format!(
                "`pub fn {name}` returns `Result<_, {err_type}>` — use a typed error \
                 (e.g. `ici_core::IciError` or a crate-local error enum)"
            ));
        }
    }
    let returns_option = ret.first().is_some_and(|t| t.is_ident("Option"))
        && ret.get(1).is_some_and(|t| t.text == "<");
    let fallible_prefix = ["try_", "parse_", "decode_"]
        .iter()
        .any(|p| name.starts_with(p));
    if returns_option && fallible_prefix {
        return Some(format!(
            "`pub fn {name}` signals failure with `Option` — return a typed `Result` \
             so callers can distinguish error causes"
        ));
    }
    None
}

/// The tokens after the signature's `->`, up to the `{` or `;` at
/// depth 0; `None` for a signature without a return type.
fn return_type(sig: &[Token]) -> Option<&[Token]> {
    let mut depth = 0i32;
    let mut start = None;
    for (at, tok) in sig.iter().enumerate() {
        match tok.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" | ";" if depth == 0 => return start.map(|s| &sig[s..at]),
            "-" if depth == 0
                && start.is_none()
                && sig.get(at + 1).is_some_and(|t| t.text == ">") =>
            {
                start = Some(at + 2);
            }
            _ => {}
        }
    }
    None
}

/// `E` of a `Result<T, E>` return: the tokens between its top-level
/// comma and its closing `>`. `None` for anything else, including the
/// one-argument `Result<T>` alias whose error type is fixed elsewhere.
fn result_error_type(ret: &[Token]) -> Option<&[Token]> {
    if !(ret.first()?.is_ident("Result") && ret.get(1)?.text == "<") {
        return None;
    }
    let mut depth = 0i32;
    let mut comma = None;
    for (at, tok) in ret.iter().enumerate().skip(1) {
        match tok.text.as_str() {
            "<" | "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return comma.map(|c| &ret[c + 1..at]);
                }
            }
            "," if depth == 1 && comma.is_none() => comma = Some(at),
            _ => {}
        }
    }
    None
}

/// Source-like text for a run of tokens: a space only between two
/// words (`&'static str`, `Box<dyn Error>`).
fn render(tokens: &[Token]) -> String {
    let mut out = String::new();
    let mut prev_word = false;
    for tok in tokens {
        let word = matches!(
            tok.kind,
            TokenKind::Ident | TokenKind::Lifetime | TokenKind::Num
        );
        if word && prev_word {
            out.push(' ');
        }
        out.push_str(&tok.text);
        prev_word = word;
    }
    out
}

/// `deps` rule over raw manifest text: every dependency is either an
/// in-repo `path` dependency or explicitly allowlisted.
pub fn check_deps(manifests: &[(String, String)], config: &Config) -> Vec<Finding> {
    const DEP_TABLES: &[&str] = &[
        "dependencies",
        "dev-dependencies",
        "build-dependencies",
        "workspace.dependencies",
    ];
    let mut findings = Vec::new();
    for (rel_path, text) in manifests {
        let doc = match toml::parse(text) {
            Ok(d) => d,
            Err(e) => {
                findings.push(Finding::new(
                    "deps",
                    rel_path,
                    e.line,
                    format!("manifest does not parse: {}", e.message),
                ));
                continue;
            }
        };
        for table_name in doc.table_names() {
            let is_dep_table = DEP_TABLES.contains(&table_name.as_str())
                || DEP_TABLES
                    .iter()
                    .any(|t| table_name.ends_with(&format!(".{t}")));
            if !is_dep_table {
                continue;
            }
            let Some(table) = doc.table(table_name) else {
                continue;
            };
            for (dep, spec) in table {
                let is_path_dep = matches!(spec, Value::Inline(map) if map.contains_key("path"));
                if is_path_dep || config.deps_allow.contains(dep) {
                    continue;
                }
                findings.push(Finding::new(
                    "deps",
                    rel_path,
                    key_line(text, dep),
                    format!(
                        "dependency `{dep}` is neither a path dependency nor on the \
                         allowlist (hermetic offline build policy)"
                    ),
                ));
            }
        }
    }
    findings
}

/// Best-effort line number of `key = ...` in raw manifest text.
fn key_line(text: &str, key: &str) -> usize {
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with(key) && trimmed[key.len()..].trim_start().starts_with('=') {
            return idx + 1;
        }
        if trimmed.starts_with(&format!("\"{key}\"")) {
            return idx + 1;
        }
    }
    0
}

/// Waiver hygiene: malformed waivers and waivers naming unknown or
/// non-waivable rules are violations themselves.
pub fn check_waivers(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        for (line, problem) in &file.scanned.malformed_waivers {
            findings.push(Finding::new(
                "waiver",
                &file.rel_path,
                *line,
                format!("malformed waiver: {problem}"),
            ));
        }
        for (line, waiver) in file.scanned.all_waivers() {
            if !WAIVABLE_RULES.contains(&waiver.rule.as_str()) {
                findings.push(Finding::new(
                    "waiver",
                    &file.rel_path,
                    line,
                    format!(
                        "`lint:allow({})` names a rule that is unknown or cannot be waived",
                        waiver.rule
                    ),
                ));
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
    fn proto_config() -> Config {
        let list = |items: &[&str]| items.iter().map(|s| s.to_string()).collect();
        Config {
            protocol_crates: list(&["ici-core", "ici-chain", "ici-consensus", "ici-crypto"]),
            cast_paths: list(&["ici-chain/src/codec.rs", "ici-chain/src/block.rs"]),
            unsafe_files: list(&["ici-bench/src/alloc.rs", "ici-crypto/src/sha256_x86.rs"]),
            ..Config::default()
        }
    }

    fn active(findings: &[Finding]) -> Vec<&Finding> {
        findings.iter().filter(|f| !f.waived).collect()
    }

    #[test]
    fn panic_rule_flags_protocol_code_only() {
        let files = vec![
            file(
                "ici-core",
                "crates/ici-core/src/a.rs",
                "fn f() { x.unwrap(); }\n",
            ),
            file(
                "ici-sim",
                "crates/ici-sim/src/b.rs",
                "fn g() { y.unwrap(); }\n",
            ),
        ];
        let findings = check_panic(&files, &proto_config());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "crates/ici-core/src/a.rs");
        assert!(!findings[0].waived);
    }

    #[test]
    fn panic_rule_skips_tests_and_marks_waived_sites() {
        let src = "\
fn f() { a.expect(\"x\"); } // lint:allow(panic) -- bounded above
#[cfg(test)]
mod tests {
    fn t() { b.unwrap(); panic!(); }
}
";
        let files = vec![file("ici-core", "crates/ici-core/src/a.rs", src)];
        let findings = check_panic(&files, &proto_config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].waived, "waived site still emitted for stats");
        assert!(active(&findings).is_empty());
    }

    #[test]
    fn panic_rule_matches_multiline_chains() {
        let src = "fn f() {\n    x\n        .unwrap();\n}\n";
        let files = vec![file("ici-core", "crates/ici-core/src/a.rs", src)];
        let findings = check_panic(&files, &proto_config());
        assert_eq!(findings.len(), 1, "token matching spans line breaks");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn unsafe_rule_requires_forbid_and_bans_keyword() {
        let files = vec![
            file("ici-sim", "crates/ici-sim/src/lib.rs", "//! docs\npub fn f() {}\n"),
            file(
                "ici-core",
                "crates/ici-core/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn g() { unsafe { std::hint::unreachable_unchecked() } }\n",
            ),
        ];
        let findings = check_unsafe(&files, &proto_config());
        assert_eq!(findings.len(), 2);
        assert!(findings[0].message.contains("missing"));
        assert!(findings[1].message.contains("`unsafe` keyword"));
    }

    #[test]
    fn unsafe_rule_honors_the_allowlist_carveout() {
        let files = vec![
            file(
                "ici-bench",
                "crates/ici-bench/src/lib.rs",
                "#![deny(unsafe_code)]\npub mod alloc;\n",
            ),
            file(
                "ici-bench",
                "crates/ici-bench/src/alloc.rs",
                "#![allow(unsafe_code)]\nunsafe impl GlobalAlloc for C {}\n",
            ),
        ];
        let findings = check_unsafe(&files, &proto_config());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unsafe_rule_keeps_deny_insufficient_without_carveout() {
        let files = vec![file(
            "ici-core",
            "crates/ici-core/src/lib.rs",
            "#![deny(unsafe_code)]\npub fn f() {}\n",
        )];
        let findings = check_unsafe(&files, &proto_config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("missing"));
    }

    #[test]
    fn unsafe_rule_still_bans_keyword_outside_allowlisted_files() {
        let files = vec![file(
            "ici-bench",
            "crates/ici-bench/src/harness.rs",
            "pub fn f() { unsafe { core::hint::unreachable_unchecked() } }\n",
        )];
        let findings = check_unsafe(&files, &proto_config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`unsafe` keyword"));
    }

    #[test]
    fn unsafe_rule_confines_ici_crypto_to_its_one_kernel_file() {
        let files = vec![
            file(
                "ici-crypto",
                "crates/ici-crypto/src/lib.rs",
                "#![deny(unsafe_code)]\nmod sha256_x86;\npub mod sha256;\n",
            ),
            file(
                "ici-crypto",
                "crates/ici-crypto/src/sha256_x86.rs",
                "#![allow(unsafe_code)]\npub(crate) fn f() { unsafe { g() } }\n",
            ),
            file(
                "ici-crypto",
                "crates/ici-crypto/src/sha256.rs",
                "pub fn h(p: *const u8) -> u8 { unsafe { *p } }\n",
            ),
        ];
        let findings = check_unsafe(&files, &proto_config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "crates/ici-crypto/src/sha256.rs");
        assert!(findings[0].message.contains("`unsafe` keyword"));
    }

    #[test]
    fn rehash_rule_flags_materialized_hashing_in_protocol_crates() {
        let files = vec![
            file(
                "ici-chain",
                "crates/ici-chain/src/block.rs",
                "fn id() -> Digest { double_sha256(&self.to_bytes()) }\n",
            ),
            file(
                "ici-sim",
                "crates/ici-sim/src/x.rs",
                "fn id() -> Digest { double_sha256(&self.to_bytes()) }\n",
            ),
        ];
        let findings = check_rehash(&files, &proto_config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "crates/ici-chain/src/block.rs");
    }

    #[test]
    fn rehash_rule_marks_waived_sites_and_skips_tests() {
        let src = "\
fn reference() -> Digest { double_sha256(&v.to_bytes()) } // lint:allow(rehash) -- the pinned reference
#[cfg(test)]
mod tests {
    fn t() { let _ = double_sha256(&x.to_bytes()); }
}
";
        let files = vec![file("ici-chain", "crates/ici-chain/src/hashing.rs", src)];
        let findings = check_rehash(&files, &proto_config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].waived);
    }

    #[test]
    fn rehash_rule_matches_inside_the_call_across_lines() {
        let src = "\
fn a() -> Digest {
    double_sha256(
        &header.to_bytes(),
    )
}
fn b() -> Digest { let d = double_sha256(&buf); d.to_bytes() }
";
        let files = vec![file("ici-chain", "crates/ici-chain/src/x.rs", src)];
        let findings = check_rehash(&files, &proto_config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2, "anchored at the call");
    }

    #[test]
    fn cast_rule_only_looks_at_configured_paths() {
        let files = vec![
            file(
                "ici-chain",
                "crates/ici-chain/src/codec.rs",
                "fn f(x: u64) -> u8 { x as u8 }\nfn g(y: u64) -> u32 { y as u32 } // lint:allow(cast) -- masked to 20 bits above\n",
            ),
            file("ici-chain", "crates/ici-chain/src/state.rs", "fn h(x: u64) { let _ = x as u8; }\n"),
        ];
        let findings = check_casts(&files, &proto_config());
        let active = active(&findings);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].line, 1);
        assert_eq!(findings.len(), 2, "waived site still emitted");
    }

    #[test]
    fn error_rule_flags_stringly_results_and_fallible_options() {
        let src = "\
pub fn parse_frame(b: &[u8]) -> Option<Frame> { body() }
pub fn verify(x: &T) -> Result<(), String> {
    body()
}
pub fn good(x: &T) -> Result<(), CodecError> { body() }
pub fn get_cached(k: u64) -> Option<&'static V> { body() }
fn private_is_fine() -> Result<(), String> { body() }
";
        let files = vec![file("ici-chain", "crates/ici-chain/src/x.rs", src)];
        let findings = check_error_discipline(&files, &proto_config());
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("parse_frame"));
        assert!(findings[1].message.contains("Result<_, String>"));
    }

    #[test]
    fn error_rule_handles_multi_line_signatures() {
        let src = "\
pub fn verify_chain(
    blocks: &[Block],
    genesis: &Digest,
) -> Result<Summary, &'static str> {
    body()
}
";
        let files = vec![file("ici-core", "crates/ici-core/src/v.rs", src)];
        let findings = check_error_discipline(&files, &proto_config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("verify_chain"));
    }

    #[test]
    fn error_rule_reads_the_return_type_at_depth_zero() {
        let src = "\
pub fn map_all(f: impl Fn(u8) -> Result<u8, String>, xs: [u8; 4]) -> Result<(), Box<dyn Error>>;
pub fn apply(f: impl Fn(u8) -> Result<u8, String>) -> Result<Vec<u8>, CodecError> { body() }
pub fn nested() -> Result<Vec<(u8, u8)>, &'static str> { body() }
";
        let files = vec![file("ici-core", "crates/ici-core/src/f.rs", src)];
        let findings = check_error_discipline(&files, &proto_config());
        let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 2, "{messages:?}");
        assert!(messages[0].contains("`pub fn map_all` returns `Result<_, Box<dyn Error>>`"));
        assert!(messages[1].contains("`pub fn nested` returns `Result<_, &'static str>`"));
    }

    #[test]
    fn deps_rule_allows_path_deps_and_allowlist_only() {
        let manifest = "\
[package]
name = \"x\"

[dependencies]
ici-core = { path = \"../ici-core\" }
rand = \"0.8\"

[dev-dependencies]
proptest = { version = \"1\" }
";
        let mut config = proto_config();
        let findings = check_deps(
            &[("crates/x/Cargo.toml".to_string(), manifest.to_string())],
            &config,
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.message.contains("`rand`")));
        assert!(findings.iter().any(|f| f.message.contains("`proptest`")));
        assert_eq!(findings[0].line, 6, "rand points at its manifest line");

        config.deps_allow = vec!["rand".to_string(), "proptest".to_string()];
        let findings = check_deps(
            &[("crates/x/Cargo.toml".to_string(), manifest.to_string())],
            &config,
        );
        assert!(findings.is_empty());
    }

    #[test]
    fn waiver_rule_rejects_unknown_rules_and_malformed_syntax() {
        let src = "\
x.unwrap(); // lint:allow(panic) -- fine
y as u8; // lint:allow(deps) -- cannot waive deps
z.unwrap(); // lint:allow(panic)
";
        let files = vec![file("ici-core", "crates/ici-core/src/a.rs", src)];
        let findings = check_waivers(&files);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.message.contains("cannot be waived")));
        assert!(findings.iter().any(|f| f.message.contains("malformed")));
    }

    #[test]
    fn determinism_rules_are_waivable() {
        for rule in [
            "unordered-iter",
            "wall-clock",
            "rogue-thread",
            "env-read",
            "entropy",
        ] {
            assert!(WAIVABLE_RULES.contains(&rule), "{rule} must be waivable");
        }
    }
}
