//! Scanned-file model: the lexer's output plus workspace semantics.
//!
//! [`scan`] runs the lexer ([`crate::lexer`]) over a `.rs` file and
//! layers on what rules need beyond the token stream itself:
//!
//! * `#[cfg(test)]` region tracking by brace depth over the tokens
//!   (rules may exempt test-only code);
//! * inline waivers parsed from line comments:
//!
//! ```text
//! // lint:allow(panic) -- reason the site is acceptable
//! ```
//!
//! A waiver on its own line applies to the next line that has tokens;
//! a trailing waiver applies to the line it sits on. The ` -- reason`
//! clause is mandatory — a waiver without a written justification is
//! itself reported as a violation.

use crate::lexer::{self, Token, TokenKind};
use std::collections::BTreeMap;

/// A parsed `lint:allow(..)` waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The waived rule name, e.g. `panic` or `unordered-iter`.
    pub rule: String,
    /// The justification after ` -- `.
    pub reason: String,
}

/// A fully scanned file.
#[derive(Debug, Default)]
pub struct ScannedFile {
    /// Code tokens in source order (comments stripped, literal
    /// contents blanked). The one substrate every source rule matches.
    pub tokens: Vec<Token>,
    /// `in_test[n - 1]` is true when line `n` sits inside a
    /// `#[cfg(test)]` item.
    in_test: Vec<bool>,
    /// Waivers keyed by the line number they apply to. Ordered so
    /// waiver reports are deterministic.
    pub waivers: BTreeMap<usize, Vec<Waiver>>,
    /// Waiver comments that failed to parse: (line, problem).
    pub malformed_waivers: Vec<(usize, String)>,
}

impl ScannedFile {
    /// True when `rule` is waived on `line`.
    pub fn is_waived(&self, line: usize, rule: &str) -> bool {
        self.waivers
            .get(&line)
            .is_some_and(|ws| ws.iter().any(|w| w.rule == rule))
    }

    /// All waivers in the file, with the line each applies to, in
    /// line order.
    pub fn all_waivers(&self) -> impl Iterator<Item = (usize, &Waiver)> {
        self.waivers
            .iter()
            .flat_map(|(line, ws)| ws.iter().map(move |w| (*line, w)))
    }

    /// True when `line` (1-based) sits inside `#[cfg(test)]` code.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.in_test
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }
}

/// Scan a Rust source file: lex, track test regions, extract waivers.
pub fn scan(source: &str) -> ScannedFile {
    let lexed = lexer::lex(source);
    let mut has_tokens = vec![false; lexed.comments.len()];
    for tok in &lexed.tokens {
        has_tokens[tok.line - 1] = true;
    }

    let mut out = ScannedFile {
        in_test: test_lines(&lexed.tokens, lexed.comments.len()),
        tokens: lexed.tokens,
        ..ScannedFile::default()
    };

    // Waivers from standalone comment lines, awaiting a line with tokens.
    let mut pending_waivers: Vec<Waiver> = Vec::new();
    for (idx, comment) in lexed.comments.into_iter().enumerate() {
        let number = idx + 1;
        // Doc comments are prose, not directives — a waiver spelled out
        // in documentation (e.g. this crate's own docs) must not take
        // effect.
        let comment = comment.unwrap_or_default();
        let is_doc = comment.starts_with("///") || comment.starts_with("//!");
        for parsed in if is_doc {
            Vec::new()
        } else {
            extract_waivers(&comment)
        } {
            match parsed {
                Ok(waiver) if has_tokens[idx] => {
                    out.waivers.entry(number).or_default().push(waiver);
                }
                Ok(waiver) => pending_waivers.push(waiver),
                Err(problem) => out.malformed_waivers.push((number, problem)),
            }
        }
        if has_tokens[idx] && !pending_waivers.is_empty() {
            out.waivers
                .entry(number)
                .or_default()
                .append(&mut pending_waivers);
        }
    }
    out
}

/// Per-line `#[cfg(test)]` membership for lines `1..=line_count`,
/// tracked by brace depth over the token stream. The attribute line
/// itself counts as test-only, and a braceless attributed item
/// (`#[cfg(test)] use ...;`) does not leak into what follows.
fn test_lines(tokens: &[Token], line_count: usize) -> Vec<bool> {
    let mut brace_depth: i64 = 0;
    // Depths at which `#[cfg(test)]` blocks were opened.
    let mut test_entry_depths: Vec<i64> = Vec::new();
    // A `#[cfg(test)]` attribute was seen; its `{` has not opened yet.
    let mut pending_cfg_test = false;
    // Open `(`/`[` nesting, used to tell item-level `;` apart from
    // `[u8; 32]`-style separators inside a signature.
    let mut paren_depth: i64 = 0;

    let mut next_token = 0usize;
    let mut out = Vec::with_capacity(line_count);
    for number in 1..=line_count {
        let at_start = !test_entry_depths.is_empty();
        while next_token < tokens.len() && tokens[next_token].line == number {
            let idx = next_token;
            let tok = &tokens[idx];
            next_token += 1;
            if tok.kind != TokenKind::Punct {
                continue;
            }
            match tok.text.as_str() {
                "{" => {
                    if pending_cfg_test {
                        test_entry_depths.push(brace_depth);
                        pending_cfg_test = false;
                    }
                    brace_depth += 1;
                }
                "}" => {
                    brace_depth -= 1;
                    if test_entry_depths.last().is_some_and(|d| brace_depth <= *d) {
                        test_entry_depths.pop();
                    }
                }
                "(" | "[" => paren_depth += 1,
                ")" => paren_depth -= 1,
                "]" => {
                    paren_depth -= 1;
                    if closes_cfg_test(tokens, idx) {
                        pending_cfg_test = true;
                    }
                }
                ";" => {
                    // `#[cfg(test)] use ...;` — attribute on a
                    // braceless item; nothing to track.
                    if pending_cfg_test && paren_depth == 0 {
                        pending_cfg_test = false;
                    }
                }
                _ => {}
            }
        }
        out.push(at_start || !test_entry_depths.is_empty() || pending_cfg_test);
    }
    out
}

/// True when the `]` at `tokens[at]` closes a `#[cfg(test)]` attribute:
/// the six preceding tokens are `# [ cfg ( test )`.
fn closes_cfg_test(tokens: &[Token], at: usize) -> bool {
    const PREFIX: &[&str] = &["#", "[", "cfg", "(", "test", ")"];
    if at < PREFIX.len() {
        return false;
    }
    tokens[at - PREFIX.len()..at]
        .iter()
        .zip(PREFIX)
        .all(|(tok, want)| tok.text == *want)
}

/// Pull every `lint:allow(rule) -- reason` out of a comment string.
fn extract_waivers(comment: &str) -> Vec<Result<Waiver, String>> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow") {
        let tail = &rest[pos + "lint:allow".len()..];
        out.push(parse_one_waiver(tail));
        rest = tail;
    }
    out
}

fn parse_one_waiver(tail: &str) -> Result<Waiver, String> {
    let tail = tail.trim_start();
    let inner = tail
        .strip_prefix('(')
        .ok_or("expected `(` after lint:allow")?;
    let close = inner.find(')').ok_or("unterminated lint:allow(..)")?;
    let rule = inner[..close].trim().to_string();
    if rule.is_empty()
        || !rule
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(format!("invalid rule name in lint:allow: {rule:?}"));
    }
    let after = inner[close + 1..].trim_start();
    let reason = after
        .strip_prefix("--")
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .ok_or("lint:allow requires a justification: `-- reason`")?;
    Ok(Waiver {
        rule,
        reason: reason.to_string(),
    })
}

/// Positions in `tokens` where the texts `pattern` match consecutively.
/// Whitespace- and line-break-insensitive by construction: tokens have
/// no layout, so `Instant :: now` and `Instant::now` match alike.
pub fn token_seq_positions(tokens: &[Token], pattern: &[&str]) -> Vec<usize> {
    let mut out = Vec::new();
    if pattern.is_empty() || tokens.len() < pattern.len() {
        return out;
    }
    for at in 0..=(tokens.len() - pattern.len()) {
        if tokens[at..at + pattern.len()]
            .iter()
            .zip(pattern)
            .all(|(tok, want)| tok.text == *want)
        {
            out.push(at);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brace_in_char_literal_does_not_move_test_regions() {
        let s = scan("#[cfg(test)]\nmod t {\n    const B: char = '{';\n}\nfn real() {}\n");
        assert!(s.line_in_test(3));
        assert!(!s.line_in_test(5));
    }

    #[test]
    fn tracks_cfg_test_regions() {
        let src = "\
fn real() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn real2() {}
";
        let s = scan(src);
        assert!(!s.line_in_test(1));
        assert!(s.line_in_test(2), "attribute line itself is test-only");
        assert!(s.line_in_test(3));
        assert!(s.line_in_test(4));
        assert!(s.line_in_test(5));
        assert!(!s.line_in_test(6));
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let s = scan("#[cfg(test)]\nuse foo::bar;\nfn later() {}\n");
        assert!(!s.line_in_test(3));
    }

    #[test]
    fn cfg_test_with_odd_spacing_still_tracks() {
        let s = scan("#[cfg( test )]\nmod tests {\n    x.unwrap();\n}\n");
        assert!(s.line_in_test(3), "token matching ignores layout");
    }

    #[test]
    fn cfg_test_fn_inside_module() {
        let src = "\
mod m {
    #[cfg(test)]
    fn helper() {
        x.unwrap();
    }
    fn real() {}
}
";
        let s = scan(src);
        assert!(s.line_in_test(4));
        assert!(!s.line_in_test(6));
    }

    #[test]
    fn trailing_waiver_applies_to_its_line() {
        let s = scan("x.unwrap(); // lint:allow(panic) -- checked above\n");
        assert!(s.is_waived(1, "panic"));
        assert!(!s.is_waived(1, "cast"));
    }

    #[test]
    fn standalone_waiver_applies_to_next_code_line() {
        let s = scan(
            "// lint:allow(panic) -- invariant: non-empty\n\n/* no tokens */\n// another comment\nx.unwrap();\n",
        );
        assert!(s.is_waived(5, "panic"));
        assert!(!s.is_waived(1, "panic"));
        assert!(!s.is_waived(3, "panic"));
    }

    #[test]
    fn dashed_rule_names_parse() {
        let s =
            scan("for (k, v) in &map {} // lint:allow(unordered-iter) -- sums are commutative\n");
        assert!(s.is_waived(1, "unordered-iter"));
        assert!(s.malformed_waivers.is_empty());
    }

    #[test]
    fn doc_comments_never_carry_waivers() {
        let s = scan("/// Use `lint:allow(panic) -- reason` to waive.\nx.unwrap();\n//! lint:allow(cast) -- also prose\ny as u8;\n");
        assert!(!s.is_waived(2, "panic"));
        assert!(!s.is_waived(4, "cast"));
        assert!(s.malformed_waivers.is_empty());
    }

    #[test]
    fn waiver_without_reason_is_malformed() {
        let s = scan("x.unwrap(); // lint:allow(panic)\ny.unwrap(); // lint:allow(panic) --   \n");
        assert_eq!(s.malformed_waivers.len(), 2);
        assert!(!s.is_waived(1, "panic"));
        assert!(!s.is_waived(2, "panic"));
    }

    #[test]
    fn multiple_waivers_on_one_line() {
        let s = scan("x as u8; // lint:allow(cast) -- masked. lint:allow(panic) -- n/a\n");
        assert!(s.is_waived(1, "cast"));
        assert!(s.is_waived(1, "panic"));
    }

    #[test]
    fn token_sequences_match_across_layout() {
        let s = scan("Instant::now();\nInstant ::\n    now();\nmy_Instant::nowish();\n");
        let hits = token_seq_positions(&s.tokens, &["Instant", "::", "now"]);
        assert_eq!(hits.len(), 2, "layout-insensitive, ident-exact");
    }

    #[test]
    fn token_sequences_never_match_inside_identifiers() {
        let s = scan("let unsafe_code = 1; debug_assert!(x); my_panic!(); x as u32x4;\n");
        assert!(token_seq_positions(&s.tokens, &["unsafe"]).is_empty());
        assert!(token_seq_positions(&s.tokens, &["assert", "!"]).is_empty());
        assert!(token_seq_positions(&s.tokens, &["panic", "!"]).is_empty());
        assert!(token_seq_positions(&s.tokens, &["as", "u32"]).is_empty());
        let chain = scan("a.unwrap().unwrap()\n");
        assert_eq!(
            token_seq_positions(&chain.tokens, &[".", "unwrap", "(", ")"]).len(),
            2
        );
    }
}
