//! Token-level lexer for Rust sources.
//!
//! This is the lexical foundation the whole rule set sits on. A file is
//! lexed exactly once into a flat **token stream** ([`Token`]) —
//! identifiers, lifetimes, numeric literals, string/char literal
//! placeholders, and punctuation (with `::` fused into one token) —
//! which every source rule matches against, plus each line's trailing
//! `//` comment, which only the waiver parser reads.
//!
//! Handling comments, strings, and char-vs-lifetime disambiguation in
//! one place means no rule can ever be fooled by `"panic!"` inside a
//! string literal, a commented-out `unwrap()`, or a `'{'` char literal
//! skewing brace depth.

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`for`, `HashMap`, `unsafe`, ...).
    Ident,
    /// Lifetime such as `'a` or `'static` (text includes the quote).
    Lifetime,
    /// Numeric literal (`42`, `0xFF`, `1.5e3`, ...).
    Num,
    /// String literal of any flavour (basic, raw, byte, raw byte);
    /// contents are blanked, text is `""`.
    Str,
    /// Char or byte-char literal; contents blanked, text is `''`.
    Char,
    /// Punctuation. Single chars, except `::` which is fused.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Token text (literal contents blanked, see [`TokenKind`]).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }
}

/// A fully lexed file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order (comments excluded).
    pub tokens: Vec<Token>,
    /// Each source line's trailing `//` comment, if any (including the
    /// slashes): `comments[n - 1]` belongs to line `n`.
    pub comments: Vec<Option<String>>,
}

/// Cross-line lexer state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    /// Nested block comment at the given depth.
    BlockComment(u32),
    /// Basic (escaped) string or byte string literal.
    Str,
    /// Raw string awaiting `"` followed by this many `#`.
    RawStr(u32),
}

/// Lex a Rust source file.
pub fn lex(source: &str) -> Lexed {
    let mut out = Lexed::default();
    let mut state = State::Code;

    for (idx, raw) in source.lines().enumerate() {
        let number = idx + 1;
        let chars: Vec<char> = raw.chars().collect();
        let mut comment: Option<String> = None;
        let mut i = 0usize;

        while i < chars.len() {
            let ch = chars[i];
            match state {
                State::BlockComment(depth) => {
                    if ch == '*' && chars.get(i + 1) == Some(&'/') {
                        i += 2;
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                    } else if ch == '/' && chars.get(i + 1) == Some(&'*') {
                        i += 2;
                        state = State::BlockComment(depth + 1);
                    } else {
                        i += 1;
                    }
                }
                State::Str => {
                    if ch == '\\' {
                        i += 2;
                    } else if ch == '"' {
                        state = State::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if ch == '"' {
                        let mut seen = 0u32;
                        while seen < hashes && chars.get(i + 1 + seen as usize) == Some(&'#') {
                            seen += 1;
                        }
                        if seen == hashes {
                            state = State::Code;
                            i += 1 + hashes as usize;
                        } else {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                }
                State::Code => {
                    if ch == '/' && chars.get(i + 1) == Some(&'/') {
                        comment = Some(chars[i..].iter().collect());
                        break;
                    }
                    if ch == '/' && chars.get(i + 1) == Some(&'*') {
                        state = State::BlockComment(1);
                        i += 2;
                        continue;
                    }
                    if ch == '"' {
                        out.tokens.push(Token {
                            kind: TokenKind::Str,
                            text: "\"\"".to_string(),
                            line: number,
                        });
                        state = State::Str;
                        i += 1;
                        continue;
                    }
                    if let Some((hashes, consumed)) = raw_string_start(&chars, i) {
                        out.tokens.push(Token {
                            kind: TokenKind::Str,
                            text: "\"\"".to_string(),
                            line: number,
                        });
                        state = if hashes == u32::MAX {
                            State::Str // plain byte string b"..."
                        } else {
                            State::RawStr(hashes)
                        };
                        i += consumed;
                        continue;
                    }
                    if ch == '\'' {
                        if let Some(consumed) = char_literal_len(&chars, i) {
                            out.tokens.push(Token {
                                kind: TokenKind::Char,
                                text: "''".to_string(),
                                line: number,
                            });
                            i += consumed;
                        } else if chars
                            .get(i + 1)
                            .is_some_and(|c| c.is_alphabetic() || *c == '_')
                        {
                            // Lifetime: consume the quote and the ident.
                            let start = i;
                            i += 2;
                            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_')
                            {
                                i += 1;
                            }
                            let text: String = chars[start..i].iter().collect();
                            out.tokens.push(Token {
                                kind: TokenKind::Lifetime,
                                text,
                                line: number,
                            });
                        } else {
                            out.tokens.push(Token {
                                kind: TokenKind::Punct,
                                text: "'".to_string(),
                                line: number,
                            });
                            i += 1;
                        }
                        continue;
                    }
                    if ch.is_alphabetic() || ch == '_' {
                        let start = i;
                        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                            i += 1;
                        }
                        let text: String = chars[start..i].iter().collect();
                        out.tokens.push(Token {
                            kind: TokenKind::Ident,
                            text,
                            line: number,
                        });
                        continue;
                    }
                    if ch.is_ascii_digit() {
                        let (text, consumed) = number_literal(&chars, i);
                        out.tokens.push(Token {
                            kind: TokenKind::Num,
                            text,
                            line: number,
                        });
                        i += consumed;
                        continue;
                    }
                    // Punctuation; fuse `::` so path rules match one token.
                    if ch == ':' && chars.get(i + 1) == Some(&':') {
                        out.tokens.push(Token {
                            kind: TokenKind::Punct,
                            text: "::".to_string(),
                            line: number,
                        });
                        i += 2;
                        continue;
                    }
                    if !ch.is_whitespace() {
                        out.tokens.push(Token {
                            kind: TokenKind::Punct,
                            text: ch.to_string(),
                            line: number,
                        });
                    }
                    i += 1;
                }
            }
        }

        out.comments.push(comment);
    }
    out
}

/// Detect a raw/byte string literal starting at `chars[at]`.
///
/// Returns `(hash_count, chars_consumed_through_opening_quote)`;
/// `hash_count == u32::MAX` flags a plain byte string (`b"`) which uses
/// normal escape rules. Returns `None` when `chars[at]` does not open a
/// string literal prefix. Only reached at the start of a word: the
/// identifier branch consumes `for`, `sub`, ... whole, so a trailing
/// `r`/`b` never opens a literal.
fn raw_string_start(chars: &[char], at: usize) -> Option<(u32, usize)> {
    let ch = chars[at];
    if ch != 'r' && ch != 'b' {
        return None;
    }
    let mut j = at + 1;
    if ch == 'b' {
        match chars.get(j) {
            Some('"') => return Some((u32::MAX, j - at + 1)),
            Some('r') => j += 1,
            _ => return None,
        }
    }
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j - at + 1))
    } else {
        None
    }
}

/// Length in chars of a char literal starting at `chars[at] == '\''`,
/// or `None` when it is a lifetime (or a lone quote).
fn char_literal_len(chars: &[char], at: usize) -> Option<usize> {
    match chars.get(at + 1) {
        Some('\\') => {
            // Escape: bounded search for the closing quote.
            for j in (at + 3)..(at + 14).min(chars.len()) {
                if chars[j] == '\'' {
                    return Some(j - at + 1);
                }
            }
            None
        }
        Some(c) if *c != '\'' => {
            if chars.get(at + 2) == Some(&'\'') {
                Some(3)
            } else {
                None // lifetime
            }
        }
        _ => None,
    }
}

/// Consume a numeric literal starting at a digit: integer, float,
/// radix-prefixed, underscored, suffixed (`1_000u64`, `0xFF`, `1.5e-3`).
fn number_literal(chars: &[char], at: usize) -> (String, usize) {
    let mut i = at;
    let mut seen_dot = false;
    while i < chars.len() {
        let c = chars[i];
        if c.is_alphanumeric() || c == '_' {
            // Exponent sign: `1e-3` / `2.5E+7`.
            if (c == 'e' || c == 'E')
                && chars.get(i + 1).is_some_and(|s| *s == '+' || *s == '-')
                && chars.get(i + 2).is_some_and(char::is_ascii_digit)
            {
                i += 2;
            }
            i += 1;
        } else if c == '.' && !seen_dot && chars.get(i + 1).is_some_and(char::is_ascii_digit) {
            // Fractional part — but never swallow `..` ranges or method
            // calls on integers (`1.max(2)` has a non-digit after dot).
            seen_dot = true;
            i += 1;
        } else {
            break;
        }
    }
    (chars[at..i].iter().collect(), i - at)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    /// The texts of the tokens starting on `line`, space-joined.
    fn on_line(lexed: &Lexed, line: usize) -> String {
        let texts: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.line == line)
            .map(|t| t.text.as_str())
            .collect();
        texts.join(" ")
    }

    #[test]
    fn idents_puncts_and_fused_paths() {
        assert_eq!(
            texts("std::thread::spawn(f)"),
            vec!["std", "::", "thread", "::", "spawn", "(", "f", ")"]
        );
    }

    #[test]
    fn string_contents_are_blanked_in_tokens() {
        let toks = lex("let m = \"call panic!() now\";").tokens;
        assert!(toks.iter().all(|t| t.text != "panic"));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let lexed = lex("let r = r#\"unwrap() \"# ;\nlet rr = r\"assert!(x)\";\n");
        assert_eq!(on_line(&lexed, 1), "let r = \"\" ;");
        assert_eq!(on_line(&lexed, 2), "let rr = \"\" ;");
    }

    #[test]
    fn raw_string_hash_mismatch_spans_lines() {
        let lexed = lex("let x = r##\"one \"# two\nstill panic!() inside\"## ;\nafter();\n");
        assert_eq!(on_line(&lexed, 1), "let x = \"\"");
        assert_eq!(on_line(&lexed, 2), ";");
        assert_eq!(on_line(&lexed, 3), "after ( ) ;");
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("/* a /* b */ panic!() */ let ok = 1;\n");
        assert_eq!(on_line(&lexed, 1), "let ok = 1 ;");
    }

    #[test]
    fn deeply_nested_block_comment_state_spans_lines() {
        let lexed = lex("/* one /* two /* three */ still */ panic!()\nmore */ done();\n");
        assert_eq!(on_line(&lexed, 1), "");
        assert_eq!(on_line(&lexed, 2), "done ( ) ;");
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }\nlet q = '\\n';\nlet brace = '{';\n");
        let lifetimes: Vec<&Token> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
        let chars: Vec<&Token> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .collect();
        assert_eq!(chars.len(), 3, "'x', '\\n', '{{' are all char literals");
        let s2 = lex("let prefix: &'static str = x;\n");
        assert!(s2
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'static"));
    }

    #[test]
    fn strings_containing_comment_markers() {
        let lexed = lex("let url = \"https://example.com\"; call();\n");
        assert_eq!(on_line(&lexed, 1), "let url = \"\" ; call ( ) ;");
    }

    #[test]
    fn escaped_quote_does_not_close_string() {
        let lexed = lex("let x = \"a\\\"panic!()\"; call();\n");
        assert_eq!(on_line(&lexed, 1), "let x = \"\" ; call ( ) ;");
    }

    #[test]
    fn byte_strings_and_identifiers_ending_in_r_or_b() {
        let lexed = lex("let b = b\"expect(\";\nfor x in xs { var\"\" ; }\nlet s = sub\"\";\n");
        assert!(lexed.tokens.iter().all(|t| t.text != "expect"));
        assert_eq!(lexed.comments.len(), 3, "no state leak across lines");
        assert!(lexed.tokens.iter().any(|t| t.is_ident("var")));
        assert!(lexed.tokens.iter().any(|t| t.is_ident("sub")));
    }

    #[test]
    fn numeric_literals_including_ranges() {
        assert_eq!(
            texts("for i in 0..10 { a[i] = 1.5e-3 + 0xFF_u32; }"),
            vec![
                "for", "i", "in", "0", ".", ".", "10", "{", "a", "[", "i", "]", "=", "1.5e-3", "+",
                "0xFF_u32", ";", "}"
            ]
        );
    }

    #[test]
    fn tuple_index_is_not_a_float() {
        // `pair.0` must not swallow the `.`: `.0` stays separate from `pair`.
        assert_eq!(texts("pair.0"), vec!["pair", ".", "0"]);
        assert_eq!(texts("x.0.1"), vec!["x", ".", "0.1"]);
    }

    #[test]
    fn tokens_carry_line_numbers() {
        let lexed = lex("one();\ntwo();\n");
        let two = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("two"))
            .expect("two");
        assert_eq!(two.line, 2);
    }

    #[test]
    fn comments_captured_per_line() {
        let lexed = lex("x(); // trailing note\n// standalone\ny();\n");
        assert_eq!(lexed.comments[0].as_deref(), Some("// trailing note"));
        assert_eq!(lexed.comments[1].as_deref(), Some("// standalone"));
        assert!(lexed.comments[2].is_none());
    }

    #[test]
    fn comments_never_yield_tokens() {
        let lexed =
            lex("let x = 1; // unwrap()\nlet y = /* panic!() */ 2;\n/* multi\nline panic!() */ let z = 3;\n");
        assert_eq!(on_line(&lexed, 1), "let x = 1 ;");
        assert_eq!(on_line(&lexed, 2), "let y = 2 ;");
        assert_eq!(on_line(&lexed, 3), "");
        assert_eq!(on_line(&lexed, 4), "let z = 3 ;");
    }
}
