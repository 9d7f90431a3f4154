//! A minimal TOML-subset parser: just enough to read `lint.toml` and
//! workspace `Cargo.toml` manifests.
//!
//! Supported: `[table]` / `[table.subtable]` headers, `key = value`
//! assignments with string / integer / boolean / string-array / inline
//! table values, quoted keys, comments, and multi-line arrays. This is
//! deliberately not a general TOML implementation — the workspace owns
//! every file it parses, so unsupported syntax is a hard error rather
//! than a silent skip.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value (subset).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An array of strings (other element types are rejected).
    StrArray(Vec<String>),
    /// An inline table, e.g. `{ path = "../ici-core" }`.
    Inline(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The array payload, if this is a string array.
    pub fn as_str_array(&self) -> Option<&[String]> {
        match self {
            Value::StrArray(v) => Some(v),
            _ => None,
        }
    }
}

/// A parse failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// A parsed document: table name → (key → value). Top-level keys live
/// under the empty-string table name.
#[derive(Debug, Default, Clone)]
pub struct Doc {
    tables: BTreeMap<String, BTreeMap<String, Value>>,
    order: Vec<String>,
}

impl Doc {
    /// The keys of a table, in sorted order. Empty if the table is absent.
    pub fn table(&self, name: &str) -> Option<&BTreeMap<String, Value>> {
        self.tables.get(name)
    }

    /// Look up `table.key`.
    pub fn get(&self, table: &str, key: &str) -> Option<&Value> {
        self.tables.get(table).and_then(|t| t.get(key))
    }

    /// All table names in first-seen order (the implicit top-level
    /// table, when present, is the empty string).
    pub fn table_names(&self) -> &[String] {
        &self.order
    }
}

/// Parse a TOML-subset document.
pub fn parse(input: &str) -> Result<Doc, TomlError> {
    let mut doc = Doc::default();
    let mut current = String::new();
    let mut lines = input.lines().enumerate().peekable();

    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest.strip_suffix(']').ok_or_else(|| TomlError {
                line: lineno,
                message: format!("malformed table header: {raw:?}"),
            })?;
            if let Some(aot) = name.strip_prefix('[') {
                // Array-of-tables `[[bin]]`: each occurrence becomes a
                // distinct synthetic table `bin#<n>` so entries never
                // collide. Dep-policy checks never match these names.
                let base = aot.trim_end_matches(']').trim();
                let n = doc
                    .order
                    .iter()
                    .filter(|t| t.starts_with(&format!("{base}#")))
                    .count();
                current = format!("{base}#{n}");
            } else {
                current = name.trim().to_string();
            }
            doc.tables.entry(current.clone()).or_default();
            if !doc.order.contains(&current) {
                doc.order.push(current.clone());
            }
            continue;
        }
        let eq = find_top_level_eq(&line).ok_or_else(|| TomlError {
            line: lineno,
            message: format!("expected `key = value`, got {raw:?}"),
        })?;
        let key = parse_key(line[..eq].trim(), lineno)?;
        let mut value_text = line[eq + 1..].trim().to_string();
        // Multi-line arrays: keep consuming lines until brackets balance.
        while value_text.starts_with('[') && !brackets_balanced(&value_text) {
            let (_, next) = lines.next().ok_or_else(|| TomlError {
                line: lineno,
                message: "unterminated array".into(),
            })?;
            value_text.push(' ');
            value_text.push_str(strip_comment(next).trim());
        }
        let value = parse_value(&value_text, lineno)?;
        doc.tables
            .entry(current.clone())
            .or_default()
            .insert(key, value);
        if !doc.order.contains(&current) {
            doc.order.push(current.clone());
        }
    }
    Ok(doc)
}

/// Drop a `#`-comment, respecting basic strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = ch == '\\' && !prev_backslash;
    }
    line
}

/// Find the `=` separating key from value, skipping quoted sections.
fn find_top_level_eq(line: &str) -> Option<usize> {
    let mut in_str = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '=' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_key(raw: &str, lineno: usize) -> Result<String, TomlError> {
    let raw = raw.trim();
    if let Some(inner) = raw.strip_prefix('"') {
        let inner = inner.strip_suffix('"').ok_or_else(|| TomlError {
            line: lineno,
            message: format!("unterminated quoted key: {raw:?}"),
        })?;
        return Ok(inner.to_string());
    }
    if raw.is_empty()
        || !raw
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
    {
        return Err(TomlError {
            line: lineno,
            message: format!("invalid bare key: {raw:?}"),
        });
    }
    Ok(raw.to_string())
}

fn brackets_balanced(text: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for ch in text.chars() {
        match ch {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, TomlError> {
    let text = text.trim();
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner.strip_suffix('"').ok_or_else(|| TomlError {
            line: lineno,
            message: format!("unterminated string: {text:?}"),
        })?;
        return Ok(Value::Str(unescape(inner)));
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if text.starts_with('[') {
        return parse_str_array(text, lineno);
    }
    if text.starts_with('{') {
        return parse_inline_table(text, lineno);
    }
    let digits = text.replace('_', "");
    if let Ok(i) = digits.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    Err(TomlError {
        line: lineno,
        message: format!("unsupported value: {text:?}"),
    })
}

fn parse_str_array(text: &str, lineno: usize) -> Result<Value, TomlError> {
    let inner = text
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| TomlError {
            line: lineno,
            message: format!("malformed array: {text:?}"),
        })?;
    let mut out = Vec::new();
    for part in split_top_level(inner, ',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        match parse_value(part, lineno)? {
            Value::Str(s) => out.push(s),
            other => {
                return Err(TomlError {
                    line: lineno,
                    message: format!("only string arrays are supported, got {other:?}"),
                })
            }
        }
    }
    Ok(Value::StrArray(out))
}

fn parse_inline_table(text: &str, lineno: usize) -> Result<Value, TomlError> {
    let inner = text
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| TomlError {
            line: lineno,
            message: format!("malformed inline table: {text:?}"),
        })?;
    let mut map = BTreeMap::new();
    for part in split_top_level(inner, ',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let eq = find_top_level_eq(part).ok_or_else(|| TomlError {
            line: lineno,
            message: format!("expected `key = value` in inline table, got {part:?}"),
        })?;
        let key = parse_key(part[..eq].trim(), lineno)?;
        let value = parse_value(part[eq + 1..].trim(), lineno)?;
        map.insert(key, value);
    }
    Ok(Value::Inline(map))
}

/// Split on `sep`, ignoring occurrences inside strings, brackets, or
/// braces.
fn split_top_level(text: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut start = 0;
    for (i, ch) in text.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            c if c == sep && !in_str && depth == 0 => {
                parts.push(&text[start..i]);
                start = i + ch.len_utf8();
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_keys_and_values() {
        let doc = parse(
            r#"
top = 1

[lint]
protocol_crates = ["ici-core", "ici-chain"]
strict = true
name = "gate" # trailing comment

[deps.allow]
count = 1_000
"#,
        )
        .expect("parses");
        assert_eq!(doc.get("", "top").and_then(Value::as_int), Some(1));
        assert_eq!(
            doc.get("lint", "protocol_crates")
                .and_then(Value::as_str_array)
                .map(<[String]>::len),
            Some(2)
        );
        assert_eq!(doc.get("lint", "strict"), Some(&Value::Bool(true)));
        assert_eq!(
            doc.get("lint", "name").and_then(Value::as_str),
            Some("gate")
        );
        assert_eq!(
            doc.get("deps.allow", "count").and_then(Value::as_int),
            Some(1000)
        );
    }

    #[test]
    fn parses_multi_line_arrays_and_quoted_keys() {
        let doc =
            parse("[counts]\n\"panic:crates/a.rs\" = 3\nlist = [\n  \"x\", # one\n  \"y\",\n]\n")
                .expect("parses");
        assert_eq!(
            doc.get("counts", "panic:crates/a.rs")
                .and_then(Value::as_int),
            Some(3)
        );
        assert_eq!(
            doc.get("counts", "list")
                .and_then(Value::as_str_array)
                .map(<[String]>::len),
            Some(2)
        );
    }

    #[test]
    fn parses_cargo_style_inline_tables() {
        let doc = parse(
            "[dependencies]\nici-core = { path = \"../ici-core\" }\nici-rng = { path = \"../ici-rng\", version = \"0.1\" }\n",
        )
        .expect("parses");
        let deps = doc.table("dependencies").expect("table");
        assert_eq!(deps.len(), 2);
        match deps.get("ici-core") {
            Some(Value::Inline(map)) => {
                assert_eq!(map.get("path").and_then(Value::as_str), Some("../ici-core"));
            }
            other => panic!("expected inline table, got {other:?}"),
        }
    }

    #[test]
    fn array_of_tables_get_synthetic_names() {
        let doc =
            parse("[[bench]]\nname = \"micro\"\n[[bench]]\nname = \"protocol\"\n").expect("parses");
        assert_eq!(
            doc.get("bench#0", "name").and_then(Value::as_str),
            Some("micro")
        );
        assert_eq!(
            doc.get("bench#1", "name").and_then(Value::as_str),
            Some("protocol")
        );
    }

    #[test]
    fn rejects_unsupported_syntax() {
        assert!(parse("key = 3.5\n").is_err());
        assert!(parse("key = [1, 2]\n").is_err());
        assert!(parse("just a line\n").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse("k = \"a # b\"\n").expect("parses");
        assert_eq!(doc.get("", "k").and_then(Value::as_str), Some("a # b"));
    }
}
