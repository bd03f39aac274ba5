//! A strict TOML-subset parser for scenario files.
//!
//! The build environment vendors no `toml` crate, so the harness carries
//! its own reader. It is a *total* parser over the subset the scenario
//! schema uses — bare/quoted keys, `[table]` and `[[array-of-table]]`
//! headers, dotted keys, basic and literal strings, integers (decimal,
//! hex, octal, binary, underscores), floats, booleans, arrays, and inline
//! tables — and a *typed rejector* of everything else: any input, valid
//! TOML or byte noise, yields either a [`Table`] or a [`TomlError`]
//! carrying the line/column and a message. It never panics (the decode
//! fuzz property in `tests/schema_prop.rs` pins this), and nesting depth
//! is bounded so adversarial `[[[[…` input cannot overflow the stack.
//!
//! Deliberately unsupported, with explicit errors: datetimes and
//! multi-line strings. Scenario files have no use for either.

use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string (basic or literal).
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array (static `[…]` or `[[table]]` list).
    Array(Vec<Value>),
    /// A table (header, dotted-key, or inline).
    Table(Table),
}

impl Value {
    /// The value's type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

/// An insertion-ordered string-keyed table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    pairs: Vec<(String, Value)>,
}

impl Table {
    /// An empty table.
    pub fn new() -> Table {
        Table::default()
    }

    /// Look up `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Look up `key` mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Remove and return `key`'s value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(i).1)
    }

    /// Insert `key = value`, replacing any existing entry.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(slot) = self.pairs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.pairs.push((key, value));
        }
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.pairs.iter().map(|(k, _)| k.as_str())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// A parse failure: where and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// 1-based column (in characters) of the offending input.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TOML error at line {}:{}: {}",
            self.line, self.col, self.msg
        )
    }
}

impl std::error::Error for TomlError {}

/// Maximum array/inline-table nesting depth; deeper input is rejected
/// rather than risking stack exhaustion on adversarial documents.
const MAX_DEPTH: usize = 32;

/// Parse a TOML document into its root [`Table`].
pub fn parse(input: &str) -> Result<Table, TomlError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut doc = Doc::default();
    loop {
        p.skip_blank();
        if p.at_end() {
            break;
        }
        if p.peek() == Some('[') {
            let at = p.mark();
            let header = p.parse_header()?;
            doc.apply_header(header, at)?;
        } else {
            let at = p.mark();
            let keys = p.parse_key_path()?;
            p.expect_eq()?;
            let value = p.parse_value(0)?;
            doc.insert_keyval(keys, value, at)?;
        }
        p.skip_inline_ws();
        p.skip_comment();
        if !p.at_end() && !p.eat_newline() {
            return Err(p.err("expected end of line"));
        }
    }
    Ok(doc.root)
}

/// One step into the document tree: a table key or an index into an
/// array-of-tables. Paths are compared structurally, so keys containing
/// dots (or any separator) cannot alias each other.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    Key(String),
    Idx(usize),
}

/// A parsed `[header]` or `[[header]]` line.
struct Header {
    keys: Vec<String>,
    array: bool,
}

/// Source position for error reporting.
#[derive(Clone, Copy)]
struct Mark {
    line: usize,
    col: usize,
}

/// Parser-side document state: the tree plus duplicate-definition
/// bookkeeping.
#[derive(Default)]
struct Doc {
    root: Table,
    /// Steps to the table the current `[header]` points at.
    cursor: Vec<Step>,
    /// Explicitly defined `[table]` header paths.
    defined_headers: Vec<Vec<Step>>,
    /// Paths created by `[[array-of-tables]]` headers (the array itself).
    aot: Vec<Vec<Step>>,
    /// Fully-written key paths (duplicate-key detection).
    defined_keys: Vec<Vec<Step>>,
}

fn err_at(at: Mark, msg: impl Into<String>) -> TomlError {
    TomlError {
        line: at.line,
        col: at.col,
        msg: msg.into(),
    }
}

/// Resolve `steps` against `root`; every step must already exist and be a
/// table (or an indexed array-of-tables element).
fn navigate<'t>(root: &'t mut Table, steps: &[Step]) -> Option<&'t mut Table> {
    let mut cur = root;
    let mut i = 0;
    while i < steps.len() {
        let Step::Key(k) = &steps[i] else { return None };
        match cur.get_mut(k)? {
            Value::Table(t) => {
                cur = t;
                i += 1;
            }
            Value::Array(a) => {
                let Some(Step::Idx(n)) = steps.get(i + 1) else {
                    return None;
                };
                match a.get_mut(*n)? {
                    Value::Table(t) => {
                        cur = t;
                        i += 2;
                    }
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(cur)
}

impl Doc {
    /// Walk/create the intermediate tables for `keys[..keys.len()-1]`
    /// starting from `base` steps; returns the extended step path.
    fn ensure_intermediates(
        &mut self,
        base: Vec<Step>,
        keys: &[String],
        at: Mark,
    ) -> Result<Vec<Step>, TomlError> {
        let mut steps = base;
        for k in keys {
            let Some(cur) = navigate(&mut self.root, &steps) else {
                return Err(err_at(at, "internal path resolution failure"));
            };
            if cur.get(k).is_none() {
                cur.insert(k.clone(), Value::Table(Table::new()));
            }
            steps.push(Step::Key(k.clone()));
            match cur.get(k) {
                Some(Value::Table(_)) => {}
                Some(Value::Array(a)) => {
                    if self.aot.contains(&steps) {
                        steps.push(Step::Idx(a.len().saturating_sub(1)));
                    } else {
                        return Err(err_at(
                            at,
                            format!("key `{k}` is a static array, not a table"),
                        ));
                    }
                }
                Some(v) => {
                    return Err(err_at(
                        at,
                        format!("key `{k}` is a {}, not a table", v.type_name()),
                    ));
                }
                None => return Err(err_at(at, "internal path resolution failure")),
            }
        }
        Ok(steps)
    }

    fn apply_header(&mut self, h: Header, at: Mark) -> Result<(), TomlError> {
        let Some((last, parents)) = h.keys.split_last() else {
            return Err(err_at(at, "empty table header"));
        };
        let steps = self.ensure_intermediates(Vec::new(), parents, at)?;
        let mut steps = steps;
        steps.push(Step::Key(last.clone()));
        let parent_steps = &steps[..steps.len() - 1];
        let Some(parent) = navigate(&mut self.root, parent_steps) else {
            return Err(err_at(at, "internal path resolution failure"));
        };
        if h.array {
            match parent.get_mut(last) {
                None => {
                    parent.insert(last.clone(), Value::Array(vec![Value::Table(Table::new())]));
                    self.aot.push(steps.clone());
                    steps.push(Step::Idx(0));
                }
                Some(Value::Array(a)) => {
                    if !self.aot.contains(&steps) {
                        return Err(err_at(
                            at,
                            format!("cannot extend static array `{last}` with [[{last}]]"),
                        ));
                    }
                    a.push(Value::Table(Table::new()));
                    steps.push(Step::Idx(a.len() - 1));
                }
                Some(v) => {
                    return Err(err_at(
                        at,
                        format!(
                            "cannot redefine {} `{last}` as an array of tables",
                            v.type_name()
                        ),
                    ));
                }
            }
        } else {
            match parent.get(last) {
                None => {
                    parent.insert(last.clone(), Value::Table(Table::new()));
                }
                Some(Value::Table(_)) => {
                    if self.defined_headers.contains(&steps) {
                        return Err(err_at(at, format!("duplicate table header `{last}`")));
                    }
                    if self.defined_keys.contains(&steps) {
                        return Err(err_at(
                            at,
                            format!("table `{last}` was already defined as an inline value"),
                        ));
                    }
                }
                Some(v) => {
                    return Err(err_at(
                        at,
                        format!("cannot redefine {} `{last}` as a table", v.type_name()),
                    ));
                }
            }
            self.defined_headers.push(steps.clone());
        }
        self.cursor = steps;
        Ok(())
    }

    fn insert_keyval(
        &mut self,
        keys: Vec<String>,
        value: Value,
        at: Mark,
    ) -> Result<(), TomlError> {
        let Some((last, parents)) = keys.split_last() else {
            return Err(err_at(at, "empty key"));
        };
        let base = self.cursor.clone();
        let mut steps = self.ensure_intermediates(base, parents, at)?;
        let Some(cur) = navigate(&mut self.root, &steps) else {
            return Err(err_at(at, "internal path resolution failure"));
        };
        if cur.get(last).is_some() {
            return Err(err_at(at, format!("duplicate key `{last}`")));
        }
        cur.insert(last.clone(), value);
        steps.push(Step::Key(last.clone()));
        self.defined_keys.push(steps);
        Ok(())
    }
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> TomlError {
        TomlError {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn mark(&self) -> Mark {
        Mark {
            line: self.line,
            col: self.col,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_newline(&mut self) -> bool {
        if self.peek() == Some('\r') && self.peek2() == Some('\n') {
            self.bump();
            self.bump();
            true
        } else if self.peek() == Some('\n') {
            self.bump();
            true
        } else {
            false
        }
    }

    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.bump();
        }
    }

    fn skip_comment(&mut self) {
        if self.peek() == Some('#') {
            while let Some(c) = self.peek() {
                if c == '\n' {
                    break;
                }
                self.bump();
            }
        }
    }

    /// Skip whitespace, comments, and newlines (between top-level lines
    /// and inside arrays).
    fn skip_blank(&mut self) {
        loop {
            self.skip_inline_ws();
            self.skip_comment();
            if !self.eat_newline() {
                break;
            }
        }
    }

    fn expect_eq(&mut self) -> Result<(), TomlError> {
        self.skip_inline_ws();
        if !self.eat('=') {
            return Err(self.err("expected `=` after key"));
        }
        self.skip_inline_ws();
        Ok(())
    }

    fn parse_header(&mut self) -> Result<Header, TomlError> {
        // Caller guarantees the leading '['.
        self.bump();
        let array = self.eat('[');
        self.skip_inline_ws();
        let keys = self.parse_key_path()?;
        self.skip_inline_ws();
        if !self.eat(']') {
            return Err(self.err("expected `]` closing table header"));
        }
        if array && !self.eat(']') {
            return Err(self.err("expected `]]` closing array-of-tables header"));
        }
        Ok(Header { keys, array })
    }

    /// A dotted key path: `a.b."c.d"`, whitespace allowed around dots.
    fn parse_key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut keys = Vec::new();
        loop {
            self.skip_inline_ws();
            keys.push(self.parse_key_segment()?);
            self.skip_inline_ws();
            if !self.eat('.') {
                break;
            }
        }
        Ok(keys)
    }

    fn parse_key_segment(&mut self) -> Result<String, TomlError> {
        match self.peek() {
            Some('"') => self.parse_basic_string(),
            Some('\'') => self.parse_literal_string(),
            Some(c) if is_bare_key_char(c) => {
                let mut k = String::new();
                while let Some(c) = self.peek() {
                    if is_bare_key_char(c) {
                        k.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(k)
            }
            _ => Err(self.err("expected a key")),
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, TomlError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some('"') => {
                if self.src[self.pos..].starts_with("\"\"\"") {
                    return Err(self.err("multi-line strings are not supported"));
                }
                Ok(Value::Str(self.parse_basic_string()?))
            }
            Some('\'') => {
                if self.src[self.pos..].starts_with("'''") {
                    return Err(self.err("multi-line strings are not supported"));
                }
                Ok(Value::Str(self.parse_literal_string()?))
            }
            Some('[') => self.parse_array(depth),
            Some('{') => self.parse_inline_table(depth),
            Some(_) => self.parse_scalar(),
            None => Err(self.err("expected a value")),
        }
    }

    fn parse_basic_string(&mut self) -> Result<String, TomlError> {
        // Caller guarantees the opening quote.
        self.bump();
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some('\n') => return Err(self.err("unterminated string")),
                Some('"') => {
                    self.bump();
                    return Ok(out);
                }
                Some('\\') => {
                    self.bump();
                    let esc = self.bump().ok_or_else(|| self.err("unterminated escape"))?;
                    match esc {
                        'b' => out.push('\u{0008}'),
                        't' => out.push('\t'),
                        'n' => out.push('\n'),
                        'f' => out.push('\u{000C}'),
                        'r' => out.push('\r'),
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'u' => out.push(self.parse_unicode_escape(4)?),
                        'U' => out.push(self.parse_unicode_escape(8)?),
                        other => {
                            return Err(self.err(format!("invalid escape `\\{other}`")));
                        }
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.bump();
                }
            }
        }
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, TomlError> {
        let mut v: u32 = 0;
        for _ in 0..digits {
            let c = self
                .bump()
                .ok_or_else(|| self.err("unterminated unicode escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.err(format!("invalid hex digit `{c}` in unicode escape")))?;
            v = v.wrapping_mul(16).wrapping_add(d);
        }
        char::from_u32(v).ok_or_else(|| self.err(format!("invalid unicode scalar U+{v:X}")))
    }

    fn parse_literal_string(&mut self) -> Result<String, TomlError> {
        // Caller guarantees the opening quote.
        self.bump();
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some('\n') => return Err(self.err("unterminated literal string")),
                Some('\'') => {
                    self.bump();
                    return Ok(out);
                }
                Some(c) => {
                    out.push(c);
                    self.bump();
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, TomlError> {
        // Caller guarantees the '['.
        self.bump();
        let mut items = Vec::new();
        loop {
            self.skip_blank();
            if self.eat(']') {
                return Ok(Value::Array(items));
            }
            items.push(self.parse_value(depth + 1)?);
            self.skip_blank();
            if self.eat(',') {
                continue;
            }
            if self.eat(']') {
                return Ok(Value::Array(items));
            }
            return Err(self.err("expected `,` or `]` in array"));
        }
    }

    fn parse_inline_table(&mut self, depth: usize) -> Result<Value, TomlError> {
        // Caller guarantees the '{'.
        self.bump();
        let mut t = Table::new();
        self.skip_inline_ws();
        if self.eat('}') {
            return Ok(Value::Table(t));
        }
        loop {
            self.skip_inline_ws();
            let at = self.mark();
            let keys = self.parse_key_path()?;
            self.expect_eq()?;
            let value = self.parse_value(depth + 1)?;
            insert_dotted(&mut t, &keys, value, at)?;
            self.skip_inline_ws();
            if self.eat(',') {
                continue;
            }
            if self.eat('}') {
                return Ok(Value::Table(t));
            }
            return Err(self.err("expected `,` or `}` in inline table"));
        }
    }

    /// Bools, integers, floats — and typed rejections of datetime-shaped
    /// tokens.
    fn parse_scalar(&mut self) -> Result<Value, TomlError> {
        let at = self.mark();
        let mut tok = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '+' | '-' | '.' | ':') {
                tok.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if tok.is_empty() {
            return Err(err_at(at, "expected a value"));
        }
        match tok.as_str() {
            "true" => return Ok(Value::Bool(true)),
            "false" => return Ok(Value::Bool(false)),
            "inf" | "+inf" => return Ok(Value::Float(f64::INFINITY)),
            "-inf" => return Ok(Value::Float(f64::NEG_INFINITY)),
            "nan" | "+nan" | "-nan" => return Ok(Value::Float(f64::NAN)),
            _ => {}
        }
        if tok.contains(':') || looks_like_date(&tok) {
            return Err(err_at(at, "datetime values are not supported"));
        }
        let (sign, body) = match tok.split_at(1) {
            ("+", rest) => (1i64, rest),
            ("-", rest) => (-1i64, rest),
            _ => (1i64, tok.as_str()),
        };
        for (prefix, radix) in [("0x", 16), ("0o", 8), ("0b", 2)] {
            if let Some(digits) = body.strip_prefix(prefix) {
                let clean: String = digits.chars().filter(|&c| c != '_').collect();
                return match i64::from_str_radix(&clean, radix) {
                    Ok(v) => Ok(Value::Int(sign.wrapping_mul(v))),
                    Err(_) => Err(err_at(at, format!("invalid integer `{tok}`"))),
                };
            }
        }
        let clean: String = tok.chars().filter(|&c| c != '_').collect();
        if tok.contains('.') || tok.contains('e') || tok.contains('E') {
            return match clean.parse::<f64>() {
                Ok(v) => Ok(Value::Float(v)),
                Err(_) => Err(err_at(at, format!("invalid float `{tok}`"))),
            };
        }
        match clean.parse::<i64>() {
            Ok(v) => Ok(Value::Int(v)),
            Err(_) => Err(err_at(at, format!("invalid integer `{tok}`"))),
        }
    }
}

/// `1979-05-27`-shaped tokens: a `-` or `+` in a non-leading position
/// that is not an exponent sign.
fn looks_like_date(tok: &str) -> bool {
    let chars: Vec<char> = tok.chars().collect();
    for (i, &c) in chars.iter().enumerate().skip(1) {
        if (c == '-' || c == '+') && !matches!(chars.get(i - 1), Some('e') | Some('E')) {
            return true;
        }
    }
    false
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Dotted-key insert used inside inline tables.
fn insert_dotted(t: &mut Table, keys: &[String], value: Value, at: Mark) -> Result<(), TomlError> {
    let Some((last, parents)) = keys.split_last() else {
        return Err(err_at(at, "empty key"));
    };
    let mut cur = t;
    for k in parents {
        if cur.get(k).is_none() {
            cur.insert(k.clone(), Value::Table(Table::new()));
        }
        match cur.get_mut(k) {
            Some(Value::Table(next)) => cur = next,
            Some(v) => {
                return Err(err_at(
                    at,
                    format!("key `{k}` is a {}, not a table", v.type_name()),
                ));
            }
            None => return Err(err_at(at, "internal path resolution failure")),
        }
    }
    if cur.get(last).is_some() {
        return Err(err_at(at, format!("duplicate key `{last}`")));
    }
    cur.insert(last.clone(), value);
    Ok(())
}

// ------------------------------------------------------------ rendering

/// Render a key the way TOML spells it — bare when possible, basic-quoted
/// otherwise — which is how a schema error names a field.
pub fn format_key(key: &str) -> String {
    if !key.is_empty() && key.chars().all(is_bare_key_char) {
        key.to_string()
    } else {
        escape_basic(key)
    }
}

/// Render `s` as a quoted TOML basic string.
pub fn escape_basic(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04X}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_document() {
        let doc = r#"
# a scenario
[scenario]
name = "failover" # trailing comment
seeds = [11, 12]
horizon_us = 60_000
ratio = 1.5

[topology]
kind = "diamond"
path = { rate_gbps = 10, delay_us = 5 }

[[fault]]
kind = "cut_both"

[[fault]]
kind = "link_up"
"#;
        let t = parse(doc).expect("parse");
        let Some(Value::Table(s)) = t.get("scenario") else {
            panic!("scenario table");
        };
        assert_eq!(s.get("name"), Some(&Value::Str("failover".into())));
        assert_eq!(
            s.get("seeds"),
            Some(&Value::Array(vec![Value::Int(11), Value::Int(12)]))
        );
        assert_eq!(s.get("horizon_us"), Some(&Value::Int(60_000)));
        assert_eq!(s.get("ratio"), Some(&Value::Float(1.5)));
        let Some(Value::Array(faults)) = t.get("fault") else {
            panic!("fault array");
        };
        assert_eq!(faults.len(), 2);
    }

    #[test]
    fn quoted_keys_and_dotted_paths() {
        let t = parse("[assert.digests]\n\"mtp/11\" = \"abc\"\na.b = 1\n").expect("parse");
        let Some(Value::Table(a)) = t.get("assert") else {
            panic!("assert");
        };
        let Some(Value::Table(d)) = a.get("digests") else {
            panic!("digests");
        };
        assert_eq!(d.get("mtp/11"), Some(&Value::Str("abc".into())));
        let Some(Value::Table(ab)) = d.get("a") else {
            panic!("dotted");
        };
        assert_eq!(ab.get("b"), Some(&Value::Int(1)));
    }

    #[test]
    fn rejects_duplicates_and_unsupported() {
        assert!(parse("a = 1\na = 2\n").is_err());
        assert!(parse("[t]\n[t]\n").is_err());
        assert!(parse("d = 1979-05-27\n").is_err());
        assert!(parse("t = 07:32:00\n").is_err());
        assert!(parse("s = \"\"\"x\"\"\"\n").is_err());
        assert!(parse("x = [1, [2, [3").is_err());
        assert!(parse("x = ").is_err());
        assert!(parse("[a]\nb.c = 1\nb.c = 2\n").is_err());
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut s = String::from("x = ");
        for _ in 0..200 {
            s.push('[');
        }
        let e = parse(&s).expect_err("too deep");
        assert!(e.msg.contains("nesting"), "{e}");
    }

    #[test]
    fn exponent_minus_is_not_a_date() {
        let t = parse("x = 1e-3\ny = -2.5E+4\n").expect("parse");
        assert_eq!(t.get("x"), Some(&Value::Float(1e-3)));
        assert_eq!(t.get("y"), Some(&Value::Float(-2.5e4)));
    }

    #[test]
    fn mixed_headers_and_arrays() {
        let doc = "[[srv]]\nport = 1\n[srv.limits]\ncap = 2\n[[srv]]\nport = 3\n";
        let t = parse(doc).expect("parse");
        let Some(Value::Array(srv)) = t.get("srv") else {
            panic!("srv");
        };
        assert_eq!(srv.len(), 2);
        let Value::Table(first) = &srv[0] else {
            panic!("table");
        };
        let Some(Value::Table(lim)) = first.get("limits") else {
            panic!("limits bound to first element");
        };
        assert_eq!(lim.get("cap"), Some(&Value::Int(2)));
    }

    #[test]
    fn roundtrip_helpers() {
        assert_eq!(format_key("abc-1_2"), "abc-1_2");
        assert_eq!(format_key("mtp/11"), "\"mtp/11\"");
        assert_eq!(escape_basic("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
