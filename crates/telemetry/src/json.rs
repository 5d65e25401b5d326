//! The workspace's one JSON reader and writer.
//!
//! The workspace is fully offline (no serde), so every document it reads
//! — repro artifacts (`pmrace-replay`), `telemetry.json` snapshots and
//! `trace.jsonl` span traces (this crate), the `BENCH_hotpath.json`
//! baseline and the docs tests' reads of it — goes through this module,
//! and so does every document it writes except `BENCH_hotpath.json`,
//! which `pmrace-bench` writes one cell per line. Choices:
//!
//! - objects keep insertion order (artifacts diff cleanly in review);
//! - numbers are `f64`, so 64-bit values that may exceed 2^53 (RNG seeds)
//!   are serialized as hex *strings* by their writers, never as numbers;
//! - writers escape `"`, `\`, `\n`, `\r`, `\t` and all other control
//!   characters (as `\uXXXX`); the reader additionally accepts the
//!   standard `\/`, `\b`, `\f` and `\uXXXX` escapes so any conforming
//!   document parses back (string literals are lexed by the crate-private
//!   `jsonstr` module);
//! - nesting deeper than [`MAX_DEPTH`] is a parse error, so a malformed or
//!   hostile file read from disk fails with `Err` instead of overflowing
//!   the stack.

use std::fmt::Write as _;

pub use crate::jsonstr::escape_into;

/// Deepest array/object nesting [`parse`] accepts. The documents this
/// workspace writes nest at most a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This number as `u64`, when it is a non-negative integer (exact up
    /// to 2^53; larger values must travel as hex strings).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Render with 2-space indentation and a trailing newline (the on-disk
    /// artifact format: stable and reviewable).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    escape_into(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Parse a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or
/// naming the nesting limit when the document nests deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_owned()),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    /// Parse one array or object one nesting level down, refusing to go
    /// past [`MAX_DEPTH`] (each level is one recursion).
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = inner(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!("expected key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at byte {}", self.pos));
            }
            self.pos += 1;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    /// A quoted string literal starting at the opening `"`.
    fn string(&mut self) -> Result<String, String> {
        crate::jsonstr::unescape(self.bytes, &mut self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": 2.5, "e": -3}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("b").and_then(Value::as_arr).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("b").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\ny")
        );
        assert_eq!(v.get("c").unwrap().get("e"), Some(&Value::Num(-3.0)));
    }

    #[test]
    fn roundtrip_preserves_structure_and_order() {
        let v = Value::Obj(vec![
            ("version".to_owned(), Value::Num(1.0)),
            (
                "name".to_owned(),
                Value::Str("a \"quoted\"\nline".to_owned()),
            ),
            (
                "items".to_owned(),
                Value::Arr(vec![Value::Bool(true), Value::Null, Value::Num(42.0)]),
            ),
            ("empty".to_owned(), Value::Obj(vec![])),
        ]);
        let text = v.pretty();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        // Key order survives the roundtrip (stable diffs).
        let members = back.as_obj().unwrap();
        assert_eq!(members[0].0, "version");
        assert_eq!(members[3].0, "empty");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\": }", "[1, 2,]", "{} trailing", "truthy"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "no quote",
            "\"unterminated",
            "\"bad \\q\"",
            "\"\\u00",
            "[\"\\u12\"]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).unwrap_err().contains("nesting"));
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let err = parse(&"{\"k\": ".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let v = parse(r#"{"n": 12, "s": "x", "b": false, "a": [1, 2], "f": 2.5}"#).unwrap();
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(12));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(2.5));
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(1.5).as_u64(), None);
    }

    #[test]
    fn escape_roundtrip() {
        for s in [
            "",
            "plain",
            "a\"b\\c\nd\re\tf",
            "control \u{1}\u{1f} bytes",
            "unicode é ☃ 𝄞",
        ] {
            let mut lit = String::new();
            escape_into(&mut lit, s);
            assert_eq!(parse(&lit).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let v = Value::Str("tabs\tand\u{1}ctrl — naïve ✓".to_owned());
        assert_eq!(parse(&v.pretty()).unwrap(), v);
        // Escapes no writer here emits still parse.
        assert_eq!(
            parse(r#""a\/b\u0041\b\f""#).unwrap().as_str(),
            Some("a/bA\u{8}\u{c}")
        );
    }
}
