//! A minimal, dependency-free JSON value with a strict parser and a
//! deterministic writer — the wire format of the MCCM scenario API
//! (re-exported by the facade as `mccm::json`) and of the `mccm-calib`
//! calibration store.
//!
//! The workspace already emits hand-rolled JSON (`mccm-bench`'s
//! `BENCH_*.json` trajectories); this crate completes the round trip
//! with a parser so scenario files can be *read* without pulling in a
//! serialization dependency. Design points:
//!
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a map),
//!   so serialization is deterministic — the property the CLI's
//!   byte-identical output guarantee rests on. Duplicate keys are
//!   rejected at parse time.
//! * **Numbers are `f64`** with an integer-aware writer: values that are
//!   mathematically integral and within `f64`'s exact-integer range print
//!   without a decimal point, so `{"budget": 4000}` round-trips as
//!   `4000`, not `4000.0`.
//! * **Errors carry byte offsets** ([`JsonError`]), mirroring
//!   `ArchError::Parse`.
//!
//! # Examples
//!
//! ```
//! use mccm_json::Json;
//!
//! let v = Json::parse(r#"{"model": {"zoo": "xception"}, "batch": 4}"#).unwrap();
//! assert_eq!(v.get("model").and_then(|m| m.get("zoo")).and_then(Json::as_str),
//!            Some("xception"));
//! assert_eq!(v.get("batch").and_then(Json::as_u64), Some(4));
//! ```

#![warn(missing_docs)]

use std::collections::HashSet;
use std::fmt;

/// Maximum nesting depth the parser accepts; deeper inputs error instead
/// of risking stack exhaustion.
const MAX_DEPTH: usize = 128;

/// Key count up to which an object checks a new key for duplicates by a
/// linear scan; wider objects switch to a hash set.
const LINEAR_KEY_SCAN: usize = 16;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64`; see the module docs for how
    /// integral values are written back).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

/// Error produced when parsing JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Explanation.
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.detail
        )
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An empty object (builder entry point for [`Self::push`]).
    pub fn object() -> Self {
        Self::Object(Vec::new())
    }

    /// Appends a key/value pair to an object.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object — object construction is a
    /// programming task, not a data-driven one.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Self::Object(pairs) => pairs.push((key.to_string(), value.into())),
            _ => panic!("Json::push on a non-object"),
        }
    }

    /// Value of `key` when `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's key/value pairs, when `self` is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The string content, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, when `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, when `self` is a non-negative
    /// integral number within `u64` range. The bound is strict:
    /// `u64::MAX as f64` rounds up to 2^64, which the `as` cast would
    /// silently saturate, so that value is rejected rather than clamped.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric value as a `usize` (via [`Self::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean value, when `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when `self` is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses JSON text (strict: exactly one value, no trailing garbage,
    /// no duplicate object keys, nesting capped at a safe depth).
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering: two-space indentation, one key per line, and a
    /// trailing newline — the canonical on-disk form of scenario and
    /// outcome files.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Num(n) => write_number(out, *n),
            Self::Str(s) => write_string(out, s),
            Self::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Self::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Self::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Self::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Self {
        Self::Num(f64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Self::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Self::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Self::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Self::Array(items)
    }
}

// The dimensional newtypes serialize as their bare numeric value, so the
// JSON wire format is byte-identical to the pre-typed-quantity output.
impl From<mccm_core::Cycles> for Json {
    fn from(v: mccm_core::Cycles) -> Self {
        Self::from(v.get())
    }
}

impl From<mccm_core::Bytes> for Json {
    fn from(v: mccm_core::Bytes) -> Self {
        Self::from(v.get())
    }
}

impl From<mccm_core::Macs> for Json {
    fn from(v: mccm_core::Macs) -> Self {
        Self::from(v.get())
    }
}

impl From<mccm_core::Pes> for Json {
    fn from(v: mccm_core::Pes) -> Self {
        Self::from(v.get())
    }
}

impl From<mccm_core::Joules> for Json {
    fn from(v: mccm_core::Joules) -> Self {
        Self::Num(v.get())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

/// Writes a number: integral values within `f64`'s exact range print as
/// integers, everything else through Rust's shortest-round-trip `f64`
/// formatting. Non-finite values (unrepresentable in JSON) write `null`.
fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        // Keys seen so far, kept once the object outgrows a linear scan,
        // so a wide object parses in linear time.
        let mut seen: Option<HashSet<String>> = None;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.string().map_err(|mut e| {
                if self.bytes.get(key_offset) != Some(&b'"') {
                    e.detail = "expected a string object key".into();
                }
                e
            })?;
            let duplicate = if pairs.len() < LINEAR_KEY_SCAN {
                pairs.iter().any(|(k, _)| *k == key)
            } else {
                let keys =
                    seen.get_or_insert_with(|| pairs.iter().map(|(k, _)| k.clone()).collect());
                !keys.insert(key.clone())
            };
            if duplicate {
                return Err(JsonError {
                    offset: key_offset,
                    detail: format!("duplicate object key `{key}`"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control character at once. All three are ASCII, so
                    // the run ends on a char boundary of the `&str` input.
                    let start = self.pos;
                    let len = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += len;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid hex in \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        // Leading zeros are invalid JSON ("01"), a single zero is fine.
        if self.bytes[digits_start] == b'0' && self.pos - digits_start > 1 {
            self.pos = digits_start;
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        let n: f64 = text.parse().map_err(|_| JsonError {
            offset: start,
            detail: format!("invalid number `{text}`"),
        })?;
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].get("b"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let original =
            "quote\" back\\ slash/ tab\t nl\n cr\r bell\u{08} ff\u{0C} unicode é 涛 \u{1F600}";
        let mut out = String::new();
        write_string(&mut out, original);
        let back = Json::parse(&out).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // Explicit \u escapes, including a surrogate pair.
        assert_eq!(
            Json::parse(r#""é 😀""#).unwrap().as_str(),
            Some("é \u{1F600}")
        );
    }

    #[test]
    fn rejects_malformed_inputs_with_offsets() {
        for (text, needle) in [
            ("", "end of input"),
            ("{", "string object key"),
            ("[1, 2", "expected `,` or `]`"),
            ("{\"a\": 1,}", "string object key"),
            ("\"abc", "unterminated string"),
            ("01", "leading zero"),
            ("1.2.3", "trailing characters"),
            ("{\"a\": 1, \"a\": 2}", "duplicate object key `a`"),
            ("nul", "expected `null`"),
            (r#""\q""#, "invalid escape"),
            (r#""\ud800x""#, "lone high surrogate"),
            ("{\"a\" 1}", "expected `:`"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.detail.contains(needle), "{text}: {err}");
            assert!(err.to_string().contains("byte"), "{err}");
        }
        // A raw control character is reported at its own byte offset.
        let err = Json::parse("\"é\tx\"").unwrap_err();
        assert!(err.detail.contains("raw control character"), "{err}");
        assert_eq!(err.offset, 3);
    }

    /// Ratio guard, not an absolute time, so it holds on slow hosts: the
    /// document `make(8 * n)` must parse in under 16x the time of
    /// `make(n)` (a quadratic parse takes ~64x). Best of 3 runs per size;
    /// `check` validates each parse outside the timed span.
    fn assert_parses_linearly(
        n: usize,
        make: impl Fn(usize) -> String,
        check: impl Fn(&Json, usize),
    ) {
        let best_parse_secs = |size: usize| {
            let text = make(size);
            (0..3)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let v = Json::parse(&text).unwrap();
                    let secs = start.elapsed().as_secs_f64();
                    check(&v, size);
                    secs
                })
                .fold(f64::INFINITY, f64::min)
        };
        let small = best_parse_secs(n);
        let large = best_parse_secs(8 * n);
        assert!(
            large < 16.0 * small,
            "8x input took {:.1}x the time ({large:.6}s vs {small:.6}s)",
            large / small
        );
    }

    #[test]
    fn string_parsing_scales_linearly() {
        assert_parses_linearly(
            32 * 1024,
            |bytes| format!("\"{}\"", "abcdefé\\n".repeat(bytes / 10)),
            |v, bytes| assert_eq!(v.as_str().map(str::len), Some(bytes / 10 * 9)),
        );
    }

    #[test]
    fn wide_object_parsing_scales_linearly() {
        assert_parses_linearly(
            4096,
            |keys| {
                let pairs: Vec<String> = (0..keys).map(|k| format!("\"key{k}\": {k}")).collect();
                format!("{{{}}}", pairs.join(", "))
            },
            |v, keys| {
                assert!(matches!(v, Json::Object(pairs) if pairs.len() == keys));
                assert_eq!(
                    v.get(&format!("key{}", keys - 1)).and_then(Json::as_usize),
                    Some(keys - 1)
                );
            },
        );
    }

    #[test]
    fn long_array_parsing_scales_linearly() {
        assert_parses_linearly(
            32 * 1024,
            |items| {
                let items: Vec<String> = (0..items).map(|i| i.to_string()).collect();
                format!("[{}]", items.join(","))
            },
            |v, items| assert_eq!(v.as_array().map(<[Json]>::len), Some(items)),
        );
    }

    #[test]
    fn deep_nesting_parsing_scales_linearly() {
        // Copies of a document nested 100 levels deep (objects and arrays
        // alternating), just inside the depth limit.
        let nest = "{\"k\": [".repeat(50) + "0" + &"]}".repeat(50);
        assert_parses_linearly(
            128,
            |copies| format!("[{}]", vec![nest.as_str(); copies].join(", ")),
            |v, copies| assert_eq!(v.as_array().map(<[Json]>::len), Some(copies)),
        );
    }

    #[test]
    fn wide_object_reports_its_first_duplicate_key() {
        // Past the linear-scan width the duplicate check changes method;
        // the error must still name the first repeat at its own offset.
        let mut text = String::from("{");
        for k in 0..100 {
            text.push_str(&format!("\"key{k}\": {k}, "));
        }
        let first = text.len();
        text.push_str("\"key40\": 0, \"key7\": 0}");
        let err = Json::parse(&text).unwrap_err();
        assert_eq!(err.offset, first);
        assert_eq!(err.detail, "duplicate object key `key40`");
        // The same holds at the switch-over width.
        for keys in [LINEAR_KEY_SCAN - 1, LINEAR_KEY_SCAN, LINEAR_KEY_SCAN + 1] {
            let pairs: Vec<String> = (0..keys).map(|k| format!("\"key{k}\": {k}")).collect();
            let head = format!("{{{}, ", pairs.join(", "));
            let err = Json::parse(&format!("{head}\"key0\": 1}}")).unwrap_err();
            assert_eq!(
                (err.offset, err.detail.as_str()),
                (head.len(), "duplicate object key `key0`")
            );
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).unwrap_err().detail.contains("nesting"));
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn numbers_write_back_without_noise() {
        let mut out = String::new();
        write_number(&mut out, 4000.0);
        assert_eq!(out, "4000");
        out.clear();
        write_number(&mut out, 0.25);
        assert_eq!(out, "0.25");
        out.clear();
        write_number(&mut out, -7.0);
        assert_eq!(out, "-7");
        out.clear();
        write_number(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    #[test]
    fn pretty_and_compact_round_trip() {
        let mut obj = Json::object();
        obj.push("name", "x");
        obj.push("count", 3u64);
        obj.push("items", vec![Json::from(1u64), Json::from(2u64)]);
        obj.push("empty", Json::object());
        for text in [obj.to_string_compact(), obj.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), obj);
        }
        assert_eq!(
            obj.to_string_compact(),
            r#"{"name":"x","count":3,"items":[1,2],"empty":{}}"#
        );
        assert!(obj.to_string_pretty().ends_with('\n'));
    }

    #[test]
    fn accessor_conversions() {
        let v = Json::parse(r#"{"n": 3, "f": 2.5, "neg": -1, "b": true, "s": "t"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        // 2^64 would saturate through `as u64`; it must be rejected, not
        // clamped to u64::MAX.
        assert_eq!(Json::Num(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(
            Json::Num(18_446_744_073_709_549_568.0).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("s").unwrap().as_str(), Some("t"));
        assert_eq!(v.get("missing"), None);
        assert!(v.entries().unwrap().len() == 5);
    }
}
