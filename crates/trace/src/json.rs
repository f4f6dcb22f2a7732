//! A tiny hand-rolled JSON value type and serializer.
//!
//! The workspace is intentionally dependency-free, so instead of serde this
//! module provides the minimal subset the run reports, records and Chrome
//! timelines need: an order-preserving object, arrays, strings with correct
//! escaping, and integer/float formatting that round-trips through any
//! standards-compliant parser.

use std::fmt;

/// A JSON value. Objects preserve insertion order so reports render with a
/// stable, human-diffable key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned integers (cycle counts, event tallies) keep full precision.
    UInt(u64),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Start an empty object; chain [`Json::field`] to populate it.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key/value pair. Panics in debug builds if `self` is not an
    /// object (a construction bug, not a data condition).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            _ => debug_assert!(false, "Json::field on non-object"),
        }
        self
    }

    /// Serialize into `out` (compact, no whitespace).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let mut buf = [0u8; 20];
                out.push_str(fmt_u64(*n, &mut buf));
            }
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    it.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize to a fresh compact string.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::with_capacity(128);
        self.write(&mut s);
        s
    }

    /// Serialize with two-space indentation — the form written to report
    /// files so diffs between runs stay readable.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::with_capacity(256);
        self.write_pretty(&mut s, 0);
        s
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    it.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Format `n` without allocating; returns a slice of `buf`.
fn fmt_u64(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).unwrap()
}

/// JSON has no NaN/Inf; map them to null so output always parses.
fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        // `{:?}` on f64 is Rust's shortest round-trip formatting, which is
        // also valid JSON for finite values.
        use fmt::Write;
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// Escape and quote `s` per RFC 8259: `"` and `\` escaped, control
/// characters as `\uXXXX` (with the common short forms for \n \r \t etc.).
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ----------------------------------------------------------------------
// Parsing (for `bench-diff` and other report consumers)
// ----------------------------------------------------------------------

/// A parse failure: byte offset + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Nesting guard: reports written by this workspace are a few levels deep;
/// anything past this is corrupt input, not a report.
const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: message.into() })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => self.err(format!("unexpected byte 0x{b:02x}")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => break,
                _ => return self.err("expected ',' or ']'"),
            }
        }
        self.depth -= 1;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => break,
                _ => return self.err("expected ',' or '}'"),
            }
        }
        self.depth -= 1;
        Ok(Json::Obj(pairs))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                match std::str::from_utf8(&self.bytes[start..self.pos]) {
                    Ok(chunk) => s.push_str(chunk),
                    Err(_) => return self.err("invalid UTF-8 in string"),
                }
            }
            match self.bump() {
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{08}'),
                    Some(b'f') => s.push('\u{0c}'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let cp = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return self.err("unpaired surrogate");
                            }
                            let lo = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return self.err("invalid low surrogate");
                            }
                            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                        } else {
                            hi
                        };
                        match char::from_u32(cp) {
                            Some(c) => s.push(c),
                            None => return self.err("invalid unicode escape"),
                        }
                    }
                    _ => return self.err("invalid escape"),
                },
                Some(_) => return self.err("unescaped control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return self.err("expected 4 hex digits"),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return self.err("expected digit");
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let fs = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == fs {
                return self.err("expected fraction digits");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let es = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == es {
                return self.err("expected exponent digits");
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            // Preserve integer-ness where it fits (cycle counts exceed 2^53).
            if neg {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        match text.parse::<f64>() {
            Ok(x) => Ok(Json::Num(x)),
            Err(_) => self.err("malformed number"),
        }
    }
}

impl Json {
    /// Parse a complete JSON document (the inverse of the serializer;
    /// round-trips everything this workspace writes). Trailing whitespace is
    /// allowed, trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing characters after value");
        }
        Ok(v)
    }

    /// Object field lookup (first match; objects this crate writes have
    /// unique keys). `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup. `None` on non-arrays / out of range.
    pub fn at(&self, idx: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(idx),
            _ => None,
        }
    }

    /// Numeric value as `f64` (UInt/Int/Num). `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Unsigned integer value (exact). `None` otherwise.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Boolean value. `None` otherwise.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value. `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items. `None` otherwise.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// String field `key`, or `"?"` when absent or not a string — the
    /// placeholder every report renderer prints for a missing label.
    pub fn str_at(&self, key: &str) -> &str {
        self.get(key).and_then(Json::as_str).unwrap_or("?")
    }

    /// Numeric field `key` as `f64`, or `0.0` when absent or not a number.
    pub fn f64_at(&self, key: &str) -> f64 {
        self.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// Unsigned field `key`, or `0` when absent or not an unsigned integer.
    pub fn u64_at(&self, key: &str) -> u64 {
        self.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    /// Array field `key`, or an empty slice when absent or not an array.
    pub fn arr_at(&self, key: &str) -> &[Json] {
        self.get(key).and_then(Json::as_arr).unwrap_or(&[])
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<f32> for Json {
    fn from(v: f32) -> Json {
        Json::Num(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string_compact(), "null");
        assert_eq!(Json::Bool(true).to_string_compact(), "true");
        assert_eq!(Json::UInt(u64::MAX).to_string_compact(), u64::MAX.to_string());
        assert_eq!(Json::Int(-7).to_string_compact(), "-7");
        assert_eq!(Json::Num(1.5).to_string_compact(), "1.5");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let cases: &[(&str, &str)] = &[
            ("plain", "\"plain\""),
            ("with \"quotes\"", "\"with \\\"quotes\\\"\""),
            ("back\\slash", "\"back\\\\slash\""),
            ("line\nbreak\ttab", "\"line\\nbreak\\ttab\""),
            ("bell\u{07}", "\"bell\\u0007\""),
            ("unicode: λ→∞", "\"unicode: λ→∞\""),
        ];
        for (input, want) in cases {
            assert_eq!(&Json::Str(input.to_string()).to_string_compact(), want);
        }
    }

    #[test]
    fn objects_preserve_order_and_nest() {
        let j = Json::obj()
            .field("b", 1u64)
            .field("a", Json::Arr(vec![Json::from("x"), Json::Null]))
            .field("c", Json::obj().field("k", 2.5));
        assert_eq!(j.to_string_compact(), r#"{"b":1,"a":["x",null],"c":{"k":2.5}}"#);
    }

    #[test]
    fn parse_round_trips_serializer_output() {
        let j = Json::obj()
            .field("name", "exp \"quoted\" \\ λ→∞\n")
            .field("cycles", u64::MAX)
            .field("delta", -42i64)
            .field("rate", 0.12345678901234567)
            .field("flag", true)
            .field("none", Json::Null)
            .field(
                "layers",
                Json::Arr(vec![
                    Json::obj().field("i", 0u64).field("c", 123u64),
                    Json::obj().field("i", 1u64).field("c", 456u64),
                ]),
            );
        for text in [j.to_string_compact(), j.to_string_pretty()] {
            let parsed = Json::parse(&text).expect("round trip");
            assert_eq!(parsed, j, "parse(serialize(x)) == x for {text}");
        }
    }

    #[test]
    fn parse_scalars_and_numbers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(Json::parse("-9007199254740993").unwrap(), Json::Int(-9007199254740993));
        assert_eq!(Json::parse("1.5e3").unwrap(), Json::Num(1500.0));
        assert_eq!(Json::parse("0.25").unwrap(), Json::Num(0.25));
        // Integer too large for u64 degrades to f64 rather than failing.
        assert!(matches!(Json::parse("98446744073709551615").unwrap(), Json::Num(_)));
    }

    #[test]
    fn parse_string_escapes() {
        let v = Json::parse(r#""a\nb\t\"\\\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("a\nb\t\"\\é😀".to_string()));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{\"a\":1}x",
            "[1 2]",
            "nan",
            "--1",
            "\"\\u12\"",
            "01x",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn accessors_navigate_reports() {
        let j =
            Json::parse(r#"{"totals":{"cycles":77},"layers":[{"desc":"conv"},{"desc":"pool"}]}"#)
                .unwrap();
        assert_eq!(j.get("totals").and_then(|t| t.get("cycles")).and_then(Json::as_u64), Some(77));
        assert_eq!(
            j.get("layers")
                .and_then(|l| l.at(1))
                .and_then(|l| l.get("desc"))
                .and_then(Json::as_str),
            Some("pool")
        );
        assert_eq!(j.get("layers").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(j.get("missing"), None);
        assert_eq!(j.at(0), None);
        assert_eq!(Json::UInt(7).as_f64(), Some(7.0));
        assert_eq!(Json::Int(-7).as_u64(), None);
    }

    #[test]
    fn field_accessors_fall_back_to_report_defaults() {
        let j = Json::obj()
            .field("name", "a64fx")
            .field("ms", 1.5)
            .field("n", 3u64)
            .field("xs", Json::Arr(vec![Json::Null]));
        assert_eq!((j.str_at("name"), j.f64_at("ms"), j.u64_at("n")), ("a64fx", 1.5, 3));
        assert_eq!(j.arr_at("xs").len(), 1);
        // Absent keys and wrong types alike take the default.
        assert_eq!((j.str_at("ms"), j.f64_at("name"), j.u64_at("ms")), ("?", 0.0, 0));
        assert!(j.arr_at("missing").is_empty() && Json::Null.arr_at("xs").is_empty());
    }

    #[test]
    fn pretty_output_parses_same_as_compact() {
        let j = Json::obj()
            .field("name", "exp")
            .field("vals", Json::Arr(vec![Json::UInt(1), Json::UInt(2)]));
        let pretty = j.to_string_pretty();
        assert!(pretty.contains('\n'));
        // Stripping all insignificant whitespace must yield the compact form.
        let squashed: String = pretty.chars().filter(|c| !c.is_ascii_whitespace()).collect();
        let compact: String =
            j.to_string_compact().chars().filter(|c| !c.is_ascii_whitespace()).collect();
        assert_eq!(squashed, compact);
    }
}
