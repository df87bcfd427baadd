//! Dependency-free JSON document model: the parse side of the crate's
//! deterministic JSON encoding.
//!
//! [`crate::StatSet::to_json`] has always emitted hand-rolled JSON; this
//! module adds the matching generic value type ([`JsonValue`]) and a
//! recursive-descent parser so documents can be read back — experiment
//! manifests, shard result files, and stat trees all round-trip through
//! the same infrastructure. Like the rest of the workspace it is vendored
//! logic, not an external dependency.
//!
//! Determinism contract: object keys preserve insertion order on both the
//! build and parse paths, unsigned integers render as integers, and
//! floating-point values render with Rust's shortest round-trippable
//! `{:?}` form (non-finite values render as `null`). Consequently
//! `render(parse(render(x))) == render(x)` for every value this module
//! can build — the property the round-trip tests pin.

use std::fmt;

/// A parsed or constructed JSON value.
///
/// Numbers keep three representations so that integer counters survive a
/// round-trip exactly: a token without `.`/exponent parses to [`JsonValue::UInt`]
/// (or [`JsonValue::Int`] when negative) and only genuinely fractional or
/// exponent-bearing tokens become [`JsonValue::Float`].
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (e.g. a `u64` stat counter).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number (renders via `{:?}`; non-finite as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `f64`: floats verbatim, integers widened, `null` as
    /// NaN (the encode side maps non-finite metrics to `null`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(v) => Some(*v),
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the compact (no whitespace) deterministic encoding.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => out.push_str(&v.to_string()),
            JsonValue::Int(v) => out.push_str(&v.to_string()),
            JsonValue::Float(v) => write_f64(out, *v),
            JsonValue::Str(s) => write_json_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders with two-space indentation; composite values containing
    /// only scalar leaves stay on one line, which keeps documents like the
    /// bench summary readable without ballooning each entry.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, JsonValue::Array(_) | JsonValue::Object(_))
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let inline = match self {
            JsonValue::Array(items) => items.iter().all(JsonValue::is_scalar),
            JsonValue::Object(fields) => fields.iter().all(|(_, v)| v.is_scalar()),
            _ => true,
        };
        if inline {
            self.write(out);
            return;
        }
        let pad = "  ".repeat(depth + 1);
        match self {
            JsonValue::Array(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&pad);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            _ => self.write(out),
        }
    }

    /// Parses a JSON document. Trailing whitespace is allowed; trailing
    /// non-whitespace input is an error.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing input after the JSON document"));
        }
        Ok(value)
    }
}

/// Writes `v` exactly as the crate's stat encoding does: `{:?}` (shortest
/// round-trippable form) for finite values, `null` otherwise.
pub(crate) fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        use fmt::Write as _;
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a JSON string literal with the crate's escaping rules.
pub(crate) fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus a one-line diagnosis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting guard: documents deeper than this are rejected rather than
/// risking a parser stack overflow on hostile input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { pos: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of unescaped bytes as one slice. It ends at an
            // ASCII quote or backslash, so on a char boundary of the
            // (already valid UTF-8) input.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hi = self.hex4()?;
                    let c = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: a low surrogate must follow.
                        if self.peek() == Some(b'\\') {
                            self.pos += 1;
                            self.expect(b'u')?;
                        } else {
                            return Err(self.err("unpaired high surrogate"));
                        }
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                    };
                    out.push(c);
                }
                other => {
                    return Err(self.err(format!("invalid escape `\\{}`", other as char)));
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
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits are UTF-8");
        if !fractional {
            if let Some(digits) = text.strip_prefix('-') {
                if let Ok(v) = digits.parse::<u64>() {
                    return if v == 0 {
                        Ok(JsonValue::UInt(0))
                    } else if v <= i64::MAX as u64 + 1 {
                        Ok(JsonValue::Int((v as i64).wrapping_neg()))
                    } else {
                        Err(self.err(format!("integer out of range: {text}")))
                    };
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(JsonValue::Float(v)),
            _ => Err(self.err(format!("invalid number `{text}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> String {
        JsonValue::parse(text).expect(text).render()
    }

    #[test]
    fn scalars_parse_and_render() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip(" false "), "false");
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-7"), "-7");
        assert_eq!(roundtrip("2.5"), "2.5");
        assert_eq!(roundtrip("1.0"), "1.0");
        assert_eq!(roundtrip("\"a\\nb\""), "\"a\\nb\"");
        assert_eq!(roundtrip("18446744073709551615"), "18446744073709551615");
    }

    #[test]
    fn integers_stay_integers_and_floats_stay_floats() {
        assert_eq!(JsonValue::parse("7").unwrap(), JsonValue::UInt(7));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(JsonValue::parse("7.0").unwrap(), JsonValue::Float(7.0));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(JsonValue::parse("-9223372036854775808").unwrap(), JsonValue::Int(i64::MIN));
    }

    #[test]
    fn composites_preserve_order() {
        let text = "{\"b\":1,\"a\":[1,2,{\"x\":null}],\"c\":\"s\"}";
        assert_eq!(roundtrip(text), text);
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("b"), Some(&JsonValue::UInt(1)));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escapes_round_trip() {
        let text = "\"\\\"\\\\\\n\\t\\r\\u0001\"";
        assert_eq!(roundtrip(text), text);
        // \uXXXX for printable characters normalizes to the literal char.
        assert_eq!(roundtrip("\"\\u0041\""), "\"A\"");
        // Surrogate pair.
        assert_eq!(roundtrip("\"\\ud83d\\ude00\""), "\"😀\"");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "nul",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "\"abc",
            "01a",
            "1.2.3",
            "[1] trailing",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\ud800\"",
            "1e999",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted `{bad}`");
        }
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(JsonValue::parse(&deep).is_err(), "depth guard");
    }

    #[test]
    fn pretty_rendering_inlines_scalar_leaves() {
        let v = JsonValue::object(vec![
            ("a", JsonValue::UInt(1)),
            ("b", JsonValue::Array(vec![JsonValue::object(vec![("x", JsonValue::UInt(2))])])),
        ]);
        let pretty = v.render_pretty();
        assert_eq!(pretty, "{\n  \"a\": 1,\n  \"b\": [\n    {\"x\":2}\n  ]\n}\n");
        // And pretty output still parses back to the same value.
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::Float(1.5).render(), "1.5");
    }
}
