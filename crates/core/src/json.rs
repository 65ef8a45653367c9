//! The one JSON reader/writer of the workspace.
//!
//! The build environment is dependency-free (no `serde`), so every JSON
//! document the system emits — analysis reports, preflight and tightness
//! blocks, the daemon's wire lines, `iolb kernels --json` and
//! `BENCH_analysis.json` — is built as a [`Json`] value field by field and
//! rendered here, and every document it reads goes through [`parse`].
//!
//! [`parse`] accepts any RFC-8259 document (objects, arrays, strings with
//! escapes, numbers, booleans, `null`); integers that fit `i128` are kept
//! exact, everything else becomes `f64`. Rendering comes in two layouts:
//!
//! * [`Json::render`] — compact, no whitespace (the wire format);
//! * [`Json::render_pretty`] — the canonical document layout: two-space
//!   indentation, one `"key": value` member or array item per line, empty
//!   containers as `[]`/`{}`, and a trailing newline.
//!
//! Object keys keep their insertion (or parse) order. [`Json::Fixed`]
//! writes a number with a fixed count of decimals (`0.800`), and
//! [`compact`] minifies already-serialised JSON so a stored multi-line
//! document can ride inside a one-line response as [`Json::Raw`].

use std::fmt::{self, Write as _};

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional or exponent part that fits `i128`.
    Int(i128),
    /// Any other number, written in its shortest round-trip form.
    Float(f64),
    /// A number written with exactly this many decimals (`{:.N}`); never
    /// produced by [`parse`], which reads the text back as a plain number.
    Fixed(f64, u8),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys are rejected at parse).
    Obj(Vec<(String, Json)>),
    /// JSON text that is already rendered — a stored report document or an
    /// echoed request id — written verbatim. Never produced by [`parse`].
    Raw(String),
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Json {
                Json::Int(i as i128)
            }
        }
    )*};
}
int_from!(u32, u64, usize);

impl From<i128> for Json {
    fn from(i: i128) -> Json {
        Json::Int(i)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An object from `(key, value)` members, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (`None` for missing keys and non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The exact integer payload, if this is an integer.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer payload as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i128().and_then(|i| u64::try_from(i).ok())
    }

    /// The integer payload as a `usize`, if it is one.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i128().and_then(|i| usize::try_from(i).ok())
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// A short name for the value's type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Int(_) | Json::Float(_) | Json::Fixed(..) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
            Json::Raw(_) => "JSON text",
        }
    }

    /// Renders the value as compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders the value in the canonical document layout: two-space
    /// indentation, one member or item per line, `"key": value`, empty
    /// containers as `[]`/`{}`, and a trailing newline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Writes the value; `indent` is the nesting depth in pretty mode and
    /// `None` in compact mode.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // Non-finite numbers have no JSON representation: `null`.
            Json::Float(f) if f.is_finite() => {
                let _ = write!(out, "{f}");
            }
            Json::Fixed(f, places) if f.is_finite() => {
                let _ = write!(out, "{f:.*}", usize::from(*places));
            }
            Json::Float(_) | Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => escape_into(s, out),
            Json::Raw(text) => out.push_str(text),
            Json::Arr(items) => write_seq(out, indent, ('[', ']'), items, |out, item, inner| {
                item.write(out, inner)
            }),
            Json::Obj(fields) => {
                write_seq(out, indent, ('{', '}'), fields, |out, (k, v), inner| {
                    escape_into(k, out);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    v.write(out, inner)
                })
            }
        }
    }
}

/// Writes a bracketed, comma-separated sequence, one element per line in
/// pretty mode.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|depth| depth + 1);
    for (i, element) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(depth) = inner {
            newline(out, depth);
        }
        item(out, element, inner);
    }
    if let (Some(depth), false) = (indent, items.is_empty()) {
        newline(out, depth);
    }
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

/// Renders a string as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Appends `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped; every other character passes through as UTF-8.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the JSON document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
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
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let ch = std::str::from_utf8(rest)
                        .expect("input is valid UTF-8")
                        .chars()
                        .next()
                        .expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape digits"))?;
        self.pos = end;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by `\uDC00`–
        // `\uDFFF`; anything else is malformed.
        if (0xD800..=0xDBFF).contains(&code) {
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.err("invalid low surrogate"));
                }
                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..=0xDFFF).contains(&code) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else if matches!(self.peek(), Some(b'1'..=b'9')) {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        } else {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed number: digits must follow `.`"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed number: empty exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

/// Minifies already-serialised JSON: drops every whitespace byte outside
/// string literals. Used to embed the stored multi-line report documents
/// (`AnalysisOutcome::to_json`) into single-line protocol responses.
pub fn compact(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if !c.is_ascii_whitespace() {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_structures_and_escapes() {
        let doc = parse(r#"{"a": [1, {"b": "x\ny"}], "c": null}"#).unwrap();
        assert_eq!(doc.get("c"), Some(&Json::Null));
        let arr = match doc.get("a").unwrap() {
            Json::Arr(items) => items,
            other => panic!("want array, got {other:?}"),
        };
        assert_eq!(arr[0], Json::Int(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00""#).unwrap().as_str(),
            Some("é😀")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{\"a\":1} trailing",
            "01",
            "{\"dup\":1,\"dup\":2}",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn integers_stay_exact() {
        let big = i128::MAX.to_string();
        assert_eq!(parse(&big).unwrap(), Json::Int(i128::MAX));
        // Beyond i128 falls back to f64 rather than failing.
        assert!(matches!(
            parse("170141183460469231731687303715884105728").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn render_roundtrips() {
        let doc = r#"{"a":[1,2.5,"x\"y",null,true],"b":{"c":-3}}"#;
        assert_eq!(parse(doc).unwrap().render(), doc);
    }

    #[test]
    fn compact_preserves_strings() {
        let pretty = "{\n  \"a b\": \"keep  \\\" this\",\n  \"n\": 1\n}\n";
        assert_eq!(compact(pretty), r#"{"a b":"keep  \" this","n":1}"#);
    }

    #[test]
    fn pretty_layout_is_canonical() {
        let doc = Json::obj([
            ("a", Json::Int(1)),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            (
                "nested",
                Json::Arr(vec![Json::obj([("k", "v".into())]), Json::Null]),
            ),
        ]);
        assert_eq!(
            doc.render_pretty(),
            "{\n  \"a\": 1,\n  \"empty_arr\": [],\n  \"empty_obj\": {},\n  \"nested\": [\n    {\n      \"k\": \"v\"\n    },\n    null\n  ]\n}\n"
        );
        assert_eq!(Json::Arr(vec![]).render_pretty(), "[]\n");
        assert_eq!(Json::Int(3).render_pretty(), "3\n");
    }

    #[test]
    fn fixed_precision_rounds_and_keeps_its_text() {
        for (value, places, text) in [
            (0.75, 3, "0.750"),
            (12.0, 3, "12.000"),
            (2.0004, 3, "2.000"),
            (0.23425, 4, "0.2343"),
            (1.0 / 3.0, 6, "0.333333"),
            (-1.23456, 2, "-1.23"),
            (0.000_000_4, 6, "0.000000"),
            (0.000_000_6, 6, "0.000001"),
            (1e20, 1, "100000000000000000000.0"),
        ] {
            assert_eq!(
                Json::Fixed(value, places).render(),
                text,
                "{value} .{places}"
            );
        }
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Float(x).render(), "null");
            assert_eq!(Json::Fixed(x, 3).render(), "null");
            assert_eq!(
                Json::Arr(vec![Json::Fixed(x, 6)]).render_pretty(),
                "[\n  null\n]\n"
            );
        }
    }

    #[test]
    fn special_characters_round_trip_in_keys_and_strings() {
        let mut nasty: String = (0u32..0x20).filter_map(char::from_u32).collect();
        nasty.push_str("\"\\/é€😀\u{10FFFF}");
        let doc = Json::obj([
            (nasty.as_str(), nasty.clone().into()),
            ("q\"k", Json::Str("\\".into())),
        ]);
        let text = doc.render();
        assert!(text.contains(r#"\u0000\u0001"#), "{text}");
        assert!(text.contains(r#"\u0008"#), "{text}");
        assert!(!text.chars().any(|c| (c as u32) < 0x20), "{text:?}");
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(parse(&doc.render_pretty()).unwrap(), doc);
        assert_eq!(compact(&doc.render_pretty()), text);
        assert_eq!(escape("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(escape("Q∞"), "\"Q∞\"");
    }

    #[test]
    fn raw_text_is_written_verbatim() {
        let doc = Json::obj([
            ("id", Json::Raw("7".into())),
            ("r", Json::Raw(r#"{"a":[1]}"#.into())),
        ]);
        assert_eq!(doc.render(), r#"{"id":7,"r":{"a":[1]}}"#);
    }

    /// A small seeded generator (SplitMix64) of nested values.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            const POOL: &[char] = &[
                'a',
                'Z',
                '0',
                ' ',
                '"',
                '\\',
                '/',
                '\n',
                '\r',
                '\t',
                '\u{0}',
                '\u{1}',
                '\u{8}',
                '\u{c}',
                '\u{1f}',
                '\u{7f}',
                'é',
                '∞',
                '\u{FFFF}',
                '😀',
                '\u{10FFFF}',
            ];
            (0..self.below(8))
                .map(|_| POOL[self.below(POOL.len() as u64) as usize])
                .collect()
        }

        fn value(&mut self, depth: usize) -> Json {
            let kinds = if depth == 0 { 5 } else { 7 };
            match self.below(kinds) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 1),
                2 => Json::Int(match self.below(4) {
                    0 => i128::MAX,
                    1 => i128::MIN,
                    _ => self.next() as i64 as i128,
                }),
                // Finite and non-integral, so the text reads back as a float.
                3 => Json::Float((self.next() as i32) as f64 + (self.below(999) + 1) as f64 / 1e3),
                4 => Json::Str(self.string()),
                5 => Json::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
                _ => {
                    let mut fields: Vec<(String, Json)> = Vec::new();
                    for _ in 0..self.below(4) {
                        let key = self.string();
                        if fields.iter().all(|(k, _)| *k != key) {
                            fields.push((key, self.value(depth - 1)));
                        }
                    }
                    Json::Obj(fields)
                }
            }
        }
    }

    #[test]
    fn render_and_parse_are_inverse_on_generated_values() {
        let mut gen = Gen(0x10B5_EED5);
        for case in 0..2000 {
            let v = gen.value(4);
            let compact = v.render();
            let pretty = v.render_pretty();
            assert_eq!(parse(&compact).as_ref(), Ok(&v), "case {case}: {compact}");
            assert_eq!(parse(&pretty).as_ref(), Ok(&v), "case {case}: {pretty}");
            assert_eq!(super::compact(&pretty), compact, "case {case}");
        }
    }
}
