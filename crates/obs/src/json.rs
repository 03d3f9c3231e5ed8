//! The workspace's one JSON reader and writer.
//!
//! It reads telemetry dumps (schema validation, `harp-trace` rendering)
//! and reads and writes the two description files the RM takes from disk
//! (`harp_platform::HardwareDescription`, `libharp`'s `AppDescription`),
//! whose decoders are written by hand over [`Json`] with the typed
//! accessors below. The crate has no dependencies, so every layer can use
//! it. The parser is a small recursive descent over standard JSON, except
//! that `\uXXXX` surrogate pairs beyond the BMP are passed through
//! unvalidated.

use crate::event::{escape_json_into, push_f64};

/// A parsed JSON value. Numbers are kept as `f64`; all integers emitted
/// by the dump format fit in 53 bits.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object members, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Object member `key`; the error names what is missing. Unknown
    /// members are never an error: decoders read the keys they know.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(_) => self
                .get(key)
                .ok_or_else(|| format!("missing field `{key}`")),
            _ => Err(format!("expected an object with field `{key}`")),
        }
    }

    /// Member `key` as a number (`null` is not one).
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        typed(self.field(key)?.as_f64(), key, "a number")
    }

    /// Member `key` as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        typed(self.field(key)?.as_str(), key, "a string")
    }

    /// Member `key` as an array.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        let items = match self.field(key)? {
            Json::Arr(items) => Some(items.as_slice()),
            _ => None,
        };
        typed(items, key, "an array")
    }

    /// Member `key` as a count of type `T`: a non-negative whole number
    /// that fits `T`. JSON does not tell `8` from `8.0`, so both read as 8.
    pub fn count_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        count(self.field(key)?, key)
    }

    /// Member `key` as an array of counts of type `T` (see
    /// [`Json::count_field`]).
    pub fn counts_field<T: TryFrom<u64>>(&self, key: &str) -> Result<Vec<T>, String> {
        self.arr_field(key)?.iter().map(|v| count(v, key)).collect()
    }

    /// An object with `members` in order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value as JSON text, two-space indented: one item or member per
    /// line, `"key": value`, empty containers as `[]` / `{}`, no trailing
    /// newline. Numbers take the shortest form that reads back to the
    /// same bits (`8.0` is written `8`); NaN and infinities, which JSON
    /// cannot express, are written as `null`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => push_f64(out, *n),
            Json::Str(s) => push_quoted(out, s),
            Json::Arr(items) => write_block(out, depth, ('[', ']'), items, |out, v| {
                v.write_pretty(out, depth + 1)
            }),
            Json::Obj(members) => write_block(out, depth, ('{', '}'), members, |out, (k, v)| {
                push_quoted(out, k);
                out.push_str(": ");
                v.write_pretty(out, depth + 1);
            }),
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(v.into())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

fn typed<T>(v: Option<T>, key: &str, want: &str) -> Result<T, String> {
    v.ok_or_else(|| format!("field `{key}`: expected {want}"))
}

fn count<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
    v.as_u64().and_then(|n| T::try_from(n).ok()).ok_or_else(|| {
        let ty = std::any::type_name::<T>();
        format!("field `{key}`: expected a non-negative integer that fits {ty}")
    })
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    escape_json_into(out, s);
    out.push('"');
}

fn write_block<T>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        push_indent(out, depth + 1);
        write_item(out, item);
    }
    if !items.is_empty() {
        out.push('\n');
        push_indent(out, depth);
    }
    out.push(close);
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                _ => {
                    // Re-borrow the original str slice to pick up full
                    // UTF-8 characters without byte-level decoding.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_dump_style_line() {
        let line = r#"{"type":"event","seq":3,"tick":1,"sub":"rm","dur_ns":0,"fields":{"apps":2,"ok":true,"w":1.5,"s":"a\"b"}}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("sub").and_then(Json::as_str), Some("rm"));
        let fields = v.get("fields").unwrap();
        assert_eq!(fields.get("apps").and_then(Json::as_u64), Some(2));
        assert_eq!(fields.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(fields.get("w").and_then(Json::as_f64), Some(1.5));
        assert_eq!(fields.get("s").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn parses_nested_arrays_and_unicode() {
        let v = parse(r#"[1, -2.5, "hélloA", [true, null], {}]"#).unwrap();
        let Json::Arr(items) = v else { panic!() };
        assert_eq!(items.len(), 5);
        assert_eq!(items[2].as_str(), Some("hélloA"));
        assert_eq!(items[3], Json::Arr(vec![Json::Bool(true), Json::Null]));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("123 trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn pretty_layout_is_two_space_indented() {
        let v = Json::obj([
            ("name", "a\"b".into()),
            ("n", 8u32.into()),
            ("xs", [1.5, 0.1].into_iter().collect()),
            ("empty", Json::Arr(Vec::new())),
            (
                "o",
                Json::obj([("nan", f64::NAN.into()), ("t", Json::Bool(true))]),
            ),
        ]);
        let want =
            "{\n  \"name\": \"a\\\"b\",\n  \"n\": 8,\n  \"xs\": [\n    1.5,\n    0.1\n  ],\n  \
                    \"empty\": [],\n  \"o\": {\n    \"nan\": null,\n    \"t\": true\n  }\n}";
        assert_eq!(v.to_pretty(), want);
        assert_eq!(Json::Obj(Vec::new()).to_pretty(), "{}");
    }

    #[test]
    #[allow(clippy::excessive_precision)] // over-precise literal is the point
    fn pretty_floats_read_back_bit_exactly() {
        for f in [
            0.1,
            1.0 / 3.0,
            6.02214076e23,
            -0.0,
            1e-308,
            123456789.123456789,
            8.0,
        ] {
            let text = Json::from(f).to_pretty();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} written as {text}");
        }
        assert_eq!(Json::from(f64::INFINITY).to_pretty(), "null");
    }

    #[test]
    fn typed_fields_name_what_is_wrong() {
        let v =
            parse(r#"{"c": 8.0, "f": null, "s": "x", "a": [1, -1], "big": 4294967296}"#).unwrap();
        assert_eq!(v.count_field::<u32>("c"), Ok(8));
        assert_eq!(v.str_field("s"), Ok("x"));
        assert!(v.field("zz").unwrap_err().contains("missing field `zz`"));
        assert!(v.f64_field("f").unwrap_err().contains("field `f`"));
        assert!(v.str_field("c").unwrap_err().contains("field `c`"));
        assert!(v.arr_field("s").unwrap_err().contains("field `s`"));
        assert!(v
            .counts_field::<u32>("a")
            .unwrap_err()
            .contains("field `a`"));
        assert!(v.count_field::<u32>("big").unwrap_err().contains("u32"));
        assert_eq!(v.count_field::<u64>("big"), Ok(1 << 32));
        assert!(Json::Null.field("c").is_err());
    }

    #[test]
    fn round_trips_encoder_output() {
        use crate::event::{Event, EventKind, Subsystem, Value};
        let ev = Event {
            seq: 1,
            tick: 0,
            span: 2,
            parent: 0,
            subsystem: Subsystem::Solver,
            kind: EventKind::SpanEnd,
            name: "solve",
            dur_ns: 12345,
            fields: vec![("work", Value::F64(0.1666)), ("apps", Value::U64(32))],
        };
        let v = parse(&ev.to_jsonl()).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("solve"));
        assert_eq!(v.get("dur_ns").and_then(Json::as_u64), Some(12345));
        assert_eq!(
            v.get("fields").unwrap().get("work").and_then(Json::as_f64),
            Some(0.1666)
        );
    }
}
