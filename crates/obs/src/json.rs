//! The one JSON module: a push-style writer ([`JsonObject`]) and the
//! [`Value`] reader that every schema's `from_value` is built on.
//!
//! The workspace is built fully offline (no serde). Each schema of this
//! crate is written with [`JsonObject`] and read back with [`Value`]'s
//! typed getters by a reader that sits next to its writer, so one
//! module knows each wire format. Output is deterministic: fields
//! appear exactly in insertion order, floats are rendered through
//! [`fmt_f64`] with a fixed shortest-roundtrip-free format, and strings
//! are escaped per RFC 8259.
//!
//! Reading is defensive, because a dump may be truncated or hostile:
//! nesting deeper than [`MAX_DEPTH`] is an error rather than a stack
//! overflow, every syntax error names its byte offset, every getter
//! error names the field's path, and integers are held exactly up to
//! `u64::MAX` (a flight record's `aux` packs a broadcast id above
//! bit 32).

use core::fmt::Write as _;

/// Append `s` to `out` as a JSON string literal (with quotes).
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Render a finite `f64` deterministically (JSON has no NaN/∞; those
/// are rendered as `null`). Integral values keep one decimal place so
/// the type is unambiguous to readers.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Push-style builder for one JSON object.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Start an object (`{`).
    pub fn new() -> JsonObject {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_escaped(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Add an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add an unsigned integer field, or `null` for `None`.
    pub fn field_opt_u64(&mut self, name: &str, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.field_u64(name, v),
            None => self.field_null(name),
        }
    }

    /// Add a float field (finite values only; non-finite become `null`).
    pub fn field_f64(&mut self, name: &str, v: f64) -> &mut Self {
        self.key(name);
        self.buf.push_str(&fmt_f64(v));
        self
    }

    /// Add a string field.
    pub fn field_str(&mut self, name: &str, v: &str) -> &mut Self {
        self.key(name);
        write_escaped(&mut self.buf, v);
        self
    }

    /// Add a boolean field.
    pub fn field_bool(&mut self, name: &str, v: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a `null` field.
    pub fn field_null(&mut self, name: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str("null");
        self
    }

    /// Add a pre-rendered JSON value verbatim (array or nested object).
    pub fn field_raw(&mut self, name: &str, json: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(json);
        self
    }

    /// Add an array whose items are already rendered JSON values.
    pub fn field_array<S: AsRef<str>>(
        &mut self,
        name: &str,
        items: impl IntoIterator<Item = S>,
    ) -> &mut Self {
        self.key(name);
        self.buf.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(item.as_ref());
        }
        self.buf.push(']');
        self
    }

    /// Add an array of unsigned integers.
    pub fn field_u64_array(&mut self, name: &str, vs: &[u64]) -> &mut Self {
        self.field_array(name, vs.iter().map(u64::to_string))
    }

    /// Add an object of unsigned integers ([`u64_object`]).
    pub fn field_u64_map<'a, K: AsRef<str> + 'a>(
        &mut self,
        name: &str,
        entries: impl IntoIterator<Item = (&'a K, &'a u64)>,
    ) -> &mut Self {
        self.field_raw(name, &u64_object(entries))
    }

    /// Close the object (`}`) and return the rendered string.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Render an object of unsigned integers, entries in iteration order
/// (read back by [`Value::u64_entries`]).
pub fn u64_object<'a, K: AsRef<str> + 'a>(
    entries: impl IntoIterator<Item = (&'a K, &'a u64)>,
) -> String {
    let mut obj = JsonObject::new();
    for (k, v) in entries {
        obj.field_u64(k.as_ref(), *v);
    }
    obj.finish()
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

/// Deepest nesting of arrays and objects [`Value::parse`] accepts. The
/// deepest schema written here, `ct-postmortem-v1`, nests five levels.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as a plain non-negative integer that fits a
    /// `u64`, held exactly.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Value)>),
}

/// Prefix a reader error with the path of the value it came from:
/// `.map_err(within("stall"))` turns `ranks[0].rank: missing` into
/// `stall.ranks[0].rank: missing`, and `: must be an object` (an error
/// about the value itself) into `stall: must be an object`.
pub fn within(path: &str) -> impl Fn(String) -> String + '_ {
    move |e| {
        if e.starts_with(':') {
            format!("{path}{e}")
        } else {
            format!("{path}.{e}")
        }
    }
}

impl Value {
    /// Parse one JSON document (must consume the whole input).
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if written as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(vs) => Some(vs),
            _ => None,
        }
    }

    /// Field `key`; the error names it.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        self.get(key).ok_or_else(|| format!("{key}: missing"))
    }

    /// Unsigned integer field `key`, narrowed to `T` (`u64`, `u32`,
    /// `usize`); a value wider than `T` is an error, not a truncation.
    pub fn int_field<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self
            .field(key)?
            .as_u64()
            .ok_or_else(|| format!("{key}: must be an unsigned integer"))?;
        T::try_from(n).map_err(|_| format!("{key}: {n} is out of range"))
    }

    /// Like [`Value::int_field`], with `None` for a missing or `null`
    /// field.
    pub fn opt_int_field<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(_) => self.int_field(key).map(Some),
        }
    }

    /// String field `key`.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| format!("{key}: must be a string"))
    }

    /// Boolean field `key`.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        match self.field(key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("{key}: must be a boolean")),
        }
    }

    /// Object field `key`, as its entries in document order.
    pub fn obj_field(&self, key: &str) -> Result<&[(String, Value)], String> {
        match self.field(key)? {
            Value::Obj(fields) => Ok(fields),
            _ => Err(format!("{key}: must be an object")),
        }
    }

    /// Array field `key`, each item read by `read`; an item's error is
    /// prefixed with `key[i]`.
    pub fn items<T>(
        &self,
        key: &str,
        read: impl Fn(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.field(key)?
            .as_arr()
            .ok_or_else(|| format!("{key}: must be an array"))?
            .iter()
            .enumerate()
            .map(|(i, v)| read(v).map_err(within(&format!("{key}[{i}]"))))
            .collect()
    }

    /// Array-of-unsigned-integers field `key` (the reader of
    /// [`JsonObject::field_u64_array`]).
    pub fn u64_array(&self, key: &str) -> Result<Vec<u64>, String> {
        self.items(key, |v| {
            v.as_u64()
                .ok_or_else(|| ": must be an unsigned integer".to_owned())
        })
    }

    /// The value as an object of unsigned integers, entries collected in
    /// document order (the reader of [`u64_object`]).
    pub fn u64_entries<C: FromIterator<(String, u64)>>(&self) -> Result<C, String> {
        let Value::Obj(fields) = self else {
            return Err(": must be an object".to_owned());
        };
        fields
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("{k}: must be an unsigned integer"))
            })
            .collect()
    }

    /// [`Value::u64_entries`] of field `key`.
    pub fn u64_map<C: FromIterator<(String, u64)>>(&self, key: &str) -> Result<C, String> {
        self.field(key)?.u64_entries().map_err(within(key))
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn found(&self) -> String {
        match self.src[self.pos..].chars().next() {
            Some(c) => format!("{c:?}"),
            None => "end of input".to_owned(),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {}",
                b as char,
                self.pos,
                self.found()
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected {} at byte {}", self.found(), self.pos)),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {}",
                        self.pos,
                        self.found()
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {}",
                        self.pos,
                        self.found()
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape whole: both
            // are ASCII, so the run ends on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| format!("unterminated string at byte {start}"))?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            let at = self.pos;
            self.pos += 1;
            let esc = self
                .peek()
                .ok_or_else(|| format!("unterminated escape at byte {at}"))?;
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
                    let code = self.hex4(at)?;
                    // Surrogate pairs: our writer never emits them, but
                    // accept well-formed ones.
                    let c = if (0xd800..0xdc00).contains(&code) && self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let low = self.hex4(at)?;
                        (0xdc00..0xe000).contains(&low).then(|| {
                            char::from_u32(0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00))
                        })
                    } else {
                        Some(char::from_u32(code))
                    };
                    out.push(
                        c.flatten()
                            .ok_or_else(|| format!("invalid \\u escape at byte {at}"))?,
                    );
                }
                _ => {
                    return Err(format!(
                        "invalid escape at byte {at}: \\{}",
                        self.src[at + 1..].chars().next().unwrap_or('?')
                    ))
                }
            }
        }
    }

    /// Four hex digits of the `\u` escape that starts at byte `at`.
    fn hex4(&mut self, at: usize) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("invalid \\u escape at byte {at}"));
        }
        self.pos += 4;
        // Four ASCII hex digits: both conversions succeed.
        Ok(u32::from_str_radix(&self.src[self.pos - 4..self.pos], 16).unwrap_or(0))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut s = String::new();
        write_escaped(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn object_fields_keep_insertion_order() {
        let mut o = JsonObject::new();
        o.field_u64("b", 2);
        o.field_str("a", "x");
        o.field_bool("ok", true);
        o.field_null("gone");
        o.field_u64_array("xs", &[1, 2, 3]);
        o.field_array("objs", ["{}", "[]"]);
        let map: BTreeMap<String, u64> = [("z".to_owned(), 1), ("y".to_owned(), 2)].into();
        o.field_u64_map("m", &map);
        assert_eq!(
            o.finish(),
            r#"{"b":2,"a":"x","ok":true,"gone":null,"xs":[1,2,3],"objs":[{},[]],"m":{"y":2,"z":1}}"#
        );
    }

    #[test]
    fn floats_are_deterministic() {
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(2.5), "2.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn round_trips_an_event_line() {
        let line =
            r#"{"t":12,"w":345,"kind":"deliver","from":1,"to":2,"payload":"gossip","round":4}"#;
        let v = Value::parse(line).unwrap();
        assert_eq!(v.get("t").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("deliver"));
        assert_eq!(v.get("round").unwrap().as_u64(), Some(4));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn nested_structures_parse() {
        let v = Value::parse(r#"{"a":[1,2.5,null,true],"b":{"c":"x"}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[0], Value::Int(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2], Value::Null);
        assert_eq!(arr[3], Value::Bool(true));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn string_escapes_decode() {
        let v = Value::parse(r#""a\"b\\c\ndAé😀 ü""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀 ü"));
    }

    #[test]
    fn numbers_keep_integers_exact() {
        assert_eq!(Value::parse("-3.5e2").unwrap().as_f64(), Some(-350.0));
        assert_eq!(Value::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Value::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(Value::parse("2.0").unwrap().as_u64(), None);
        // Above 2^53, where an f64 would round.
        let big = Value::parse("18446744073709551615").unwrap();
        assert_eq!(big.as_u64(), Some(u64::MAX));
        assert_eq!(
            Value::parse("9007199254740993").unwrap().as_u64(),
            Some((1 << 53) + 1)
        );
        // One past u64::MAX is still a number, but not an integer.
        assert!(Value::parse("18446744073709551616")
            .unwrap()
            .as_u64()
            .is_none());
    }

    #[test]
    fn every_syntax_error_names_its_byte_offset() {
        for bad in [
            "{",
            "[1,]",
            r#"{"a":1} extra"#,
            "tru",
            r#""abc"#,
            r#""a\"#,
            r#""\u12"#,
            r#""\uzzzz""#,
            r#""\ud800A""#,
            r#""\q""#,
            "-",
            "1e",
            "",
        ] {
            let err = Value::parse(bad).unwrap_err();
            assert!(err.contains("at byte "), "{bad:?}: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Value::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Value::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Far past any stack: an error, not an overflow.
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn whitespace_tolerated_everywhere() {
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn getters_name_the_field() {
        let v = Value::parse(r#"{"n":5000000000,"s":"x","xs":[1,"a"],"m":{"k":1.5},"o":[{}]}"#)
            .unwrap();
        assert_eq!(v.int_field::<u64>("n"), Ok(5_000_000_000));
        assert_eq!(
            v.int_field::<u32>("n").unwrap_err(),
            "n: 5000000000 is out of range"
        );
        assert_eq!(
            v.int_field::<u64>("s").unwrap_err(),
            "s: must be an unsigned integer"
        );
        assert_eq!(v.str_field("gone").unwrap_err(), "gone: missing");
        assert_eq!(v.opt_int_field::<u64>("gone"), Ok(None));
        assert_eq!(
            v.u64_array("xs").unwrap_err(),
            "xs[1]: must be an unsigned integer"
        );
        assert_eq!(
            v.u64_map::<BTreeMap<_, _>>("m").unwrap_err(),
            "m.k: must be an unsigned integer"
        );
        assert_eq!(
            v.items("o", |o| o.bool_field("ok")).unwrap_err(),
            "o[0].ok: missing"
        );
        assert_eq!(
            v.obj_field("s").map_err(within("top")).unwrap_err(),
            "top.s: must be an object"
        );
    }
}
