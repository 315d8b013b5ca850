//! A minimal JSON value type with a parser and a round-trip-exact writer.
//!
//! The workspace builds with no external crates, so the suite-result cache
//! (`results/suite-cache/*.json`) is encoded through this module instead of
//! `serde_json`. Numbers are written with Rust's shortest round-trip float
//! formatting, so `parse(render(v)) == v` holds bit-exactly for every finite
//! `f64` — the property the sweep determinism contract relies on when cached
//! and freshly measured results are compared.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with insertion order dropped (sorted keys): rendering is
    /// canonical, which keeps cache files diff-stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array by mapping `f` over `items`.
    pub fn arr<T>(items: &[T], f: impl Fn(&T) -> Json) -> Json {
        Json::Arr(items.iter().map(f).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer value (numbers are exact up to 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|x| x.fract() == 0.0 && *x >= 0.0)
            .map(|x| x as u64)
    }

    /// Integer value as usize.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|x| x as usize)
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Single-character string (how `char` fields are encoded).
    pub fn as_char(&self) -> Option<char> {
        let s = self.as_str()?;
        let mut chars = s.chars();
        let c = chars.next()?;
        chars.next().is_none().then_some(c)
    }

    /// Render compactly. Numbers use shortest round-trip formatting.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{:?}` is Rust's shortest representation that parses
                    // back to the same bits.
                    let _ = write!(out, "{x:?}");
                } else {
                    // JSON has no Inf/NaN; encode as null (parse returns NaN).
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    e.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
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

    /// Parse a JSON document. Returns `None` on any syntax error or
    /// trailing garbage (callers fall back to re-measuring).
    pub fn parse(s: &str) -> Option<Json> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        (p.pos == p.bytes.len()).then_some(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Option<Json> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Some(v)
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            b'n' => self.lit("null", Json::Null),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Json::Num)
    }

    fn string(&mut self) -> Option<String> {
        if self.peek() != Some(b'"') {
            return None;
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash. Both are
            // ASCII, which never occurs inside a multi-byte character, so
            // the run is whole characters and each byte is validated once.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')?;
            out.push_str(std::str::from_utf8(&self.bytes[self.pos..self.pos + run]).ok()?);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Some(out);
            }
            let esc = self.peek()?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self.bytes.get(self.pos..self.pos + 4)?;
                    let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                    self.pos += 4;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(v));
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(m));
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for s in [
            "null", "true", "false", "1.5", "-3.25", "\"hi\"", "[]", "{}",
        ] {
            let v = Json::parse(s).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{s}");
        }
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for x in [0.1, 1.0 / 3.0, 1e300, 5e-324, 123_456_789.123_456_79, -0.0] {
            let v = Json::Num(x);
            let back = Json::parse(&v.render()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn nested_structures() {
        let src = r#"{"a": [1, 2, {"b": "x\ny", "c": null}], "d": -2.5e3}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-2500.0));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("tab\there \"quoted\" back\\slash \u{1}".into());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn a_mebibyte_string_parses() {
        let long = "ab\u{e9}\u{1f600}\"\\".repeat(1 << 17);
        assert!(long.len() >= 1 << 20);
        let doc = Json::obj(vec![("k", Json::Str(long.clone()))]).render();
        assert_eq!(
            Json::parse(&doc).unwrap().get("k").unwrap().as_str(),
            Some(&long[..])
        );
    }

    #[test]
    fn random_strings_roundtrip() {
        // Multi-byte characters of every width, the escaped characters and
        // every control character.
        let alphabet: Vec<char> = [
            'a',
            '"',
            '\\',
            '/',
            '\u{7f}',
            '\u{e9}',
            '\u{20ac}',
            '\u{1f600}',
        ]
        .into_iter()
        .chain((0..0x20).filter_map(char::from_u32))
        .collect();
        let mut state = 0x5EED_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..2_000 {
            let len = next() % 40;
            let s: String = (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .collect();
            let v = Json::Arr(vec![
                Json::Str(s.clone()),
                Json::obj(vec![(&s, Json::Null)]),
            ]);
            assert_eq!(Json::parse(&v.render()), Some(v), "{s:?}");
        }
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(Json::parse(r#""A""#).unwrap().as_str(), Some("A"));
    }

    #[test]
    fn garbage_rejected() {
        for s in ["", "{", "[1,", "tru", "1.2.3", "{\"a\" 1}", "[1] junk"] {
            assert!(Json::parse(s).is_none(), "{s:?} should not parse");
        }
    }

    #[test]
    fn integers_exact() {
        let v = Json::parse("9007199254740992").unwrap(); // 2^53
        assert_eq!(v.as_u64(), Some(1 << 53));
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn helpers() {
        let v = Json::obj(vec![("k", Json::arr(&[1.0f64, 2.0], |x| Json::Num(*x)))]);
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(Json::Str("M".into()).as_char(), Some('M'));
        assert_eq!(Json::Str("MM".into()).as_char(), None);
    }
}
