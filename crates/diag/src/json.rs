//! The workspace's one JSON implementation: the [`Json`] value, the
//! depth-bounded strict parser [`parse_json`] and the string escaper
//! [`json_string`].
//!
//! Emitters write their output straight into a `String` (no value tree
//! per response) and escape every string through [`json_string`]; readers
//! — the protocol server, the load harness, the trace-file reader — parse
//! with [`parse_json`] and read members by value.
//!
//! # Examples
//!
//! ```
//! use cj_diag::json::{json_string, parse_json, Json};
//!
//! let line = format!("{{\"cmd\":\"open\",\"text\":{}}}", json_string("a\"b\n"));
//! let v = parse_json(&line).unwrap();
//! assert_eq!(v.get_str("text"), Some("a\"b\n"));
//! assert_eq!(parse_json("[1,2.5e1]").unwrap(), Json::Arr(vec![Json::Num(1.0), Json::Num(25.0)]));
//! assert!(parse_json("+3").is_err());
//! ```

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String member lookup.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. Protocol requests
/// nest two or three levels; the bound keeps the recursive parser (and the
/// recursive drop of the value it builds) far inside any thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON value from `input` (must consume the whole input up to
/// trailing whitespace). The grammar is strict RFC 8259: numbers have no
/// leading `+`, no bare leading or trailing `.`, and no leading zeros;
/// `\u` escapes must not leave a surrogate unpaired.
///
/// # Errors
///
/// A human-readable description of the first syntax error, or of arrays
/// and objects nested more than [`MAX_DEPTH`] levels deep.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: input,
        b: input.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

/// Escapes `s` as a JSON string literal (with quotes) — the one escaper
/// every emitter in the workspace goes through.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self
                .seq(b'}', |p| {
                    if p.peek() != Some(b'"') {
                        return Err(format!("object key must be a string at byte {}", p.pos));
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(format!("expected `:` at byte {}", p.pos));
                    }
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    /// The comma-separated items after an opening bracket, up to `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                let close = close as char;
                return Err(format!("expected `,` or `{close}` at byte {}", self.pos));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.b[self.pos..].starts_with(word.as_bytes()) {
            return Err(format!("invalid token at byte {}", self.pos));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Consumes a run of ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let mut valid = self.eat(b'0') || self.digits();
        if self.eat(b'.') {
            valid &= self.digits();
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            valid &= self.digits();
        }
        match self.src[start..self.pos].parse::<f64>() {
            Ok(n) if valid => Ok(Json::Num(n)),
            _ => Err(format!("invalid token at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err("unterminated string".to_string());
            }
            self.escape(&mut out)?;
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let at = self.pos;
        let decoded = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let mut unit = self
                    .hex4(self.pos + 1)
                    .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                self.pos += 4;
                if (0xdc00..0xe000).contains(&unit) {
                    return Err(format!("lone low surrogate at byte {at}"));
                }
                // Surrogate pair: a high surrogate must be followed by
                // `\uDC00`–`\uDFFF`; combine into one scalar.
                if (0xd800..0xdc00).contains(&unit) {
                    if self.b.get(self.pos + 1..self.pos + 3) != Some(&b"\\u"[..]) {
                        return Err(format!("lone high surrogate at byte {at}"));
                    }
                    let low = self
                        .hex4(self.pos + 3)
                        .filter(|l| (0xdc00..0xe000).contains(l))
                        .ok_or_else(|| format!("invalid low surrogate at byte {at}"))?;
                    unit = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                    self.pos += 6;
                }
                char::from_u32(unit).expect("surrogates excluded above")
            }
            _ => return Err(format!("bad escape at byte {at}")),
        };
        out.push(decoded);
        self.pos += 1;
        Ok(())
    }

    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.b.get(at..at + 4)?;
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return None;
        }
        u32::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_roundtrips_protocol_shapes() {
        let v = parse_json(r#"{"cmd":"open","file":"a.cj","text":"class A { }","n":3}"#).unwrap();
        assert_eq!(v.get_str("cmd"), Some("open"));
        assert_eq!(v.get_str("text"), Some("class A { }"));
        assert_eq!(v.get("n"), Some(&Json::Num(3.0)));
        let v = parse_json(r#"{"a":[1,true,null,"x\nA"]}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Bool(true),
                Json::Null,
                Json::Str("x\nA".to_string()),
            ]))
        );
        assert!(parse_json("{").is_err());
        // Nesting is bounded: the limit itself parses, one more level is a
        // plain error, and a million levels no longer overflow the stack.
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        assert!(parse_json(&"[".repeat(1_000_000)).is_err());
        assert!(parse_json(&format!("{{\"a\":{}", "{\"a\":".repeat(1_000_000))).is_err());
        assert!(parse_json(r#"{"a":1} extra"#).is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn json_parser_decodes_surrogate_pairs() {
        // ensure_ascii-style encoders escape non-BMP chars as pairs.
        let v = parse_json(r#"{"text":"a😀b é"}"#).unwrap();
        assert_eq!(v.get_str("text"), Some("a\u{1f600}b é"));
        assert!(parse_json(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse_json(r#""\ud83dxx""#).is_err());
        assert!(parse_json(r#""\ud83dA""#).is_err(), "bad low unit");
        // A low surrogate with no high one before it is an error too, not
        // a silent U+FFFD.
        let err = parse_json(r#""x\udc00.cj""#).unwrap_err();
        assert!(err.contains("lone low surrogate"), "{err}");
        assert!(parse_json(r#""\udfff""#).is_err());
        assert!(parse_json(r#""\u+041""#).is_err(), "sign in a hex escape");
    }

    #[test]
    fn json_parser_numbers_follow_the_strict_grammar() {
        let good = "0 -0 42 -7 2.5 1e3 1E+2 -1.5e-1 0.25";
        let want = [0.0, 0.0, 42.0, -7.0, 2.5, 1000.0, 100.0, -0.15, 0.25];
        for (text, want) in good.split(' ').zip(want) {
            assert_eq!(parse_json(text), Ok(Json::Num(want)), "{text}");
        }
        let bad = "+3 .5 1. - 01 -01 1e 1e+ 1.e3 --1 1-2 0x10 Infinity NaN 1.5.2 [+1] {\"a\":.5}";
        for text in bad.split(' ') {
            let err = parse_json(text).unwrap_err();
            let rejected = err.contains("invalid token") || err.contains("trailing");
            assert!(rejected, "{text}: {err}");
        }
        for text in ["tru", "nul", "falsy", "True"] {
            assert!(parse_json(text).is_err(), "{text}");
        }
    }

    #[test]
    fn json_escapes_control_chars() {
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("t\tq\"\\"), "\"t\\tq\\\"\\\\\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn escaped_strings_parse_back_to_themselves() {
        for s in ["", "plain", "q\"b\\s/", "\u{0}\u{1f}\r\n\t", "é😀 \u{7f}"] {
            assert_eq!(
                parse_json(&json_string(s)),
                Ok(Json::Str(s.to_string())),
                "{s:?}"
            );
        }
    }
}
