//! Minimal JSON emission, shared by the service snapshot, the flight
//! recorder's timeline and the bench report binaries (which re-export
//! [`J`] as `bench::json::J`). Deliberately dependency-free: the values we
//! emit are flat records of numbers and short strings, so a hand-rolled
//! printer beats pulling serde into every crate.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    /// Integer.
    Int(i64),
    /// Unsigned (kept separate to avoid lossy casts of u64 meters).
    UInt(u64),
    /// Float (serialised with enough precision for replotting).
    Num(f64),
    /// String (escaped on output).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Array.
    Arr(Vec<J>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, J)>),
}

impl J {
    /// Object constructor from key/value pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, J)>>(pairs: I) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a JSON document produced by this module (or any conforming
    /// emitter). `null` parses to `J::Num(NAN)`, mirroring the emitter's
    /// non-finite-to-`null` mapping. Errors carry a byte offset.
    pub fn parse(text: &str) -> Result<J, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member lookup on an object (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&J> {
        match self {
            J::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view of any number variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            J::Int(v) => Some(*v as f64),
            J::UInt(v) => Some(*v as f64),
            J::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            J::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[J]> {
        match self {
            J::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it was noticed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, word: &str, v: J) -> Result<J, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<J, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(J::Str(self.string()?)),
            Some(b't') => self.lit("true", J::Bool(true)),
            Some(b'f') => self.lit("false", J::Bool(false)),
            Some(b'n') => self.lit("null", J::Num(f64::NAN)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<J, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(J::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(J::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<J, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(J::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(J::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale (keeps multibyte UTF-8 intact).
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<J, ParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !fractional {
            // Round-trip the emitter's Int/UInt split losslessly.
            if let Ok(v) = text.parse::<i64>() {
                return Ok(if v >= 0 && !text.starts_with('-') {
                    J::UInt(v as u64)
                } else {
                    J::Int(v)
                });
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(J::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(J::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            J::Int(v) => write!(f, "{v}"),
            J::UInt(v) => write!(f, "{v}"),
            J::Num(v) => {
                if v.is_finite() {
                    write!(f, "{v}")
                } else {
                    write!(f, "null")
                }
            }
            J::Str(s) => escape(s, f),
            J::Bool(b) => write!(f, "{b}"),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            J::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Whether the process arguments request JSON output.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_escaping() {
        assert_eq!(J::Int(-5).to_string(), "-5");
        assert_eq!(J::UInt(7).to_string(), "7");
        assert_eq!(J::Bool(true).to_string(), "true");
        assert_eq!(J::Num(1.5).to_string(), "1.5");
        assert_eq!(J::Num(f64::NAN).to_string(), "null");
        assert_eq!(J::Str("a\"b\\c\nd".into()).to_string(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn nested_structures() {
        let v = J::obj([
            ("xs", J::Arr(vec![J::Int(1), J::Int(2)])),
            ("name", J::Str("t1".into())),
        ]);
        assert_eq!(v.to_string(), r#"{"xs":[1,2],"name":"t1"}"#);
    }

    #[test]
    fn parse_round_trips_emitted_documents() {
        let doc = J::obj([
            ("name", J::Str("meld/2^20".into())),
            ("mean_ns", J::Num(1234.5)),
            ("count", J::UInt(u64::MAX)),
            ("delta", J::Int(-3)),
            ("gate", J::Bool(true)),
            ("none", J::Num(f64::NAN)),
            ("tags", J::Arr(vec![J::Str("a\"b\nc".into()), J::UInt(0)])),
        ]);
        let parsed = J::parse(&doc.to_string()).expect("round trip");
        assert_eq!(parsed.get("name").and_then(J::as_str), Some("meld/2^20"));
        assert_eq!(parsed.get("mean_ns").and_then(J::as_f64), Some(1234.5));
        assert_eq!(parsed.get("count"), Some(&J::UInt(u64::MAX)));
        assert_eq!(parsed.get("delta"), Some(&J::Int(-3)));
        assert_eq!(parsed.get("gate"), Some(&J::Bool(true)));
        assert!(parsed
            .get("none")
            .and_then(J::as_f64)
            .is_some_and(f64::is_nan));
        let tags = parsed.get("tags").and_then(J::as_arr).expect("tags");
        assert_eq!(tags[0].as_str(), Some("a\"b\nc"));
    }

    #[test]
    fn parse_accepts_whitespace_and_unicode_escapes() {
        let v = J::parse(" { \"k\" : [ 1 , -2.5e1 , \"\\u00e9\\t\" ] }\n").expect("parse");
        let arr = v.get("k").and_then(J::as_arr).expect("arr");
        assert_eq!(arr[0], J::UInt(1));
        assert_eq!(arr[1], J::Num(-25.0));
        assert_eq!(arr[2].as_str(), Some("é\t"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(J::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let err = J::parse("[1, @]").expect_err("reject");
        assert!(err.to_string().contains("byte 4"), "{err}");
    }
}
