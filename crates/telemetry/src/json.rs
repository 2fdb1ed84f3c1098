//! The workspace's one JSON codec: a string escaper for the hand-rolled
//! writers and a minimal reader for the documents they emit.
//!
//! Dependency-free by design (the build environment is offline, so no
//! serde). Each writer stays next to its schema — trace export here,
//! `BENCH_*.json` reports in `ftqc-bench`, diagnostics in
//! `ftqc-analyzer`, adaptive checkpoints in `ftqc-experiments` — but
//! they all escape strings through [`push_json_str`] and read back
//! through [`Value::parse`].

use std::fmt::Write as _;

/// Deepest array/object nesting [`Value::parse`] accepts. The documents
/// this workspace writes nest at most four levels; the bound turns a
/// corrupt or hostile input into an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Appends `s` to `out` as a quoted JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
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

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (insertion-ordered key/value pairs).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses a standalone JSON document (objects, arrays, strings,
    /// numbers and literals, nested at most [`MAX_DEPTH`] deep).
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The key/value pairs when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The items when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects/missing keys).
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Object field as a string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.field(key) {
            Some(Value::String(s)) => Some(s),
            _ => None,
        }
    }

    /// Object field as a number.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.field(key) {
            Some(Value::Number(x)) => Some(*x),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let found = self.peek()?;
        if found != b {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char, self.pos, found as char
            ));
        }
        self.pos += 1;
        Ok(())
    }

    /// One value inside `depth` enclosing arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek()? {
            b'{' | b'[' if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            b'{' => Ok(Value::Object(self.items(b'{', b'}', |p| {
                let key = p.string()?;
                p.expect(b':')?;
                Ok((key, p.value(depth + 1)?))
            })?)),
            b'[' => Ok(Value::Array(
                self.items(b'[', b']', |p| p.value(depth + 1))?,
            )),
            b'"' => Ok(Value::String(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// The comma-separated items between `open` and `close`.
    fn items<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        if self.peek()? == close {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek()? {
                b',' => self.pos += 1,
                b if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                b => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}, found '{}'",
                        close as char, self.pos, b as char
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash in one
            // slice: both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string literal")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'u' => {
                    let code = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
                    self.pos += 4;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(format!("unsupported escape '\\{}'", esc as char)),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // Unterminated and far past the bound: rejected at the bound,
        // long before the recursion could exhaust a thread's stack.
        assert!(Value::parse(&"[".repeat(1_000_000)).is_err());
        assert!(Value::parse(&"{\"k\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn parses_every_value_kind() {
        let doc = Value::parse(
            r#" {"s": "a\"\\\/\n\t\r\u00e9é", "n": -1.5e2, "b": [true, false, null], "o": {}} "#,
        )
        .unwrap();
        assert_eq!(doc.get_str("s"), Some("a\"\\/\n\t\ré\u{e9}"));
        assert_eq!(doc.get_f64("n"), Some(-150.0));
        assert_eq!(
            doc.field("b").and_then(Value::as_array),
            Some(&[Value::Bool(true), Value::Bool(false), Value::Null][..])
        );
        assert_eq!(doc.field("o"), Some(&Value::Object(vec![])));
        assert_eq!(doc.field("missing"), None);
        assert_eq!(doc.get_str("n"), None);
    }
}
