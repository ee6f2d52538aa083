//! A minimal JSON representation: just enough for lossless snapshot
//! round-trips without external dependencies.
//!
//! Numbers are restricted to unsigned 64/128-bit integers rendered in
//! full precision (never floating point), so `emit ∘ parse` and
//! `parse ∘ emit` are both identities on snapshot data.

/// A JSON value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// An unsigned integer (u128 covers histogram totals).
    Num(u128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer inside, if this is a number.
    pub(crate) fn as_num(&self) -> Option<u128> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer inside as u64, if this is a number that fits.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        self.as_num().and_then(|n| u64::try_from(n).ok())
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Value::Num(n) => out.push_str(&n.to_string()),
            Value::Str(s) => emit_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.emit_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
pub fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with a byte offset for context.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

/// Parses JSON text into a [`Value`]. Accepts exactly the subset
/// [`Value::emit`] produces, plus insignificant whitespace.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError {
            at: pos,
            msg: "trailing characters",
        });
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError {
            at: *pos,
            msg: "unexpected end of input",
        }),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            msg: "expected ',' or ']'",
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ParseError {
                        at: *pos,
                        msg: "expected ':'",
                    });
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            msg: "expected ',' or '}'",
                        })
                    }
                }
            }
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are utf-8");
            text.parse::<u128>()
                .map(Value::Num)
                .map_err(|_| ParseError {
                    at: start,
                    msg: "number out of range",
                })
        }
        Some(_) => Err(ParseError {
            at: *pos,
            msg: "unexpected character",
        }),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError {
            at: *pos,
            msg: "expected '\"'",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(ParseError {
                    at: *pos,
                    msg: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(ParseError {
                            at: *pos,
                            msg: "short \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| ParseError {
                            at: *pos,
                            msg: "bad \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                            at: *pos,
                            msg: "bad \\u escape",
                        })?;
                        out.push(char::from_u32(code).ok_or(ParseError {
                            at: *pos,
                            msg: "bad \\u escape",
                        })?);
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            msg: "bad escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|_| ParseError {
                    at: *pos,
                    msg: "invalid utf-8",
                })?;
                let c = s.chars().next().expect("non-empty remainder");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let v = Value::Obj(vec![
            ("at".to_string(), Value::Num(12345)),
            (
                "counters".to_string(),
                Value::Arr(vec![Value::Obj(vec![
                    (
                        "name".to_string(),
                        Value::Str("vm.faults \"odd\"\n".to_string()),
                    ),
                    ("value".to_string(), Value::Num(u128::from(u64::MAX))),
                ])]),
            ),
            ("empty".to_string(), Value::Arr(vec![])),
        ]);
        let text = v.emit();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }
}
