//! A minimal JSON value model, pretty-printer, and parser.
//!
//! The workspace's `serde` is an offline no-op stub (DESIGN.md §6), so the
//! machine-readable `BENCH_*.json` artifacts are produced by this small
//! hand-rolled writer instead. It covers exactly what benchmark reports
//! need: objects with ordered keys, arrays, strings, integers and floats.
//! The companion [`Json::parse`] reads the same grammar back, so every
//! emitted artifact can be round-trip-tested for parseability.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i64),
    /// A float (rendered with enough precision to round-trip; non-finite
    /// values degrade to `null` per JSON's grammar).
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str<S: Into<String>>(s: S) -> Json {
        Json::Str(s.into())
    }

    /// An empty object to push fields onto.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object (panics on non-objects — builder
    /// misuse, not data-dependent).
    pub fn field<S: Into<String>>(mut self, key: S, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.into(), value)),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out.push('\n');
        out
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json {
    fn render(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close_pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // Integral floats keep an explicit `.0` so consumers (and a
            // round-trip through `parse`) see a float, not an integer
            // that silently changed type between runs whose timings
            // happened to land on a whole number.
            Json::Float(f) if f.is_finite() && f.fract() == 0.0 => {
                out.push_str(&format!("{f:.1}"));
            }
            Json::Float(f) if f.is_finite() => out.push_str(&format!("{f}")),
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => escape(s, out),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.render(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close_pad);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    escape(key, out);
                    out.push_str(": ");
                    value.render(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close_pad);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

impl Json {
    /// Parses a JSON document (the grammar [`Json::pretty`] emits plus
    /// arbitrary whitespace). Numbers with a `.`, `e` or `E` become
    /// [`Json::Float`], all others [`Json::Int`].
    ///
    /// # Errors
    ///
    /// A human-readable message naming the byte offset of the first
    /// syntax error, unconsumed trailing input included.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks up a field of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", want as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(format!("expected a JSON value at byte {}", *pos)),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let mut float = false;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number bytes");
    if float {
        text.parse()
            .map(Json::Float)
            .map_err(|e| format!("bad float {text:?} at byte {start}: {e}"))
    } else {
        text.parse()
            .map(Json::Int)
            .map_err(|e| format!("bad integer {text:?} at byte {start}: {e}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(
                            char::from_u32(hex)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?,
                        );
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?} at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one full UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {}", *pos))?;
                let c = rest.chars().next().expect("non-empty remainder");
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
    fn renders_nested_structures() {
        let v = Json::obj()
            .field("name", Json::str("churn"))
            .field("events", Json::Int(50000))
            .field("eps", Json::Float(1234.5))
            .field("ok", Json::Bool(true))
            .field("tags", Json::Arr(vec![Json::str("a"), Json::str("b")]))
            .field("empty", Json::Arr(vec![]));
        let text = v.pretty();
        assert!(text.contains("\"events\": 50000"));
        assert!(text.contains("\"eps\": 1234.5"));
        assert!(text.contains("\"tags\": [\n"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let v = Json::str("a\"b\\c\nd");
        assert_eq!(v.pretty(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    #[should_panic(expected = "field() on non-object")]
    fn field_on_scalar_panics() {
        let _ = Json::Int(1).field("x", Json::Null);
    }

    #[test]
    fn floats_emit_stably_and_non_finite_degrades_to_null() {
        // Integral floats keep an explicit `.0` — the field stays a
        // float across runs whose value happens to be whole.
        assert_eq!(Json::Float(2.0).pretty(), "2.0\n");
        assert_eq!(Json::Float(-0.0).pretty(), "-0.0\n");
        assert_eq!(Json::Float(1234.5).pretty(), "1234.5\n");
        assert_eq!(Json::Float(1e6).pretty(), "1000000.0\n");
        // JSON has no non-finite literals: they degrade to null rather
        // than emitting `NaN`/`inf` that no parser accepts.
        assert_eq!(Json::Float(f64::NAN).pretty(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).pretty(), "null\n");
        assert_eq!(Json::Float(f64::NEG_INFINITY).pretty(), "null\n");
    }

    #[test]
    fn parse_round_trips_what_pretty_emits() {
        let v = Json::obj()
            .field("name", Json::str("churn — \"fast\"\npath\\grid"))
            .field("events", Json::Int(50000))
            .field("neg", Json::Int(-3))
            .field("eps", Json::Float(1234.5))
            .field("whole", Json::Float(2.0))
            .field("tiny", Json::Float(1.5e-9))
            .field("nan", Json::Float(f64::NAN))
            .field("ok", Json::Bool(true))
            .field("off", Json::Bool(false))
            .field("nothing", Json::Null)
            .field("tags", Json::Arr(vec![Json::str("a"), Json::Int(1)]))
            .field("empty_arr", Json::Arr(vec![]))
            .field("empty_obj", Json::obj())
            .field(
                "nested",
                Json::obj().field("inner", Json::Arr(vec![Json::obj()])),
            );
        let text = v.pretty();
        let back = Json::parse(&text).expect("own output must parse");
        // NaN rendered as null, so compare against the null-for-NaN form.
        let mut expected = v;
        if let Json::Obj(fields) = &mut expected {
            fields.iter_mut().find(|(k, _)| k == "nan").unwrap().1 = Json::Null;
        }
        assert_eq!(back, expected);
        // And printing the parse is a fixpoint.
        assert_eq!(back.pretty(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("NaN").is_err());
    }

    #[test]
    fn parse_distinguishes_ints_from_floats() {
        let v = Json::parse("[1, 1.0, -2, 6.5e3]").unwrap();
        assert_eq!(
            v,
            Json::Arr(vec![
                Json::Int(1),
                Json::Float(1.0),
                Json::Int(-2),
                Json::Float(6500.0),
            ])
        );
    }
}
