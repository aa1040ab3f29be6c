//! The workspace's one JSON codec.
//!
//! Every artifact — repro files, journals, daemon wire messages,
//! manifests and metrics — is built as a [`JsonValue`] tree and rendered
//! here: [`write`](fn@write) for one-line documents (repros, journals, the
//! wire protocol), [`write_pretty`] for files people read. Every artifact
//! reader parses with [`parse`]. The build environment has no registry
//! access, so no serde. Numbers keep their raw text so `u64` seeds survive
//! beyond 2^53 and floats round-trip bit-exactly through Rust's
//! shortest-representation formatting ([`render_f64`]); wall times and
//! ratios use [`fixed`] decimals.
//!
//! The Chrome trace export ([`TraceBuffer::to_chrome_trace`]) is the one
//! writer that does not build a tree: it streams up to millions of
//! records with static ASCII names, where a tree would allocate per record.
//!
//! [`TraceBuffer::to_chrome_trace`]: crate::TraceBuffer::to_chrome_trace

use core::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a number with `u64` text.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u32`.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// True when the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// An object with `entries` in the given order.
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, JsonValue)>) -> Self {
        JsonValue::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

macro_rules! number_from {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(n: $t) -> Self {
                JsonValue::Number(n.to_string())
            }
        }
    )*};
}

number_from!(u32, u64, usize);

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_owned())
    }
}

/// `None` is `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(value: Option<T>) -> Self {
        value.map_or(JsonValue::Null, Into::into)
    }
}

/// A malformed JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content after document"));
    }
    Ok(value)
}

fn err(at: usize, reason: impl Into<String>) -> JsonParseError {
    JsonParseError {
        at,
        reason: reason.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonParseError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected '{}'", byte as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(err(*pos, format!("unexpected byte '{}'", *c as char))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonParseError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected '{literal}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "non-UTF-8 number"))?;
    if raw.parse::<f64>().is_err() {
        return Err(err(start, format!("malformed number '{raw}'")));
    }
    Ok(JsonValue::Number(raw.to_owned()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-UTF-8 \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "malformed \\u escape"))?;
                        // Repro files only ever contain BMP scalar values;
                        // reject surrogates instead of pairing them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "\\u escape is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "unknown escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar value.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| err(*pos, "non-UTF-8 string content"))?;
                let c = rest.chars().next().expect("non-empty by case analysis");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
    expect(bytes, pos, b'{')?;
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(entries));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(entries));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

/// Renders a value as a one-line JSON document with stable field order.
pub fn write(value: &JsonValue) -> String {
    let mut out = String::new();
    write_value(value, None, &mut out);
    out
}

/// Renders a value as an indented JSON document: two spaces per level,
/// one member or element per line, `[]`/`{}` for empty containers, and a
/// trailing newline.
pub fn write_pretty(value: &JsonValue) -> String {
    let mut out = String::new();
    write_value(value, Some(0), &mut out);
    out.push('\n');
    out
}

/// Writes `value`; `depth` is its nesting level in a pretty document, or
/// `None` for the one-line layout.
fn write_value(value: &JsonValue, depth: Option<usize>, out: &mut String) {
    let inner = depth.map(|d| d + 1);
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Number(raw) => out.push_str(raw),
        JsonValue::String(s) => out.push_str(&render_string(s)),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                start_member(i, inner, out);
                write_value(item, inner, out);
            }
            end_container(items.is_empty(), depth, out);
            out.push(']');
        }
        JsonValue::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                start_member(i, inner, out);
                out.push_str(&render_string(key));
                out.push_str(": ");
                write_value(item, inner, out);
            }
            end_container(entries.is_empty(), depth, out);
            out.push('}');
        }
    }
}

/// Separates member `i` from the one before it: a comma, then a new
/// indented line (pretty) or a space (one-line).
fn start_member(i: usize, depth: Option<usize>, out: &mut String) {
    if i > 0 {
        out.push(',');
    }
    match depth {
        Some(depth) => newline(depth, out),
        None if i > 0 => out.push(' '),
        None => {}
    }
}

/// Puts a non-empty pretty container's closing bracket on its own line.
fn end_container(empty: bool, depth: Option<usize>, out: &mut String) {
    if let (false, Some(depth)) = (empty, depth) {
        newline(depth, out);
    }
}

fn newline(depth: usize, out: &mut String) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Escapes a string per RFC 8259 and wraps it in quotes.
pub fn render_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders a finite float with shortest round-trip precision (Rust's
/// `{:?}`), so parse(render(x)) == x bit-for-bit.
///
/// # Panics
///
/// Panics on non-finite values — scenario fields are validated finite
/// before rendering.
pub fn render_f64(value: f64) -> String {
    assert!(value.is_finite(), "cannot render non-finite float {value}");
    format!("{value:?}")
}

/// A number with `decimals` fixed fractional digits, for wall times,
/// rates and ratios; non-finite values render as `0`.
pub fn fixed(value: f64, decimals: usize) -> JsonValue {
    if value.is_finite() {
        JsonValue::Number(format!("{value:.decimals$}"))
    } else {
        JsonValue::Number("0".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let text = r#"{"a": 1, "b": [true, null, "x\n\"y"], "c": {"d": -2.5e3}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let b = match v.get("b").unwrap() {
            JsonValue::Array(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(b[0].as_bool(), Some(true));
        assert!(b[1].is_null());
        assert_eq!(b[2].as_str(), Some("x\n\"y"));
        assert_eq!(
            v.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2500.0)
        );
    }

    #[test]
    fn u64_seeds_survive_beyond_f64_precision() {
        let text = format!("{{\"seed\": {}}}", u64::MAX);
        let v = parse(&text).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 0.7f64.powi(7), f64::MAX] {
            let rendered = render_f64(x);
            let parsed = parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\q\""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "tab\tquote\"back\\slash\nctrl\u{1}";
        let rendered = render_string(original);
        let parsed = parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn pretty_layout_round_trips_a_committed_record() {
        // An excerpt of a benchmark record this writer once committed: a
        // schema integer, top-level fixed-decimal floats and an array of
        // objects mixing strings, integers and floats.
        let text = r#"{
  "schema": 3,
  "scale": "smoke",
  "repeats": 7,
  "headline_speedup": 2.530843,
  "mem_profile_speedup": 1.928089,
  "cases": [
    {
      "name": "mem_cores1",
      "profile": "mem",
      "cores": 1,
      "simulated_events": 13742,
      "heap_wall_s": 0.000538,
      "speedup": 1.344732
    },
    {
      "name": "cpu_cores16",
      "profile": "cpu",
      "cores": 16,
      "simulated_events": 124682,
      "heap_wall_s": 0.000558,
      "speedup": 6.274916
    }
  ]
}
"#;
        assert_eq!(write_pretty(&parse(text).unwrap()), text);
    }

    #[test]
    fn pretty_layout_of_nested_and_empty_containers() {
        let doc = JsonValue::object([
            ("a", JsonValue::Array(Vec::new())),
            ("b", JsonValue::Object(Vec::new())),
            (
                "c",
                JsonValue::Array(vec![1u64.into(), JsonValue::object([("d", "e".into())])]),
            ),
        ]);
        assert_eq!(
            write_pretty(&doc),
            "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [\n    1,\n    {\n      \"d\": \"e\"\n    }\n  ]\n}\n"
        );
        assert_eq!(write(&doc), r#"{"a": [], "b": {}, "c": [1, {"d": "e"}]}"#);
        assert_eq!(parse(&write_pretty(&doc)).unwrap(), doc);
    }

    #[test]
    fn fixed_decimals_degrade_non_finite_values_to_zero() {
        assert_eq!(fixed(0.5, 3), JsonValue::Number("0.500".to_owned()));
        assert_eq!(fixed(12.3456, 3), JsonValue::Number("12.346".to_owned()));
        assert_eq!(
            fixed(1.0 / 3.0, 6),
            JsonValue::Number("0.333333".to_owned())
        );
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(fixed(bad, 3), JsonValue::Number("0".to_owned()));
        }
    }
}
