//! The workspace's one JSON codec (the build container has no registry
//! access, so `serde` is not an option).
//!
//! Everything that reads or writes JSON text goes through this module, so
//! there is exactly one string escaper and one string/number lexer to get
//! right (and to fuzz):
//!
//! * **Writing** — [`write_str`] appends an escaped string literal to a
//!   caller's buffer; [`js_str`], [`js_f64`], [`js_opt_f64`] and
//!   [`JsonObject`] are conveniences over it. Trace sinks, the metrics
//!   snapshot, the CLI report, spool HIT files, JSONL record files and the
//!   bench snapshots all render through these.
//! * **Lexing** — [`Lexer`] is a strict RFC 8259 tokenizer over a `&str`:
//!   every string escape including surrogate pairs, raw control characters
//!   rejected, the exact number grammar (no `+1`, `.5`, `1.`), and every
//!   error carrying the byte offset it was detected at.
//! * **Reading** — two readers sit on the lexer. [`parse`] builds a
//!   [`Value`] tree from exactly one document (spool answer and HIT
//!   files). `crowdjoin_records::jsonl` reads one flat object per line and
//!   keeps each scalar's *source text* (`1299.99` stays `"1299.99"`, not a
//!   rounded `f64`), which is why it drives the lexer directly instead of
//!   going through [`Value`].

use std::fmt::{self, Write as _};

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends a JSON string literal (quotes included, contents escaped) to
/// `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
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

/// Renders a JSON string literal ([`write_str`] into a fresh buffer).
#[must_use]
pub fn js_str(s: &str) -> String {
    let mut out = String::new();
    write_str(&mut out, s);
    out
}

/// Renders an `f64` with fixed decimals.
#[must_use]
pub fn js_f64(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Renders an optional `f64` (`None` → `null`).
#[must_use]
pub fn js_opt_f64(v: Option<f64>, decimals: usize) -> String {
    v.map_or_else(|| "null".to_string(), |v| js_f64(v, decimals))
}

/// An object under construction, rendered on one line as `{"k": v, …}` in
/// insertion order. Values must already be valid JSON (use the `js_*`
/// helpers for strings and floats).
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field with a pre-rendered JSON value.
    pub fn field(&mut self, key: &str, rendered: impl AsRef<str>) -> &mut Self {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        write_str(&mut self.body, key);
        self.body.push_str(": ");
        self.body.push_str(rendered.as_ref());
        self
    }

    /// Renders `{"k": v, …}` on one line.
    #[must_use]
    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

// ---------------------------------------------------------------------------
// Lexing
// ---------------------------------------------------------------------------

/// A syntax error and the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the lexed text.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Strict RFC 8259 tokenizer over one text. Readers peek at the next byte
/// to choose a production, then call the matching method; every method
/// leaves the cursor just past what it consumed.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    /// Current byte offset.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// An error at the current offset.
    #[must_use]
    pub fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    /// An error naming the character at the cursor (or the end of input)
    /// as unexpected — for readers whose `peek` matched no production.
    #[must_use]
    pub fn unexpected(&self) -> JsonError {
        match self.text[self.pos..].chars().next() {
            Some(c) => self.error(format!("unexpected character {c:?}")),
            None => self.error("unexpected end of input"),
        }
    }

    /// The next byte, if any, without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips JSON whitespace (space, tab, LF, CR).
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it is next.
    pub fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes `byte`, or fails naming it and the offset.
    pub fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    /// Fails with "trailing data" unless only whitespace remains.
    pub fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("trailing data"))
        }
    }

    /// One of the literals `true` / `false` / `null`, returned as its
    /// source text; an error if none of the three is next.
    pub fn literal(&mut self) -> Result<&'static str, JsonError> {
        for lit in ["true", "false", "null"] {
            if self.text[self.pos..].starts_with(lit) {
                self.pos += lit.len();
                return Ok(lit);
            }
        }
        Err(self.error("invalid literal"))
    }

    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        let from = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == from {
            return Err(self.error(format!("number has no {what}digits")));
        }
        Ok(())
    }

    /// A number (`-? int frac? exp?`), returned as its source span so the
    /// caller chooses the numeric type — or keeps the text. Anything
    /// outside the RFC 8259 grammar is an error: a leading `+`, a missing
    /// integer part (`.5`), a leading zero (`01`), a bare trailing dot
    /// (`1.`), an empty exponent.
    pub fn number(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.pos;
        self.digits("")?;
        if self.pos - int > 1 && self.text.as_bytes()[int] == b'0' {
            return Err(JsonError { offset: int, message: "number has a leading zero".into() });
        }
        if self.eat(b'.') {
            self.digits("fraction ")?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits("exponent ")?;
        }
        Ok(&self.text[start..self.pos])
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| (b as char).to_digit(16));
            v = (v << 4) | digit.ok_or_else(|| self.error("invalid \\u escape"))?;
            self.pos += 1;
        }
        Ok(v)
    }

    /// The scalar after `\u`: one escape, or a surrogate pair of two.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..0xDC00 => {
                if !(self.eat(b'\\') && self.eat(b'u')) {
                    return Err(self.error("unpaired surrogate"));
                }
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.error("unpaired surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..0xE000 => return Err(self.error("unpaired surrogate")),
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }

    /// A double-quoted string, decoded. Unterminated strings, unknown
    /// escapes, unpaired surrogates, and raw control characters (RFC 8259
    /// requires those escaped) are errors.
    pub fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of ordinary bytes up to the next quote, escape
            // or control character in one go (`text` is a `&str`, so the
            // run ends on a char boundary).
            let run = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        other => {
                            self.pos -= 1;
                            return Err(self.error(format!("invalid escape \\{}", other as char)));
                        }
                    });
                }
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reading: the value tree
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers round-trip exactly up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (keys are not deduplicated; lookups take
    /// the first match).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// First value of `key` in an object, if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects negatives, fractions, and
    /// anything above 2⁵³, where `f64` stops being exact).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_precision_loss)]
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a float.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Parses exactly one JSON document.
///
/// # Errors
///
/// A human-readable description (with byte offset) of the first syntax
/// error, of trailing non-whitespace after the document, or of nesting
/// deeper than [`MAX_DEPTH`] (a recursion bound, so hostile input cannot
/// overflow the stack).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut lx = Lexer::new(input);
    let value = parse_value(&mut lx, 0).map_err(|e| e.to_string())?;
    lx.end().map_err(|e| e.to_string())?;
    Ok(value)
}

/// Items of a `[…]` / `{…}` body after the opening bracket: `item` runs
/// once per comma-separated element until `close`.
fn parse_seq(
    lx: &mut Lexer<'_>,
    close: u8,
    mut item: impl FnMut(&mut Lexer<'_>) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    lx.skip_ws();
    if lx.eat(close) {
        return Ok(());
    }
    loop {
        item(lx)?;
        lx.skip_ws();
        if lx.eat(close) {
            return Ok(());
        }
        if !lx.eat(b',') {
            return Err(lx.error(format!("expected ',' or {:?}", close as char)));
        }
    }
}

fn parse_value(lx: &mut Lexer<'_>, depth: usize) -> Result<Value, JsonError> {
    lx.skip_ws();
    match lx.peek() {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(lx.error("nesting too deep")),
        Some(b'{') => {
            lx.pos += 1;
            let mut fields = Vec::new();
            parse_seq(lx, b'}', |lx| {
                lx.skip_ws();
                let key = lx.string()?;
                lx.skip_ws();
                lx.expect(b':')?;
                fields.push((key, parse_value(lx, depth + 1)?));
                Ok(())
            })?;
            Ok(Value::Obj(fields))
        }
        Some(b'[') => {
            lx.pos += 1;
            let mut items = Vec::new();
            parse_seq(lx, b']', |lx| {
                items.push(parse_value(lx, depth + 1)?);
                Ok(())
            })?;
            Ok(Value::Arr(items))
        }
        Some(b'"') => lx.string().map(Value::Str),
        Some(b't' | b'f' | b'n') => Ok(match lx.literal()? {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::Null,
        }),
        Some(b'-' | b'0'..=b'9') => {
            let at = lx.pos();
            let text = lx.number()?;
            let n = text
                .parse::<f64>()
                .map_err(|_| JsonError { offset: at, message: "invalid number".to_string() })?;
            Ok(Value::Num(n))
        }
        _ => Err(lx.unexpected()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        assert_eq!(js_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(js_str("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(js_str("tab\tchar\r"), "\"tab\\tchar\\r\"");
        assert_eq!(js_str("bell\u{7}"), "\"bell\\u0007\"");
    }

    #[test]
    fn numeric_helpers() {
        assert_eq!(js_f64(1.0 / 3.0, 4), "0.3333");
        assert_eq!(js_opt_f64(Some(2.5), 1), "2.5");
        assert_eq!(js_opt_f64(None, 1), "null");
    }

    #[test]
    fn object_renders_in_insertion_order() {
        let mut obj = JsonObject::new();
        obj.field("b", "1").field("a", js_str("x"));
        assert_eq!(obj.render(), "{\"b\": 1, \"a\": \"x\"}");
        assert_eq!(JsonObject::new().render(), "{}");
    }

    #[test]
    fn parses_roundtrip_document() {
        let doc = r#"{"hit": "h-0-1", "tasks": [{"id": 42, "truth": true, "priority": 0.95},
                      {"id": 7, "truth": false, "priority": 0.5}], "note": null}"#;
        let v = parse(doc).expect("parse");
        assert_eq!(v.get("hit").and_then(Value::as_str), Some("h-0-1"));
        let tasks = v.get("tasks").and_then(Value::as_arr).expect("tasks");
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].get("id").and_then(Value::as_u64), Some(42));
        assert_eq!(tasks[0].get("truth").and_then(Value::as_bool), Some(true));
        assert_eq!(tasks[1].get("priority").and_then(Value::as_f64), Some(0.5));
        assert_eq!(v.get("note"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse(" [ ] ").unwrap(), Value::Arr(Vec::new()));
        assert_eq!(parse("{ }").unwrap(), Value::Obj(Vec::new()));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}ü");
        let v = parse(&out).expect("parse escaped string");
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}ü"));
        // Every escape the grammar has, including an escaped surrogate
        // pair (one scalar, not two replacement characters).
        let v = parse(r#""\"\\\/\b\f\n\r\té 😀""#).expect("all escapes");
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\té 😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err(), "trailing comma");
        assert!(parse("true false").is_err(), "trailing data");
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\" 1}").is_err(), "missing colon");
        assert!(parse("\"raw\ttab\"").is_err(), "raw control character in a string");
        assert!(parse("\"raw\nnewline\"").is_err(), "raw control character in a string");
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\ud83dA""#).is_err(), "high surrogate without a low one");
        assert!(parse(r#""\x41""#).is_err(), "unknown escape");
        assert!(parse(r#""\u12""#).is_err(), "short \\u escape");
        assert!(parse("nul").is_err());
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
        assert!(parse(&format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH))).is_ok());
        // Errors carry the byte offset of the problem.
        assert_eq!(parse("[1, ?]").unwrap_err(), "unexpected character '?' at byte 4");
        assert_eq!(parse("[1, -]").unwrap_err(), "number has no digits at byte 5");
        assert_eq!(parse("[1] x").unwrap_err(), "trailing data at byte 4");
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("9007199254740994").unwrap().as_u64(), None, "past 2^53");
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_f64(), Some(1.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-0.5E-1").unwrap().as_f64(), Some(-0.05));
        assert!(parse("1..2").is_err());
        for bad in ["+1", ".5", "1.", "-", "1e", "1e+", "--1", "01", "-007"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // The lexer hands back the source span, not a rounded value.
        assert_eq!(Lexer::new("1299.990 ").number(), Ok("1299.990"));
    }

    #[test]
    fn big_task_ids_roundtrip_exactly() {
        // Packed pair ids reach (a << 32) | b; both halves must survive.
        let id = (123_456u64 << 32) | 789_012;
        let doc = format!("{{\"id\": {id}}}");
        assert_eq!(parse(&doc).unwrap().get("id").and_then(Value::as_u64), Some(id));
    }
}
