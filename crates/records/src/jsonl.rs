//! Minimal JSON-Lines support so streamed record feeds (one flat JSON
//! object per line) can flow through the pipeline without extra
//! dependencies — the streaming counterpart of [`crate::csv`].
//!
//! Supported: one object per line; string, number, `true`/`false`/`null`
//! values (all captured as their textual form — the pipeline's fields are
//! strings, so a number keeps its *source text* instead of passing through
//! an `f64`); strings and numbers lexed by the workspace's one strict JSON
//! lexer (`crowdjoin_util::json::Lexer`); blank lines skipped. Not
//! supported (rejected with an error rather than silently mangled): nested
//! objects/arrays, duplicate keys, lines whose key set differs from the
//! first line's.
//!
//! The first line's key *order* defines the schema; later lines may list
//! their keys in any order — values are matched by name.

use crate::record::{Record, Schema, Table};
use crowdjoin_util::json::{write_str, JsonError, Lexer};

/// JSONL parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line where the error was detected.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSONL error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JsonlError {}

/// One scalar value, captured as its textual form: strings decoded,
/// numbers and literals as their source text (so `1299.990` or a 20-digit
/// id never round-trips through an `f64`).
fn scalar(lx: &mut Lexer<'_>) -> Result<String, JsonError> {
    match lx.peek() {
        Some(b'"') => lx.string(),
        Some(b'{') => Err(lx.error("nested objects are not supported (flat objects only)")),
        Some(b'[') => Err(lx.error("arrays are not supported (flat objects only)")),
        Some(b't' | b'f' | b'n') => lx.literal().map(str::to_string),
        Some(b'-' | b'0'..=b'9') => lx.number().map(str::to_string),
        _ => Err(lx.unexpected()),
    }
}

/// Parses one JSONL line — a flat object `{"key": scalar, ...}` and
/// nothing else — into `(key, value)` pairs in source order.
///
/// # Errors
///
/// Returns the parse failure with its byte offset in the line (no line
/// number — the caller knows the line).
pub fn parse_jsonl_line(line: &str) -> Result<Vec<(String, String)>, JsonError> {
    let mut lx = Lexer::new(line);
    lx.skip_ws();
    lx.expect(b'{')?;
    let mut pairs: Vec<(String, String)> = Vec::new();
    lx.skip_ws();
    if !lx.eat(b'}') {
        loop {
            lx.skip_ws();
            let at = lx.pos();
            let key = lx.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(JsonError { offset: at, message: format!("duplicate key {key:?}") });
            }
            lx.skip_ws();
            lx.expect(b':')?;
            lx.skip_ws();
            let value = scalar(&mut lx)?;
            pairs.push((key, value));
            lx.skip_ws();
            if lx.eat(b'}') {
                break;
            }
            lx.expect(b',')?;
        }
    }
    lx.end()?;
    Ok(pairs)
}

/// Loads a [`Table`] from JSONL text. The first non-blank line's key order
/// becomes the schema; every later line must carry exactly the same key
/// set (any order).
///
/// # Errors
///
/// Returns [`JsonlError`] for malformed JSON, nested values, or key-set
/// mismatches. Empty input (or only blank lines) is an error — there is
/// no schema to infer.
pub fn table_from_jsonl(text: &str) -> Result<Table, JsonlError> {
    let mut table: Option<Table> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let pairs =
            parse_jsonl_line(raw).map_err(|e| JsonlError { line, message: e.to_string() })?;
        if pairs.is_empty() {
            return Err(JsonlError { line, message: "object has no fields".to_string() });
        }
        match &mut table {
            None => {
                let keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
                let mut t = Table::new(Schema::new(keys));
                t.push(Record::new(pairs.into_iter().map(|(_, v)| v).collect::<Vec<_>>()));
                table = Some(t);
            }
            Some(t) => {
                let schema = t.schema().clone();
                let fields = schema.fields();
                if pairs.len() != fields.len() {
                    return Err(JsonlError {
                        line,
                        message: format!("expected {} fields, found {}", fields.len(), pairs.len()),
                    });
                }
                let mut values: Vec<Option<String>> = vec![None; fields.len()];
                for (k, v) in pairs {
                    let Some(slot) = fields.iter().position(|f| *f == k) else {
                        return Err(JsonlError {
                            line,
                            message: format!("unknown field {k:?} (schema: {fields:?})"),
                        });
                    };
                    values[slot] = Some(v);
                }
                // Counts match and keys are unique, so every slot is filled.
                t.push(Record::new(
                    values.into_iter().map(|v| v.expect("slot filled")).collect::<Vec<_>>(),
                ));
            }
        }
    }
    table.ok_or_else(|| JsonlError { line: 1, message: "no records in input".to_string() })
}

/// Serializes a [`Table`] as JSONL text (every value written as a JSON
/// string; LF line endings, trailing newline).
#[must_use]
pub fn table_to_jsonl(table: &Table) -> String {
    let fields = table.schema().fields();
    let mut out = String::new();
    for r in table.records() {
        out.push('{');
        for (i, (k, v)) in fields.iter().zip(r.values()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, k);
            out.push(':');
            write_str(&mut out, v);
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_lines() {
        let t = table_from_jsonl(
            "{\"name\": \"iPad 2\", \"price\": 499}\n{\"name\": \"sony tv\", \"price\": 1299.99}\n",
        )
        .unwrap();
        assert_eq!(t.schema().fields(), &["name".to_string(), "price".to_string()]);
        assert_eq!(t.record(0).field(0), "iPad 2");
        assert_eq!(t.record(1).field(1), "1299.99");
    }

    #[test]
    fn keys_match_by_name_not_position() {
        let t = table_from_jsonl("{\"a\":\"1\",\"b\":\"2\"}\n{\"b\":\"y\",\"a\":\"x\"}\n").unwrap();
        assert_eq!(t.record(1).values(), &["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn escapes_and_unicode() {
        let t = table_from_jsonl("{\"s\": \"a\\\"b\\\\c\\n\\t\\u00e9 \\ud83d\\ude00\"}\n").unwrap();
        assert_eq!(t.record(0).field(0), "a\"b\\c\n\té 😀");
    }

    #[test]
    fn scalars_capture_textual_form() {
        let t = table_from_jsonl("{\"a\": true, \"b\": null, \"c\": -1.5e3}\n").unwrap();
        assert_eq!(
            t.record(0).values(),
            &["true".to_string(), "null".to_string(), "-1.5e3".to_string()]
        );
    }

    #[test]
    fn blank_lines_skipped() {
        let t = table_from_jsonl("\n{\"a\":\"1\"}\n\n{\"a\":\"2\"}\n  \n").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn nested_values_rejected() {
        let err = table_from_jsonl("{\"a\": {\"b\": 1}}\n").unwrap_err();
        assert!(err.message.contains("nested"), "{err}");
        let err = table_from_jsonl("{\"a\": [1,2]}\n").unwrap_err();
        assert!(err.message.contains("arrays"), "{err}");
    }

    #[test]
    fn key_set_mismatch_reports_line() {
        let err = table_from_jsonl("{\"a\":\"1\"}\n{\"b\":\"2\"}\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown field"), "{err}");
        let err = table_from_jsonl("{\"a\":\"1\"}\n{\"a\":\"1\",\"b\":\"2\"}\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("expected 1 fields"), "{err}");
    }

    #[test]
    fn duplicate_key_rejected() {
        let err = table_from_jsonl("{\"a\":\"1\",\"a\":\"2\"}\n").unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
        assert!(err.message.ends_with("at byte 9"), "names the second key's offset: {err}");
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            "not json",
            "{\"a\": }",
            "{\"a\": \"unterminated}",
            "{\"a\": 1} trailing",
            "{\"a\": \"x\" \"b\": 1}",
            "{\"a\": \\u12}",
            "{\"a\": \"\\ud800\"}",
            "{\"a\": 01}",
            "{\"a\": \"raw\ttab\"}",
            "{}",
        ] {
            assert!(table_from_jsonl(&format!("{bad}\n")).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn empty_input_is_error() {
        assert!(table_from_jsonl("").is_err());
        assert!(table_from_jsonl("\n  \n").is_err());
    }

    proptest! {
        /// write → parse is the identity on arbitrary field content.
        #[test]
        fn round_trip(rows in proptest::collection::vec(
            proptest::collection::vec("[ -~\n\t\"\\\\]{0,12}", 2..4), 1..8)
        ) {
            let arity = rows[0].len();
            let mut table = Table::new(Schema::new(
                (0..arity).map(|i| format!("f{i}")).collect::<Vec<_>>(),
            ));
            for mut r in rows {
                r.resize(arity, String::new());
                table.push(Record::new(r));
            }
            let text = table_to_jsonl(&table);
            let parsed = table_from_jsonl(&text).unwrap();
            prop_assert_eq!(parsed.len(), table.len());
            for i in 0..table.len() {
                prop_assert_eq!(parsed.record(i).values(), table.record(i).values());
            }
        }
    }
}
