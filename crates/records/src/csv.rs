//! Minimal CSV support (RFC-4180 subset) so real record files can flow
//! through the pipeline without extra dependencies.
//!
//! Supported: comma separation, `"` quoting, embedded commas/quotes/newlines
//! inside quoted fields, CRLF and LF line endings. Not supported (rejected
//! with an error rather than silently mangled): unterminated quotes, data
//! after a closing quote.

use crate::record::{Record, Schema, Table};

/// CSV parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line where the error was detected.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CSV error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Parses CSV text into rows of fields.
///
/// Empty input yields no rows; a trailing newline does not create an empty
/// row.
///
/// # Errors
///
/// Returns [`CsvError`] for malformed quoting.
pub fn parse_csv(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut saw_any = false;

    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                        // Only a separator or end of line may follow.
                        match chars.peek() {
                            Some(',') | Some('\n') | Some('\r') | None => {}
                            Some(other) => {
                                return Err(CsvError {
                                    line,
                                    message: format!(
                                        "unexpected character {other:?} after closing quote"
                                    ),
                                });
                            }
                        }
                    }
                }
                '\n' => {
                    field.push('\n');
                    line += 1;
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err(CsvError {
                            line,
                            message: "quote inside unquoted field".to_string(),
                        });
                    }
                    in_quotes = true;
                }
                ',' => {
                    row.push(std::mem::take(&mut field));
                }
                '\r' => {
                    // Swallow the \n of a CRLF if present; treat bare \r as
                    // a newline too.
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                    line += 1;
                }
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                    line += 1;
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(CsvError { line, message: "unterminated quoted field".to_string() });
    }
    if saw_any && (!field.is_empty() || !row.is_empty()) {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

/// Appends one field to CSV output, quoting (and doubling quotes) only
/// when it contains a delimiter, a quote or a line break.
fn push_field(out: &mut String, field: &str) {
    if !field.contains([',', '"', '\n', '\r']) {
        out.push_str(field);
        return;
    }
    out.push('"');
    for (i, piece) in field.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(piece);
    }
    out.push('"');
}

/// Serializes rows as CSV text (LF line endings, trailing newline).
#[must_use]
pub fn write_csv(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        for (i, field) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_field(&mut out, field);
        }
        out.push('\n');
    }
    out
}

/// Loads a [`Table`] from CSV text whose first row is the header (field
/// names become the schema).
///
/// # Errors
///
/// Returns [`CsvError`] for malformed CSV, a missing header, or rows whose
/// arity differs from the header's.
pub fn table_from_csv(text: &str) -> Result<Table, CsvError> {
    let rows = parse_csv(text)?;
    let mut iter = rows.into_iter();
    let header = iter
        .next()
        .ok_or_else(|| CsvError { line: 1, message: "missing header row".to_string() })?;
    if header.iter().any(|h| h.trim().is_empty()) {
        return Err(CsvError { line: 1, message: "empty field name in header".to_string() });
    }
    let mut table = Table::new(Schema::new(header.clone()));
    for (i, row) in iter.enumerate() {
        if row.len() != header.len() {
            return Err(CsvError {
                line: i + 2,
                message: format!("expected {} fields, found {}", header.len(), row.len()),
            });
        }
        table.push(Record::new(row));
    }
    Ok(table)
}

/// Serializes a [`Table`] (header + records) as CSV text.
#[must_use]
pub fn table_to_csv(table: &Table) -> String {
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(table.len() + 1);
    rows.push(table.schema().fields().to_vec());
    for r in table.records() {
        rows.push(r.values().to_vec());
    }
    write_csv(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_rows() {
        let rows = parse_csv("a,b,c\n1,2,3\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn quoted_fields() {
        let rows = parse_csv("name,price\n\"sony, 40 inch\",\"99\"\"99\"\n").unwrap();
        assert_eq!(rows[1], vec!["sony, 40 inch", "99\"99"]);
    }

    #[test]
    fn embedded_newline() {
        let rows = parse_csv("a\n\"line1\nline2\"\n").unwrap();
        assert_eq!(rows[1], vec!["line1\nline2"]);
    }

    #[test]
    fn crlf_and_no_trailing_newline() {
        let rows = parse_csv("a,b\r\n1,2").unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn empty_input_and_empty_fields() {
        assert!(parse_csv("").unwrap().is_empty());
        let rows = parse_csv("a,,c\n,,\n").unwrap();
        assert_eq!(rows[0], vec!["a", "", "c"]);
        assert_eq!(rows[1], vec!["", "", ""]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        let err = parse_csv("a\n\"oops\n").unwrap_err();
        assert!(err.message.contains("unterminated"), "{err}");
    }

    #[test]
    fn garbage_after_quote_is_error() {
        let err = parse_csv("\"x\"y\n").unwrap_err();
        assert!(err.message.contains("after closing quote"), "{err}");
    }

    #[test]
    fn quote_inside_unquoted_field_is_error() {
        let err = parse_csv("ab\"c\n").unwrap_err();
        assert!(err.message.contains("unquoted"), "{err}");
    }

    #[test]
    fn table_round_trip() {
        let csv = "name,price\niPad 2,499\n\"TV, 40in\",\"1299\"\n";
        let table = table_from_csv(csv).unwrap();
        assert_eq!(table.len(), 2);
        assert_eq!(table.schema().fields(), &["name".to_string(), "price".to_string()]);
        assert_eq!(table.record(1).field(0), "TV, 40in");
        let out = table_to_csv(&table);
        let reparsed = table_from_csv(&out).unwrap();
        assert_eq!(reparsed.len(), 2);
        assert_eq!(reparsed.record(1).field(0), "TV, 40in");
    }

    #[test]
    fn writer_bytes_quote_only_where_needed() {
        let rows = vec![
            vec!["plain".to_string(), String::new(), "a b".to_string()],
            vec!["x,y".to_string(), "say \"hi\"".to_string(), "\"".to_string()],
            vec!["l1\nl2".to_string(), "cr\r".to_string(), "é".to_string()],
        ];
        assert_eq!(
            write_csv(&rows),
            "plain,,a b\n\"x,y\",\"say \"\"hi\"\"\",\"\"\"\"\n\"l1\nl2\",\"cr\r\",é\n"
        );
    }

    #[test]
    fn arity_mismatch_reports_line() {
        let err = table_from_csv("a,b\n1,2\n1,2,3\n").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn missing_header() {
        let err = table_from_csv("").unwrap_err();
        assert!(err.message.contains("header"));
    }

    proptest! {
        /// write → parse is the identity on arbitrary field content.
        #[test]
        fn round_trip(rows in proptest::collection::vec(
            proptest::collection::vec("[ -~\n\"]{0,12}", 1..5), 1..8)
        ) {
            // Normalize: all rows same arity as the first (CSV has no ragged
            // contract here; we test rectangular data).
            let arity = rows[0].len();
            let rect: Vec<Vec<String>> = rows.into_iter().map(|mut r| {
                r.resize(arity, String::new());
                r
            }).collect();
            let text = write_csv(&rect);
            let parsed = parse_csv(&text).unwrap();
            prop_assert_eq!(parsed, rect);
        }
    }
}
