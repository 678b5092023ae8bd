//! CSV codec with RFC-4180-style quoting and type inference.
//!
//! This is the wrapper for file-shaped sources: [`read_csv`] parses a header
//! row and data rows from a string, infers column types, and produces a typed
//! [`Table`]; [`write_csv`] serializes a table back. Round-tripping a table
//! through the codec preserves its values (property-tested below).

use crate::infer::{infer_column, parse_column};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::Value;
use crate::{Result, TableError};

/// The field delimiter, for reading and writing alike.
const DELIM: char = ',';

/// Parse CSV text into a table: the first non-blank record is the header,
/// and every column's type is inferred from its cells.
pub fn read_csv(text: &str) -> Result<Table> {
    let mut iter = parse_records(text)?.into_iter();
    // Skip leading blank lines before the header.
    let Some(names) = iter.by_ref().find(|r| !is_blank(r)) else {
        return Ok(Table::empty(Schema::empty()));
    };
    let width = names.len();
    // A blank line is a record separator except in width-1 tables, where it
    // is a legitimate null row.
    let rows: Vec<Vec<String>> = iter.filter(|r| width == 1 || !is_blank(r)).collect();
    for (i, r) in rows.iter().enumerate() {
        if r.len() != width {
            return Err(TableError::Csv {
                line: i + 2,
                message: format!("expected {width} fields, found {}", r.len()),
            });
        }
    }
    build_table(names, rows)
}

/// A record that came from a blank line: one empty, unquoted field.
fn is_blank(r: &[String]) -> bool {
    r.len() == 1 && r[0].is_empty()
}

fn build_table(names: Vec<String>, rows: Vec<Vec<String>>) -> Result<Table> {
    let width = names.len();
    let mut raw_cols: Vec<Vec<String>> = vec![Vec::with_capacity(rows.len()); width];
    for r in rows {
        for (c, cell) in r.into_iter().enumerate() {
            raw_cols[c].push(cell);
        }
    }
    let mut fields = Vec::with_capacity(width);
    let mut columns = Vec::with_capacity(width);
    for (name, raw) in names.into_iter().zip(raw_cols) {
        let dtype = infer_column(&raw);
        let values = parse_column(&raw, dtype);
        let nullable = values.iter().any(Value::is_null);
        fields.push(Field {
            name,
            dtype,
            nullable,
        });
        columns.push(values);
    }
    Table::from_columns(Schema::new(fields)?, columns)
}

/// Split CSV text into records of unquoted field strings.
fn parse_records(text: &str) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut after_quoted = false;
    let mut line = 1usize;
    let mut chars = text.chars().peekable();
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                        after_quoted = true;
                    }
                }
                '\n' => {
                    field.push('\n');
                    line += 1;
                }
                other => field.push(other),
            }
            continue;
        }
        match c {
            '"' if field.is_empty() && !after_quoted => in_quotes = true,
            '"' => {
                return Err(TableError::Csv {
                    line,
                    message: "stray quote in field".into(),
                });
            }
            '\r' => { /* tolerate CRLF */ }
            '\n' => {
                record.push(std::mem::take(&mut field));
                after_quoted = false;
                records.push(std::mem::take(&mut record));
                line += 1;
            }
            DELIM => {
                record.push(std::mem::take(&mut field));
                after_quoted = false;
            }
            other => field.push(other),
        }
    }
    if in_quotes {
        return Err(TableError::Csv {
            line,
            message: "unterminated quoted field".into(),
        });
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

/// Serialize a table to CSV (always with a header row). `Null` renders as the
/// empty field; fields containing the delimiter, quotes or newlines are quoted.
pub fn write_csv(table: &Table) -> String {
    let mut out = String::new();
    let names = table.schema().names();
    for (i, n) in names.iter().enumerate() {
        if i > 0 {
            out.push(DELIM);
        }
        out.push_str(&escape(n));
    }
    out.push('\n');
    for r in 0..table.num_rows() {
        for c in 0..table.num_columns() {
            if c > 0 {
                out.push(DELIM);
            }
            let v = table.get(r, c).expect("in bounds"); // lint-allow: r, c iterate this table's own dimensions
            if !v.is_null() {
                out.push_str(&escape(&v.text()));
            }
        }
        out.push('\n');
    }
    out
}

fn escape(s: &str) -> String {
    if s.contains(DELIM) || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    #[test]
    fn basic_parse_with_inference() {
        let t = read_csv("sku,price,stock\na1,9.99,5\nb2,,12\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.schema().field(1).unwrap().dtype, DataType::Float);
        assert_eq!(t.schema().field(2).unwrap().dtype, DataType::Int);
        assert!(t.get_named(1, "price").unwrap().is_null());
    }

    #[test]
    fn quoted_fields_with_commas_and_newlines() {
        let t = read_csv("name,desc\nwidget,\"small, round\"\ngadget,\"line1\nline2\"\n").unwrap();
        assert_eq!(
            t.get_named(0, "desc").unwrap().as_str(),
            Some("small, round")
        );
        assert_eq!(
            t.get_named(1, "desc").unwrap().as_str(),
            Some("line1\nline2")
        );
    }

    #[test]
    fn escaped_quotes() {
        let t = read_csv("a\n\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.get_named(0, "a").unwrap().as_str(), Some("say \"hi\""));
    }

    #[test]
    fn crlf_and_trailing_newline_tolerated() {
        let t = read_csv("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.get(0, 1).unwrap(), &Value::Int(2));
        let t2 = read_csv("a,b\n1,2").unwrap(); // no trailing newline
        assert_eq!(t2.num_rows(), 1);
    }

    #[test]
    fn ragged_row_is_error_with_line_number() {
        let err = read_csv("a,b\n1\n").unwrap_err();
        match err {
            TableError::Csv { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(read_csv("a\n\"oops\n").is_err());
    }

    #[test]
    fn empty_input() {
        let t = read_csv("").unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }

    #[test]
    fn roundtrip_simple() {
        let t = Table::literal(
            &["a", "b"],
            vec![
                vec![Value::Int(1), "x,y".into()],
                vec![Value::Null, "he said \"hi\"".into()],
                vec![Value::Float(2.5), "line\nbreak".into()],
            ],
        )
        .unwrap();
        let text = write_csv(&t);
        let back = read_csv(&text).unwrap();
        assert_eq!(back.num_rows(), 3);
        assert_eq!(back.get(0, 0).unwrap(), &Value::Int(1));
        assert!(back.get(1, 0).unwrap().is_null());
        assert_eq!(back.get(1, 1).unwrap().as_str(), Some("he said \"hi\""));
        assert_eq!(back.get(2, 1).unwrap().as_str(), Some("line\nbreak"));
    }
}
