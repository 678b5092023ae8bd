//! Type inference for string-encoded data.
//!
//! Sources deliver everything as strings (CSV cells, extracted web text);
//! inference recovers the most specific [`DataType`] that explains a column,
//! which downstream matching uses as instance-level evidence.

use crate::schema::DataType;
use crate::value::Value;

/// Strings treated as null markers (case-insensitive).
const NULL_MARKERS: &[&str] = &["", "null", "na", "n/a", "none", "-", "nil"];

/// Parse a raw string cell into the most specific value: null markers to
/// `Null`, then `Int`, `Float`, `Bool`, falling back to `Str` (trimmed
/// content preserved as-is, untrimmed).
pub fn parse_cell(raw: &str) -> Value {
    let t = raw.trim();
    if NULL_MARKERS.iter().any(|m| t.eq_ignore_ascii_case(m)) {
        return Value::Null;
    }
    if let Ok(i) = t.parse::<i64>() {
        // Only canonical renderings count as integers: "007" and "+5" are
        // identifiers (zip codes, phone fragments), not numbers.
        if i.to_string() == t {
            return Value::Int(i);
        }
    }
    // Reject float syntax Rust accepts but tabular data usually doesn't mean
    // ("inf", "nan" stay strings); accept scientific notation and decimals.
    if looks_like_float(t) {
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
    }
    match t {
        "true" | "True" | "TRUE" => return Value::Bool(true),
        "false" | "False" | "FALSE" => return Value::Bool(false),
        _ => {}
    }
    Value::from(raw)
}

fn looks_like_float(t: &str) -> bool {
    let mut has_digit = false;
    for c in t.chars() {
        match c {
            '0'..='9' => has_digit = true,
            '.' | '-' | '+' | 'e' | 'E' => {}
            _ => return false,
        }
    }
    has_digit
}

/// Infer the unified type of a column of raw strings.
pub fn infer_column(raw: &[String]) -> DataType {
    let mut dt = DataType::Null;
    for cell in raw {
        let v = parse_cell(cell);
        if !v.is_null() {
            dt = dt.unify(v.dtype());
        }
    }
    dt
}

/// Parse a column of raw strings into values coerced to `target` where
/// possible; unparseable cells fall back to `Str` (when target is numeric we
/// keep the original string rather than inventing nulls — veracity demands we
/// not destroy evidence).
pub fn parse_column(raw: &[String], target: DataType) -> Vec<Value> {
    raw.iter()
        .map(|cell| {
            let v = parse_cell(cell);
            match (&v, target) {
                (Value::Null, _) => Value::Null,
                // A Str target keeps the trimmed original text verbatim.
                (_, DataType::Str) if v.dtype() != DataType::Str => Value::from(cell.trim()),
                // Numeric/bool cells keep their most specific parse: coercing
                // a large Int to a Float column would lose precision, and the
                // Value model compares Int/Float numerically anyway.
                _ => v,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_cell_specificity() {
        assert_eq!(parse_cell("42"), Value::Int(42));
        assert_eq!(parse_cell(" -7 "), Value::Int(-7));
        assert_eq!(parse_cell("3.25"), Value::Float(3.25));
        assert_eq!(parse_cell("1e3"), Value::Float(1000.0));
        assert_eq!(parse_cell("true"), Value::Bool(true));
        assert_eq!(parse_cell("N/A"), Value::Null);
        assert_eq!(parse_cell(""), Value::Null);
        assert_eq!(parse_cell("abc"), Value::Str("abc".into()));
        // "inf"/"nan" must remain strings.
        assert_eq!(parse_cell("inf"), Value::Str("inf".into()));
        assert_eq!(parse_cell("nan"), Value::Str("nan".into()));
    }

    #[test]
    fn infer_column_unifies() {
        let col: Vec<String> = ["1", "2.5", ""].iter().map(|s| s.to_string()).collect();
        assert_eq!(infer_column(&col), DataType::Float);
        let col: Vec<String> = ["1", "x"].iter().map(|s| s.to_string()).collect();
        assert_eq!(infer_column(&col), DataType::Str);
        let col: Vec<String> = ["", "na"].iter().map(|s| s.to_string()).collect();
        assert_eq!(infer_column(&col), DataType::Null);
    }

    #[test]
    fn parse_column_preserves_unparseable() {
        let col: Vec<String> = ["1", "oops", ""].iter().map(|s| s.to_string()).collect();
        let vs = parse_column(&col, DataType::Int);
        assert_eq!(vs[0], Value::Int(1));
        assert_eq!(vs[1], Value::Str("oops".into()));
        assert_eq!(vs[2], Value::Null);
    }

    #[test]
    fn parse_column_to_str_renders() {
        let col: Vec<String> = ["42", "x"].iter().map(|s| s.to_string()).collect();
        let vs = parse_column(&col, DataType::Str);
        assert_eq!(vs[0], Value::Str("42".into()));
        assert_eq!(vs[1], Value::Str("x".into()));
    }
}
