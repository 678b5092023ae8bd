//! Record-level similarity from typed field comparators.

use wrangler_match::strsim::{jaro_winkler, levenshtein_sim, token_jaccard};
use wrangler_table::{Table, Value};

/// How to compare one field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimKind {
    /// Free text: max of Jaro–Winkler, token Jaccard and Levenshtein sims of
    /// lowercased renderings.
    Text,
    /// Identifier: exact (case-insensitive) match or nothing.
    Exact,
    /// Numeric proximity: `1 − min(1, |a−b| / (scale·max(|a|,|b|,1)))`.
    Numeric {
        /// Relative difference treated as "completely different".
        scale: f64,
    },
}

/// One field's contribution to record similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSim {
    /// Column name.
    pub column: String,
    /// Relative weight (≥ 0).
    pub weight: f64,
    /// Comparator.
    pub kind: SimKind,
}

/// Entity-resolution configuration: weighted field comparators + decision
/// threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct ErConfig {
    /// Field comparators.
    pub fields: Vec<FieldSim>,
    /// Pairs scoring at or above this are matches.
    pub threshold: f64,
}

impl ErConfig {
    /// Uniform text comparison over the given columns at the given threshold.
    pub fn text_over(columns: &[&str], threshold: f64) -> ErConfig {
        ErConfig {
            fields: columns
                .iter()
                .map(|c| FieldSim {
                    column: c.to_string(),
                    weight: 1.0,
                    kind: SimKind::Text,
                })
                .collect(),
            threshold,
        }
    }
}

/// Similarity of one value pair under a comparator. Null pairs are neutral
/// (contribute nothing); a null/non-null pair scores a mild 0.5 penalty... no:
/// missingness is not evidence of difference, so it is skipped entirely.
fn value_similarity(a: &Value, b: &Value, kind: SimKind) -> Option<f64> {
    if a.is_null() || b.is_null() {
        return None;
    }
    Some(match kind {
        SimKind::Exact => {
            if a.text().eq_ignore_ascii_case(&b.text()) {
                1.0
            } else {
                0.0
            }
        }
        SimKind::Text => {
            let sa = a.text().to_lowercase();
            let sb = b.text().to_lowercase();
            if sa == sb {
                1.0
            } else {
                jaro_winkler(&sa, &sb)
                    .max(token_jaccard(&sa, &sb))
                    .max(levenshtein_sim(&sa, &sb))
            }
        }
        SimKind::Numeric { scale } => {
            let (fa, fb) = (a.as_f64(), b.as_f64());
            // NaN/±∞ carry no usable magnitude: the proximity formula would
            // yield NaN and poison the weighted average, so a non-finite
            // operand makes the field incomparable, like null.
            if fa.is_some_and(|x| !x.is_finite()) || fb.is_some_and(|y| !y.is_finite()) {
                return None;
            }
            match (fa, fb) {
                (Some(x), Some(y)) => {
                    let denom = scale.max(1e-9) * x.abs().max(y.abs()).max(1.0);
                    1.0 - ((x - y).abs() / denom).min(1.0)
                }
                _ => 0.0, // numeric comparator on non-numeric data: different
            }
        }
    })
}

/// Resolve every configured column to its schema index, up front. An
/// unknown column errors here, before any scoring work is spent.
pub(crate) fn resolve_columns(
    table: &Table,
    cfg: &ErConfig,
) -> wrangler_table::Result<Vec<usize>> {
    cfg.fields
        .iter()
        .map(|f| table.schema().index_of(&f.column))
        .collect()
}

/// [`record_similarity`] with the column indices already resolved
/// (`cols[k]` is the index of `cfg.fields[k].column`).
pub(crate) fn record_similarity_resolved(
    table: &Table,
    i: usize,
    j: usize,
    cfg: &ErConfig,
    cols: &[usize],
) -> wrangler_table::Result<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for (f, &col) in cfg.fields.iter().zip(cols) {
        let a = table.get(i, col)?;
        let b = table.get(j, col)?;
        if let Some(s) = value_similarity(a, b, f.kind) {
            num += f.weight * s;
            den += f.weight;
        }
    }
    Ok(if den == 0.0 { 0.0 } else { num / den })
}

/// Weighted record similarity; fields where either value is null are skipped
/// (their weight excluded from the denominator). Two records sharing no
/// comparable fields score 0. Column names are resolved once per call — an
/// unknown column errors before any field is compared (batch callers should
/// use [`crate::ErKernel`], which resolves once per table).
pub fn record_similarity(
    table: &Table,
    i: usize,
    j: usize,
    cfg: &ErConfig,
) -> wrangler_table::Result<f64> {
    let cols = resolve_columns(table, cfg)?;
    record_similarity_resolved(table, i, j, cfg, &cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::literal(
            &["name", "price", "sku"],
            vec![
                vec!["Acme Widget".into(), Value::Float(10.0), "a1".into()],
                vec!["Acme Widgget".into(), Value::Float(10.5), "A1".into()],
                vec!["Bolt Gadget".into(), Value::Float(99.0), "b7".into()],
                vec!["Acme Widget".into(), Value::Null, Value::Null],
            ],
        )
        .unwrap()
    }

    fn cfg() -> ErConfig {
        ErConfig {
            fields: vec![
                FieldSim {
                    column: "name".into(),
                    weight: 2.0,
                    kind: SimKind::Text,
                },
                FieldSim {
                    column: "price".into(),
                    weight: 1.0,
                    kind: SimKind::Numeric { scale: 0.25 },
                },
                FieldSim {
                    column: "sku".into(),
                    weight: 1.0,
                    kind: SimKind::Exact,
                },
            ],
            threshold: 0.8,
        }
    }

    #[test]
    fn near_duplicates_score_high() {
        let s = record_similarity(&t(), 0, 1, &cfg()).unwrap();
        assert!(s > 0.85, "{s}");
        let d = record_similarity(&t(), 0, 2, &cfg()).unwrap();
        assert!(d < 0.5, "{d}");
    }

    #[test]
    fn nulls_are_skipped_not_penalized() {
        // Rows 0 and 3 agree perfectly on name; price/sku null on row 3.
        let s = record_similarity(&t(), 0, 3, &cfg()).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_comparator_is_case_insensitive_binary() {
        assert_eq!(
            value_similarity(&"a1".into(), &"A1".into(), SimKind::Exact),
            Some(1.0)
        );
        assert_eq!(
            value_similarity(&"a1".into(), &"a2".into(), SimKind::Exact),
            Some(0.0)
        );
    }

    #[test]
    fn numeric_proximity_scales() {
        let k = SimKind::Numeric { scale: 0.2 };
        assert_eq!(
            value_similarity(&Value::Float(100.0), &Value::Float(100.0), k),
            Some(1.0)
        );
        let near = value_similarity(&Value::Float(100.0), &Value::Float(105.0), k).unwrap();
        assert!(near > 0.7);
        let far = value_similarity(&Value::Float(100.0), &Value::Float(200.0), k).unwrap();
        assert_eq!(far, 0.0);
        // Numeric comparator on strings: different.
        assert_eq!(
            value_similarity(&"x".into(), &Value::Float(1.0), k),
            Some(0.0)
        );
    }

    #[test]
    fn non_finite_numerics_are_incomparable_not_poisonous() {
        let k = SimKind::Numeric { scale: 0.2 };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                value_similarity(&Value::Float(bad), &Value::Float(1.0), k),
                None
            );
            assert_eq!(
                value_similarity(&Value::Float(1.0), &Value::Float(bad), k),
                None
            );
            // Non-finite vs non-numeric: still incomparable.
            assert_eq!(value_similarity(&Value::Float(bad), &"x".into(), k), None);
        }
        // A record pair agreeing on every other field must not score NaN
        // because one numeric cell is poisoned.
        let t = Table::literal(
            &["name", "price"],
            vec![
                vec!["Acme Widget".into(), Value::Float(f64::NAN)],
                vec!["Acme Widget".into(), Value::Float(10.0)],
            ],
        )
        .unwrap();
        let cfg = ErConfig {
            fields: vec![
                FieldSim {
                    column: "name".into(),
                    weight: 2.0,
                    kind: SimKind::Text,
                },
                FieldSim {
                    column: "price".into(),
                    weight: 1.0,
                    kind: SimKind::Numeric { scale: 0.2 },
                },
            ],
            threshold: 0.8,
        };
        let s = record_similarity(&t, 0, 1, &cfg).unwrap();
        assert!(s.is_finite());
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }

    #[test]
    fn records_with_no_comparable_fields_score_zero() {
        let t2 = Table::literal(&["name"], vec![vec![Value::Null], vec![Value::Null]]).unwrap();
        let cfg = ErConfig::text_over(&["name"], 0.5);
        assert_eq!(record_similarity(&t2, 0, 1, &cfg).unwrap(), 0.0);
    }

    #[test]
    fn unknown_column_is_error() {
        let cfg = ErConfig::text_over(&["ghost"], 0.5);
        assert!(record_similarity(&t(), 0, 1, &cfg).is_err());
    }
}
