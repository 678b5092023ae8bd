//! Per-column statistics.
//!
//! These summaries feed quality profiling (`wrangler-quality`) and
//! instance-based schema matching (`wrangler-match`): null ratios,
//! distinctness, numeric moments and value-length distribution are the
//! evidence both consume.

use std::collections::HashSet;

use crate::value::Value;

/// Summary statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Total rows observed.
    pub count: usize,
    /// Number of null cells.
    pub null_count: usize,
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Minimum non-null value (table value order).
    pub min: Option<Value>,
    /// Maximum non-null value.
    pub max: Option<Value>,
    /// Mean of numeric values, if any.
    pub mean: Option<f64>,
    /// Population standard deviation of numeric values, if any.
    pub std_dev: Option<f64>,
    /// Mean rendered-string length of non-null values.
    pub mean_len: f64,
    /// Fraction of non-null values that parse as numeric.
    pub numeric_ratio: f64,
}

impl ColumnStats {
    /// Fraction of cells that are non-null; 1.0 for empty columns.
    pub fn completeness(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            (self.count - self.null_count) as f64 / self.count as f64
        }
    }

    /// Distinct values / non-null values; 0.0 when all nulls.
    pub fn distinctness(&self) -> f64 {
        let non_null = self.count - self.null_count;
        if non_null == 0 {
            0.0
        } else {
            self.distinct as f64 / non_null as f64
        }
    }
}

/// Compute statistics for the values of one column.
pub fn column_stats(values: &[Value]) -> ColumnStats {
    let count = values.len();
    let mut null_count = 0usize;
    let mut seen: HashSet<&Value> = HashSet::new();
    let mut min: Option<&Value> = None;
    let mut max: Option<&Value> = None;
    let mut num_sum = 0.0f64;
    let mut num_sq = 0.0f64;
    let mut num_n = 0usize;
    let mut len_sum = 0usize;

    for v in values {
        if v.is_null() {
            null_count += 1;
            continue;
        }
        seen.insert(v);
        if min.is_none_or(|m| v < m) {
            min = Some(v);
        }
        if max.is_none_or(|m| v > m) {
            max = Some(v);
        }
        if let Some(x) = v.as_f64() {
            num_sum += x;
            num_sq += x * x;
            num_n += 1;
        }
        len_sum += v.text().chars().count();
    }
    let non_null = count - null_count;
    let mean = if num_n > 0 {
        Some(num_sum / num_n as f64)
    } else {
        None
    };
    let std_dev = mean.map(|m| {
        let var = (num_sq / num_n as f64 - m * m).max(0.0);
        var.sqrt()
    });
    ColumnStats {
        count,
        null_count,
        distinct: seen.len(),
        min: min.cloned(),
        max: max.cloned(),
        mean,
        std_dev,
        mean_len: if non_null == 0 {
            0.0
        } else {
            len_sum as f64 / non_null as f64
        },
        numeric_ratio: if non_null == 0 {
            0.0
        } else {
            num_n as f64 / non_null as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_mixed_column() {
        let vals = vec![
            Value::Int(10),
            Value::Null,
            Value::Int(20),
            Value::Int(10),
            Value::Str("x".into()),
        ];
        let s = column_stats(&vals);
        assert_eq!(s.count, 5);
        assert_eq!(s.null_count, 1);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.min, Some(Value::Int(10)));
        assert_eq!(s.max, Some(Value::Str("x".into())));
        assert!((s.mean.unwrap() - 40.0 / 3.0).abs() < 1e-12);
        assert!((s.numeric_ratio - 0.75).abs() < 1e-12);
        assert!((s.completeness() - 0.8).abs() < 1e-12);
        assert!((s.distinctness() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_and_all_null_columns() {
        let s = column_stats(&[]);
        assert_eq!(s.completeness(), 1.0);
        assert_eq!(s.distinctness(), 0.0);
        let s = column_stats(&[Value::Null, Value::Null]);
        assert_eq!(s.completeness(), 0.0);
        assert_eq!(s.min, None);
        assert_eq!(s.mean, None);
    }

    #[test]
    fn std_dev_computation() {
        let s = column_stats(&[Value::Float(2.0), Value::Float(4.0)]);
        assert!((s.std_dev.unwrap() - 1.0).abs() < 1e-12);
        let s = column_stats(&[Value::Float(5.0)]);
        assert!((s.std_dev.unwrap() - 0.0).abs() < 1e-12);
    }
}
