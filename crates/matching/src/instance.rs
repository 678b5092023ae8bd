//! Instance-based match evidence: what the column *contains*.
//!
//! Robust to the cryptic-name sources in the fleet: even a column called
//! `col3` is identifiable as a price by its type, range and value overlap
//! with a known price column.

use std::collections::HashSet;

use wrangler_table::stats::{column_stats, ColumnStats};
use wrangler_table::{DataType, Value};

/// Summary of a column used for instance comparison.
#[derive(Debug, Clone)]
pub struct InstanceProfile {
    /// Statistics.
    pub stats: ColumnStats,
    /// Majority dtype among non-null cells.
    pub dtype: DataType,
    /// Up to `SAMPLE` distinct rendered values (lowercased), for overlap.
    pub sample: HashSet<String>,
}

const SAMPLE: usize = 256;

/// Profile a column for instance matching.
pub fn profile(values: &[Value]) -> InstanceProfile {
    let stats = column_stats(values);
    let mut counts: Vec<(DataType, usize)> = Vec::new();
    let mut sample = HashSet::new();
    for v in values.iter().filter(|v| !v.is_null()) {
        let dt = v.dtype();
        match counts.iter_mut().find(|(d, _)| *d == dt) {
            Some((_, n)) => *n += 1,
            None => counts.push((dt, 1)),
        }
        if sample.len() < SAMPLE {
            sample.insert(v.text().to_lowercase());
        }
    }
    let dtype = counts
        .iter()
        .max_by_key(|(_, n)| *n)
        .map(|(d, _)| *d)
        .unwrap_or(DataType::Null);
    InstanceProfile {
        stats,
        dtype,
        sample,
    }
}

/// The quasi-independent instance signals for one column pair. Each is a
/// score in \[0, 1\] where 0.5 is neutral; `None` means the signal does not
/// apply (and must contribute no evidence either way).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceSignals {
    /// Data type compatibility: 1 same type, ~0.9 int/float, 0.5 unknown,
    /// 0 incompatible.
    pub type_score: f64,
    /// Sampled-value overlap (Jaccard); only meaningful for columns that
    /// look categorical/key-like (numeric measures rarely share exact values).
    pub overlap: Option<f64>,
    /// Distribution proximity: mean/σ for numeric pairs, rendered length for
    /// string pairs; `None` for mixed numeric/unknown pairs.
    pub distribution: Option<f64>,
}

/// Compute the instance signals for a column pair.
pub fn instance_signals(a: &InstanceProfile, b: &InstanceProfile) -> InstanceSignals {
    let type_score = match (a.dtype, b.dtype) {
        (x, y) if x == y => 1.0,
        (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => 0.9,
        (DataType::Null, _) | (_, DataType::Null) => 0.5, // unknown, neutral
        _ => 0.0,
    };
    if type_score == 0.0 {
        return InstanceSignals {
            type_score,
            overlap: None,
            distribution: None,
        };
    }
    // An all-null column carries no instances: it can neither support nor
    // refute a correspondence (common for master-data columns that are the
    // very thing we are wrangling in, like `price`).
    if a.dtype == DataType::Null || b.dtype == DataType::Null {
        return InstanceSignals {
            type_score,
            overlap: None,
            distribution: None,
        };
    }

    // Value overlap — decisive for key-like and categorical columns, silent
    // for high-distinctness numeric measures.
    let overlap = if !a.sample.is_empty() && !b.sample.is_empty() {
        let numeric_measures = a.dtype.is_numeric()
            && b.dtype.is_numeric()
            && a.stats.distinctness().min(b.stats.distinctness()) > 0.8;
        if numeric_measures {
            None
        } else {
            let inter = a.sample.intersection(&b.sample).count();
            let union = a.sample.len() + b.sample.len() - inter;
            Some(inter as f64 / union.max(1) as f64)
        }
    } else {
        None
    };

    // Distribution proximity.
    let distribution = if let (Some(ma), Some(mb)) = (a.stats.mean, b.stats.mean) {
        let scale = ma.abs().max(mb.abs()).max(1e-9);
        let mean_prox = 1.0 - ((ma - mb).abs() / scale).min(1.0);
        let std_prox = match (a.stats.std_dev, b.stats.std_dev) {
            (Some(sa), Some(sb)) => {
                let sscale = sa.max(sb).max(1e-9);
                1.0 - ((sa - sb).abs() / sscale).min(1.0)
            }
            _ => mean_prox,
        };
        Some((mean_prox + std_prox) / 2.0)
    } else if a.stats.mean.is_none() && b.stats.mean.is_none() {
        let la = a.stats.mean_len;
        let lb = b.stats.mean_len;
        let scale = la.max(lb).max(1.0);
        Some(1.0 - ((la - lb).abs() / scale).min(1.0))
    } else {
        None
    };

    InstanceSignals {
        type_score,
        overlap,
        distribution,
    }
}

/// Scalar instance similarity in \[0, 1\]: the mean of the applicable signals
/// (with a hard 0 gate on incompatible types). Used where one number is
/// needed (e.g. record-level similarity in ER); the matcher itself consumes
/// the separate signals.
pub fn instance_similarity(a: &InstanceProfile, b: &InstanceProfile) -> f64 {
    let s = instance_signals(a, b);
    if s.type_score == 0.0 {
        return 0.0;
    }
    let mut sum = s.type_score;
    let mut n = 1usize;
    if let Some(o) = s.overlap {
        sum += o;
        n += 1;
    }
    if let Some(d) = s.distribution {
        sum += d;
        n += 1;
    }
    sum / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn floats(xs: &[f64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Float(x)).collect()
    }
    fn strs(xs: &[&str]) -> Vec<Value> {
        xs.iter().map(|&x| Value::from(x)).collect()
    }

    #[test]
    fn incompatible_types_score_zero() {
        let nums = profile(&floats(&[1.0, 2.0, 3.0]));
        let words = profile(&strs(&["a", "b", "c"]));
        assert_eq!(instance_similarity(&nums, &words), 0.0);
    }

    #[test]
    fn identical_value_sets_score_high() {
        let a = profile(&strs(&["electronics", "toys", "home", "toys"]));
        let b = profile(&strs(&["toys", "electronics", "home"]));
        assert!(instance_similarity(&a, &b) > 0.8);
    }

    #[test]
    fn similar_price_distributions_beat_dissimilar() {
        let prices_a = profile(&floats(&[9.99, 25.0, 199.0, 49.5, 12.0]));
        let prices_b = profile(&floats(&[10.5, 30.0, 180.0, 55.0, 14.0]));
        let stocks = profile(&floats(&[100000.0, 250000.0, 381000.0]));
        let sim_pp = instance_similarity(&prices_a, &prices_b);
        let sim_ps = instance_similarity(&prices_a, &stocks);
        assert!(sim_pp > sim_ps, "{sim_pp} vs {sim_ps}");
    }

    #[test]
    fn overlap_dominates_for_categorical() {
        let cat_a = profile(&strs(&["x", "y", "x", "y", "x"]));
        let cat_b = profile(&strs(&["x", "y", "y"]));
        let cat_c = profile(&strs(&["p", "q", "p", "q"]));
        assert!(instance_similarity(&cat_a, &cat_b) > instance_similarity(&cat_a, &cat_c));
    }

    #[test]
    fn all_null_columns_are_neutral() {
        let nulls = profile(&[Value::Null, Value::Null]);
        let nums = profile(&floats(&[1.0, 2.0]));
        let s = instance_similarity(&nulls, &nums);
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn symmetric() {
        let a = profile(&floats(&[1.0, 2.0, 3.0]));
        let b = profile(&floats(&[2.0, 3.0, 4.0]));
        assert!((instance_similarity(&a, &b) - instance_similarity(&b, &a)).abs() < 1e-12);
    }
}
