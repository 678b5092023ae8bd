//! The quality report of a delivered table: completeness, and its synthesis
//! with signals from outside the table into a quality vector.

use wrangler_context::{Criterion, DataContext, QualityVector, UserContext};
use wrangler_table::Table;

/// Mean completeness over a table's columns, given by `names` and `nulls`
/// (null cells out of `rows`): all columns, or the named subset if any of
/// the names exist. A column's completeness is its share of non-null cells
/// (1.0 for no rows).
pub fn completeness(names: &[&str], nulls: &[usize], rows: usize, required: &[String]) -> f64 {
    let found: Vec<usize> = (names.iter().zip(nulls))
        .filter(|(name, _)| required.is_empty() || required.iter().any(|r| r == *name))
        .map(|(_, &n)| n)
        .collect();
    if found.is_empty() {
        // No column at all, or none of the required ones exists.
        return if required.is_empty() { 1.0 } else { 0.0 };
    }
    let of = |&nulls: &usize| {
        if rows == 0 {
            1.0
        } else {
            (rows - nulls) as f64 / rows as f64
        }
    };
    // Missing required columns count as zero-completeness columns.
    let missing = required.len().saturating_sub(found.len());
    found.iter().map(of).sum::<f64>() / (found.len() + missing) as f64
}

/// Inputs for scoring a table against a user context that the profile alone
/// cannot know.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExternalSignals {
    /// Age of the data in ticks (for timeliness).
    pub age: u64,
    /// Fraction of consistency-rule violations among checked cells; 0 if no
    /// rules were checked.
    pub violation_rate: f64,
    /// Accuracy estimate in \[0, 1\] (ground truth, master data or fused
    /// trust).
    pub accuracy: f64,
    /// Relevance in \[0, 1\] (e.g. master-data coverage); `None` = 1.0.
    pub relevance: Option<f64>,
    /// Spent cost fraction of budget in \[0, 1\]; 0 = free.
    pub cost_fraction: f64,
}

/// Synthesize the context-comparable quality vector of a table from its
/// `completeness` and the signals from outside it.
///
/// This is the bridge between profiling and multi-criteria decision making:
/// every candidate artifact is reduced to the same six numbers the user
/// context weighs (§2.1).
pub fn quality_vector(
    completeness: f64,
    user: &UserContext,
    signals: &ExternalSignals,
) -> QualityVector {
    QualityVector::neutral()
        .with(Criterion::Completeness, completeness)
        .with(Criterion::Accuracy, signals.accuracy)
        .with(Criterion::Timeliness, user.timeliness_of_age(signals.age))
        .with(Criterion::Consistency, 1.0 - signals.violation_rate)
        .with(Criterion::Relevance, signals.relevance.unwrap_or(1.0))
        .with(Criterion::Cost, 1.0 - signals.cost_fraction.clamp(0.0, 1.0))
}

/// Relevance of a table to the data context: master-data coverage of its best
/// overlapping column, if master data of `kind` exists.
pub fn master_relevance(table: &Table, ctx: &DataContext, kind: &str) -> Option<f64> {
    let mut best: Option<f64> = None;
    for i in 0..table.num_columns() {
        let col = table.column(i).ok()?;
        if let Some(cov) = ctx.master_coverage(kind, col) {
            best = Some(best.map_or(cov, |b: f64| b.max(cov)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::Value;

    fn messy() -> Table {
        Table::literal(
            &["sku", "price"],
            vec![
                vec!["a1".into(), Value::Float(9.5)],
                vec!["a2".into(), Value::Str("n/a?".into())],
                vec!["a3".into(), Value::Null],
                vec!["a4".into(), Value::Float(12.0)],
            ],
        )
        .unwrap()
    }

    /// `messy()`'s null counts per column, as the pass counts them.
    fn nulls(table: &Table) -> Vec<usize> {
        let is_null = |col: &[Value]| col.iter().filter(|v| v.is_null()).count();
        table.columns().map(is_null).collect()
    }

    #[test]
    fn completeness_equals_the_column_statistics_mean_bit_for_bit() {
        let t = messy();
        let stats: Vec<f64> = t
            .columns()
            .map(|col| wrangler_table::stats::column_stats(col).completeness())
            .collect();
        let want = stats.iter().sum::<f64>() / stats.len() as f64;
        let names = t.schema().names();
        let got = completeness(&names, &nulls(&t), t.num_rows(), &[]);
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(completeness(&[], &[], 0, &[]), 1.0);
        assert_eq!(completeness(&["a"], &[0], 0, &[]), 1.0);
    }

    #[test]
    fn completeness_respects_required_columns() {
        let t = messy();
        let (names, nulls) = (t.schema().names(), nulls(&t));
        let of = |required: &[&str]| {
            let required: Vec<String> = required.iter().map(|r| r.to_string()).collect();
            completeness(&names, &nulls, 4, &required)
        };
        assert!((of(&[]) - (1.0 + 0.75) / 2.0).abs() < 1e-12);
        assert!((of(&["price"]) - 0.75).abs() < 1e-12);
        // Required column that does not exist counts as 0.
        assert!((of(&["sku", "ghost"]) - 0.5).abs() < 1e-12);
        assert_eq!(of(&["ghost"]), 0.0);
    }

    #[test]
    fn quality_vector_synthesis() {
        let user = UserContext::balanced("t").with_freshness_horizon(10);
        let q = quality_vector(
            0.875,
            &user,
            &ExternalSignals {
                age: 5,
                violation_rate: 0.2,
                accuracy: 0.9,
                relevance: Some(0.6),
                cost_fraction: 0.25,
            },
        );
        assert_eq!(q.get(Criterion::Completeness), 0.875);
        assert!((q.get(Criterion::Timeliness) - 0.5).abs() < 1e-12);
        assert!((q.get(Criterion::Consistency) - 0.8).abs() < 1e-12);
        assert!((q.get(Criterion::Accuracy) - 0.9).abs() < 1e-12);
        assert!((q.get(Criterion::Relevance) - 0.6).abs() < 1e-12);
        assert!((q.get(Criterion::Cost) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn master_relevance_picks_best_column() {
        let mut ctx = DataContext::new();
        let master = Table::literal(
            &["sku"],
            vec![
                vec!["a1".into()],
                vec!["a2".into()],
                vec!["a3".into()],
                vec!["a4".into()],
            ],
        )
        .unwrap();
        ctx.add_master("product", master, "sku").unwrap();
        let rel = master_relevance(&messy(), &ctx, "product").unwrap();
        assert!((rel - 1.0).abs() < 1e-12); // sku column fully covered
        assert_eq!(master_relevance(&messy(), &ctx, "nothing"), None);
    }
}
