//! Table and column profiling, and synthesis into quality vectors.

use wrangler_context::{Criterion, DataContext, QualityVector, UserContext};
use wrangler_table::stats::{column_stats, ColumnStats};
use wrangler_table::{DataType, Table};

/// Profile of one column.
#[derive(Debug, Clone)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Raw statistics.
    pub stats: ColumnStats,
    /// Majority non-null dtype of the cells.
    pub majority_dtype: DataType,
    /// Fraction of non-null cells whose dtype equals the majority dtype —
    /// a syntactic-consistency signal (mixed columns smell of extraction or
    /// integration errors).
    pub type_consistency: f64,
}

/// Profile of a whole table.
#[derive(Debug, Clone)]
pub struct TableProfile {
    /// Per-column profiles in schema order.
    pub columns: Vec<ColumnProfile>,
    /// Row count.
    pub rows: usize,
}

impl TableProfile {
    /// Profile every column of `table`.
    pub fn of(table: &Table) -> wrangler_table::Result<TableProfile> {
        let mut columns = Vec::with_capacity(table.num_columns());
        for i in 0..table.num_columns() {
            let name = table.schema().field(i)?.name.clone();
            let col = table.column(i)?;
            let stats = column_stats(col);
            // Count cell dtypes among non-nulls.
            let mut counts: Vec<(DataType, usize)> = Vec::new();
            for v in col.iter().filter(|v| !v.is_null()) {
                let dt = v.dtype();
                match counts.iter_mut().find(|(d, _)| *d == dt) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((dt, 1)),
                }
            }
            let non_null = stats.count - stats.null_count;
            let (majority_dtype, majority_n) = counts
                .iter()
                .max_by_key(|(_, n)| *n)
                .map(|(d, n)| (*d, *n))
                .unwrap_or((DataType::Null, 0));
            let type_consistency = if non_null == 0 {
                1.0
            } else {
                majority_n as f64 / non_null as f64
            };
            columns.push(ColumnProfile {
                name,
                stats,
                majority_dtype,
                type_consistency,
            });
        }
        Ok(TableProfile {
            columns,
            rows: table.num_rows(),
        })
    }

    /// Mean completeness over all columns (or the named subset, if any of the
    /// names exist).
    pub fn completeness(&self, required: &[String]) -> f64 {
        let selected: Vec<&ColumnProfile> = if required.is_empty() {
            self.columns.iter().collect()
        } else {
            let found: Vec<&ColumnProfile> = self
                .columns
                .iter()
                .filter(|c| required.contains(&c.name))
                .collect();
            if found.is_empty() {
                // None of the required columns even exist: completeness 0.
                return 0.0;
            }
            // Missing required columns count as zero-completeness columns.
            let missing = required.len() - found.len();
            let sum: f64 = found.iter().map(|c| c.stats.completeness()).sum();
            return sum / (found.len() + missing) as f64;
        };
        if selected.is_empty() {
            return 1.0;
        }
        selected.iter().map(|c| c.stats.completeness()).sum::<f64>() / selected.len() as f64
    }

    /// Mean type consistency over all columns.
    pub fn type_consistency(&self) -> f64 {
        if self.columns.is_empty() {
            return 1.0;
        }
        self.columns.iter().map(|c| c.type_consistency).sum::<f64>() / self.columns.len() as f64
    }
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
    /// Accuracy estimate in \[0, 1\] if one exists (ground truth, master data or
    /// fused trust); `None` falls back to type consistency as a weak proxy.
    pub accuracy: Option<f64>,
    /// Relevance in \[0, 1\] (e.g. master-data coverage); `None` = 1.0.
    pub relevance: Option<f64>,
    /// Spent cost fraction of budget in \[0, 1\]; 0 = free.
    pub cost_fraction: f64,
}

/// Synthesize the context-comparable quality vector of a table.
///
/// This is the bridge between profiling and multi-criteria decision making:
/// every candidate artifact is reduced to the same six numbers the user
/// context weighs (§2.1).
pub fn quality_vector(
    profile: &TableProfile,
    user: &UserContext,
    signals: &ExternalSignals,
) -> QualityVector {
    let accuracy = signals
        .accuracy
        .unwrap_or_else(|| profile.type_consistency());
    QualityVector::neutral()
        .with(
            Criterion::Completeness,
            profile.completeness(&user.required_columns),
        )
        .with(Criterion::Accuracy, accuracy)
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

    #[test]
    fn profile_measures_completeness_and_type_consistency() {
        let p = TableProfile::of(&messy()).unwrap();
        assert_eq!(p.rows, 4);
        assert!((p.columns[1].stats.completeness() - 0.75).abs() < 1e-12);
        // price: 2 floats + 1 str among 3 non-null.
        assert_eq!(p.columns[1].majority_dtype, DataType::Float);
        assert!((p.columns[1].type_consistency - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.columns[0].type_consistency, 1.0);
    }

    #[test]
    fn completeness_respects_required_columns() {
        let p = TableProfile::of(&messy()).unwrap();
        let all = p.completeness(&[]);
        assert!((all - (1.0 + 0.75) / 2.0).abs() < 1e-12);
        assert!((p.completeness(&["price".to_string()]) - 0.75).abs() < 1e-12);
        // Required column that does not exist counts as 0.
        let half = p.completeness(&["sku".to_string(), "ghost".to_string()]);
        assert!((half - 0.5).abs() < 1e-12);
        assert_eq!(p.completeness(&["ghost".to_string()]), 0.0);
    }

    #[test]
    fn quality_vector_synthesis() {
        let p = TableProfile::of(&messy()).unwrap();
        let user = UserContext::balanced("t").with_freshness_horizon(10);
        let q = quality_vector(
            &p,
            &user,
            &ExternalSignals {
                age: 5,
                violation_rate: 0.2,
                accuracy: Some(0.9),
                relevance: Some(0.6),
                cost_fraction: 0.25,
            },
        );
        assert!((q.get(Criterion::Timeliness) - 0.5).abs() < 1e-12);
        assert!((q.get(Criterion::Consistency) - 0.8).abs() < 1e-12);
        assert!((q.get(Criterion::Accuracy) - 0.9).abs() < 1e-12);
        assert!((q.get(Criterion::Relevance) - 0.6).abs() < 1e-12);
        assert!((q.get(Criterion::Cost) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn accuracy_falls_back_to_type_consistency() {
        let p = TableProfile::of(&messy()).unwrap();
        let user = UserContext::balanced("t");
        let q = quality_vector(&p, &user, &ExternalSignals::default());
        assert!((q.get(Criterion::Accuracy) - p.type_consistency()).abs() < 1e-12);
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
