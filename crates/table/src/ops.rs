//! Relational operators over [`Table`].
//!
//! These are the building blocks the mapping executor and the integration
//! pipeline compose: selection, projection (with computed columns), renaming,
//! sorting, distinct, union, equi-join (hash join), and group-by with
//! aggregates. All operators are pure: they return new tables.

use std::collections::HashMap; // hash-ok: maps below are probes/dedup sets; output order always follows row order

use crate::expr::{BoundExpr, Expr};
use crate::schema::{DataType, Field, Schema};
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// Aggregate functions for [`group_by`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Count of non-null values in the column (use with any column for row counts
    /// via a non-nullable key, or see `CountAll`).
    Count,
    /// Count of all rows in the group.
    CountAll,
    Sum,
    Min,
    Max,
    Mean,
    /// First value encountered in table order.
    First,
}

impl Agg {
    fn name(self) -> &'static str {
        match self {
            Agg::Count => "count",
            Agg::CountAll => "count_all",
            Agg::Sum => "sum",
            Agg::Min => "min",
            Agg::Max => "max",
            Agg::Mean => "mean",
            Agg::First => "first",
        }
    }
}

/// `SELECT * WHERE predicate`.
pub fn filter(table: &Table, predicate: &Expr) -> Result<Table> {
    let bound = predicate.bind(table.schema())?;
    let mut keep = Vec::with_capacity(table.num_rows());
    for i in 0..table.num_rows() {
        let row = table.row(i);
        keep.push(bound.eval_predicate(&row)?);
    }
    Ok(table.retain_rows(|i| keep[i]))
}

/// Project to the named columns, in order.
pub fn project(table: &Table, names: &[&str]) -> Result<Table> {
    let indices: Vec<usize> = names
        .iter()
        .map(|n| table.schema().index_of(n))
        .collect::<Result<_>>()?;
    let schema = table.schema().project(&indices)?;
    let columns: Vec<Vec<Value>> = indices
        .iter()
        .map(|&i| table.column(i).map(<[Value]>::to_vec))
        .collect::<Result<_>>()?;
    Table::from_columns(schema, columns)
}

/// Project to computed columns: each output column is `(name, expression)`.
pub fn project_exprs(table: &Table, cols: &[(String, Expr)]) -> Result<Table> {
    let bound: Vec<(String, BoundExpr)> = cols
        .iter()
        .map(|(n, e)| Ok((n.clone(), e.bind(table.schema())?)))
        .collect::<Result<_>>()?;
    let mut columns: Vec<Vec<Value>> = vec![Vec::with_capacity(table.num_rows()); cols.len()];
    for i in 0..table.num_rows() {
        let row = table.row(i);
        for (c, (_, e)) in bound.iter().enumerate() {
            columns[c].push(e.eval(&row)?);
        }
    }
    let fields = bound
        .iter()
        .map(|(n, _)| Field::new(n.clone(), DataType::Null))
        .collect();
    let mut t = Table::from_columns(Schema::new(fields)?, columns)?;
    t.reinfer_types();
    Ok(t)
}

/// Rename a column.
pub fn rename(table: &Table, old: &str, new: &str) -> Result<Table> {
    let schema = table.schema().rename(old, new)?;
    let columns: Vec<Vec<Value>> = (0..table.num_columns())
        .map(|i| table.column(i).map(<[Value]>::to_vec))
        .collect::<Result<_>>()?;
    Table::from_columns(schema, columns)
}

/// Stable sort by the named columns ascending (nulls first, per the value
/// total order).
pub fn sort_by(table: &Table, names: &[&str]) -> Result<Table> {
    let idx: Vec<usize> = names
        .iter()
        .map(|n| table.schema().index_of(n))
        .collect::<Result<_>>()?;
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by(|&a, &b| {
        for &c in &idx {
            let col = table.column(c).expect("validated"); // lint-allow: columns validated at function entry
            let ord = col[a].cmp(&col[b]);
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    table.take(&order)
}

/// Remove duplicate rows, keeping first occurrence (order preserved).
pub fn distinct(table: &Table) -> Table {
    // hash-ok: membership test; kept rows follow input row order
    let mut seen: HashMap<Vec<Value>, ()> = HashMap::with_capacity(table.num_rows());
    let mut keep = Vec::with_capacity(table.num_rows());
    for i in 0..table.num_rows() {
        keep.push(seen.insert(table.row(i), ()).is_none());
    }
    table.retain_rows(|i| keep[i])
}

/// Union of two union-compatible tables (bag semantics; apply [`distinct`]
/// afterwards for set semantics).
pub fn union(a: &Table, b: &Table) -> Result<Table> {
    let schema = a.schema().union_compatible(b.schema())?;
    let mut out = Table::empty(schema);
    for r in a.iter_rows().chain(b.iter_rows()) {
        out.push_row(r)?;
    }
    Ok(out)
}

/// Hash equi-join on `left.on_left == right.on_right`. Output schema is the
/// left columns followed by the right columns; name clashes on the right are
/// disambiguated with a `_r` suffix (repeated until unique). Null keys never join.
pub fn join(left: &Table, right: &Table, on_left: &str, on_right: &str) -> Result<Table> {
    let li = left.schema().index_of(on_left)?;
    let ri = right.schema().index_of(on_right)?;
    // Build phase on the smaller side would be the classic optimization; for
    // clarity we always build on the right.
    let rcol = right.column(ri)?;
    // hash-ok: join probe index; output order follows left row order
    let mut index: HashMap<&Value, Vec<usize>> = HashMap::with_capacity(right.num_rows());
    for (i, v) in rcol.iter().enumerate() {
        if !v.is_null() {
            index.entry(v).or_default().push(i);
        }
    }
    let mut fields: Vec<Field> = left.schema().fields().to_vec();
    // hash-ok: collision membership test only
    let mut names: std::collections::HashSet<String> =
        fields.iter().map(|f| f.name.clone()).collect();
    for f in right.schema().fields() {
        let mut name = f.name.clone();
        while names.contains(&name) {
            name.push_str("_r");
        }
        names.insert(name.clone());
        fields.push(Field {
            name,
            dtype: f.dtype,
            nullable: f.nullable,
        });
    }
    let mut out = Table::empty(Schema::new(fields)?);
    let lcol = left.column(li)?;
    for (i, key) in lcol.iter().enumerate() {
        if key.is_null() {
            continue;
        }
        if let Some(matches) = index.get(key) {
            for &j in matches {
                let mut row = left.row(i);
                row.extend(right.row(j));
                out.push_row(row)?;
            }
        }
    }
    Ok(out)
}

/// Group by the named key columns and compute the given aggregates.
///
/// Output schema: key columns, then one column per aggregate named
/// `"{agg}_{column}"`. Groups appear in order of first occurrence.
pub fn group_by(table: &Table, keys: &[&str], aggs: &[(Agg, &str)]) -> Result<Table> {
    let key_idx: Vec<usize> = keys
        .iter()
        .map(|n| table.schema().index_of(n))
        .collect::<Result<_>>()?;
    let agg_idx: Vec<(Agg, usize)> = aggs
        .iter()
        .map(|(a, n)| Ok((*a, table.schema().index_of(n)?)))
        .collect::<Result<_>>()?;

    // hash-ok: key -> output slot; slots allocated in first-encounter row order
    let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();

    for i in 0..table.num_rows() {
        let key: Vec<Value> = key_idx
            .iter()
            .map(|&c| table.get(i, c).unwrap().clone()) // lint-allow: key columns validated at function entry
            .collect();
        let gi = *groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            states.push(agg_idx.iter().map(|(a, _)| AggState::new(*a)).collect());
            order.len() - 1
        });
        for (s, (_, c)) in states[gi].iter_mut().zip(&agg_idx) {
            s.update(table.get(i, *c).unwrap()); // lint-allow: agg columns validated at function entry
        }
    }

    let mut fields: Vec<Field> = key_idx
        .iter()
        .map(|&i| table.schema().field(i).unwrap().clone()) // lint-allow: key columns validated at function entry
        .collect();
    for (a, c) in &agg_idx {
        let base = &table.schema().field(*c).unwrap().name; // lint-allow: agg columns validated at function entry
        let mut name = format!("{}_{}", a.name(), base);
        while fields.iter().any(|f| f.name == name) {
            name.push('_');
        }
        fields.push(Field::new(name, DataType::Null));
    }
    let mut out = Table::empty(Schema::new(fields)?);
    for (key, st) in order.into_iter().zip(states) {
        let mut row = key;
        row.extend(st.into_iter().map(AggState::finish));
        out.push_row(row)?;
    }
    out.reinfer_types();
    Ok(out)
}

/// Incrementally maintained aggregate state.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    CountAll(i64),
    Sum(f64, bool),
    Min(Option<Value>),
    Max(Option<Value>),
    Mean(f64, i64),
    First(Option<Value>),
}

impl AggState {
    fn new(a: Agg) -> Self {
        match a {
            Agg::Count => AggState::Count(0),
            Agg::CountAll => AggState::CountAll(0),
            Agg::Sum => AggState::Sum(0.0, false),
            Agg::Min => AggState::Min(None),
            Agg::Max => AggState::Max(None),
            Agg::Mean => AggState::Mean(0.0, 0),
            Agg::First => AggState::First(None),
        }
    }

    fn update(&mut self, v: &Value) {
        match self {
            AggState::Count(n) => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            AggState::CountAll(n) => *n += 1,
            AggState::Sum(total, seen) => {
                if let Some(x) = v.as_f64() {
                    *total += x;
                    *seen = true;
                }
            }
            AggState::Min(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v < c) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v > c) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Mean(total, n) => {
                if let Some(x) = v.as_f64() {
                    *total += x;
                    *n += 1;
                }
            }
            AggState::First(cur) => {
                if cur.is_none() && !v.is_null() {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) | AggState::CountAll(n) => Value::Int(n),
            AggState::Sum(total, seen) => {
                if seen {
                    Value::Float(total)
                } else {
                    Value::Null
                }
            }
            AggState::Min(v) | AggState::Max(v) | AggState::First(v) => v.unwrap_or(Value::Null),
            AggState::Mean(total, n) => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(total / n as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn products() -> Table {
        Table::literal(
            &["sku", "vendor", "price"],
            vec![
                vec!["a1".into(), "acme".into(), Value::Float(10.0)],
                vec!["a2".into(), "acme".into(), Value::Float(20.0)],
                vec!["b1".into(), "bolt".into(), Value::Float(15.0)],
                vec!["b2".into(), "bolt".into(), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn filter_with_null_predicate_drops_row() {
        let t = filter(&products(), &Expr::col("price").gt(Expr::lit(12.0))).unwrap();
        // b2 has null price -> predicate Null -> dropped.
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn project_and_rename() {
        let t = project(&products(), &["price", "sku"]).unwrap();
        assert_eq!(t.schema().names(), vec!["price", "sku"]);
        let t = rename(&t, "sku", "id").unwrap();
        assert_eq!(t.schema().names(), vec!["price", "id"]);
        assert!(project(&products(), &["nope"]).is_err());
    }

    #[test]
    fn project_exprs_computes_and_infers() {
        let t = project_exprs(
            &products(),
            &[
                ("sku".into(), Expr::col("sku")),
                (
                    "price_cents".into(),
                    Expr::col("price").mul(Expr::lit(100.0)),
                ),
            ],
        )
        .unwrap();
        assert_eq!(
            t.get_named(0, "price_cents").unwrap(),
            &Value::Float(1000.0)
        );
        assert_eq!(t.schema().field(1).unwrap().dtype, DataType::Float);
        assert!(t.schema().field(1).unwrap().nullable); // b2 null propagates
    }

    #[test]
    fn sort_stable_nulls_first() {
        let t = sort_by(&products(), &["price"]).unwrap();
        assert!(t.get_named(0, "price").unwrap().is_null());
        assert_eq!(t.get_named(1, "price").unwrap(), &Value::Float(10.0));
        // Multi-key sort: vendor then price.
        let t2 = sort_by(&products(), &["vendor", "price"]).unwrap();
        assert_eq!(t2.get_named(0, "sku").unwrap().as_str(), Some("a1"));
    }

    #[test]
    fn distinct_keeps_first() {
        let t = Table::literal(
            &["x"],
            vec![
                vec![1.into()],
                vec![2.into()],
                vec![1.into()],
                vec![Value::Float(2.0)],
            ],
        )
        .unwrap();
        let d = distinct(&t);
        // Float(2.0) == Int(2) under value equality, so 2 distinct rows.
        assert_eq!(d.num_rows(), 2);
    }

    #[test]
    fn union_widens_types() {
        let a = Table::literal(&["p"], vec![vec![1.into()]]).unwrap();
        let b = Table::literal(&["p"], vec![vec![Value::Float(2.5)]]).unwrap();
        let u = union(&a, &b).unwrap();
        assert_eq!(u.num_rows(), 2);
        assert_eq!(u.schema().field(0).unwrap().dtype, DataType::Float);
        let c = Table::literal(&["q"], vec![vec![1.into()]]).unwrap();
        assert!(union(&a, &c).is_err());
    }

    #[test]
    fn hash_join_basics() {
        let catalog = Table::literal(
            &["sku", "name"],
            vec![
                vec!["a1".into(), "Widget".into()],
                vec!["zz".into(), "Ghost".into()],
            ],
        )
        .unwrap();
        let j = join(&products(), &catalog, "sku", "sku").unwrap();
        assert_eq!(j.num_rows(), 1);
        assert_eq!(
            j.schema().names(),
            vec!["sku", "vendor", "price", "sku_r", "name"]
        );
        assert_eq!(j.get_named(0, "name").unwrap().as_str(), Some("Widget"));
    }

    #[test]
    fn join_skips_null_keys() {
        let l = Table::literal(&["k"], vec![vec![Value::Null], vec![1.into()]]).unwrap();
        let r = Table::literal(&["k"], vec![vec![Value::Null], vec![1.into()]]).unwrap();
        let j = join(&l, &r, "k", "k").unwrap();
        assert_eq!(j.num_rows(), 1);
    }

    #[test]
    fn group_by_aggregates() {
        let g = group_by(
            &products(),
            &["vendor"],
            &[
                (Agg::CountAll, "price"),
                (Agg::Count, "price"),
                (Agg::Mean, "price"),
                (Agg::Min, "sku"),
            ],
        )
        .unwrap();
        assert_eq!(g.num_rows(), 2);
        // acme first (first occurrence order)
        assert_eq!(g.get_named(0, "vendor").unwrap().as_str(), Some("acme"));
        assert_eq!(g.get_named(0, "count_all_price").unwrap(), &Value::Int(2));
        assert_eq!(g.get_named(1, "count_price").unwrap(), &Value::Int(1)); // null excluded
        assert_eq!(g.get_named(0, "mean_price").unwrap(), &Value::Float(15.0));
        assert_eq!(g.get_named(1, "mean_price").unwrap(), &Value::Float(15.0));
        assert_eq!(g.get_named(0, "min_sku").unwrap().as_str(), Some("a1"));
    }

    #[test]
    fn group_by_empty_table() {
        let g = group_by(
            &Table::empty(Schema::of_strs(&["a"])),
            &["a"],
            &[(Agg::CountAll, "a")],
        )
        .unwrap();
        assert_eq!(g.num_rows(), 0);
    }
}
