//! Columnar tables.
//!
//! [`Table`] stores data column-major (`Vec<Vec<Value>>`), which keeps
//! per-column operations (profiling, statistics, matching on instances) cache
//! friendly and cheap, while still offering row-wise construction and
//! iteration for operators that need whole tuples (joins, entity resolution).

use std::fmt;

use crate::schema::{DataType, Field, Schema};
use crate::value::Value;
use crate::{Result, TableError};

/// A schema-typed, column-major table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<Value>>,
    rows: usize,
}

impl Table {
    /// Empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = (0..schema.len()).map(|_| Vec::new()).collect();
        Table {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Build from rows; every row must match the schema arity.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Self> {
        let mut t = Table::empty(schema);
        for row in rows {
            t.push_row(row)?;
        }
        Ok(t)
    }

    /// Build from columns; all columns must have equal length.
    pub fn from_columns(schema: Schema, columns: Vec<Vec<Value>>) -> Result<Self> {
        if columns.len() != schema.len() {
            return Err(TableError::ArityMismatch {
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, Vec::len);
        if columns.iter().any(|c| c.len() != rows) {
            return Err(TableError::Invalid("ragged columns".into()));
        }
        Ok(Table {
            schema,
            columns,
            rows,
        })
    }

    /// Convenience constructor used heavily in tests and examples: string
    /// column names, rows of values.
    pub fn literal(names: &[&str], rows: Vec<Vec<Value>>) -> Result<Self> {
        let mut t = Table::from_rows(Schema::of_strs(names), rows)?;
        t.reinfer_types();
        Ok(t)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.len(),
                actual: row.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
        Ok(())
    }

    /// Append rows `rows` of `from` (indices into it, any order), column by
    /// column. `from` must have this table's arity; on an error nothing is
    /// appended.
    pub fn append_rows(&mut self, from: &Table, rows: &[usize]) -> Result<()> {
        if from.columns.len() != self.columns.len() {
            return Err(TableError::ArityMismatch {
                expected: self.columns.len(),
                actual: from.columns.len(),
            });
        }
        if let Some(&r) = rows.iter().find(|&&r| r >= from.rows) {
            return Err(TableError::Invalid(format!(
                "row {r} out of bounds ({})",
                from.rows
            )));
        }
        for (col, src) in self.columns.iter_mut().zip(&from.columns) {
            col.extend(rows.iter().map(|&r| src[r].clone()));
        }
        self.rows += rows.len();
        Ok(())
    }

    /// Cell at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> Result<&Value> {
        self.columns
            .get(col)
            .ok_or(TableError::ColumnIndexOutOfBounds {
                index: col,
                width: self.columns.len(),
            })?
            .get(row)
            .ok_or_else(|| TableError::Invalid(format!("row {row} out of bounds ({})", self.rows)))
    }

    /// Cell by row index and column name.
    pub fn get_named(&self, row: usize, name: &str) -> Result<&Value> {
        self.get(row, self.schema.index_of(name)?)
    }

    /// Replace the cell at (`row`, `col`). Used by repair operations.
    pub fn set(&mut self, row: usize, col: usize, v: Value) -> Result<()> {
        let width = self.columns.len();
        let column = self
            .columns
            .get_mut(col)
            .ok_or(TableError::ColumnIndexOutOfBounds { index: col, width })?;
        let cell = column
            .get_mut(row)
            .ok_or_else(|| TableError::Invalid(format!("row {row} out of bounds")))?;
        *cell = v;
        Ok(())
    }

    /// Immutable view of column `i`.
    pub fn column(&self, i: usize) -> Result<&[Value]> {
        self.columns
            .get(i)
            .map(Vec::as_slice)
            .ok_or(TableError::ColumnIndexOutOfBounds {
                index: i,
                width: self.columns.len(),
            })
    }

    /// Immutable view of the column named `name`.
    pub fn column_named(&self, name: &str) -> Result<&[Value]> {
        self.column(self.schema.index_of(name)?)
    }

    /// Iterate all columns in schema order.
    pub fn columns(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.columns.iter().map(Vec::as_slice)
    }

    /// Materialize row `i` as an owned vector.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[i].clone()).collect()
    }

    /// Iterate rows as freshly materialized vectors.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Recompute each field's `dtype` from the data (lub over cell types) and
    /// `nullable` from the presence of nulls. Call after bulk edits.
    pub fn reinfer_types(&mut self) {
        let mut fields: Vec<Field> = self.schema.fields().to_vec();
        for (f, col) in fields.iter_mut().zip(&self.columns) {
            let mut dt = DataType::Null;
            let mut nullable = false;
            for v in col {
                if v.is_null() {
                    nullable = true;
                } else {
                    dt = dt.unify(v.dtype());
                }
            }
            f.dtype = dt;
            f.nullable = nullable;
        }
        self.schema = Schema::new(fields).expect("names unchanged"); // lint-allow: renaming one field cannot break uniqueness the caller checked
    }

    /// New table keeping only rows whose index passes `keep`.
    pub fn retain_rows(&self, keep: impl Fn(usize) -> bool) -> Table {
        let columns: Vec<Vec<Value>> = self
            .columns
            .iter()
            .map(|c| {
                c.iter()
                    .enumerate()
                    .filter(|(i, _)| keep(*i))
                    .map(|(_, v)| v.clone())
                    .collect()
            })
            .collect();
        let rows = columns.first().map_or(0, Vec::len);
        Table {
            schema: self.schema.clone(),
            columns,
            rows,
        }
    }

    /// New table with rows reordered (or duplicated/dropped) per `order`,
    /// whose entries are row indices into `self`.
    pub fn take(&self, order: &[usize]) -> Result<Table> {
        for &i in order {
            if i >= self.rows {
                return Err(TableError::Invalid(format!("take index {i} out of bounds")));
            }
        }
        let columns: Vec<Vec<Value>> = self
            .columns
            .iter()
            .map(|c| order.iter().map(|&i| c[i].clone()).collect())
            .collect();
        Ok(Table {
            schema: self.schema.clone(),
            columns,
            rows: order.len(),
        })
    }

    /// Pretty-print at most `limit` rows as an aligned text table.
    pub fn show(&self, limit: usize) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let n = self.rows.min(limit);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(n);
        for r in 0..n {
            let row: Vec<String> = (0..self.num_columns())
                .map(|c| self.columns[c][r].to_string())
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let header: Vec<String> = names
            .iter()
            .zip(&widths)
            .map(|(n, w)| format!("{n:<w$}"))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in cells {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        if self.rows > limit {
            out.push_str(&format!("... {} more rows\n", self.rows - limit));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.show(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::literal(
            &["name", "price"],
            vec![
                vec!["widget".into(), Value::Float(9.99)],
                vec!["gadget".into(), Value::Float(19.5)],
                vec!["doohickey".into(), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(
            t.get_named(1, "name").unwrap(),
            &Value::Str("gadget".into())
        );
        assert_eq!(t.get(2, 1).unwrap(), &Value::Null);
        assert!(t.get(3, 0).is_err());
        assert!(t.get(0, 9).is_err());
    }

    #[test]
    fn arity_enforced() {
        let mut t = Table::empty(Schema::of_strs(&["a", "b"]));
        assert!(t.push_row(vec![Value::Int(1)]).is_err());
        assert!(t.push_row(vec![Value::Int(1), Value::Int(2)]).is_ok());
    }

    #[test]
    fn from_columns_rejects_ragged() {
        let s = Schema::of_strs(&["a", "b"]);
        let err = Table::from_columns(s, vec![vec![Value::Int(1)], vec![]]).unwrap_err();
        assert!(matches!(err, TableError::Invalid(_)));
    }

    #[test]
    fn reinfer_types_detects_float_and_null() {
        let t = sample();
        let f = t.schema().field(1).unwrap();
        assert_eq!(f.dtype, DataType::Float);
        assert!(f.nullable);
        let f0 = t.schema().field(0).unwrap();
        assert_eq!(f0.dtype, DataType::Str);
        assert!(!f0.nullable);
    }

    #[test]
    fn retain_and_take() {
        let t = sample();
        let kept = t.retain_rows(|i| i != 1);
        assert_eq!(kept.num_rows(), 2);
        assert_eq!(
            kept.get_named(1, "name").unwrap().as_str(),
            Some("doohickey")
        );
        let taken = t.take(&[2, 2, 0]).unwrap();
        assert_eq!(taken.num_rows(), 3);
        assert_eq!(taken.get_named(2, "name").unwrap().as_str(), Some("widget"));
        assert!(t.take(&[5]).is_err());
    }

    #[test]
    fn append_rows_keeps_columns_aligned_and_is_all_or_nothing() {
        let from = sample();
        let mut t = Table::empty(from.schema().clone());
        t.append_rows(&from, &[2, 0]).unwrap();
        t.append_rows(&from, &[]).unwrap();
        assert_eq!(t, from.take(&[2, 0]).unwrap());
        assert!(t.append_rows(&from, &[0, 3]).is_err());
        let narrow = Table::empty(Schema::of_strs(&["name"]));
        assert!(t.append_rows(&narrow, &[]).is_err());
        assert_eq!(t, from.take(&[2, 0]).unwrap(), "failed appends add nothing");
    }

    #[test]
    fn set_replaces_cell() {
        let mut t = sample();
        t.set(2, 1, Value::Float(5.0)).unwrap();
        assert_eq!(t.get(2, 1).unwrap(), &Value::Float(5.0));
    }

    #[test]
    fn show_renders_header_and_rows() {
        let s = sample().show(2);
        assert!(s.contains("name"));
        assert!(s.contains("widget"));
        assert!(s.contains("1 more rows"));
    }
}
