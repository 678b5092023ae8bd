//! How the union is held: one columnar table plus its source runs.
//!
//! Every surviving source contributes one contiguous block of rows, so a
//! row's provenance is not stored per row: [`Union`] keeps the [`Table`] the
//! ER kernel reads and one `(source, rows)` run per block. The pass and the
//! session cache carry it; the union seam stores only the kept rows.

use wrangler_table::{Result, Schema, Table};

/// The union of a pass: rows aligned to the target schema, in block order.
#[derive(Debug, Clone)]
pub struct Union {
    table: Table,
    /// `(source index, rows)` per block; the counts sum to the table's rows.
    runs: Vec<(usize, usize)>,
}

impl Union {
    /// The union of no blocks.
    pub fn empty(schema: Schema) -> Union {
        Union {
            table: Table::empty(schema),
            runs: Vec::new(),
        }
    }

    /// Append `source`'s block: rows `kept` of the table `from`.
    pub fn append(&mut self, source: usize, from: &Table, kept: &[usize]) -> Result<()> {
        self.table.append_rows(from, kept)?;
        self.runs.push((source, kept.len()));
        Ok(())
    }

    /// The rows, as the table the ER kernel reads.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The blocks, `(source index, rows)` in union order.
    pub fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// The source index of every row, in row order.
    pub fn sources(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs
            .iter()
            .flat_map(|&(source, n)| std::iter::repeat_n(source, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::Value;

    fn mapped(names: &[&str]) -> Table {
        let rows = names
            .iter()
            .enumerate()
            .map(|(i, n)| vec![Value::Str((*n).into()), Value::Int(i as i64)])
            .collect();
        Table::from_rows(Schema::of_strs(&["name", "n"]), rows).unwrap()
    }

    fn three_blocks() -> Union {
        let mut u = Union::empty(Schema::of_strs(&["name", "n"]));
        u.append(4, &mapped(&["a", "b", "c"]), &[0, 2]).unwrap();
        u.append(1, &mapped(&["d"]), &[]).unwrap();
        u.append(7, &mapped(&["e", "f"]), &[0, 1]).unwrap();
        u
    }

    #[test]
    fn runs_and_per_row_sources_round_trip() {
        let u = three_blocks();
        assert_eq!(u.runs(), &[(4, 2), (1, 0), (7, 2)]);
        let sources: Vec<usize> = u.sources().collect();
        assert_eq!(sources, vec![4, 4, 7, 7]);
        assert_eq!(sources.len(), u.table().num_rows());
        // Per-row sources fold back into the non-empty runs.
        let mut folded: Vec<(usize, usize)> = Vec::new();
        for s in sources {
            match folded.last_mut() {
                Some((last, n)) if *last == s => *n += 1,
                _ => folded.push((s, 1)),
            }
        }
        assert_eq!(folded, vec![(4, 2), (7, 2)]);
    }

    #[test]
    fn appending_a_kept_subset_keeps_every_column_aligned() {
        let u = three_blocks();
        let rows: Vec<Vec<Value>> = u.table().iter_rows().collect();
        let row = |name: &str, n: i64| vec![Value::Str(name.into()), Value::Int(n)];
        assert_eq!(rows, vec![row("a", 0), row("c", 2), row("e", 0), row("f", 1)]);
    }

    #[test]
    fn an_empty_block_is_a_run_of_no_rows() {
        let mut u = Union::empty(Schema::of_strs(&["name", "n"]));
        u.append(3, &mapped(&["a"]), &[]).unwrap();
        assert_eq!((u.table().num_rows(), u.runs()), (0, &[(3, 0)][..]));
        assert_eq!(u.sources().count(), 0);
    }

    #[test]
    fn a_failed_append_adds_neither_rows_nor_a_run() {
        let mut u = three_blocks();
        assert!(u.append(9, &mapped(&["x"]), &[1]).is_err());
        let narrow = Table::empty(Schema::of_strs(&["name"]));
        assert!(u.append(9, &narrow, &[]).is_err());
        assert_eq!((u.table().num_rows(), u.runs().len()), (4, 3));
    }
}
