//! The data context: ontology + master data.
//!
//! Example 4: "the e-Commerce company has a product catalog that can be
//! considered as master data by the wrangling process; the company is
//! interested in price comparison only for the products it sells."

use std::collections::HashMap;

use wrangler_table::{wire, Table, Value};

use crate::ontology::Ontology;

/// Auxiliary information that informs the wrangling process (§2.3).
#[derive(Debug, Clone, Default)]
pub struct DataContext {
    /// Domain ontology for semantic matching and relevance.
    pub ontology: Ontology,
    /// Master data tables, keyed by entity kind (e.g. "product").
    master: HashMap<String, MasterData>,
}

/// A master-data table with a designated key column.
#[derive(Debug, Clone)]
pub struct MasterData {
    /// The authoritative table.
    pub table: Table,
    /// Name of the key column.
    pub key_column: String,
    /// Each non-null key → the row of its *first* occurrence in the key
    /// column (duplicate keys resolve to the earliest row).
    row_of_key: HashMap<Value, usize>, // hash-ok: lookup-only, never iterated
    /// Content hash of the table and the key column's name.
    fingerprint: u64,
}

impl MasterData {
    /// Index a master table by its key column.
    pub fn new(table: Table, key_column: &str) -> wrangler_table::Result<Self> {
        let kcol = table.column_named(key_column)?;
        let mut row_of_key: HashMap<Value, usize> = HashMap::with_capacity(kcol.len()); // hash-ok: lookup-only
        for (idx, v) in kcol.iter().enumerate() {
            if !v.is_null() {
                row_of_key.entry(v.clone()).or_insert(idx);
            }
        }
        let fingerprint = wire::hash64(&wire::to_bytes(&(
            key_column.to_string(),
            wire::table_hash(&table),
        )));
        Ok(MasterData {
            table,
            key_column: key_column.to_string(),
            row_of_key,
            fingerprint,
        })
    }

    /// Equal master data (table and key column) ⇔ equal fingerprint: what
    /// a cache of a function of the master data is keyed by.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True if the key value occurs in the master data.
    pub fn contains_key(&self, v: &Value) -> bool {
        self.row_of(v).is_some()
    }

    /// The row of the first occurrence of a (non-null) key, if it occurs.
    pub fn row_of(&self, key: &Value) -> Option<usize> {
        self.row_of_key.get(key).copied()
    }

    /// Number of master entities (distinct non-null keys).
    pub fn len(&self) -> usize {
        self.row_of_key.len()
    }

    /// True if the master table has no keys.
    pub fn is_empty(&self) -> bool {
        self.row_of_key.is_empty()
    }
}

impl DataContext {
    /// Empty context.
    pub fn new() -> Self {
        DataContext::default()
    }

    /// Context with the given ontology.
    pub fn with_ontology(ontology: Ontology) -> Self {
        DataContext {
            ontology,
            ..DataContext::default()
        }
    }

    /// Register a master-data table under an entity kind.
    pub fn add_master(
        &mut self,
        kind: &str,
        table: Table,
        key_column: &str,
    ) -> wrangler_table::Result<()> {
        self.master
            .insert(kind.to_string(), MasterData::new(table, key_column)?);
        Ok(())
    }

    /// Master data for an entity kind.
    pub fn master(&self, kind: &str) -> Option<&MasterData> {
        self.master.get(kind)
    }

    /// Fraction of (non-null) candidate keys known to the master data of
    /// `kind`; `None` if no master data for that kind. This is Example 4's
    /// relevance signal: sources overlapping our catalog matter.
    pub fn master_coverage(&self, kind: &str, keys: &[Value]) -> Option<f64> {
        let m = self.master.get(kind)?;
        let non_null: Vec<&Value> = keys.iter().filter(|v| !v.is_null()).collect();
        if non_null.is_empty() {
            return Some(0.0);
        }
        let hits = non_null.iter().filter(|v| m.contains_key(v)).count();
        Some(hits as f64 / non_null.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Table {
        Table::literal(
            &["sku", "name"],
            vec![
                vec!["a1".into(), "Widget".into()],
                vec!["a2".into(), "Gadget".into()],
                vec!["a3".into(), "Sprocket".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn master_membership_and_rows() {
        let m = MasterData::new(catalog(), "sku").unwrap();
        assert_eq!(m.len(), 3);
        assert!(m.contains_key(&"a1".into()));
        assert!(!m.contains_key(&"zz".into()));
        assert_eq!(m.row_of(&"a2".into()), Some(1));
        assert_eq!(m.row_of(&"zz".into()), None);
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first_row_and_null_keys_to_none() {
        let t = Table::literal(
            &["sku", "name"],
            vec![
                vec![Value::Null, "Nameless".into()],
                vec!["a1".into(), "First".into()],
                vec!["a1".into(), "Second".into()],
            ],
        )
        .unwrap();
        let m = MasterData::new(t, "sku").unwrap();
        assert_eq!(m.row_of(&"a1".into()), Some(1));
        assert_eq!(m.row_of(&Value::Null), None);
        assert!(!m.contains_key(&Value::Null));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn master_coverage_signal() {
        let mut ctx = DataContext::new();
        ctx.add_master("product", catalog(), "sku").unwrap();
        let keys: Vec<Value> = vec!["a1".into(), "a2".into(), "xx".into(), Value::Null];
        let cov = ctx.master_coverage("product", &keys).unwrap();
        assert!((cov - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ctx.master_coverage("nothing", &keys), None);
        assert_eq!(ctx.master_coverage("product", &[Value::Null]), Some(0.0));
    }

    #[test]
    fn bad_key_column_is_error() {
        assert!(MasterData::new(catalog(), "nope").is_err());
    }
}
