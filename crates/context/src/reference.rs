//! The data context: ontology + master data.
//!
//! Example 4: "the e-Commerce company has a product catalog that can be
//! considered as master data by the wrangling process; the company is
//! interested in price comparison only for the products it sells."

use std::collections::{HashMap, HashSet};

use wrangler_table::{Table, Value};

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
    /// Key values, pre-indexed for O(1) membership tests.
    keys: HashSet<Value>,
    /// Key → row of its *first* occurrence in the key column, matching the
    /// linear-scan semantics `lookup` always had (duplicate keys resolve to
    /// the earliest row).
    row_of_key: HashMap<Value, usize>, // hash-ok: lookup-only, never iterated
}

impl MasterData {
    /// Index a master table by its key column.
    pub fn new(table: Table, key_column: &str) -> wrangler_table::Result<Self> {
        let kcol = table.column_named(key_column)?;
        let keys: HashSet<Value> = kcol.iter().filter(|v| !v.is_null()).cloned().collect();
        let mut row_of_key: HashMap<Value, usize> = HashMap::with_capacity(keys.len()); // hash-ok: lookup-only
        for (idx, v) in kcol.iter().enumerate() {
            row_of_key.entry(v.clone()).or_insert(idx);
        }
        Ok(MasterData {
            table,
            key_column: key_column.to_string(),
            keys,
            row_of_key,
        })
    }

    /// True if the key value occurs in the master data.
    pub fn contains_key(&self, v: &Value) -> bool {
        self.keys.contains(v)
    }

    /// Number of master entities.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the master table has no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Look up the master value of `column` for the entity with the given
    /// key. O(1) through the first-occurrence index (it used to rescan the
    /// key column on every call, which dominated anchor building on large
    /// catalogs).
    pub fn lookup(&self, key: &Value, column: &str) -> Option<Value> {
        let idx = *self.row_of_key.get(key)?;
        self.table.get_named(idx, column).ok().cloned()
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
    fn master_membership_and_lookup() {
        let m = MasterData::new(catalog(), "sku").unwrap();
        assert_eq!(m.len(), 3);
        assert!(m.contains_key(&"a1".into()));
        assert!(!m.contains_key(&"zz".into()));
        assert_eq!(m.lookup(&"a2".into(), "name"), Some("Gadget".into()));
        assert_eq!(m.lookup(&"zz".into(), "name"), None);
    }

    #[test]
    fn lookup_resolves_duplicate_keys_to_first_row() {
        let t = Table::literal(
            &["sku", "name"],
            vec![
                vec!["a1".into(), "First".into()],
                vec!["a1".into(), "Second".into()],
            ],
        )
        .unwrap();
        let m = MasterData::new(t, "sku").unwrap();
        assert_eq!(m.lookup(&"a1".into(), "name"), Some("First".into()));
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
