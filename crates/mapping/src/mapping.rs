//! The mapping artifact and its executor.

use wrangler_table::{Field, Schema, Table, Value};
use wrangler_uncertainty::Belief;

/// A mapping from one source table into the target schema.
///
/// Per target field it records which source column feeds it (if any); the
/// executor projects, renames, casts/normalizes and tags provenance. The
/// mapping carries a belief in its own correctness, updated by match evidence
/// at generation time and by feedback afterwards.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// The target schema this mapping produces.
    pub target: Schema,
    /// For each target field: the source column index feeding it.
    pub bindings: Vec<Option<usize>>,
    /// Per-binding belief that the correspondence is correct (aligned with
    /// `bindings`; `Belief::uninformed()` for unbound fields).
    pub binding_beliefs: Vec<Belief>,
    /// Belief in the mapping as a whole (pooled bindings + feedback).
    pub belief: Belief,
}

// Target schema, bindings, per-binding beliefs, then the mapping's belief.
wrangler_table::wire_struct!(Mapping {
    target: Schema,
    bindings: Vec<Option<usize>>,
    binding_beliefs: Vec<Belief>,
    belief: Belief,
});

impl Mapping {
    /// Fraction of target fields that are bound.
    pub fn coverage(&self) -> f64 {
        if self.bindings.is_empty() {
            return 0.0;
        }
        self.bindings.iter().filter(|b| b.is_some()).count() as f64 / self.bindings.len() as f64
    }

    /// Execute the mapping: reshape `source` into the target schema. Unbound
    /// fields become all-null columns; bound values are normalized to the
    /// target field dtype (see [`crate::normalize`]).
    pub fn apply(&self, source: &Table) -> wrangler_table::Result<Table> {
        let mut columns: Vec<Vec<Value>> = Vec::with_capacity(self.target.len());
        for (field, binding) in self.target.fields().iter().zip(&self.bindings) {
            let col = match binding {
                Some(src) => source
                    .column(*src)?
                    .iter()
                    .map(|v| crate::normalize::normalize_to(v, field.dtype))
                    .collect(),
                None => vec![Value::Null; source.num_rows()],
            };
            columns.push(col);
        }
        let mut t = Table::from_columns(self.target.clone(), columns)?;
        t.reinfer_types();
        Ok(t)
    }
}

/// Build the canonical target schema from field names + dtypes.
pub fn target_schema(fields: &[(&str, wrangler_table::DataType)]) -> Schema {
    Schema::new(fields.iter().map(|(n, d)| Field::new(*n, *d)).collect())
        .expect("caller supplies unique names") // lint-allow: documented contract of this helper
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::DataType;

    fn target() -> Schema {
        target_schema(&[
            ("sku", DataType::Str),
            ("price", DataType::Float),
            ("brand", DataType::Str),
        ])
    }

    fn source() -> Table {
        Table::literal(
            &["code", "cost"],
            vec![
                vec!["a1".into(), "$9.99".into()],
                vec!["a2".into(), Value::Float(19.5)],
                vec!["a3".into(), "call us".into()],
            ],
        )
        .unwrap()
    }

    fn mapping() -> Mapping {
        Mapping {
            target: target(),
            bindings: vec![Some(0), Some(1), None],
            binding_beliefs: vec![
                Belief::from_prior(0.9),
                Belief::from_prior(0.8),
                Belief::uninformed(),
            ],
            belief: Belief::from_prior(0.85),
        }
    }

    #[test]
    fn apply_reshapes_and_normalizes() {
        let out = mapping().apply(&source()).unwrap();
        assert_eq!(out.schema().names(), vec!["sku", "price", "brand"]);
        assert_eq!(out.get_named(0, "price").unwrap(), &Value::Float(9.99));
        assert_eq!(out.get_named(1, "price").unwrap(), &Value::Float(19.5));
        // Unrecoverable value preserved as evidence.
        assert_eq!(out.get_named(2, "price").unwrap().as_str(), Some("call us"));
        assert!(out.get_named(0, "brand").unwrap().is_null());
    }

    #[test]
    fn coverage_counts_bound_fields() {
        let m = mapping();
        assert!((m.coverage() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_source_maps_to_empty_target() {
        let empty = Table::empty(Schema::of_strs(&["code", "cost"]));
        let out = mapping().apply(&empty).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.schema().names(), vec!["sku", "price", "brand"]);
    }
}
