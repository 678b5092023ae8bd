//! The manually specified ETL baseline with effort accounting.
//!
//! §1: manual wrangling means "data scientists spend from 50 percent to 80
//! percent of their time collecting and preparing unruly digital data". The
//! baseline models that regime: an expert writes a per-source specification
//! (the exact column renames) at a fixed effort cost; the workflow is then
//! hard-wired. It integrates correctly — *for the sources and schemas it was
//! written against*. When a source's schema drifts, its spec silently stops
//! matching and the source's data vanishes from the result until the expert
//! pays to re-specify. No context, no selection, no uncertainty: exactly the
//! ETL regime §4.2 contrasts with.

use std::collections::HashMap;

use wrangler_table::{ops, Schema, Table, Value};

/// One hand-written source specification: source column name → target column
/// name.
#[derive(Debug, Clone, Default)]
pub struct SourceSpec {
    renames: HashMap<String, String>,
}

impl SourceSpec {
    /// Write a spec (this is what costs expert effort).
    pub fn new(renames: &[(&str, &str)]) -> SourceSpec {
        SourceSpec {
            renames: renames
                .iter()
                .map(|(s, t)| (s.to_string(), t.to_string()))
                .collect(),
        }
    }
}

/// The manual ETL pipeline.
#[derive(Debug, Clone)]
pub struct ManualEtl {
    /// Target schema.
    pub target: Schema,
    /// Per-source specs, by source index.
    specs: HashMap<usize, SourceSpec>,
    /// Effort units charged per spec written or rewritten.
    pub effort_per_spec: f64,
    /// Total effort spent.
    pub effort_spent: f64,
}

impl ManualEtl {
    /// New pipeline targeting `target`.
    pub fn new(target: Schema, effort_per_spec: f64) -> ManualEtl {
        ManualEtl {
            target,
            specs: HashMap::new(),
            effort_per_spec,
            effort_spent: 0.0,
        }
    }

    /// The expert inspects a source and writes its spec (charged).
    pub fn specify(&mut self, source: usize, spec: SourceSpec) {
        self.effort_spent += self.effort_per_spec;
        self.specs.insert(source, spec);
    }

    /// The expert writes the *correct* spec for a source by inspecting its
    /// actual schema against the target (the oracle spec — what a competent
    /// expert produces). Columns with no plausible target are skipped.
    pub fn specify_by_inspection(
        &mut self,
        source: usize,
        table: &Table,
        oracle: &dyn Fn(&str) -> Option<String>,
    ) {
        let mut renames = Vec::new();
        for f in table.schema().fields() {
            if let Some(t) = oracle(&f.name) {
                renames.push((f.name.clone(), t));
            }
        }
        let spec = SourceSpec {
            renames: renames.into_iter().collect(),
        };
        self.effort_spent += self.effort_per_spec;
        self.specs.insert(source, spec);
    }

    /// Run the hard-wired workflow: apply each spec literally, union, dedup
    /// by key (first column), keep the first value seen per product (no
    /// trust, no freshness reasoning — classic "first source wins" ETL).
    pub fn run(&self, sources: &[&Table]) -> wrangler_table::Result<Table> {
        let mut out = Table::empty(self.target.clone());
        for (i, src) in sources.iter().enumerate() {
            let Some(spec) = self.specs.get(&i) else {
                continue;
            };
            // A spec only works if the renamed columns actually exist.
            let mut row_exprs: Vec<Option<usize>> = Vec::with_capacity(self.target.len());
            for tf in self.target.fields() {
                let source_col = spec
                    .renames
                    .iter()
                    .find(|(_, t)| *t == &tf.name)
                    .map(|(s, _)| s.clone());
                match source_col {
                    Some(sc) if src.schema().contains(&sc) => {
                        row_exprs.push(Some(src.schema().index_of(&sc)?));
                    }
                    _ => row_exprs.push(None),
                }
            }
            // If no column resolved, the spec has rotted: contribute nothing.
            if row_exprs.iter().all(Option::is_none) {
                continue;
            }
            for r in 0..src.num_rows() {
                let row: Vec<Value> = row_exprs
                    .iter()
                    .map(|c| {
                        c.map(|c| src.get(r, c).expect("in bounds").clone()) // lint-allow: spec columns validated against src above
                            .unwrap_or(Value::Null)
                    })
                    .collect();
                out.push_row(row)?;
            }
        }
        // Dedup by key = first target column, first occurrence wins.
        let key = self.target.fields()[0].name.clone();
        let mut seen = std::collections::HashSet::new();
        let keep: Vec<bool> = (0..out.num_rows())
            .map(|i| {
                let k = out.get_named(i, &key).expect("in bounds").clone(); // lint-allow: key column projected into out by this function
                if k.is_null() {
                    return false;
                }
                seen.insert(k)
            })
            .collect();
        let mut deduped = out.retain_rows(|i| keep[i]);
        deduped.reinfer_types();
        ops::sort_by(&deduped, &[&key])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::Field;

    fn target() -> Schema {
        Schema::new(vec![
            Field::new("sku", wrangler_table::DataType::Str),
            Field::new("price", wrangler_table::DataType::Float),
        ])
        .unwrap()
    }

    fn source_a() -> Table {
        Table::literal(
            &["code", "cost"],
            vec![
                vec!["a1".into(), Value::Float(9.0)],
                vec!["a2".into(), Value::Float(12.0)],
            ],
        )
        .unwrap()
    }

    fn source_b() -> Table {
        Table::literal(
            &["sku", "price"],
            vec![
                vec!["a2".into(), Value::Float(11.5)],
                vec!["a3".into(), Value::Float(30.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn specified_sources_integrate_with_first_wins() {
        let mut etl = ManualEtl::new(target(), 5.0);
        etl.specify(0, SourceSpec::new(&[("code", "sku"), ("cost", "price")]));
        etl.specify(1, SourceSpec::new(&[("sku", "sku"), ("price", "price")]));
        assert_eq!(etl.effort_spent, 10.0);
        let out = etl.run(&[&source_a(), &source_b()]).unwrap();
        assert_eq!(out.num_rows(), 3);
        // a2 appears in both; source 0 (first) wins.
        let idx = (0..3)
            .find(|&i| out.get_named(i, "sku").unwrap().as_str() == Some("a2"))
            .unwrap();
        assert_eq!(out.get_named(idx, "price").unwrap(), &Value::Float(12.0));
    }

    #[test]
    fn unspecified_sources_contribute_nothing() {
        let mut etl = ManualEtl::new(target(), 5.0);
        etl.specify(1, SourceSpec::new(&[("sku", "sku"), ("price", "price")]));
        let out = etl.run(&[&source_a(), &source_b()]).unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn drifted_schema_silently_breaks_the_spec() {
        let mut etl = ManualEtl::new(target(), 5.0);
        etl.specify(0, SourceSpec::new(&[("code", "sku"), ("cost", "price")]));
        // The site renames its columns: the spec rots.
        let drifted = Table::literal(
            &["item_code", "unit_price"],
            vec![vec!["a1".into(), Value::Float(9.0)]],
        )
        .unwrap();
        let out = etl.run(&[&drifted]).unwrap();
        assert_eq!(out.num_rows(), 0);
        // Re-specification costs again.
        etl.specify(
            0,
            SourceSpec::new(&[("item_code", "sku"), ("unit_price", "price")]),
        );
        assert_eq!(etl.effort_spent, 10.0);
        let out = etl.run(&[&drifted]).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn specify_by_inspection_uses_oracle() {
        let mut etl = ManualEtl::new(target(), 3.0);
        let src = source_a();
        etl.specify_by_inspection(0, &src, &|col| match col {
            "code" => Some("sku".into()),
            "cost" => Some("price".into()),
            _ => None,
        });
        assert_eq!(etl.effort_spent, 3.0);
        let out = etl.run(&[&src]).unwrap();
        assert_eq!(out.num_rows(), 2);
    }
}
