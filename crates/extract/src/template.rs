//! Template-driven page generation and drift.
//!
//! A [`Template`] deterministically renders a table of records into a page,
//! the way a site's server-side template would; [`Template::drift`] produces
//! the "site redesign" mutations that break deployed wrappers — the Velocity
//! failure mode §2.2 and \[29\] address.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wrangler_table::Table;

use crate::doc::Doc;
use crate::wrapper::{FieldRule, Selector, Wrapper};

/// How one column renders inside a record subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSpec {
    /// Source column name.
    pub column: String,
    /// Element tag.
    pub tag: String,
    /// Element class.
    pub class: String,
    /// Literal label prefix rendered before the value (e.g. `"Price: "`).
    pub prefix: String,
}

/// A page template.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Tag of record elements.
    pub record_tag: String,
    /// Class of record elements.
    pub record_class: String,
    /// Per-column rendering, in layout order.
    pub fields: Vec<FieldSpec>,
    /// Number of decorative wrapper divs around the record list.
    pub decoration: usize,
    /// Noise nodes (ads/navigation) interleaved every N records (0 = none).
    pub noise_every: usize,
}

impl Template {
    /// A simple product-listing template over the given columns.
    pub fn listing(columns: &[&str]) -> Template {
        Template {
            record_tag: "div".into(),
            record_class: "item".into(),
            fields: columns
                .iter()
                .enumerate()
                .map(|(i, c)| FieldSpec {
                    column: c.to_string(),
                    tag: "span".into(),
                    class: format!("f-{c}"),
                    prefix: if i == 0 {
                        String::new()
                    } else {
                        format!("{c}: ")
                    },
                })
                .collect(),
            decoration: 1,
            noise_every: 4,
        }
    }

    /// Render `table` into a page.
    pub fn render(&self, table: &Table) -> Doc {
        let mut d = Doc::new("html");
        let mut parent = d.add_child(d.root(), "body");
        d.add_leaf(parent, "h1", Some("site-title"), "All our offers");
        for i in 0..self.decoration {
            parent = d.add_child(parent, "div");
            d.set_class(parent, &format!("wrap{i}"));
        }
        for r in 0..table.num_rows() {
            if self.noise_every > 0 && r % self.noise_every == 0 {
                d.add_leaf(parent, "div", Some("ad"), "BUY NOW!!!");
            }
            let rec = d.add_child(parent, &self.record_tag);
            d.set_class(rec, &self.record_class);
            for f in &self.fields {
                let v = table
                    .get_named(r, &f.column)
                    .map(|v| v.render())
                    .unwrap_or_default();
                if v.is_empty() {
                    continue; // nulls render as absent nodes, like real sites
                }
                d.add_leaf(rec, &f.tag, Some(&f.class), &format!("{}{v}", f.prefix));
            }
        }
        d
    }

    /// The wrapper that extracts this template perfectly (the oracle wrapper;
    /// induction is judged against its output).
    pub fn oracle_wrapper(&self) -> Wrapper {
        Wrapper {
            record_selector: Selector::tag_class(&self.record_tag, &self.record_class),
            fields: self
                .fields
                .iter()
                .map(|f| FieldRule {
                    name: f.column.clone(),
                    selector: Selector::tag_class(&f.tag, &f.class),
                    strip_prefix: if f.prefix.is_empty() {
                        None
                    } else {
                        Some(f.prefix.clone())
                    },
                })
                .collect(),
        }
    }

    /// Produce a drifted variant: class renames, label changes, layout
    /// nesting changes — the template equivalent of a site redesign. The data
    /// semantics are unchanged; only presentation drifts.
    pub fn drift(&self, seed: u64) -> Template {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = self.clone();
        // Record class always changes on redesign (that is what kills wrappers).
        t.record_class = format!("{}-v{}", self.record_class, rng.gen_range(2..9));
        for f in &mut t.fields {
            if rng.gen::<f64>() < 0.7 {
                f.class = format!("{}-{}", f.class, rng.gen_range(2..9));
            }
            if rng.gen::<f64>() < 0.4 {
                f.prefix = if f.prefix.is_empty() {
                    String::new()
                } else {
                    format!("{}  ", f.prefix.trim_end_matches(": ").to_uppercase())
                };
            }
        }
        t.decoration = rng.gen_range(0..3);
        t.noise_every = rng.gen_range(0..6);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::Value;

    fn products() -> Table {
        Table::literal(
            &["name", "price", "brand"],
            vec![
                vec!["Widget".into(), Value::Float(9.99), "Acme".into()],
                vec!["Gadget".into(), Value::Float(19.5), "Bolt".into()],
                vec!["Flange".into(), Value::Null, "Acme".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn oracle_wrapper_roundtrips_template() {
        let t = Template::listing(&["name", "price", "brand"]);
        let page = t.render(&products());
        let ex = t.oracle_wrapper().extract(&page).unwrap();
        assert_eq!(ex.records_found, 3);
        assert_eq!(
            ex.table.get_named(0, "name").unwrap().as_str(),
            Some("Widget")
        );
        assert_eq!(ex.table.get_named(1, "price").unwrap(), &Value::Float(19.5));
        assert_eq!(
            ex.table.get_named(2, "brand").unwrap().as_str(),
            Some("Acme")
        );
        assert!(ex.table.get_named(2, "price").unwrap().is_null()); // absent node
    }

    #[test]
    fn render_is_deterministic() {
        let t = Template::listing(&["name", "price"]);
        assert_eq!(t.render(&products()), t.render(&products()));
    }

    #[test]
    fn drift_breaks_oracle_wrapper() {
        let t = Template::listing(&["name", "price"]);
        let drifted = t.drift(7);
        assert_ne!(t.record_class, drifted.record_class);
        let page = drifted.render(&products());
        let ex = t.oracle_wrapper().extract(&page).unwrap();
        assert_eq!(
            ex.records_found, 0,
            "old wrapper must fail on redesigned site"
        );
        // But the drifted oracle works.
        let ex2 = drifted.oracle_wrapper().extract(&page).unwrap();
        assert_eq!(ex2.records_found, 3);
    }

    #[test]
    fn drift_is_seeded() {
        let t = Template::listing(&["name", "price"]);
        assert_eq!(t.drift(3), t.drift(3));
        // Different seeds eventually produce different templates.
        assert!((4..12).any(|s| t.drift(s) != t.drift(3)));
    }

    #[test]
    fn noise_nodes_do_not_pollute_extraction() {
        let mut t = Template::listing(&["name"]);
        t.noise_every = 1;
        let page = t.render(&products());
        let ex = t.oracle_wrapper().extract(&page).unwrap();
        assert_eq!(ex.records_found, 3);
        for i in 0..3 {
            let name = ex.table.get_named(i, "name").unwrap().as_str().unwrap();
            assert!(!name.contains("BUY"));
        }
    }
}
