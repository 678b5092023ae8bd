//! Selector-based wrappers: pages → tables.

use wrangler_table::infer::parse_cell;
use wrangler_table::{Schema, Table, Value};

use crate::doc::{Doc, NodeId};

/// A structural selector: tag and/or class must match (None = wildcard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selector {
    /// Required tag, if any.
    pub tag: Option<String>,
    /// Required class, if any.
    pub class: Option<String>,
}

impl Selector {
    /// Match by class only (the common induced form).
    pub fn class(c: &str) -> Selector {
        Selector {
            tag: None,
            class: Some(c.to_string()),
        }
    }

    /// Match by tag and class.
    pub fn tag_class(t: &str, c: &str) -> Selector {
        Selector {
            tag: Some(t.to_string()),
            class: Some(c.to_string()),
        }
    }

    /// Does this selector match the node?
    pub fn matches(&self, doc: &Doc, id: NodeId) -> bool {
        let n = doc.node(id);
        if let Some(t) = &self.tag {
            if &n.tag != t {
                return false;
            }
        }
        if let Some(c) = &self.class {
            if n.class.as_deref() != Some(c.as_str()) {
                return false;
            }
        }
        true
    }

    /// All matching nodes in document order.
    pub fn select_all(&self, doc: &Doc) -> Vec<NodeId> {
        doc.preorder()
            .into_iter()
            .filter(|&id| self.matches(doc, id))
            .collect()
    }

    /// First matching descendant of `scope` in document order.
    fn select_within(&self, doc: &Doc, scope: NodeId) -> Option<NodeId> {
        doc.descendants(scope)
            .into_iter()
            .find(|&id| self.matches(doc, id))
    }
}

/// How to extract one field from a record subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldRule {
    /// Output column name.
    pub name: String,
    /// Selector relative to the record node.
    pub selector: Selector,
    /// Literal prefix to strip from the node text (e.g. `"Price: "`).
    pub strip_prefix: Option<String>,
}

/// A wrapper: record selector + field rules.
#[derive(Debug, Clone, PartialEq)]
pub struct Wrapper {
    /// Selector for record root nodes.
    pub record_selector: Selector,
    /// Field extraction rules.
    pub fields: Vec<FieldRule>,
}

/// Outcome of applying a wrapper.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// The extracted table (typed via cell parsing).
    pub table: Table,
    /// Number of record nodes found.
    pub records_found: usize,
    /// Fraction of (record, field) pairs that produced a non-null value —
    /// the wrapper's own health signal used by drift detection.
    pub fill_rate: f64,
}

impl Wrapper {
    /// Apply the wrapper to a document.
    pub fn extract(&self, doc: &Doc) -> wrangler_table::Result<Extraction> {
        let records = self.record_selector.select_all(doc);
        // Nested matches (a record inside a record) indicate an over-general
        // selector; keep only outermost matches.
        let outer: Vec<NodeId> = records
            .iter()
            .copied()
            .filter(|&r| !records.iter().any(|&o| o != r && doc.is_ancestor(o, r)))
            .collect();
        let names: Vec<&str> = self.fields.iter().map(|f| f.name.as_str()).collect();
        let mut table = Table::empty(Schema::of_strs(&names));
        let mut filled = 0usize;
        for &rec in &outer {
            let mut row = Vec::with_capacity(self.fields.len());
            for f in &self.fields {
                let v = match f.selector.select_within(doc, rec) {
                    Some(node) => {
                        let raw = doc.text_of(node);
                        let raw = match &f.strip_prefix {
                            Some(p) => raw.strip_prefix(p.as_str()).unwrap_or(&raw).to_string(),
                            None => raw,
                        };
                        parse_cell(&raw)
                    }
                    None => Value::Null,
                };
                if !v.is_null() {
                    filled += 1;
                }
                row.push(v);
            }
            table.push_row(row)?;
        }
        table.reinfer_types();
        let cells = outer.len() * self.fields.len();
        Ok(Extraction {
            records_found: outer.len(),
            fill_rate: if cells == 0 {
                0.0
            } else {
                filled as f64 / cells as f64
            },
            table,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Doc {
        let mut d = Doc::new("html");
        let body = d.add_child(d.root(), "body");
        d.add_leaf(body, "h1", Some("title"), "Our products");
        for (name, price) in [("Widget", "Price: 9.99"), ("Gadget", "Price: 19.50")] {
            let item = d.add_child(body, "div");
            d.set_class(item, "product");
            d.add_leaf(item, "span", Some("nm"), name);
            d.add_leaf(item, "span", Some("pr"), price);
        }
        d
    }

    fn wrapper() -> Wrapper {
        Wrapper {
            record_selector: Selector::class("product"),
            fields: vec![
                FieldRule {
                    name: "name".into(),
                    selector: Selector::class("nm"),
                    strip_prefix: None,
                },
                FieldRule {
                    name: "price".into(),
                    selector: Selector::class("pr"),
                    strip_prefix: Some("Price: ".into()),
                },
            ],
        }
    }

    #[test]
    fn extracts_typed_table() {
        let ex = wrapper().extract(&page()).unwrap();
        assert_eq!(ex.records_found, 2);
        assert_eq!(ex.fill_rate, 1.0);
        assert_eq!(
            ex.table.get_named(0, "name").unwrap().as_str(),
            Some("Widget")
        );
        assert_eq!(ex.table.get_named(1, "price").unwrap(), &Value::Float(19.5));
    }

    #[test]
    fn missing_fields_are_null_and_lower_fill_rate() {
        let mut d = page();
        // One more record without a price node.
        let body = 1; // body id in our construction
        let item = d.add_child(body, "div");
        d.set_class(item, "product");
        d.add_leaf(item, "span", Some("nm"), "Orphan");
        let ex = wrapper().extract(&d).unwrap();
        assert_eq!(ex.records_found, 3);
        assert!(ex.table.get_named(2, "price").unwrap().is_null());
        assert!((ex.fill_rate - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn broken_selector_yields_empty_extraction() {
        let mut w = wrapper();
        w.record_selector = Selector::class("card"); // drifted class
        let ex = w.extract(&page()).unwrap();
        assert_eq!(ex.records_found, 0);
        assert_eq!(ex.fill_rate, 0.0);
        assert_eq!(ex.table.num_rows(), 0);
    }

    #[test]
    fn nested_record_matches_deduplicate_to_outermost() {
        let mut d = Doc::new("html");
        let outer = d.add_child(d.root(), "div");
        d.set_class(outer, "product");
        let inner = d.add_child(outer, "div");
        d.set_class(inner, "product");
        d.add_leaf(inner, "span", Some("nm"), "X");
        let ex = wrapper().extract(&d).unwrap();
        assert_eq!(ex.records_found, 1);
    }

    #[test]
    fn selector_matching_semantics() {
        let d = page();
        let any_span = Selector {
            tag: Some("span".into()),
            class: None,
        };
        assert_eq!(any_span.select_all(&d).len(), 4); // 2 records × 2 spans; h1 is not a span
        let tagged = Selector::tag_class("span", "nm");
        assert_eq!(tagged.select_all(&d).len(), 2);
        let wrong_tag = Selector::tag_class("div", "nm");
        assert!(wrong_tag.select_all(&d).is_empty());
    }
}
