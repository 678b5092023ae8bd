//! Wrapper induction from annotated example records.
//!
//! Following the crowd-sourced wrapper-learning setting of Crescenzi et al.
//! \[12\]: an annotator supplies the *values* of a handful of records as they
//! appear on the page; induction finds the template structure that explains
//! them and generalizes it into a [`Wrapper`] that extracts *all* records.
//!
//! Algorithm:
//! 1. For each example, find the *minimal* node whose subtree contains a
//!    textual match for every annotated field — that node is the example's
//!    record root.
//! 2. The record selector is the (tag, class) shared by all example roots.
//! 3. Each field's rule is the (tag, class) of its matched node, consistent
//!    across examples, with the label prefix (text before the value) kept if
//!    it is identical in every example.

use std::collections::BTreeMap;

use crate::doc::{Doc, NodeId};
use crate::wrapper::{FieldRule, Selector, Wrapper};

/// One annotated example record: field name → the value text as rendered.
#[derive(Debug, Clone, Default)]
pub struct Annotation {
    /// Field values; fields absent on the page are simply not annotated.
    pub values: Vec<(String, String)>,
}

impl Annotation {
    /// Build from pairs.
    pub fn of(pairs: &[(&str, &str)]) -> Annotation {
        Annotation {
            values: pairs
                .iter()
                .map(|(f, v)| (f.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn get(&self, field: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == field)
            .map(|(_, v)| v.as_str())
    }
}

/// Why induction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InduceError {
    /// No annotations supplied.
    NoExamples,
    /// An example could not be located on the page at all.
    ExampleNotFound(usize),
    /// Example record roots disagree structurally.
    InconsistentRecords,
    /// A field's matched nodes disagree structurally across examples.
    InconsistentField(String),
}

impl std::fmt::Display for InduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InduceError::NoExamples => write!(f, "no annotated examples"),
            InduceError::ExampleNotFound(i) => write!(f, "example {i} not found on page"),
            InduceError::InconsistentRecords => {
                write!(f, "example records are structurally inconsistent")
            }
            InduceError::InconsistentField(name) => {
                write!(f, "field `{name}` matched inconsistent structures")
            }
        }
    }
}

impl std::error::Error for InduceError {}

/// Does the node's own subtree text *end with* `value` (allowing a label
/// prefix)? Returns the prefix on success.
fn text_match(doc: &Doc, id: NodeId, value: &str) -> Option<String> {
    let t = doc.text_of(id);
    if t == value {
        return Some(String::new());
    }
    t.strip_suffix(value).map(|p| p.to_string())
}

/// Find the minimal nodes containing a match for every field of `ann`.
fn locate_record(doc: &Doc, ann: &Annotation) -> Option<NodeId> {
    // A node qualifies if every annotated value matches some descendant
    // (or itself). Collect qualifying nodes, keep the minimal ones.
    let mut qualifying: Vec<NodeId> = Vec::new();
    'node: for id in doc.preorder() {
        for (_, value) in &ann.values {
            let self_hit = text_match(doc, id, value).is_some();
            let desc_hit = doc
                .descendants(id)
                .into_iter()
                .any(|d| text_match(doc, d, value).is_some());
            if !self_hit && !desc_hit {
                continue 'node;
            }
        }
        qualifying.push(id);
    }
    // Minimal = no qualifying strict descendant.
    qualifying
        .iter()
        .copied()
        .find(|&q| !qualifying.iter().any(|&o| o != q && doc.is_ancestor(q, o)))
}

/// Induce a wrapper from a page and ≥ 1 annotated example records.
pub fn induce_wrapper(doc: &Doc, annotations: &[Annotation]) -> Result<Wrapper, InduceError> {
    if annotations.is_empty() {
        return Err(InduceError::NoExamples);
    }
    // 1. Locate each example's record root.
    let mut roots = Vec::with_capacity(annotations.len());
    for (i, ann) in annotations.iter().enumerate() {
        match locate_record(doc, ann) {
            Some(r) => roots.push(r),
            None => return Err(InduceError::ExampleNotFound(i)),
        }
    }
    // 2. Consistent record selector. A single-field example can locate the
    // field leaf itself; generalize to the parent when roots have no class
    // but parents agree.
    let sel_of = |id: NodeId| -> (String, Option<String>) {
        let n = doc.node(id);
        (n.tag.clone(), n.class.clone())
    };
    let mut record_sig = sel_of(roots[0]);
    if !roots.iter().all(|&r| sel_of(r) == record_sig) {
        // Try parents (handles examples that matched at slightly different depths).
        let parents: Vec<NodeId> = roots
            .iter()
            .map(|&r| doc.node(r).parent.ok_or(InduceError::InconsistentRecords))
            .collect::<Result<_, _>>()?;
        record_sig = sel_of(parents[0]);
        if !parents.iter().all(|&p| sel_of(p) == record_sig) {
            return Err(InduceError::InconsistentRecords);
        }
        roots = parents;
    }
    let record_selector = Selector {
        tag: Some(record_sig.0.clone()),
        class: record_sig.1.clone(),
    };

    // 3. Field rules: for each field annotated anywhere, match inside each
    // example's record subtree.
    let mut field_order: Vec<String> = Vec::new();
    for ann in annotations {
        for (f, _) in &ann.values {
            if !field_order.contains(f) {
                field_order.push(f.clone());
            }
        }
    }
    let mut fields = Vec::with_capacity(field_order.len());
    for fname in &field_order {
        // (tag, class) → (count, prefixes seen). Ordered map: `find` below
        // must pick the same winning signature on every run.
        let mut sigs: BTreeMap<(String, Option<String>), Vec<String>> = BTreeMap::new();
        let mut examples_with_field = 0;
        for (ann, &root) in annotations.iter().zip(&roots) {
            let Some(value) = ann.get(fname) else {
                continue;
            };
            examples_with_field += 1;
            let mut nodes = vec![root];
            nodes.extend(doc.descendants(root));
            // Prefer the deepest (most specific) matching node.
            let best = nodes
                .into_iter()
                .rev()
                .find_map(|n| text_match(doc, n, value).map(|p| (n, p)));
            if let Some((node, prefix)) = best {
                sigs.entry(sel_of(node)).or_default().push(prefix);
            }
        }
        // The winning signature must cover all examples that annotate the field.
        let Some((sig, prefixes)) = sigs
            .into_iter()
            .find(|(_, ps)| ps.len() == examples_with_field)
        else {
            return Err(InduceError::InconsistentField(fname.clone()));
        };
        let strip_prefix = if prefixes.iter().all(|p| p == &prefixes[0]) && !prefixes[0].is_empty()
        {
            Some(prefixes[0].clone())
        } else {
            None
        };
        fields.push(FieldRule {
            name: fname.clone(),
            selector: Selector {
                tag: Some(sig.0),
                class: sig.1,
            },
            strip_prefix,
        });
    }
    Ok(Wrapper {
        record_selector,
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use wrangler_table::{Table, Value};

    fn products(n: usize) -> Table {
        let rows = (0..n)
            .map(|i| {
                vec![
                    Value::from(format!("Product {i}")),
                    Value::Float(10.0 + i as f64),
                    Value::from(if i % 2 == 0 { "Acme" } else { "Bolt" }),
                ]
            })
            .collect();
        Table::literal(&["name", "price", "brand"], rows).unwrap()
    }

    fn ann(i: usize) -> Annotation {
        Annotation::of(&[
            ("name", &format!("Product {i}")),
            ("price", &format!("{}", 10.0 + i as f64)),
            ("brand", if i.is_multiple_of(2) { "Acme" } else { "Bolt" }),
        ])
    }

    /// Annotation for templates that only render name + price.
    fn ann2(i: usize) -> Annotation {
        Annotation::of(&[
            ("name", &format!("Product {i}")),
            ("price", &format!("{}", 10.0 + i as f64)),
        ])
    }

    #[test]
    fn induced_wrapper_matches_oracle_output() {
        let t = Template::listing(&["name", "price", "brand"]);
        let page = t.render(&products(12));
        let w = induce_wrapper(&page, &[ann(2), ann(7)]).unwrap();
        let got = w.extract(&page).unwrap();
        let want = t.oracle_wrapper().extract(&page).unwrap();
        assert_eq!(got.records_found, 12);
        assert_eq!(got.table, want.table);
    }

    #[test]
    fn single_example_often_suffices() {
        let t = Template::listing(&["name", "price"]);
        let page = t.render(&products(5));
        let w = induce_wrapper(&page, &[ann2(3)]).unwrap();
        let got = w.extract(&page).unwrap();
        assert_eq!(got.records_found, 5);
        assert_eq!(
            got.table.get_named(0, "name").unwrap().as_str(),
            Some("Product 0")
        );
        assert_eq!(
            got.table.get_named(4, "price").unwrap(),
            &Value::Float(14.0)
        );
    }

    #[test]
    fn prefix_is_learned_and_stripped() {
        let t = Template::listing(&["name", "price"]);
        let page = t.render(&products(4));
        let w = induce_wrapper(&page, &[ann2(1), ann2(2)]).unwrap();
        let price_rule = w.fields.iter().find(|f| f.name == "price").unwrap();
        assert_eq!(price_rule.strip_prefix.as_deref(), Some("price: "));
    }

    #[test]
    fn unfindable_example_reports_index() {
        let t = Template::listing(&["name", "price"]);
        let page = t.render(&products(3));
        let bogus = Annotation::of(&[("name", "Nonexistent"), ("price", "1.23")]);
        assert_eq!(
            induce_wrapper(&page, &[ann2(0), bogus]).unwrap_err(),
            InduceError::ExampleNotFound(1)
        );
        assert_eq!(
            induce_wrapper(&page, &[]).unwrap_err(),
            InduceError::NoExamples
        );
    }

    #[test]
    fn works_on_drifted_template_with_fresh_annotations() {
        // Re-annotation after drift: induction does not care about classes,
        // only the annotator's values.
        let t = Template::listing(&["name", "price", "brand"]).drift(5);
        let page = t.render(&products(8));
        let w = induce_wrapper(&page, &[ann(1), ann(4)]).unwrap();
        let got = w.extract(&page).unwrap();
        assert_eq!(got.records_found, 8);
        let want = t.oracle_wrapper().extract(&page).unwrap();
        assert_eq!(got.table, want.table);
    }

    #[test]
    fn partial_annotations_extract_annotated_fields_only() {
        let t = Template::listing(&["name", "price", "brand"]);
        let page = t.render(&products(6));
        let partial = Annotation::of(&[("name", "Product 2"), ("price", "12")]);
        let w = induce_wrapper(&page, &[partial]).unwrap();
        assert_eq!(w.fields.len(), 2);
        let got = w.extract(&page).unwrap();
        assert_eq!(got.records_found, 6);
        assert!(got.table.schema().contains("price"));
        assert!(!got.table.schema().contains("brand"));
    }
}
