//! A lightweight domain ontology: concept hierarchy + synonyms + datatype
//! facets.
//!
//! Example 4: "there are standard formats, for example in schema.org, for
//! describing products and offers, and there are ontologies that describe
//! products... a product types ontology could be used to inform the selection
//! of sources based on their relevance, as an input to the matching of
//! sources that supplements syntactic matching, and as a guide to the fusion
//! of property values".

use std::collections::HashMap;

use wrangler_table::{wire, DataType};

/// Identifier of a concept within an ontology.
pub type ConceptId = usize;

/// One concept: a named node in the subsumption hierarchy, optionally typed
/// (for property concepts like `price`) and carrying synonyms.
#[derive(Debug, Clone)]
pub struct Concept {
    /// Canonical name (lowercase).
    pub name: String,
    /// Parent in the subsumption hierarchy (None for roots).
    pub parent: Option<ConceptId>,
    /// Expected data type for property concepts.
    pub dtype: Option<DataType>,
    /// Alternative surface forms (lowercase).
    pub synonyms: Vec<String>,
}

/// A concept hierarchy with synonym-based term resolution.
#[derive(Debug, Clone, Default)]
pub struct Ontology {
    concepts: Vec<Concept>,
    /// Lowercased term (name or synonym) → concept.
    term_index: HashMap<String, ConceptId>,
    /// Content hash of the concepts in insertion order, extended by
    /// [`Self::add_concept`] (its only mutator); 0 when empty.
    fingerprint: u64,
}

impl Ontology {
    /// Empty ontology.
    pub fn new() -> Self {
        Ontology::default()
    }

    /// Add a concept; `parent` must already exist. Returns its id.
    pub fn add_concept(
        &mut self,
        name: &str,
        parent: Option<ConceptId>,
        dtype: Option<DataType>,
        synonyms: &[&str],
    ) -> ConceptId {
        if let Some(p) = parent {
            assert!(p < self.concepts.len(), "parent must exist");
        }
        let id = self.concepts.len();
        let name = name.to_lowercase();
        self.term_index.insert(name.clone(), id);
        let mut syns = Vec::with_capacity(synonyms.len());
        for s in synonyms {
            let s = s.to_lowercase();
            self.term_index.insert(s.clone(), id);
            syns.push(s);
        }
        self.fingerprint = wire::Hasher64::new()
            .write_u64(self.fingerprint)
            .write_str(&name)
            .write(&wire::to_bytes(&parent))
            .write(&wire::to_bytes(&dtype))
            .write(&wire::to_bytes(&syns))
            .finish();
        self.concepts.push(Concept {
            name,
            parent,
            dtype,
            synonyms: syns,
        });
        id
    }

    /// Equal concepts, added in the same order ⇔ equal fingerprint: what a
    /// record derived from the ontology is keyed by.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// True if the ontology has no concepts.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Concept by id.
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id]
    }

    /// Resolve a surface term (case-insensitive, punctuation-tolerant:
    /// `_`/`-` treated as spaces) to a concept.
    pub fn resolve(&self, term: &str) -> Option<ConceptId> {
        let norm = normalize(term);
        self.term_index.get(&norm).copied().or_else(|| {
            // Try each token of a compound term ("product_price" -> "price").
            norm.split(' ')
                .rev()
                .find_map(|tok| self.term_index.get(tok).copied())
        })
    }

    /// Depth of a concept (roots have depth 0).
    pub fn depth(&self, id: ConceptId) -> usize {
        let mut d = 0;
        let mut cur = self.concepts[id].parent;
        while let Some(c) = cur {
            d += 1;
            cur = self.concepts[c].parent;
        }
        d
    }

    /// Lowest common subsumer of two concepts, if they share a root.
    fn lcs(&self, a: ConceptId, b: ConceptId) -> Option<ConceptId> {
        let mut ancestors = Vec::new();
        let mut cur = Some(a);
        while let Some(c) = cur {
            ancestors.push(c);
            cur = self.concepts[c].parent;
        }
        let mut cur = Some(b);
        while let Some(c) = cur {
            if ancestors.contains(&c) {
                return Some(c);
            }
            cur = self.concepts[c].parent;
        }
        None
    }

    /// Wu–Palmer-style semantic similarity in \[0, 1\]:
    /// `2·depth(lcs) / (depth(a) + depth(b) + 2)` (the +2 treats roots as
    /// depth-1 so distinct roots score 0 < s < 1 only when related).
    /// Unrelated concepts (no common subsumer) score 0; identical score 1.
    pub fn similarity(&self, a: ConceptId, b: ConceptId) -> f64 {
        if a == b {
            return 1.0;
        }
        match self.lcs(a, b) {
            None => 0.0,
            Some(l) => {
                let dl = self.depth(l) as f64 + 1.0;
                let da = self.depth(a) as f64 + 1.0;
                let db = self.depth(b) as f64 + 1.0;
                (2.0 * dl / (da + db)).clamp(0.0, 1.0)
            }
        }
    }

    /// Expected data type of the concept a term resolves to, if any.
    pub fn expected_dtype(&self, term: &str) -> Option<DataType> {
        self.resolve(term).and_then(|id| self.concepts[id].dtype)
    }

    /// A ready-made e-commerce product ontology (the running example's
    /// stand-in for schema.org/Product + the Product Types Ontology).
    pub fn ecommerce() -> Self {
        let mut o = Ontology::new();
        let product = o.add_concept("product", None, None, &["item", "article"]);
        let offer = o.add_concept("offer", None, None, &["listing", "deal"]);
        // Product properties.
        o.add_concept(
            "name",
            Some(product),
            Some(DataType::Str),
            &["title", "product name", "label", "product_title"],
        );
        o.add_concept(
            "sku",
            Some(product),
            Some(DataType::Str),
            &["id", "product id", "code", "mpn", "asin"],
        );
        o.add_concept(
            "brand",
            Some(product),
            Some(DataType::Str),
            &["manufacturer", "maker", "vendor brand"],
        );
        o.add_concept(
            "category",
            Some(product),
            Some(DataType::Str),
            &["type", "product type", "department", "genre"],
        );
        o.add_concept(
            "description",
            Some(product),
            Some(DataType::Str),
            &["desc", "details", "summary"],
        );
        // Offer properties.
        o.add_concept(
            "price",
            Some(offer),
            Some(DataType::Float),
            &[
                "cost",
                "amount",
                "price usd",
                "unit price",
                "sale price",
                "price_eur",
            ],
        );
        o.add_concept(
            "currency",
            Some(offer),
            Some(DataType::Str),
            &["ccy", "currency code"],
        );
        o.add_concept(
            "availability",
            Some(offer),
            Some(DataType::Str),
            &["stock", "in stock", "inventory", "stock status"],
        );
        o.add_concept(
            "seller",
            Some(offer),
            Some(DataType::Str),
            &["merchant", "retailer", "store", "shop", "vendor"],
        );
        o.add_concept(
            "rating",
            Some(offer),
            Some(DataType::Float),
            &["stars", "score", "review score"],
        );
        o.add_concept(
            "url",
            Some(offer),
            Some(DataType::Str),
            &["link", "product url", "website"],
        );
        o
    }

    /// A business-locations ontology for Example 3.
    pub fn locations() -> Self {
        let mut o = Ontology::new();
        let business = o.add_concept("business", None, None, &["place", "venue", "establishment"]);
        o.add_concept(
            "name",
            Some(business),
            Some(DataType::Str),
            &["business name", "title"],
        );
        o.add_concept(
            "address",
            Some(business),
            Some(DataType::Str),
            &["street", "street address", "addr", "location"],
        );
        o.add_concept(
            "city",
            Some(business),
            Some(DataType::Str),
            &["town", "locality"],
        );
        o.add_concept(
            "postcode",
            Some(business),
            Some(DataType::Str),
            &["zip", "zip code", "postal code"],
        );
        o.add_concept("latitude", Some(business), Some(DataType::Float), &["lat"]);
        o.add_concept(
            "longitude",
            Some(business),
            Some(DataType::Float),
            &["lon", "lng", "long"],
        );
        o.add_concept(
            "phone",
            Some(business),
            Some(DataType::Str),
            &["telephone", "tel", "phone number"],
        );
        o.add_concept(
            "category",
            Some(business),
            Some(DataType::Str),
            &["type", "business type", "cuisine"],
        );
        o.add_concept(
            "url",
            Some(business),
            Some(DataType::Str),
            &["website", "homepage", "web"],
        );
        o
    }
}

fn normalize(term: &str) -> String {
    term.trim()
        .to_lowercase()
        .replace(['_', '-'], " ")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_names_synonyms_and_compounds() {
        let o = Ontology::ecommerce();
        let price = o.resolve("price").unwrap();
        assert_eq!(o.resolve("COST"), Some(price));
        assert_eq!(o.resolve("unit-price"), Some(price));
        assert_eq!(o.resolve("product_price"), Some(price)); // token fallback
        assert_eq!(o.resolve("frobnicator"), None);
    }

    #[test]
    fn the_fingerprint_follows_every_concept_field() {
        assert_eq!(Ontology::new().fingerprint(), 0);
        assert_eq!(Ontology::ecommerce().fingerprint(), Ontology::ecommerce().fingerprint());
        let build = |parent: bool, dtype: Option<DataType>, syns: &[&str]| {
            let mut o = Ontology::new();
            let root = o.add_concept("thing", None, None, &[]);
            o.add_concept("price", parent.then_some(root), dtype, syns);
            o.fingerprint()
        };
        let base = build(true, Some(DataType::Float), &["cost"]);
        assert_eq!(base, build(true, Some(DataType::Float), &["COST"]), "terms are lowercased");
        for other in [
            build(false, Some(DataType::Float), &["cost"]),
            build(true, Some(DataType::Int), &["cost"]),
            build(true, None, &["cost"]),
            build(true, Some(DataType::Float), &[]),
            build(true, Some(DataType::Float), &["cost", "amount"]),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn depth_counts_ancestors() {
        let mut o = Ontology::new();
        let root = o.add_concept("thing", None, None, &[]);
        let mid = o.add_concept("product", Some(root), None, &[]);
        let leaf = o.add_concept("book", Some(mid), None, &[]);
        assert_eq!(o.depth(root), 0);
        assert_eq!(o.depth(leaf), 2);
    }

    #[test]
    fn similarity_properties() {
        let mut o = Ontology::new();
        let root = o.add_concept("thing", None, None, &[]);
        let a = o.add_concept("a", Some(root), None, &[]);
        let b = o.add_concept("b", Some(root), None, &[]);
        let a1 = o.add_concept("a1", Some(a), None, &[]);
        let a2 = o.add_concept("a2", Some(a), None, &[]);
        let other_root = o.add_concept("alien", None, None, &[]);
        assert_eq!(o.similarity(a, a), 1.0);
        // Siblings under the same parent are more similar than cousins.
        assert!(o.similarity(a1, a2) > o.similarity(a1, b));
        // Symmetry.
        assert!((o.similarity(a1, b) - o.similarity(b, a1)).abs() < 1e-12);
        // Unrelated roots score 0.
        assert_eq!(o.similarity(a, other_root), 0.0);
    }

    #[test]
    fn expected_dtype_exposed() {
        let o = Ontology::ecommerce();
        assert_eq!(o.expected_dtype("cost"), Some(DataType::Float));
        assert_eq!(o.expected_dtype("title"), Some(DataType::Str));
        assert_eq!(o.expected_dtype("nonsense"), None);
    }

    #[test]
    fn locations_ontology_resolves_geo_terms() {
        let o = Ontology::locations();
        assert!(o.resolve("zip").is_some());
        assert_eq!(o.resolve("lat"), o.resolve("latitude"));
        let (lat, lng) = (o.resolve("lat").unwrap(), o.resolve("lng").unwrap());
        assert!(o.similarity(lat, lng) >= 0.5); // sibling properties
    }
}
