//! Ontology-based (semantic) match evidence from the data context.

use wrangler_context::Ontology;

/// Semantic similarity of two column names under the ontology, if both terms
/// resolve (`None` = the ontology is silent; silence is not evidence).
pub fn semantic_evidence(ontology: &Ontology, a: &str, b: &str) -> Option<f64> {
    let (ca, cb) = (ontology.resolve(a)?, ontology.resolve(b)?);
    Some(ontology.similarity(ca, cb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synonyms_resolve_to_full_similarity() {
        let o = Ontology::ecommerce();
        assert_eq!(semantic_evidence(&o, "cost", "price"), Some(1.0));
        assert_eq!(semantic_evidence(&o, "title", "name"), Some(1.0));
    }

    #[test]
    fn silence_for_unknown_terms() {
        let o = Ontology::ecommerce();
        assert_eq!(semantic_evidence(&o, "zorp", "price"), None);
    }

    #[test]
    fn related_but_distinct_concepts_score_between() {
        let o = Ontology::ecommerce();
        let s = semantic_evidence(&o, "price", "rating").unwrap();
        assert!(s > 0.0 && s < 1.0);
    }
}
