//! Name-based match evidence.

use crate::strsim::name_similarity;

/// True for auto-generated, uninformative column names (`col3`, `c12`,
/// `field_2`, `f-name`-style template classes are *not* cryptic). Cryptic
/// names should contribute *no* name evidence rather than negative evidence —
/// absence of a name is not evidence of a non-match.
fn is_cryptic(name: &str) -> bool {
    let n = name.trim().to_lowercase();
    for prefix in ["col", "column", "field", "f", "c", "attr", "var"] {
        if let Some(rest) = n.strip_prefix(prefix) {
            let rest = rest.trim_start_matches(['_', '-']);
            if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()) {
                return true;
            }
        }
    }
    false
}

/// Name similarity in \[0, 1\], or `None` when either name is cryptic and the
/// comparison is therefore meaningless.
pub fn name_evidence(a: &str, b: &str) -> Option<f64> {
    if is_cryptic(a) || is_cryptic(b) {
        return None;
    }
    Some(name_similarity(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cryptic_detection() {
        for n in ["col3", "c12", "field_2", "COL7", "attr-9", "f0"] {
            assert!(is_cryptic(n), "{n} should be cryptic");
        }
        for n in ["price", "colour", "city", "code", "f-name", "category"] {
            assert!(!is_cryptic(n), "{n} should not be cryptic");
        }
    }

    #[test]
    fn evidence_none_for_cryptic() {
        assert_eq!(name_evidence("col1", "price"), None);
        assert!(name_evidence("cost", "price").is_some());
        assert!(name_evidence("price", "price").unwrap() >= 1.0 - 1e-12);
    }
}
