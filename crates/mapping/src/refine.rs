//! Pay-as-you-go mapping refinement (\[5\]).
//!
//! Feedback on wrangled tuples ("this row is right/wrong") propagates to the
//! mapping that produced the row — the incremental improvement loop of the
//! dataspaces vision, with feedback as a first-class evidence kind.

use wrangler_uncertainty::{Evidence, EvidenceKind};

use crate::mapping::Mapping;

/// Integrate one piece of tuple-level feedback into the mapping that
/// produced the tuple. `reliability` discounts crowd feedback (\[13\]);
/// direct user feedback passes 1.0.
pub fn record_feedback(mapping: &mut Mapping, positive: bool, reliability: f64) {
    let kind = if reliability >= 1.0 {
        EvidenceKind::UserFeedback
    } else {
        EvidenceKind::CrowdFeedback
    };
    mapping
        .belief
        .update(&Evidence::vote(kind, positive, 0.9).discounted(reliability));
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::DataType;
    use wrangler_uncertainty::Belief;

    fn mapping() -> Mapping {
        let target =
            crate::mapping::target_schema(&[("sku", DataType::Str), ("price", DataType::Float)]);
        Mapping {
            target,
            bindings: vec![Some(0), Some(1)],
            binding_beliefs: vec![Belief::from_prior(0.7), Belief::from_prior(0.7)],
            belief: Belief::from_prior(0.7),
        }
    }

    #[test]
    fn positive_feedback_raises_negative_lowers() {
        let mut up = mapping();
        record_feedback(&mut up, true, 1.0);
        assert!(up.belief.probability() > 0.7);
        let mut down = mapping();
        record_feedback(&mut down, false, 1.0);
        assert!(down.belief.probability() < 0.7);
    }

    #[test]
    fn crowd_feedback_is_discounted() {
        let mut direct = mapping();
        record_feedback(&mut direct, false, 1.0);
        let mut crowd = mapping();
        record_feedback(&mut crowd, false, 0.6);
        assert!(crowd.belief.probability() > direct.belief.probability());
        assert!(crowd.belief.evidence_count(EvidenceKind::CrowdFeedback) == 1);
        assert!(direct.belief.evidence_count(EvidenceKind::UserFeedback) == 1);
    }
}
