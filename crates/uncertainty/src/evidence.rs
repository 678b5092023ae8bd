//! Typed evidence items.
//!
//! Every automated judgement in the pipeline — a name-similarity score, a
//! value overlap, an ontology hint, a crowd vote — becomes an [`Evidence`]:
//! a likelihood ratio for the hypothesis under consideration, tagged with its
//! kind and discounted by the reliability of whoever produced it (§4.2:
//! feedback "may be unreliable"; auxiliary data "may not quite represent the
//! user's conceptualisation").

/// Where a piece of evidence came from. The kind determines the default
/// reliability prior and lets components reason about evidence diversity
/// (two signals of the same kind are more correlated than two of different
/// kinds, so callers may cap per-kind contributions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvidenceKind {
    /// Syntactic similarity of names (schema matching).
    NameSimilarity,
    /// Overlap / distribution similarity of instances.
    InstanceSimilarity,
    /// Ontology or reference-data support (data context).
    Ontology,
    /// Master data confirmed/contradicted the hypothesis.
    MasterData,
    /// A quality analysis (profiling, CFD violation, outlier).
    Quality,
    /// Explicit user feedback.
    UserFeedback,
    /// Aggregated crowd feedback.
    CrowdFeedback,
    /// Provenance/redundancy: independent sources agree.
    Redundancy,
    /// Output of another automated component (e.g. extractor confidence).
    Component,
}

// Tags are part of the checkpoint wire format: append, never renumber.
wrangler_table::wire_enum!(EvidenceKind: "evidence kind" {
    0 => NameSimilarity,
    1 => InstanceSimilarity,
    2 => Ontology,
    3 => MasterData,
    4 => Quality,
    5 => UserFeedback,
    6 => CrowdFeedback,
    7 => Redundancy,
    8 => Component,
});

/// One observation bearing on a binary hypothesis.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// Category of the observation.
    pub kind: EvidenceKind,
    /// Probability of observing this signal if the hypothesis is TRUE.
    pub p_if_true: f64,
    /// Probability of observing this signal if the hypothesis is FALSE.
    pub p_if_false: f64,
    /// Reliability of the producer in \[0, 1\]; 0 makes the evidence vacuous.
    pub reliability: f64,
}

impl Evidence {
    /// Evidence from a bounded score in \[0, 1\], mapped so that 0.5 is neutral:
    /// `p_if_true = score`, `p_if_false = 1 - score` (clamped away from 0/1 to
    /// keep likelihood ratios finite).
    pub fn from_score(kind: EvidenceKind, score: f64) -> Evidence {
        let s = score.clamp(0.02, 0.98);
        Evidence {
            kind,
            p_if_true: s,
            p_if_false: 1.0 - s,
            reliability: 1.0,
        }
    }

    /// A positive/negative vote from a producer of the given reliability
    /// (e.g. a crowd worker with estimated accuracy `acc`): a correct producer
    /// votes with the truth with probability `acc`.
    pub fn vote(kind: EvidenceKind, positive: bool, acc: f64) -> Evidence {
        let a = acc.clamp(0.02, 0.98);
        if positive {
            Evidence {
                kind,
                p_if_true: a,
                p_if_false: 1.0 - a,
                reliability: 1.0,
            }
        } else {
            Evidence {
                kind,
                p_if_true: 1.0 - a,
                p_if_false: a,
                reliability: 1.0,
            }
        }
    }

    /// Discount this evidence by an (additional) reliability factor.
    pub fn discounted(mut self, reliability: f64) -> Evidence {
        self.reliability = (self.reliability * reliability).clamp(0.0, 1.0);
        self
    }

    /// The reliability-discounted log likelihood ratio this evidence
    /// contributes. Discounting interpolates the likelihoods towards the
    /// uninformative 0.5/0.5 point before taking the ratio, so reliability 0
    /// contributes exactly 0 and reliability 1 the full ratio.
    pub fn log_likelihood_ratio(&self) -> f64 {
        let r = self.reliability.clamp(0.0, 1.0);
        let pt = 0.5 + (self.p_if_true.clamp(1e-6, 1.0 - 1e-6) - 0.5) * r;
        let pf = 0.5 + (self.p_if_false.clamp(1e-6, 1.0 - 1e-6) - 0.5) * r;
        (pt / pf).ln()
    }

    /// True if the evidence favours the hypothesis.
    pub fn is_positive(&self) -> bool {
        self.log_likelihood_ratio() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_mapping_is_monotone_and_neutral_at_half() {
        let lo = Evidence::from_score(EvidenceKind::NameSimilarity, 0.2);
        let mid = Evidence::from_score(EvidenceKind::NameSimilarity, 0.5);
        let hi = Evidence::from_score(EvidenceKind::NameSimilarity, 0.9);
        assert!(lo.log_likelihood_ratio() < 0.0);
        assert!(mid.log_likelihood_ratio().abs() < 1e-12);
        assert!(hi.log_likelihood_ratio() > 0.0);
        assert!(hi.log_likelihood_ratio() > mid.log_likelihood_ratio());
    }

    #[test]
    fn votes_are_symmetric() {
        let yes = Evidence::vote(EvidenceKind::CrowdFeedback, true, 0.8);
        let no = Evidence::vote(EvidenceKind::CrowdFeedback, false, 0.8);
        assert!((yes.log_likelihood_ratio() + no.log_likelihood_ratio()).abs() < 1e-12);
    }

    #[test]
    fn zero_reliability_is_vacuous() {
        let e = Evidence::from_score(EvidenceKind::UserFeedback, 0.95).discounted(0.0);
        assert_eq!(e.log_likelihood_ratio(), 0.0);
    }

    #[test]
    fn discounting_shrinks_magnitude_monotonically() {
        let full = Evidence::from_score(EvidenceKind::UserFeedback, 0.9);
        let half = full.clone().discounted(0.5);
        let tenth = full.clone().discounted(0.1);
        assert!(full.log_likelihood_ratio() > half.log_likelihood_ratio());
        assert!(half.log_likelihood_ratio() > tenth.log_likelihood_ratio());
        assert!(tenth.log_likelihood_ratio() > 0.0);
    }

    #[test]
    fn extreme_scores_stay_finite() {
        let e = Evidence::from_score(EvidenceKind::MasterData, 1.0);
        assert!(e.log_likelihood_ratio().is_finite());
        let e = Evidence::from_score(EvidenceKind::MasterData, 0.0);
        assert!(e.log_likelihood_ratio().is_finite());
    }
}
