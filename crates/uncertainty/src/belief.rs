//! Bernoulli beliefs with an evidence ledger.

use crate::evidence::{Evidence, EvidenceKind};

/// A degree of belief in a binary hypothesis, maintained in log-odds space so
/// evidence integration is an addition, together with the ledger of evidence
/// kinds that produced it (provenance for the Working Data store).
#[derive(Debug, Clone, PartialEq)]
pub struct Belief {
    /// Log-odds of the hypothesis.
    log_odds: f64,
    /// Log-odds of the prior this belief started from.
    prior_log_odds: f64,
    /// Count of evidence items integrated, per kind (order-independent).
    ledger: Vec<(EvidenceKind, u32)>,
}

impl Belief {
    /// Belief from a prior probability (clamped to keep log-odds finite).
    pub fn from_prior(p: f64) -> Belief {
        let p = p.clamp(1e-6, 1.0 - 1e-6);
        let lo = (p / (1.0 - p)).ln();
        Belief {
            log_odds: lo,
            prior_log_odds: lo,
            ledger: Vec::new(),
        }
    }

    /// The maximally uninformed belief (p = 0.5).
    pub fn uninformed() -> Belief {
        Belief::from_prior(0.5)
    }

    /// Current probability.
    pub fn probability(&self) -> f64 {
        1.0 / (1.0 + (-self.log_odds).exp())
    }

    /// Current log-odds.
    pub fn log_odds(&self) -> f64 {
        self.log_odds
    }

    /// Integrate one evidence item (naive-Bayes update).
    pub fn update(&mut self, e: &Evidence) {
        self.log_odds += e.log_likelihood_ratio();
        match self.ledger.iter_mut().find(|(k, _)| *k == e.kind) {
            Some((_, n)) => *n += 1,
            None => self.ledger.push((e.kind, 1)),
        }
    }

    /// Integrate many evidence items.
    pub fn update_all<'a>(&mut self, evidence: impl IntoIterator<Item = &'a Evidence>) {
        for e in evidence {
            self.update(e);
        }
    }

    /// Functional form of [`update`](Self::update).
    pub fn with(mut self, e: &Evidence) -> Belief {
        self.update(e);
        self
    }

    /// Number of evidence items of the given kind that were integrated.
    pub fn evidence_count(&self, kind: EvidenceKind) -> u32 {
        self.ledger
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    /// Total evidence items integrated.
    pub fn total_evidence(&self) -> u32 {
        self.ledger.iter().map(|(_, n)| n).sum()
    }

    /// Number of distinct evidence kinds — a diversity measure (§2.3: work to
    /// date "tends to be focused on small numbers of types of evidence").
    pub fn evidence_diversity(&self) -> usize {
        self.ledger.len()
    }

    /// Forget all evidence and return to the prior.
    pub fn reset(&mut self) {
        self.log_odds = self.prior_log_odds;
        self.ledger.clear();
    }
}

// Log-odds, prior log-odds, then the ledger: a round-trip is bit-exact (no
// clamping or re-derivation), so a checkpointed belief restores to the same
// bits.
wrangler_table::wire_struct!(Belief {
    log_odds: f64,
    prior_log_odds: f64,
    ledger: Vec<(EvidenceKind, u32)>,
});

impl Default for Belief {
    fn default() -> Self {
        Belief::uninformed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_roundtrip() {
        for p in [0.1, 0.5, 0.9] {
            let b = Belief::from_prior(p);
            assert!((b.probability() - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn update_is_commutative() {
        let e1 = Evidence::from_score(EvidenceKind::NameSimilarity, 0.8);
        let e2 = Evidence::from_score(EvidenceKind::InstanceSimilarity, 0.3);
        let a = Belief::uninformed().with(&e1).with(&e2);
        let b = Belief::uninformed().with(&e2).with(&e1);
        assert!((a.probability() - b.probability()).abs() < 1e-12);
    }

    #[test]
    fn positive_evidence_raises_negative_lowers() {
        let b = Belief::uninformed();
        let up = b
            .clone()
            .with(&Evidence::from_score(EvidenceKind::Ontology, 0.9));
        let down = b
            .clone()
            .with(&Evidence::from_score(EvidenceKind::Ontology, 0.1));
        assert!(up.probability() > 0.5);
        assert!(down.probability() < 0.5);
    }

    #[test]
    fn opposing_equal_evidence_cancels() {
        let b = Belief::from_prior(0.3)
            .with(&Evidence::from_score(EvidenceKind::Quality, 0.8))
            .with(&Evidence::from_score(EvidenceKind::Quality, 0.2));
        assert!((b.probability() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn ledger_tracks_counts_and_diversity() {
        let mut b = Belief::uninformed();
        b.update(&Evidence::from_score(EvidenceKind::NameSimilarity, 0.7));
        b.update(&Evidence::from_score(EvidenceKind::NameSimilarity, 0.6));
        b.update(&Evidence::from_score(EvidenceKind::UserFeedback, 0.9));
        assert_eq!(b.evidence_count(EvidenceKind::NameSimilarity), 2);
        assert_eq!(b.evidence_count(EvidenceKind::UserFeedback), 1);
        assert_eq!(b.evidence_count(EvidenceKind::Ontology), 0);
        assert_eq!(b.total_evidence(), 3);
        assert_eq!(b.evidence_diversity(), 2);
    }

    #[test]
    fn reset_returns_to_prior() {
        let mut b = Belief::from_prior(0.2);
        b.update(&Evidence::from_score(EvidenceKind::MasterData, 0.95));
        assert!(b.probability() > 0.2);
        b.reset();
        assert!((b.probability() - 0.2).abs() < 1e-9);
        assert_eq!(b.total_evidence(), 0);
    }

    #[test]
    fn probability_stays_in_unit_interval_under_many_updates() {
        let mut b = Belief::uninformed();
        let e = Evidence::from_score(EvidenceKind::Redundancy, 0.98);
        for _ in 0..1000 {
            b.update(&e);
        }
        assert!(b.probability() <= 1.0 && b.probability() > 0.99);
    }
}
