//! Quality criteria and quality vectors.
//!
//! Example 2 of the paper contrasts a routine price-comparison context that
//! "may prefer features such as accuracy and timeliness to completeness" with
//! an issue-investigation context that "may require a more complete picture
//! ... at the risk of presenting the user with more incorrect or out-of-date
//! data". [`Criterion`] enumerates those dimensions; [`QualityVector`] scores
//! an artifact (source, mapping, result set) on each.

use std::fmt;

/// A non-functional quality dimension of wrangled data.
///
/// `Cost` is oriented like the others: **1.0 means free, 0.0 means at
/// budget-limit expensive**, so utility is always "higher is better".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Criterion {
    /// Fraction of the wanted data that is present (coverage, non-nullness).
    Completeness,
    /// Fraction of delivered values that are correct.
    Accuracy,
    /// How fresh the data is relative to the user's horizon.
    Timeliness,
    /// Freedom from internal contradictions (constraint violations).
    Consistency,
    /// Topical fit to the user's task (data-context relevance).
    Relevance,
    /// Inverted resource cost (monetary, latency, effort).
    Cost,
}

/// All criteria, in canonical order.
pub const ALL_CRITERIA: [Criterion; 6] = [
    Criterion::Completeness,
    Criterion::Accuracy,
    Criterion::Timeliness,
    Criterion::Consistency,
    Criterion::Relevance,
    Criterion::Cost,
];

impl Criterion {
    /// Position in [`ALL_CRITERIA`].
    pub fn index(self) -> usize {
        ALL_CRITERIA
            .iter()
            .position(|c| *c == self)
            .expect("criterion is in ALL_CRITERIA") // lint-allow: ALL_CRITERIA lists every variant
    }

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Criterion::Completeness => "completeness",
            Criterion::Accuracy => "accuracy",
            Criterion::Timeliness => "timeliness",
            Criterion::Consistency => "consistency",
            Criterion::Relevance => "relevance",
            Criterion::Cost => "cost",
        }
    }
}

impl fmt::Display for Criterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A score in \[0, 1\] per criterion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityVector {
    scores: [f64; 6],
}

impl QualityVector {
    /// All criteria at the given score.
    pub fn uniform(score: f64) -> Self {
        QualityVector {
            scores: [score.clamp(0.0, 1.0); 6],
        }
    }

    /// Neutral vector (0.5 everywhere).
    pub fn neutral() -> Self {
        QualityVector::uniform(0.5)
    }

    /// Get the score for one criterion.
    pub fn get(&self, c: Criterion) -> f64 {
        self.scores[c.index()]
    }

    /// Set the score for one criterion (clamped to \[0, 1\]); builder style.
    pub fn with(mut self, c: Criterion, score: f64) -> Self {
        self.scores[c.index()] = score.clamp(0.0, 1.0);
        self
    }

    /// Weighted utility under a weight vector aligned with [`ALL_CRITERIA`].
    /// Weights need not be normalized; utility is the weighted mean.
    pub fn utility(&self, weights: &[f64; 6]) -> f64 {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.scores
            .iter()
            .zip(weights)
            .map(|(s, w)| s * w)
            .sum::<f64>()
            / total
    }
}

impl Default for QualityVector {
    fn default() -> Self {
        QualityVector::neutral()
    }
}

impl fmt::Display for QualityVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in ALL_CRITERIA.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={:.2}", c.name(), self.scores[i])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_clamp() {
        let q = QualityVector::neutral().with(Criterion::Accuracy, 1.5);
        assert_eq!(q.get(Criterion::Accuracy), 1.0);
        assert_eq!(q.get(Criterion::Cost), 0.5);
    }

    #[test]
    fn utility_is_weighted_mean() {
        let q = QualityVector::uniform(0.0).with(Criterion::Accuracy, 1.0);
        let mut w = [0.0; 6];
        w[Criterion::Accuracy.index()] = 2.0;
        w[Criterion::Cost.index()] = 2.0;
        assert!((q.utility(&w) - 0.5).abs() < 1e-12);
        assert_eq!(q.utility(&[0.0; 6]), 0.0);
    }

    #[test]
    fn criterion_indices_are_consistent() {
        for (i, c) in ALL_CRITERIA.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
