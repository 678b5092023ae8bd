//! The Analytic Hierarchy Process (Saaty, ref \[31\] in the paper).
//!
//! "In the widely used Analytic Hierarchy Process, users compare criteria
//! (such as timeliness or completeness) in terms of their relative
//! importance, which can be taken into account when making decisions (such as
//! which mappings to use in data integration)." (§2.1)
//!
//! A user states pairwise judgements `a_ij` ("criterion i is `a_ij` times as
//! important as j", on Saaty's 1–9 scale); the principal eigenvector of the
//! reciprocal matrix yields the weights, and the consistency ratio flags
//! contradictory judgement sets.

use crate::criteria::ALL_CRITERIA;

/// Saaty's random consistency indices for n = 1..=10 (index 0 unused).
const RANDOM_INDEX: [f64; 11] = [
    0.0, 0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49,
];

/// A reciprocal pairwise-comparison matrix.
#[derive(Debug, Clone)]
pub struct AhpMatrix {
    n: usize,
    a: Vec<f64>, // row-major n×n
}

/// Result of an AHP weight derivation.
#[derive(Debug, Clone)]
pub struct AhpWeights {
    /// Normalized weights (sum to 1), one per compared item.
    pub weights: Vec<f64>,
    /// Principal eigenvalue estimate λ_max.
    pub lambda_max: f64,
    /// Consistency index (λ_max − n)/(n − 1).
    pub consistency_index: f64,
    /// Consistency ratio CI / RI; ≤ 0.1 is conventionally acceptable.
    pub consistency_ratio: f64,
}

impl AhpMatrix {
    /// Identity judgements (everything equally important).
    pub fn identity(n: usize) -> Self {
        assert!((1..=10).contains(&n), "AHP supports 1..=10 items");
        let mut a = vec![1.0; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        AhpMatrix { n, a }
    }

    /// Matrix over the six wrangling criteria.
    pub fn for_criteria() -> Self {
        AhpMatrix::identity(ALL_CRITERIA.len())
    }

    /// Number of compared items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix compares zero items (never: constructor requires ≥1).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// State that item `i` is `ratio` times as important as item `j`
    /// (`ratio` clamped to Saaty's [1/9, 9]); the reciprocal cell is set
    /// automatically.
    pub fn judge(&mut self, i: usize, j: usize, ratio: f64) {
        assert!(i < self.n && j < self.n, "indices in range");
        if i == j {
            return;
        }
        let r = ratio.clamp(1.0 / 9.0, 9.0);
        self.a[i * self.n + j] = r;
        self.a[j * self.n + i] = 1.0 / r;
    }

    /// Builder form of [`judge`](Self::judge).
    pub fn with_judgement(mut self, i: usize, j: usize, ratio: f64) -> Self {
        self.judge(i, j, ratio);
        self
    }

    /// Cell (i, j).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Derive weights by power iteration on the reciprocal matrix, with
    /// λ_max estimated from the Rayleigh-style consistency vector.
    pub fn weights(&self) -> AhpWeights {
        let n = self.n;
        // Power iteration from the uniform vector; reciprocal matrices are
        // primitive so this converges to the principal eigenvector.
        let mut w = vec![1.0 / n as f64; n];
        for _ in 0..100 {
            let mut next = vec![0.0; n];
            for (i, nx) in next.iter_mut().enumerate() {
                for (j, wj) in w.iter().enumerate() {
                    *nx += self.a[i * n + j] * wj;
                }
            }
            let sum: f64 = next.iter().sum();
            for x in &mut next {
                *x /= sum;
            }
            let delta: f64 = next.iter().zip(&w).map(|(a, b)| (a - b).abs()).sum();
            w = next;
            if delta < 1e-12 {
                break;
            }
        }
        // λ_max = mean over i of (A·w)_i / w_i.
        let mut lambda = 0.0;
        for i in 0..n {
            let mut aw = 0.0;
            for (j, wj) in w.iter().enumerate() {
                aw += self.a[i * n + j] * wj;
            }
            lambda += aw / w[i];
        }
        lambda /= n as f64;
        let ci = if n <= 2 {
            0.0
        } else {
            (lambda - n as f64) / (n as f64 - 1.0)
        };
        let ri = RANDOM_INDEX[n];
        let cr = if ri == 0.0 { 0.0 } else { ci / ri };
        AhpWeights {
            weights: w,
            lambda_max: lambda,
            consistency_index: ci,
            consistency_ratio: cr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_gives_uniform_weights() {
        let w = AhpMatrix::identity(4).weights();
        for x in &w.weights {
            assert!((x - 0.25).abs() < 1e-9);
        }
        assert!((w.lambda_max - 4.0).abs() < 1e-9);
        assert!(w.consistency_ratio <= 0.1);
    }

    #[test]
    fn perfectly_consistent_matrix_recovers_ratios() {
        // weights 0.6, 0.3, 0.1 → a_ij = w_i / w_j is perfectly consistent.
        let target = [0.6, 0.3, 0.1];
        let mut m = AhpMatrix::identity(3);
        for i in 0..3 {
            for j in (i + 1)..3 {
                m.judge(i, j, target[i] / target[j]);
            }
        }
        let w = m.weights();
        for (got, want) in w.weights.iter().zip(&target) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert!(w.consistency_ratio < 1e-9);
    }

    #[test]
    fn inconsistent_judgements_flagged() {
        // a > b (9x), b > c (9x), but c > a (9x): maximally cyclic.
        let m = AhpMatrix::identity(3)
            .with_judgement(0, 1, 9.0)
            .with_judgement(1, 2, 9.0)
            .with_judgement(2, 0, 9.0);
        let w = m.weights();
        assert!(w.consistency_ratio > 0.1, "cr={}", w.consistency_ratio);
    }

    #[test]
    fn weights_sum_to_one_and_are_positive() {
        let m = AhpMatrix::identity(5)
            .with_judgement(0, 1, 3.0)
            .with_judgement(0, 2, 5.0)
            .with_judgement(3, 4, 0.5);
        let w = m.weights();
        let sum: f64 = w.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(w.weights.iter().all(|&x| x > 0.0));
        // Item 0 judged most important.
        assert!(w.weights[0] > w.weights[1] && w.weights[0] > w.weights[2]);
    }

    #[test]
    fn reciprocity_maintained_and_ratio_clamped() {
        let mut m = AhpMatrix::identity(2);
        m.judge(0, 1, 100.0); // clamped to 9
        assert!((m.get(0, 1) - 9.0).abs() < 1e-12);
        assert!((m.get(1, 0) - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn out_of_range_size_panics() {
        AhpMatrix::identity(11);
    }
}
