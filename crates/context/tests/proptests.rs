//! Property tests for the context crate: AHP laws, utility bounds, ranking.

use proptest::prelude::*;
use wrangler_context::criteria::ALL_CRITERIA;
use wrangler_context::{AhpMatrix, QualityVector, UserContext};

fn arb_quality() -> impl Strategy<Value = QualityVector> {
    prop::collection::vec(0.0f64..=1.0, 6).prop_map(|xs| {
        let mut q = QualityVector::neutral();
        for (c, x) in ALL_CRITERIA.iter().zip(xs) {
            q = q.with(*c, x);
        }
        q
    })
}

proptest! {
    #[test]
    fn ahp_weights_normalized_and_positive(
        judgements in prop::collection::vec((0usize..6, 0usize..6, 0.2f64..8.0), 0..12),
    ) {
        let mut m = AhpMatrix::for_criteria();
        for (i, j, r) in judgements {
            if i != j {
                m.judge(i, j, r);
            }
        }
        let w = m.weights();
        let sum: f64 = w.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum={sum}");
        prop_assert!(w.weights.iter().all(|&x| x > 0.0));
        prop_assert!(w.lambda_max >= 6.0 - 1e-6, "λmax={} < n", w.lambda_max);
        prop_assert!(w.consistency_ratio >= -1e-9);
    }

    #[test]
    fn consistent_matrices_recover_weight_ratios(raw in prop::collection::vec(0.1f64..1.0, 6)) {
        let total: f64 = raw.iter().sum();
        let target: Vec<f64> = raw.iter().map(|x| x / total).collect();
        let mut m = AhpMatrix::for_criteria();
        for i in 0..6 {
            for j in (i + 1)..6 {
                m.judge(i, j, target[i] / target[j]);
            }
        }
        let w = m.weights();
        // Clamping to Saaty's [1/9, 9] can distort extreme ratios; only exact
        // when all pairwise ratios are within bounds.
        let in_bounds = (0..6).all(|i| {
            (0..6).all(|j| {
                let r = target[i] / target[j];
                (1.0 / 9.0..=9.0).contains(&r)
            })
        });
        if in_bounds {
            for (got, want) in w.weights.iter().zip(&target) {
                prop_assert!((got - want).abs() < 1e-4, "{got} vs {want}");
            }
            prop_assert!(w.consistency_ratio < 1e-6);
        }
    }

    #[test]
    fn utility_is_bounded_and_monotone(q in arb_quality()) {
        for ctx in [UserContext::balanced("b"), UserContext::accuracy_first(), UserContext::completeness_first()] {
            let u = ctx.utility(&q);
            prop_assert!((0.0..=1.0).contains(&u));
            // Improving any criterion never lowers utility.
            for c in ALL_CRITERIA {
                let better = q.with(c, (q.get(c) + 0.2).min(1.0));
                prop_assert!(ctx.utility(&better) + 1e-12 >= u);
            }
        }
    }

    #[test]
    fn rank_orders_by_utility(items in prop::collection::vec(arb_quality(), 1..15)) {
        let ctx = UserContext::accuracy_first();
        let ranked = ctx.rank(&items);
        prop_assert_eq!(ranked.len(), items.len());
        for w in ranked.windows(2) {
            prop_assert!(ctx.utility(&items[w[0]]) + 1e-12 >= ctx.utility(&items[w[1]]));
        }
    }
}
