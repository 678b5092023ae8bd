//! Property tests for fusion: agreement laws, strategy invariants, and
//! kernel/serial equivalence.

use proptest::prelude::*;
use wrangler_fusion::strategies::{fuse_attribute, SourceContext};
use wrangler_fusion::truthfinder::{truthfinder, TruthFinderConfig};
use wrangler_fusion::Strategy as FusionStrategy;
use wrangler_fusion::{values_agree, ClaimSet, FuseKernel};
use wrangler_table::Value;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Float),
        "[a-c]{1,4}".prop_map(Value::Str),
    ]
}

fn arb_strategy() -> impl Strategy<Value = FusionStrategy> {
    prop_oneof![
        Just(FusionStrategy::MajorityVote),
        Just(FusionStrategy::Latest),
        Just(FusionStrategy::TrustWeighted),
        (1.0f64..10.0).prop_map(|h| FusionStrategy::TrustAndFreshness { half_life: h }),
    ]
}

fn claim_set(values: &[Value]) -> ClaimSet {
    let mut cs = ClaimSet::new(values.len().max(1));
    cs.set_rel_tol(1e-9);
    for (s, v) in values.iter().enumerate() {
        cs.add(0, 0, v.clone(), s);
    }
    cs
}

proptest! {
    #[test]
    fn values_agree_is_reflexive_and_symmetric(a in arb_value(), b in arb_value(), tol in 0.0f64..0.2) {
        prop_assert!(values_agree(&a, &a, tol));
        prop_assert_eq!(values_agree(&a, &b, tol), values_agree(&b, &a, tol));
    }

    #[test]
    fn winner_is_a_claimed_value(values in prop::collection::vec(arb_value(), 1..12), strat in arb_strategy()) {
        let cs = claim_set(&values);
        let ctx = SourceContext {
            trust: (0..values.len()).map(|i| 0.3 + 0.05 * i as f64).collect(),
            age: (0..values.len() as u64).collect(),
        };
        let f = fuse_attribute(&cs, 0, 0, strat, &ctx).expect("nonempty");
        prop_assert!(values.iter().any(|v| values_agree(v, &f.value, cs.rel_tol())));
        let conf = f.confidence();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&conf), "conf={conf}");
        prop_assert!(!f.supporters.is_empty());
    }

    #[test]
    fn unanimous_claims_win_with_full_agreement(v in arb_value(), n in 1usize..8, strat in arb_strategy()) {
        let values = vec![v.clone(); n];
        let cs = claim_set(&values);
        let ctx = SourceContext::default();
        let f = fuse_attribute(&cs, 0, 0, strat, &ctx).expect("nonempty");
        prop_assert!(values_agree(&f.value, &v, cs.rel_tol()));
        // Majority/trust confidence is 1 for unanimity (freshness may temper
        // the time-aware strategy, but never below zero).
        if matches!(strat, FusionStrategy::MajorityVote | FusionStrategy::TrustWeighted) {
            prop_assert!((f.confidence() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_slot_is_none(strat in arb_strategy()) {
        let cs = ClaimSet::new(3);
        prop_assert!(fuse_attribute(&cs, 0, 0, strat, &SourceContext::default()).is_none());
    }

    #[test]
    fn kernel_is_bit_identical_to_fuse_attribute(
        values in prop::collection::vec(prop::collection::vec(arb_value(), 0..5), 1..10),
        strat in arb_strategy(),
    ) {
        // Entities × sources grid; kernel per slot must match the uncompiled
        // path bit-for-bit in every f64 it reports.
        let sources = values.iter().map(Vec::len).max().unwrap_or(1).max(1);
        let mut cs = ClaimSet::new(sources);
        for (e, vs) in values.iter().enumerate() {
            for (s, v) in vs.iter().enumerate() {
                cs.add(e, 0, v.clone(), s);
            }
        }
        let ctx = SourceContext {
            trust: (0..sources).map(|i| 0.3 + 0.05 * i as f64).collect(),
            age: (0..sources as u64).collect(),
        };
        let kernel = FuseKernel::compile(&cs, strat, &ctx);
        for e in 0..values.len() {
            let reference = fuse_attribute(&cs, e, 0, strat, &ctx);
            let fused = kernel.fuse_slot(e, 0);
            match (reference, fused) {
                (None, None) => {}
                (Some(r), Some(k)) => {
                    prop_assert_eq!(&r.value, &k.value);
                    prop_assert_eq!(&r.supporters, &k.supporters);
                    prop_assert_eq!(r.weight.to_bits(), k.weight.to_bits());
                    prop_assert_eq!(r.total_weight.to_bits(), k.total_weight.to_bits());
                    prop_assert_eq!(r.freshness.to_bits(), k.freshness.to_bits());
                }
                (r, k) => prop_assert!(false, "slot ({e},0) diverged: {r:?} vs {k:?}"),
            }
        }
    }

    #[test]
    fn blocked_parallel_fusion_equals_serial(
        values in prop::collection::vec(prop::collection::vec(arb_value(), 0..4), 1..14),
        strat in arb_strategy(),
        workers in 1usize..9,
    ) {
        let sources = values.iter().map(Vec::len).max().unwrap_or(1).max(1);
        let mut cs = ClaimSet::new(sources);
        for (e, vs) in values.iter().enumerate() {
            for (s, v) in vs.iter().enumerate() {
                cs.add(e, 0, v.clone(), s);
                cs.add(e, 1, v.clone(), s);
            }
        }
        let ctx = SourceContext {
            trust: (0..sources).map(|i| 0.9 - 0.04 * i as f64).collect(),
            age: (0..sources as u64).rev().collect(),
        };
        let kernel = FuseKernel::compile(&cs, strat, &ctx);
        let slots = cs.slots();
        let serial = kernel.fuse_slots(&slots);
        // `_exact` bypasses the pool-sizing policy so worker counts 1–8
        // (including counts exceeding the slot count) drive real threads.
        let (par, stats) = kernel.fuse_slots_parallel_exact(&slots, workers).unwrap();
        prop_assert_eq!(par.len(), serial.len());
        for (a, b) in serial.iter().zip(&par) {
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    prop_assert_eq!(&x.value, &y.value);
                    prop_assert_eq!(&x.supporters, &y.supporters);
                    prop_assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                    prop_assert_eq!(x.total_weight.to_bits(), y.total_weight.to_bits());
                    prop_assert_eq!(x.freshness.to_bits(), y.freshness.to_bits());
                }
                _ => prop_assert!(false, "serial/parallel slot divergence"),
            }
        }
        prop_assert_eq!(stats.iter().map(|s| s.items).sum::<u64>(), slots.len() as u64);
        prop_assert!(stats.iter().all(|s| s.items > 0), "idle worker");
        // The policy entry point fuses identically after sizing.
        let (policy, _) = kernel.fuse_slots_parallel(&slots, workers).unwrap();
        prop_assert_eq!(&policy, &par);
    }

    #[test]
    fn truthfinder_trust_stays_bounded(
        values in prop::collection::vec(prop::collection::vec(arb_value(), 1..5), 1..10),
    ) {
        // Entities × sources grid of claims.
        let sources = values.iter().map(Vec::len).max().unwrap_or(1);
        let mut cs = ClaimSet::new(sources);
        for (e, vs) in values.iter().enumerate() {
            for (s, v) in vs.iter().enumerate() {
                cs.add(e, 0, v.clone(), s);
            }
        }
        let r = truthfinder(&cs, &TruthFinderConfig::default(), &Vec::new());
        for &t in &r.trust {
            prop_assert!((0.0..=1.0).contains(&t));
        }
        for (e, vs) in values.iter().enumerate() {
            if let Some(v) = r.value(e, 0) {
                prop_assert!(vs.iter().any(|u| values_agree(u, v, cs.rel_tol())));
            }
            if let Some(c) = r.confidence(e, 0) {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
            }
        }
    }
}
