//! The compiled fusion paths against their uncompiled references, bit for
//! bit: the claim index against a map-based grouping, `truthfinder` over the
//! index against the map-per-iteration loop it replaced, and the kernel's
//! veto-filtered fuse against `fuse_attribute` over a claim set rebuilt
//! without the vetoed claims.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wrangler_fusion::strategies::{fuse_attribute, FusedValue, SourceContext};
use wrangler_fusion::truthfinder::{truthfinder, Anchors, TruthFinderConfig, TruthFinderResult};
use wrangler_fusion::Strategy as FusionStrategy;
use wrangler_fusion::{values_agree, Claim, ClaimSet, FuseKernel};
use wrangler_table::Value;

/// Per-slot agreement classes: each distinct value with its supporter sources.
type ClassesBySlot = BTreeMap<(usize, usize), Vec<(Value, Vec<usize>)>>;

/// `truthfinder` as it was before it was compiled against the claim index,
/// moved here verbatim (field reads became accessor calls): the oracle.
fn truthfinder_reference(
    claims: &ClaimSet,
    cfg: &TruthFinderConfig,
    anchors: &Anchors,
) -> TruthFinderResult {
    let n = claims.num_sources();
    let mut trust = vec![cfg.initial_trust.clamp(0.05, 0.95); n];
    let slots = claims.slots();
    // Index claims by slot once: the fixed-point loop must not rescan the
    // whole claim set per slot per iteration.
    let mut by_slot: BTreeMap<(usize, usize), Vec<&Claim>> = BTreeMap::new();
    for c in claims.claims() {
        by_slot.entry((c.entity, c.attr)).or_default().push(c);
    }
    // Agreement classes depend only on claim values and the tolerance —
    // never on trust — so compute them once per slot instead of once per
    // slot *per iteration*. Same for the anchor lookup (first anchor wins,
    // as the linear scan always did).
    let classes_by_slot: ClassesBySlot = slots
        .iter()
        .map(|&(e, a)| {
            let classes = claims
                .agreement_classes(&by_slot[&(e, a)])
                .into_iter()
                .map(|(v, members)| (v, members.iter().map(|c| c.source).collect()))
                .collect();
            ((e, a), classes)
        })
        .collect();
    let mut anchor_by_slot: BTreeMap<(usize, usize), &Value> = BTreeMap::new();
    for (e, a, truth) in anchors {
        anchor_by_slot.entry((*e, *a)).or_insert(truth);
    }
    let mut decisions: BTreeMap<(usize, usize), (Value, f64)> = BTreeMap::new();
    let mut iterations = 0;

    for _ in 0..cfg.max_iterations {
        iterations += 1;
        // 1. Value confidence per agreement class from current trust:
        //    conf = 1 − Π(1 − γ·t_s) over supporters, normalized per slot.
        decisions.clear();
        let mut per_source_conf: Vec<(f64, usize)> = vec![(0.0, 0); n]; // (sum conf, count)
        for &(e, a) in &slots {
            let classes = &classes_by_slot[&(e, a)];
            let mut scored: Vec<(&Value, f64, &Vec<usize>)> = classes
                .iter()
                .map(|(v, supporters)| {
                    let mut miss = 1.0;
                    for &s in supporters {
                        miss *= 1.0 - cfg.dampening * trust[s];
                    }
                    let mut conf = 1.0 - miss;
                    // Master-data anchor: a known-true value gets full
                    // confidence; a contradicted one is floored.
                    if let Some(truth) = anchor_by_slot.get(&(e, a)) {
                        conf = if values_agree(v, truth, claims.rel_tol()) {
                            1.0
                        } else {
                            0.01
                        };
                    }
                    (v, conf, supporters)
                })
                .collect();
            let total: f64 = scored.iter().map(|(_, c, _)| *c).sum();
            if total > 0.0 {
                for (_, c, _) in &mut scored {
                    *c /= total;
                }
            }
            // Record per-source credit and the slot decision.
            let mut best: Option<(Value, f64)> = None;
            for (v, c, supporters) in &scored {
                for &s in supporters.iter() {
                    per_source_conf[s].0 += c;
                    per_source_conf[s].1 += 1;
                }
                if best.as_ref().is_none_or(|(_, bc)| c > bc) {
                    best = Some(((*v).clone(), *c));
                }
            }
            if let Some(b) = best {
                decisions.insert((e, a), b);
            }
        }
        // 2. Trust update: mean confidence of the source's claims, dampened
        //    towards the previous value for stability.
        let mut max_delta = 0.0f64;
        for s in 0..n {
            let (sum, count) = per_source_conf[s];
            if count == 0 {
                continue;
            }
            let target = (sum / count as f64).clamp(0.02, 0.98);
            let next = 0.5 * trust[s] + 0.5 * target;
            max_delta = max_delta.max((next - trust[s]).abs());
            trust[s] = next;
        }
        if max_delta < cfg.epsilon {
            break;
        }
    }
    TruthFinderResult {
        trust,
        decisions,
        iterations,
    }
}

const SOURCES: usize = 5;

/// A small pool, so that draws collide: a tolerance chain that is not
/// transitive at `rel_tol` 0.01 (100.0 ~ 100.9 ~ 101.8, but 100.0 !~ 101.8),
/// an `Int` equal to a `Float`, and case- and whitespace-variant strings.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Float(100.0)),
        Just(Value::Float(100.9)),
        Just(Value::Float(101.8)),
        Just(Value::Int(100)),
        Just(Value::Int(7)),
        Just(Value::Float(7.0)),
        Just(Value::Str("acme".into())),
        Just(Value::Str(" Acme ".into())),
        Just(Value::Str("ACME".into())),
        Just(Value::Str("bolt".into())),
        Just(Value::Bool(true)),
        (-3i64..3).prop_map(Value::Int),
    ]
}

/// (entity, attr, value, source) draws over a space small enough that a
/// source often claims one slot twice.
fn arb_claims() -> impl Strategy<Value = Vec<(usize, usize, Value, usize)>> {
    prop::collection::vec((0usize..6, 0usize..2, arb_value(), 0..SOURCES), 0..40)
}

fn claim_set(claims: &[(usize, usize, Value, usize)], rel_tol: f64) -> ClaimSet {
    let mut cs = ClaimSet::new(SOURCES);
    cs.set_rel_tol(rel_tol);
    for (e, a, v, s) in claims {
        cs.add(*e, *a, v.clone(), *s);
    }
    cs
}

fn arb_rel_tol() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1e-9), Just(0.01)]
}

fn arb_strategy() -> impl Strategy<Value = FusionStrategy> {
    prop_oneof![
        Just(FusionStrategy::MajorityVote),
        Just(FusionStrategy::Latest),
        Just(FusionStrategy::TrustWeighted),
        (1.0f64..10.0).prop_map(|h| FusionStrategy::TrustAndFreshness { half_life: h }),
    ]
}

/// A fused value with every f64 as its bit pattern.
fn bits(f: Option<FusedValue>) -> Option<(Value, Vec<usize>, u64, u64, u64)> {
    f.map(|f| {
        (
            f.value,
            f.supporters,
            f.weight.to_bits(),
            f.total_weight.to_bits(),
            f.freshness.to_bits(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn claim_index_equals_an_independent_grouping(claims in arb_claims(), rel_tol in arb_rel_tol()) {
        let cs = claim_set(&claims, rel_tol);
        let mut by_slot: BTreeMap<(usize, usize), Vec<&Claim>> = BTreeMap::new();
        for c in cs.claims() {
            by_slot.entry((c.entity, c.attr)).or_default().push(c);
        }
        let index = cs.index();
        prop_assert_eq!(index.slots(), by_slot.keys().copied().collect::<Vec<_>>());
        for (slot, (&(e, a), members)) in by_slot.iter().enumerate() {
            prop_assert_eq!(&cs.slot(e, a), members);
            let classes: Vec<(Value, Vec<usize>)> = index
                .classes(slot)
                .map(|class| {
                    let supporters = index.supporters(class).iter().map(|&s| s as usize).collect();
                    (cs.claims()[index.class_rep(class)].value.clone(), supporters)
                })
                .collect();
            let want: Vec<(Value, Vec<usize>)> = cs
                .agreement_classes(members)
                .into_iter()
                .map(|(v, members)| (v, members.iter().map(|c| c.source).collect()))
                .collect();
            prop_assert_eq!(classes, want);
        }
    }

    #[test]
    fn compiled_truthfinder_equals_the_reference(
        claims in arb_claims(),
        // Entities 6–7 and attribute 2 are never claimed: anchors on absent
        // slots. The space is small, so anchors repeat a slot (first wins)
        // and both agree with and contradict what is claimed.
        anchors in prop::collection::vec((0usize..8, 0usize..3, arb_value()), 0..10),
        rel_tol in arb_rel_tol(),
        max_iterations in prop_oneof![Just(0usize), Just(1), Just(20)],
        dampening in prop_oneof![Just(0.3f64), Just(0.0), Just(0.9)],
    ) {
        let cs = claim_set(&claims, rel_tol);
        let cfg = TruthFinderConfig { max_iterations, dampening, ..TruthFinderConfig::default() };
        let want = truthfinder_reference(&cs, &cfg, &anchors);
        let got = truthfinder(&cs, &cfg, &anchors);
        prop_assert_eq!(got.iterations, want.iterations);
        let trust_bits = |r: &TruthFinderResult| r.trust.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(trust_bits(&got), trust_bits(&want));
        let decided = |r: &TruthFinderResult| {
            r.decisions
                .iter()
                .map(|(slot, (v, c))| (*slot, v.clone(), c.to_bits()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(decided(&got), decided(&want));
    }

    #[test]
    fn vetoed_kernel_fuse_equals_fuse_attribute_without_the_vetoed_claims(
        claims in arb_claims(),
        vetoed in prop::collection::vec(arb_value(), 1..4),
        rel_tol in arb_rel_tol(),
        strategy in arb_strategy(),
    ) {
        let cs = claim_set(&claims, rel_tol);
        let ctx = SourceContext {
            trust: (0..SOURCES).map(|i| 0.3 + 0.11 * i as f64).collect(),
            age: (0..SOURCES as u64).map(|i| (3 * i) % 5).collect(),
        };
        let banned = |c: &Claim| vetoed.iter().any(|v| values_agree(v, &c.value, rel_tol));
        let mut survivors = ClaimSet::new(SOURCES);
        survivors.set_rel_tol(rel_tol);
        for c in cs.claims().iter().filter(|c| !banned(c)) {
            survivors.add(c.entity, c.attr, c.value.clone(), c.source);
        }
        let kernel = FuseKernel::compile(&cs, strategy, &ctx);
        // Every claimed slot, and one nobody claims.
        for (e, a) in cs.slots().into_iter().chain([(9, 9)]) {
            prop_assert_eq!(
                bits(kernel.fuse_slot_without(e, a, &vetoed)),
                bits(fuse_attribute(&survivors, e, a, strategy, &ctx)),
                "slot ({}, {})", e, a
            );
        }
    }
}
