//! The compiled fusion paths against their uncompiled references, bit for
//! bit: the claim index against a map-based grouping and against the
//! comparison sort it replaced, `truthfinder` over the index against the
//! map-per-iteration loop it replaced, and the kernel's veto-filtered fuse
//! against `fuse_attribute` over a claim set rebuilt without the vetoed
//! claims.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wrangler_fusion::strategies::{fuse_attribute, FusedValue, SourceContext};
use wrangler_fusion::truthfinder::{truthfinder, TruthFinderConfig};
use wrangler_fusion::Strategy as FusionStrategy;
use wrangler_fusion::{values_agree, Claim, ClaimSet, FuseKernel};
use wrangler_table::Value;

/// Per-slot agreement classes: each distinct value with its supporter sources.
type ClassesBySlot = BTreeMap<(usize, usize), Vec<(Value, Vec<usize>)>>;

/// Known-true facts, owned: (entity, attr, value).
type OwnedAnchors = Vec<(usize, usize, Value)>;

/// What the reference loop returns: trust, the slot decisions and the
/// iteration count.
struct Reference {
    trust: Vec<f64>,
    decisions: BTreeMap<(usize, usize), (Value, f64)>,
    iterations: usize,
}

/// `truthfinder` as it was before it was compiled against the claim index,
/// moved here verbatim (field reads became accessor calls): the oracle.
fn truthfinder_reference(
    claims: &ClaimSet,
    cfg: &TruthFinderConfig,
    anchors: &OwnedAnchors,
) -> Reference {
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
    Reference {
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

/// No iteration, one, or the default cap; the default dampening, none (a
/// class's confidence is then 0, and a lone class's `x / x` is not 1), and
/// a strong one.
fn arb_config() -> impl Strategy<Value = TruthFinderConfig> {
    (
        prop_oneof![Just(0usize), Just(1), Just(20)],
        prop_oneof![Just(0.3f64), Just(0.0), Just(0.9)],
    )
        .prop_map(|(max_iterations, dampening)| TruthFinderConfig {
            max_iterations,
            dampening,
            ..TruthFinderConfig::default()
        })
}

/// Anchors as the pass hands them over: borrowed.
fn borrowed(anchors: &OwnedAnchors) -> Vec<(usize, usize, &Value)> {
    anchors.iter().map(|(e, a, v)| (*e, *a, v)).collect()
}

/// Claim ids ordered by slot, insertion order within a slot, the way the
/// index used to order them: one sort of a packed `u128` per claim.
fn u128_sorted_ids(cs: &ClaimSet) -> Vec<u32> {
    let mut keyed: Vec<u128> = cs
        .claims()
        .iter()
        .zip(0u32..)
        .map(|(c, id)| (c.entity as u128) << 64 | (c.attr as u128) << 32 | id as u128)
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|key| key as u32).collect()
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
        cfg in arb_config(),
    ) {
        let cs = claim_set(&claims, rel_tol);
        let want = truthfinder_reference(&cs, &cfg, &anchors);
        let got = truthfinder(&cs, &cfg, &borrowed(&anchors));
        prop_assert_eq!(got.iterations, want.iterations);
        let trust_bits = |trust: &[f64]| trust.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(trust_bits(&got.trust), trust_bits(&want.trust));
        let decided = |decisions: &BTreeMap<(usize, usize), (Value, f64)>| {
            decisions
                .iter()
                .map(|(slot, (v, c))| (*slot, v.clone(), c.to_bits()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(decided(&got.decisions(&cs)), decided(&want.decisions));
    }

    #[test]
    fn pass_truth_discovery_equals_the_reference(
        // Twenty entities over two attributes: most slots hold one class,
        // the ones an iteration settles as `x / x`.
        claims in prop::collection::vec((0usize..20, 0usize..2, arb_value(), 0..SOURCES), 0..40),
        anchors in prop::collection::vec((0usize..20, 0usize..2, arb_value()), 0..6),
        rel_tol in arb_rel_tol(),
        cfg in arb_config(),
    ) {
        // What the fuse stage reads: trust and the iteration count.
        let cs = claim_set(&claims, rel_tol);
        let want = truthfinder_reference(&cs, &cfg, &anchors);
        let got = truthfinder(&cs, &cfg, &borrowed(&anchors));
        prop_assert_eq!(got.iterations, want.iterations);
        let trust_bits = |trust: &[f64]| trust.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(trust_bits(&got.trust), trust_bits(&want.trust));
    }

    #[test]
    fn counting_sorted_index_equals_the_u128_sort(
        claims in arb_claims(),
        // Entity ids spaced 1 apart take the dense counting sort; spaced
        // 2^40 or a sixteenth of the id space apart, the fallback.
        spacing in prop_oneof![Just(1usize), Just(3), Just(1 << 40), Just(usize::MAX / 16)],
        rel_tol in arb_rel_tol(),
    ) {
        let spread: Vec<_> = claims
            .iter()
            .map(|(e, a, v, s)| (e * spacing, *a, v.clone(), *s))
            .collect();
        let cs = claim_set(&spread, rel_tol);
        let ids = u128_sorted_ids(&cs);
        let index = cs.index();
        let claim = |id: u32| &cs.claims()[id as usize];
        // Slots, and each slot's claim ids, in the reference order.
        let mut slots: Vec<(usize, usize)> = ids.iter().map(|&id| (claim(id).entity, claim(id).attr)).collect();
        slots.dedup();
        prop_assert_eq!(index.slots(), &slots[..]);
        let mut at = 0;
        for (no, &(e, a)) in slots.iter().enumerate() {
            let len = ids[at..].iter().take_while(|&&id| (claim(id).entity, claim(id).attr) == (e, a)).count();
            let members = &ids[at..at + len];
            at += len;
            prop_assert_eq!(index.claim_ids(no), members);
            // Classes: representative id and supporters, first
            // representative wins.
            let mut want: Vec<(u32, Vec<u32>)> = Vec::new();
            for &id in members {
                let value = &claim(id).value;
                let source = claim(id).source as u32;
                match want.iter_mut().find(|(rep, _)| values_agree(&claim(*rep).value, value, rel_tol)) {
                    Some((_, supporters)) => supporters.push(source),
                    None => want.push((id, vec![source])),
                }
            }
            let got: Vec<(u32, Vec<u32>)> = index
                .classes(no)
                .map(|class| (index.class_rep(class) as u32, index.supporters(class).to_vec()))
                .collect();
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(at, ids.len());
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
        for (no, &(e, a)) in cs.index().slots().iter().enumerate() {
            prop_assert_eq!(
                bits(kernel.fuse_slot_no_without(no, &vetoed)),
                bits(fuse_attribute(&survivors, e, a, strategy, &ctx)),
                "slot ({}, {})", e, a
            );
        }
    }
}
