//! Fusion benchmarks: conflict resolution and truth discovery at claim scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use wrangler_fusion::strategies::{fuse_attribute, SourceContext, Strategy};
use wrangler_fusion::truthfinder::{truthfinder, Anchors, TruthFinderConfig};
use wrangler_fusion::{ClaimSet, FuseKernel};
use wrangler_table::Value;

/// `entities` entities × `sources` sources, ~20% disagreement.
fn claims(entities: usize, sources: usize) -> ClaimSet {
    let mut cs = ClaimSet::new(sources);
    cs.set_rel_tol(1e-6);
    for e in 0..entities {
        for s in 0..sources {
            let v = if (e + s) % 5 == 0 {
                Value::Float(999.0) // dissent
            } else {
                Value::Float(e as f64 * 1.5)
            };
            cs.add(e, 0, v, s);
        }
    }
    cs
}

/// The shape of the benchmark's `wide6` fleet, where the fuse stage hurt:
/// 1,500 entities × 5 attributes (four strings and a float price), 6 sources
/// each covering ~41% of the entities, so ~7k slots of two or three claims;
/// the master catalog anchors three of the five attributes (~60% of slots).
/// A tenth of the claims dissent; strings also vary in case and padding.
fn wide_claims() -> (ClaimSet, Anchors) {
    const ENTITIES: usize = 1_500;
    const SOURCES: usize = 6;
    const ATTRS: usize = 5;
    // A fixed mixing function instead of an RNG: the bench has no seed.
    let mix = |e: usize, a: usize, s: usize| (e * 31 + a * 17 + s * 101 + e * s * 7) % 100;
    let mut cs = ClaimSet::new(SOURCES);
    cs.set_rel_tol(0.002);
    let mut anchors = Anchors::new();
    for e in 0..ENTITIES {
        for s in 0..SOURCES {
            if mix(e, 9, s) >= 41 {
                continue;
            }
            for a in 0..ATTRS {
                let roll = mix(e, a, s);
                let v = match (a, roll) {
                    (4, 0..10) => Value::Float(e as f64 * 1.5 + 40.0),
                    (4, _) => Value::Float(e as f64 * 1.5 + 1.0 + roll as f64 * 1e-5),
                    (_, 0..10) => Value::Str(format!("other-{a}-{}", e % 7)),
                    (_, 10..20) => Value::Str(format!(" Value-{a}-{e} ")),
                    _ => Value::Str(format!("value-{a}-{e}")),
                };
                cs.add(e, a, v, s);
            }
        }
        for a in 1..4 {
            anchors.push((e, a, Value::Str(format!("value-{a}-{e}"))));
        }
    }
    (cs, anchors)
}

fn bench_fusion(c: &mut Criterion) {
    let cs = claims(1_000, 10);
    let ctx = SourceContext {
        trust: (0..10).map(|i| 0.5 + 0.04 * i as f64).collect(),
        age: (0..10).map(|i| i as u64).collect(),
    };
    c.bench_function("fusion/majority_1k_slots", |b| {
        b.iter(|| {
            let mut n = 0;
            for e in 0..1_000 {
                if fuse_attribute(&cs, e, 0, Strategy::MajorityVote, &ctx).is_some() {
                    n += 1;
                }
            }
            black_box(n)
        })
    });
    c.bench_function("fusion/trust_fresh_1k_slots", |b| {
        b.iter(|| {
            let mut n = 0;
            for e in 0..1_000 {
                if fuse_attribute(
                    &cs,
                    e,
                    0,
                    Strategy::TrustAndFreshness { half_life: 4.0 },
                    &ctx,
                )
                .is_some()
                {
                    n += 1;
                }
            }
            black_box(n)
        })
    });
    c.bench_function("fusion/truthfinder_10k_claims", |b| {
        b.iter(|| {
            black_box(truthfinder(&cs, &TruthFinderConfig::default(), &Vec::new()).iterations)
        })
    });

    // What one pass pays: a claim set nobody has read yet (the grouping is
    // part of the bill), truth discovery with anchors, then every slot fused.
    let (wide, anchors) = wide_claims();
    let wide_ctx = SourceContext {
        trust: (0..6).map(|i| 0.5 + 0.06 * i as f64).collect(),
        age: (0..6).map(|i| i as u64).collect(),
    };
    c.bench_function("fusion/truthfinder_wide_anchored_7k_slots", |b| {
        b.iter_batched(
            || wide_claims().0,
            |cs| black_box(truthfinder(&cs, &TruthFinderConfig::default(), &anchors).iterations),
            BatchSize::LargeInput,
        )
    });
    let wide_slots = wide.slots();
    c.bench_function("fusion/kernel_wide_7k_slots", |b| {
        b.iter(|| {
            let kernel = FuseKernel::compile(&wide, Strategy::TrustWeighted, &wide_ctx);
            black_box(kernel.fuse_slots(&wide_slots).len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fusion
}
criterion_main!(benches);
