//! The precompiled fusion kernel: the ER-kernel treatment for the fuse
//! stage.
//!
//! [`fuse_attribute`](crate::strategies::fuse_attribute) is correct but
//! recomputes strategy state per claim per slot: `TrustAndFreshness`
//! evaluates `exp(-age/half_life)` for every member of every agreement
//! class, and every slot re-derives the same per-source trust lookups. With
//! tens of thousands of slots over the same handful of sources, that is the
//! fuse-stage analogue of the ER bug PR 4 fixed — per-item recomputation of
//! pass-invariant state.
//!
//! [`FuseKernel::compile`] hoists everything that depends only on
//! `(strategy, SourceContext)` out of the slot loop: one weight and one
//! freshness-decay value per source, computed once per pass with exactly the
//! same floating-point expressions `fuse_attribute` uses, in the same order.
//! Per-slot fusion then reads the arrays — and the claim set's
//! [`ClaimIndex`], where each slot's agreement classes were grouped once for
//! the whole pass (truth discovery reads the same grouping), so fusing a
//! slot sums weights over flat ranges and clones only the winning value.
//! Because the arithmetic is identical operation-for-operation, kernel
//! output is **bit-identical** to `fuse_attribute` (property-tested via
//! `f64::to_bits`).

use wrangler_table::Value;

use crate::claims::{values_agree, ClaimIndex, ClaimSet};
use crate::strategies::{FusedValue, SourceContext, Strategy};

/// A fusion pass compiled against one `(strategy, SourceContext)` pair.
///
/// Borrows the claim set; the context is copied into flat per-source
/// arrays at compile time.
#[derive(Debug)]
pub struct FuseKernel<'a> {
    claims: &'a ClaimSet,
    /// `claims`' own grouping, shared with truth discovery.
    index: &'a ClaimIndex,
    strategy: Strategy,
    /// Per-source vote weight under `strategy` (unit for `MajorityVote`
    /// and `Latest`), precomputed with `fuse_attribute`'s expressions.
    weight: Vec<f64>,
    /// Per-source freshness decay `exp(-age/half_life)` (`1.0` for
    /// strategies that do not reason about time).
    decay: Vec<f64>,
    /// Per-source age in ticks (drives `Latest`).
    age: Vec<u64>,
}

impl<'a> FuseKernel<'a> {
    /// Precompile per-source weights and decays for one fusion pass.
    pub fn compile(claims: &'a ClaimSet, strategy: Strategy, ctx: &SourceContext) -> FuseKernel<'a> {
        let n = claims.num_sources();
        let mut weight = Vec::with_capacity(n);
        let mut decay = Vec::with_capacity(n);
        let mut age = Vec::with_capacity(n);
        for s in 0..n {
            // Exactly fuse_attribute's weight_of / freshness expressions, so
            // every f64 is bit-identical to the uncompiled path.
            let d = match strategy {
                Strategy::TrustAndFreshness { half_life } => {
                    (-(ctx.age_of(s) as f64) / half_life.max(1e-9)).exp()
                }
                _ => 1.0,
            };
            let w = match strategy {
                Strategy::MajorityVote | Strategy::Latest => 1.0,
                Strategy::TrustWeighted => ctx.trust_of(s),
                Strategy::TrustAndFreshness { .. } => ctx.trust_of(s) * d,
            };
            weight.push(w);
            decay.push(d);
            age.push(ctx.age_of(s));
        }
        FuseKernel {
            claims,
            index: claims.index(),
            strategy,
            weight,
            decay,
            age,
        }
    }

    /// The claim set this kernel was compiled against.
    pub fn claims(&self) -> &ClaimSet {
        self.claims
    }

    /// Resolve one slot, bit-identical to
    /// [`fuse_attribute`](crate::strategies::fuse_attribute) with the
    /// compiled strategy and context. Returns `None` when the slot has no
    /// claims.
    pub fn fuse_slot(&self, entity: usize, attr: usize) -> Option<FusedValue> {
        self.fuse_slot_no(self.index.slot_no(entity, attr)?)
    }

    /// [`Self::fuse_slot`] for the `slot`-th entry of the claim index's
    /// [`slots`](ClaimIndex::slots): what a caller walking the index already
    /// has, and `fuse_slot` spends a third of a plain slot's cost searching
    /// for. Panics when there is no such slot.
    pub fn fuse_slot_no(&self, slot: usize) -> Option<FusedValue> {
        self.fuse_indexed(self.index, slot)
    }

    /// [`Self::fuse_slot_no`] as if the claims agreeing with any of `vetoed`
    /// had never been made: bit-identical to `fuse_attribute` over the claim
    /// set without them. The surviving claims are classed afresh — dropping
    /// whole classes instead would differ whenever a vetoed claim was the
    /// representative that held a tolerance class together. Panics when
    /// there is no such slot.
    pub fn fuse_slot_no_without(&self, slot: usize, vetoed: &[Value]) -> Option<FusedValue> {
        let claims = self.claims.claims();
        let kept: Vec<u32> = self
            .index
            .claim_ids(slot)
            .iter()
            .copied()
            .filter(|&id| {
                !vetoed
                    .iter()
                    .any(|v| values_agree(v, &claims[id as usize].value, self.claims.rel_tol()))
            })
            .collect();
        if kept.is_empty() {
            return None;
        }
        let survivors = ClaimIndex::group(claims, kept, self.claims.rel_tol());
        self.fuse_indexed(&survivors, 0)
    }

    /// Fuse slot number `slot` of `index` (an index over this kernel's claim
    /// set). Same expressions, same order as `fuse_attribute`: a class's
    /// weight is the sum over its supporters in insertion order, the total
    /// accumulates class by class, and a strict `>` keeps the earlier class.
    fn fuse_indexed(&self, index: &ClaimIndex, slot: usize) -> Option<FusedValue> {
        let claims = self.claims.claims();
        if let Strategy::Latest = self.strategy {
            let freshest = index
                .claim_ids(slot)
                .iter()
                .map(|&id| &claims[id as usize])
                .min_by_key(|c| (self.age[c.source], c.source))?;
            return Some(FusedValue {
                value: freshest.value.clone(),
                weight: 1.0,
                total_weight: 1.0,
                supporters: vec![freshest.source],
                freshness: 1.0,
            });
        }
        let mut total = 0.0;
        let mut best: Option<(f64, usize)> = None;
        for class in index.classes(slot) {
            let w: f64 = index
                .supporters(class)
                .iter()
                .map(|&s| self.weight[s as usize])
                .sum();
            total += w;
            // Deterministic tie-break: keep the earlier class (source order).
            if best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, class));
            }
        }
        let (weight, class) = best?;
        let supporters: Vec<usize> = index
            .supporters(class)
            .iter()
            .map(|&s| s as usize)
            .collect();
        let freshness = match self.strategy {
            Strategy::TrustAndFreshness { .. } => supporters
                .iter()
                .map(|&s| self.decay[s])
                .fold(0.0f64, f64::max),
            _ => 1.0,
        };
        Some(FusedValue {
            value: claims[index.class_rep(class)].value.clone(),
            weight,
            total_weight: total,
            supporters,
            freshness,
        })
    }

    /// Serial reference: fuse every slot in order.
    pub fn fuse_slots(&self, slots: &[(usize, usize)]) -> Vec<Option<FusedValue>> {
        slots.iter().map(|&(e, a)| self.fuse_slot(e, a)).collect()
    }

    /// [`Self::fuse_slots`], always `Ok`; `_workers` is ignored. No code in
    /// this workspace calls it: fuse runs on one thread, slot by slot
    /// through [`Self::fuse_slot_no`], and `bench/` still times its layer
    /// through this name (`fusion.fuse_ms`). It goes away with the
    /// benchmark change that moves that call to `fuse_slots`.
    pub fn fuse_slots_parallel(
        &self,
        slots: &[(usize, usize)],
        _workers: usize,
    ) -> wrangler_table::Result<Vec<Option<FusedValue>>> {
        Ok(self.fuse_slots(slots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::fuse_attribute;

    fn scenario() -> (ClaimSet, SourceContext) {
        let mut cs = ClaimSet::new(4);
        cs.set_rel_tol(1e-6);
        for s in 0..3 {
            cs.add(0, 0, Value::Float(10.0), s);
        }
        cs.add(0, 0, Value::Float(12.0), 3);
        cs.add(0, 1, "acme".into(), 0);
        cs.add(0, 1, "Acme ".into(), 2);
        cs.add(1, 0, Value::Int(7), 1);
        let ctx = SourceContext {
            trust: vec![0.6, 0.6, 0.6, 0.9],
            age: vec![9, 9, 9, 0],
        };
        (cs, ctx)
    }

    fn strategies() -> Vec<Strategy> {
        vec![
            Strategy::MajorityVote,
            Strategy::Latest,
            Strategy::TrustWeighted,
            Strategy::TrustAndFreshness { half_life: 3.0 },
        ]
    }

    #[test]
    fn kernel_is_bit_identical_to_fuse_attribute() {
        let (cs, ctx) = scenario();
        for strategy in strategies() {
            let kernel = FuseKernel::compile(&cs, strategy, &ctx);
            for (e, a) in cs.slots().into_iter().chain([(9, 9)]) {
                let reference = fuse_attribute(&cs, e, a, strategy, &ctx);
                let fused = kernel.fuse_slot(e, a);
                match (reference, fused) {
                    (None, None) => {}
                    (Some(r), Some(k)) => {
                        assert_eq!(r.value, k.value, "{strategy:?} slot ({e},{a})");
                        assert_eq!(r.supporters, k.supporters);
                        assert_eq!(r.weight.to_bits(), k.weight.to_bits());
                        assert_eq!(r.total_weight.to_bits(), k.total_weight.to_bits());
                        assert_eq!(r.freshness.to_bits(), k.freshness.to_bits());
                    }
                    (r, k) => panic!("{strategy:?} slot ({e},{a}): {r:?} vs {k:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_slot_list_is_fine() {
        let (cs, ctx) = scenario();
        let kernel = FuseKernel::compile(&cs, Strategy::MajorityVote, &ctx);
        assert!(kernel.fuse_slots(&[]).is_empty());
    }
}
