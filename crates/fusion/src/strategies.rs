//! Per-slot conflict resolution strategies.

use wrangler_table::Value;

use crate::claims::ClaimSet;

/// Per-source context a strategy may consult, indexed by source id.
#[derive(Debug, Clone, Default)]
pub struct SourceContext {
    /// Trust in each source, in \[0, 1\] (uniform 0.5 if empty).
    pub trust: Vec<f64>,
    /// Age of each source's data in ticks (0 if empty).
    pub age: Vec<u64>,
}

impl SourceContext {
    /// Trust in source `s` (uniform 0.5 when unknown).
    pub fn trust_of(&self, s: usize) -> f64 {
        self.trust.get(s).copied().unwrap_or(0.5)
    }
    /// Age of source `s`'s data in ticks (0 when unknown).
    pub fn age_of(&self, s: usize) -> u64 {
        self.age.get(s).copied().unwrap_or(0)
    }
}

/// A conflict-resolution strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Most supporting sources wins (the KBC redundancy assumption, §3.1).
    MajorityVote,
    /// The claim from the freshest source wins outright.
    Latest,
    /// Highest summed source trust wins.
    TrustWeighted,
    /// Trust × freshness-decay weighted vote: what transient attributes
    /// (prices) need — a fresh, trusted source outvotes a stale majority.
    TrustAndFreshness {
        /// Age (ticks) at which a source's weight has decayed to ~1/e.
        half_life: f64,
    },
}

/// A fused slot value with its support.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedValue {
    /// The winning value.
    pub value: Value,
    /// Weight of the winning agreement class.
    pub weight: f64,
    /// Total weight across classes (confidence = weight / total).
    pub total_weight: f64,
    /// Sources supporting the winner.
    pub supporters: Vec<usize>,
    /// Freshness of the best winning evidence in \[0, 1\] (1.0 for strategies
    /// that do not reason about time). Unanimous-but-stale agreement is NOT
    /// full confidence for a transient attribute: the price may have moved
    /// since everyone last looked.
    pub freshness: f64,
}

impl FusedValue {
    /// Normalized, freshness-tempered confidence in the winner.
    pub fn confidence(&self) -> f64 {
        if self.total_weight <= 0.0 {
            0.0
        } else {
            (self.weight / self.total_weight) * self.freshness
        }
    }
}

/// Resolve one slot's claims. Returns `None` when there are no claims.
pub fn fuse_attribute(
    claims: &ClaimSet,
    entity: usize,
    attr: usize,
    strategy: Strategy,
    ctx: &SourceContext,
) -> Option<FusedValue> {
    let slot = claims.slot(entity, attr);
    if slot.is_empty() {
        return None;
    }
    if let Strategy::Latest = strategy {
        let freshest = slot
            .iter()
            .min_by_key(|c| (ctx.age_of(c.source), c.source))
            .expect("nonempty"); // lint-allow: guarded by the is_empty check above
        return Some(FusedValue {
            value: freshest.value.clone(),
            weight: 1.0,
            total_weight: 1.0,
            supporters: vec![freshest.source],
            freshness: 1.0,
        });
    }
    let weight_of = |source: usize| -> f64 {
        match strategy {
            Strategy::MajorityVote => 1.0,
            Strategy::TrustWeighted => ctx.trust_of(source),
            Strategy::TrustAndFreshness { half_life } => {
                let decay = (-(ctx.age_of(source) as f64) / half_life.max(1e-9)).exp();
                ctx.trust_of(source) * decay
            }
            // Latest returns early above; a unit weight keeps this closure
            // total instead of panicking if that early return ever moves.
            Strategy::Latest => 1.0,
        }
    };
    let classes = claims.agreement_classes(&slot);
    let mut total = 0.0;
    let mut best: Option<(f64, Value, Vec<usize>)> = None;
    for (value, members) in classes {
        let w: f64 = members.iter().map(|c| weight_of(c.source)).sum();
        total += w;
        let supporters: Vec<usize> = members.iter().map(|c| c.source).collect();
        // Deterministic tie-break: keep the earlier class (source order).
        if best.as_ref().is_none_or(|(bw, _, _)| w > *bw) {
            best = Some((w, value, supporters));
        }
    }
    let (weight, value, supporters) = best.expect("nonempty slot"); // lint-allow: caller passes a nonempty slot
    // For time-aware fusion, the confidence is additionally tempered by the
    // freshest winning evidence.
    let freshness = match strategy {
        Strategy::TrustAndFreshness { half_life } => supporters
            .iter()
            .map(|&s| (-(ctx.age_of(s) as f64) / half_life.max(1e-9)).exp())
            .fold(0.0f64, f64::max),
        _ => 1.0,
    };
    Some(FusedValue {
        value,
        weight,
        total_weight: total,
        supporters,
        freshness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 stale sources agree on the old price 10; 1 fresh trusted source says 12.
    fn transient_scenario() -> (ClaimSet, SourceContext) {
        let mut cs = ClaimSet::new(4);
        cs.set_rel_tol(1e-6);
        for s in 0..3 {
            cs.add(0, 0, Value::Float(10.0), s);
        }
        cs.add(0, 0, Value::Float(12.0), 3);
        let ctx = SourceContext {
            trust: vec![0.6, 0.6, 0.6, 0.9],
            age: vec![9, 9, 9, 0],
        };
        (cs, ctx)
    }

    #[test]
    fn majority_vote_trusts_the_stale_crowd() {
        let (cs, ctx) = transient_scenario();
        let f = fuse_attribute(&cs, 0, 0, Strategy::MajorityVote, &ctx).unwrap();
        assert_eq!(f.value, Value::Float(10.0));
        assert_eq!(f.supporters.len(), 3);
        assert!((f.confidence() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn freshness_aware_fusion_recovers_the_live_price() {
        let (cs, ctx) = transient_scenario();
        let f = fuse_attribute(
            &cs,
            0,
            0,
            Strategy::TrustAndFreshness { half_life: 3.0 },
            &ctx,
        )
        .unwrap();
        assert_eq!(f.value, Value::Float(12.0));
        assert_eq!(f.supporters, vec![3]);
    }

    #[test]
    fn latest_strategy_picks_freshest_source() {
        let (cs, ctx) = transient_scenario();
        let f = fuse_attribute(&cs, 0, 0, Strategy::Latest, &ctx).unwrap();
        assert_eq!(f.value, Value::Float(12.0));
    }

    #[test]
    fn trust_weighted_overrules_untrusted_majority() {
        let mut cs = ClaimSet::new(3);
        cs.add(0, 0, "wrong".into(), 0);
        cs.add(0, 0, "wrong".into(), 1);
        cs.add(0, 0, "right".into(), 2);
        let ctx = SourceContext {
            trust: vec![0.2, 0.2, 0.95],
            age: vec![],
        };
        let f = fuse_attribute(&cs, 0, 0, Strategy::TrustWeighted, &ctx).unwrap();
        assert_eq!(f.value, Value::Str("right".into()));
    }

    #[test]
    fn empty_slot_is_none_and_single_claim_wins() {
        let mut cs = ClaimSet::new(1);
        assert!(
            fuse_attribute(&cs, 0, 0, Strategy::MajorityVote, &SourceContext::default()).is_none()
        );
        cs.add(0, 0, 7.into(), 0);
        let f =
            fuse_attribute(&cs, 0, 0, Strategy::MajorityVote, &SourceContext::default()).unwrap();
        assert_eq!(f.value, Value::Int(7));
        assert_eq!(f.confidence(), 1.0);
    }

    #[test]
    fn deterministic_tie_break() {
        let mut cs = ClaimSet::new(2);
        cs.add(0, 0, "a".into(), 0);
        cs.add(0, 0, "b".into(), 1);
        let f =
            fuse_attribute(&cs, 0, 0, Strategy::MajorityVote, &SourceContext::default()).unwrap();
        assert_eq!(f.value, Value::Str("a".into()));
        assert!((f.confidence() - 0.5).abs() < 1e-12);
    }
}
