//! Iterative truth discovery (after Yin, Han & Yu, TruthFinder \[36\]).
//!
//! Source trust and value confidence are mutually recursive: a value is
//! credible if trusted sources claim it; a source is trustworthy if its
//! claims are credible. Fixed-point iteration from a uniform prior separates
//! good sources from bad ones *without any labels*, purely from the
//! agreement structure — and master data (§2.3) can seed it with a handful
//! of known-true facts to break symmetry faster.

use std::collections::BTreeMap;

use wrangler_table::Value;

use crate::claims::{values_agree, ClaimSet};

/// Configuration.
#[derive(Debug, Clone)]
pub struct TruthFinderConfig {
    /// Maximum fixed-point iterations.
    pub max_iterations: usize,
    /// Convergence threshold on max trust change.
    pub epsilon: f64,
    /// Dampening factor γ in the trust update (guards overconfidence).
    pub dampening: f64,
    /// Initial source trust.
    pub initial_trust: f64,
}

impl Default for TruthFinderConfig {
    fn default() -> Self {
        TruthFinderConfig {
            max_iterations: 20,
            epsilon: 1e-6,
            dampening: 0.3,
            initial_trust: 0.8,
        }
    }
}

/// Result: per-source trust, and the class confidences the slot decisions
/// are read from.
#[derive(Debug, Clone)]
pub struct TruthFinderResult {
    /// Trust per source index.
    pub trust: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// The last iteration's confidence per agreement class of the claim
    /// set's [`ClaimIndex`](crate::claims::ClaimIndex), normalized per slot.
    pub confidence: Vec<f64>,
}

impl TruthFinderResult {
    /// The slot decisions of the last iteration, `(entity, attr) → (value,
    /// confidence)`: each slot's most confident class, the earlier one on a
    /// tie. `claims` must be the claim set the result was computed over.
    /// Empty when no iteration ran.
    pub fn decisions(&self, claims: &ClaimSet) -> BTreeMap<(usize, usize), (Value, f64)> {
        if self.iterations == 0 {
            return BTreeMap::new();
        }
        let index = claims.index();
        let decide = |(slot, &key): (usize, &(usize, usize))| {
            let mut best: Option<(usize, f64)> = None;
            for class in index.classes(slot) {
                let c = self.confidence[class];
                if best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((class, c));
                }
            }
            let (class, c) = best?;
            let value = claims.claims()[index.class_rep(class)].value.clone();
            Some((key, (value, c)))
        };
        index
            .slots()
            .iter()
            .enumerate()
            .filter_map(decide)
            .collect()
    }
}

/// Known-true facts used to anchor trust (master data): (entity, attr,
/// value), the value borrowed from wherever the truth lives.
pub type Anchors<'a> = Vec<(usize, usize, &'a Value)>;

/// Divide each of a slot's class confidences by their sum, when it is
/// positive.
fn normalize(conf: &mut [f64]) {
    let total: f64 = conf.iter().copied().sum();
    if total > 0.0 {
        for c in conf {
            *c /= total;
        }
    }
}

/// The position of the first of the sorted `slots` not below `key`. The
/// search gallops forward from `from` when every slot before `from` is below
/// `key` — when keys come in ascending order — and bisects the whole list
/// otherwise.
fn seek(slots: &[(usize, usize)], from: usize, key: (usize, usize)) -> usize {
    if from > 0 && slots[from - 1] >= key {
        return slots.partition_point(|&s| s < key);
    }
    // Every slot before `lo` is below `key`.
    let mut lo = from;
    let mut step = 1;
    while lo + step <= slots.len() && slots[lo + step - 1] < key {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(slots.len());
    lo + slots[lo..hi].partition_point(|&s| s < key)
}

/// Run truth discovery over a claim set.
///
/// Everything that does not depend on trust is settled before the loop:
/// the agreement classes come from the claim set's
/// [`ClaimIndex`](crate::claims::ClaimIndex); an anchored slot's
/// confidences never change, so they are computed once; and each source's
/// supported classes are listed once, in the order the loop credits them.
/// An iteration then computes the unanchored slots' confidences and sums
/// each source's list. Every f64 is produced by the expressions, in the
/// order, of the uncompiled loop this replaced (kept as the oracle in
/// `tests/`): the miss product runs in supporter order, a slot's
/// confidences are summed and then each divided by the sum, and a source is
/// credited slot by slot, class by class, supporter by supporter.
pub fn truthfinder(
    claims: &ClaimSet,
    cfg: &TruthFinderConfig,
    anchors: &[(usize, usize, &Value)],
) -> TruthFinderResult {
    let index = claims.index();
    let n = claims.num_sources();
    let mut trust = vec![cfg.initial_trust.clamp(0.05, 0.95); n];
    let mut conf = vec![0.0f64; index.num_classes()];

    // Master data overrides trust: the first anchor naming a slot decides
    // it — full confidence to the classes that agree with it, a floor to
    // the rest, normalized — and anchors naming a slot nobody claims decide
    // nothing. The remaining slots are the ones an iteration computes.
    let slots = index.slots();
    let mut anchored = vec![false; slots.len()];
    // The pass lists its anchors in slot order, so each search starts where
    // the last one ended.
    let mut from = 0;
    for &(e, a, truth) in anchors {
        let slot = seek(slots, from, (e, a));
        from = slot;
        if slots.get(slot) != Some(&(e, a)) || std::mem::replace(&mut anchored[slot], true) {
            continue;
        }
        let classes = index.classes(slot);
        for class in classes.clone() {
            let value = &claims.claims()[index.class_rep(class)].value;
            conf[class] = if values_agree(value, truth, claims.rel_tol()) {
                1.0
            } else {
                0.01
            };
        }
        normalize(&mut conf[classes]);
    }
    let live: Vec<usize> = (0..anchored.len()).filter(|&slot| !anchored[slot]).collect();

    // The classes each source supports, one entry per claim, in the order
    // the slots, their classes and the classes' supporters come: the order
    // its credit is summed in. The length of the list is how many claims
    // the source makes, the divisor of its mean confidence.
    let mut supported: Vec<Vec<u32>> = vec![Vec::new(); n];
    for class in 0..index.num_classes() {
        for &s in index.supporters(class) {
            supported[s as usize].push(class as u32);
        }
    }

    let mut factor = vec![0.0f64; n];
    let mut iterations = 0;
    for _ in 0..cfg.max_iterations {
        iterations += 1;
        // 1. Value confidence per agreement class from current trust:
        //    conf = 1 − Π(1 − γ·t_s) over supporters, normalized per slot.
        for (f, &t) in factor.iter_mut().zip(&trust) {
            *f = 1.0 - cfg.dampening * t;
        }
        let miss = |class: usize| {
            let mut miss = 1.0;
            for &s in index.supporters(class) {
                miss *= factor[s as usize];
            }
            miss
        };
        for &slot in &live {
            let classes = index.classes(slot);
            if classes.len() == 1 {
                // A lone class normalizes to x / x, which is exactly 1 for
                // any positive x; zero or less is left as it is.
                let x = 1.0 - miss(classes.start);
                conf[classes.start] = if x > 0.0 { 1.0 } else { x };
            } else {
                for class in classes.clone() {
                    conf[class] = 1.0 - miss(class);
                }
                normalize(&mut conf[classes]);
            }
        }
        // 2. Trust update: mean confidence of the source's claims, dampened
        //    towards the previous value for stability.
        let mut max_delta = 0.0f64;
        for (s, classes) in supported.iter().enumerate() {
            if classes.is_empty() {
                continue;
            }
            let mut credit = 0.0;
            for &class in classes {
                credit += conf[class as usize];
            }
            let target = (credit / classes.len() as f64).clamp(0.02, 0.98);
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
        iterations,
        confidence: conf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 honest sources agree on most facts; 1 liar contradicts everywhere.
    fn scenario() -> ClaimSet {
        let mut cs = ClaimSet::new(5);
        for e in 0..10 {
            for s in 0..4 {
                cs.add(e, 0, Value::Int(e as i64 * 10), s);
            }
            cs.add(e, 0, Value::Int(999), 4); // the liar
        }
        cs
    }

    #[test]
    fn honest_sources_earn_more_trust_than_liars() {
        let cs = scenario();
        let r = truthfinder(&cs, &TruthFinderConfig::default(), &[]);
        for s in 0..4 {
            assert!(r.trust[s] > r.trust[4] + 0.2, "trust {:?}", r.trust);
        }
        let decisions = r.decisions(&cs);
        for e in 0..10 {
            let (value, confidence) = &decisions[&(e, 0)];
            assert_eq!(value, &Value::Int(e as i64 * 10));
            assert!(*confidence > 0.6);
        }
    }

    #[test]
    fn converges_and_reports_iterations() {
        let r = truthfinder(&scenario(), &TruthFinderConfig::default(), &[]);
        assert!(r.iterations <= 20);
        assert!(r.iterations >= 2);
    }

    #[test]
    fn anchors_break_a_tie() {
        // Two equal camps; without anchors the first class wins by tie-break.
        let mut cs = ClaimSet::new(4);
        for e in 0..6 {
            cs.add(e, 0, "red".into(), 0);
            cs.add(e, 0, "red".into(), 1);
            cs.add(e, 0, "blue".into(), 2);
            cs.add(e, 0, "blue".into(), 3);
        }
        let blue: Value = "blue".into();
        let anchors: Anchors = vec![(0, 0, &blue), (1, 0, &blue)];
        let r = truthfinder(&cs, &TruthFinderConfig::default(), &anchors);
        // Anchored slots decide blue, and the blue camp's earned trust tips
        // the remaining unanchored slots too.
        let decisions = r.decisions(&cs);
        for e in 0..6 {
            assert_eq!(decisions[&(e, 0)].0, blue, "entity {e}");
        }
        assert!(r.trust[2] > r.trust[0]);
    }

    #[test]
    fn empty_claimset() {
        let cs = ClaimSet::new(3);
        let r = truthfinder(&cs, &TruthFinderConfig::default(), &[]);
        assert!(r.decisions(&cs).is_empty());
        assert!(r.trust.iter().all(|&t| (t - 0.8).abs() < 1e-9));
    }

    #[test]
    fn numeric_tolerance_groups_close_claims() {
        let mut cs = ClaimSet::new(3);
        cs.set_rel_tol(0.01);
        cs.add(0, 0, Value::Float(100.0), 0);
        cs.add(0, 0, Value::Float(100.3), 1);
        cs.add(0, 0, Value::Float(57.0), 2);
        let r = truthfinder(&cs, &TruthFinderConfig::default(), &[]);
        assert!(values_agree(
            &r.decisions(&cs)[&(0, 0)].0,
            &Value::Float(100.0),
            0.01
        ));
    }
}
