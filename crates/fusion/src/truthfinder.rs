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

/// Result: per-source trust and the winning value + confidence per slot.
#[derive(Debug, Clone)]
pub struct TruthFinderResult {
    /// Trust per source index.
    pub trust: Vec<f64>,
    /// (entity, attr) → (winning value, confidence).
    pub decisions: BTreeMap<(usize, usize), (Value, f64)>,
    /// Iterations executed.
    pub iterations: usize,
}

impl TruthFinderResult {
    /// The decided value for a slot, if any claims existed.
    pub fn value(&self, entity: usize, attr: usize) -> Option<&Value> {
        self.decisions.get(&(entity, attr)).map(|(v, _)| v)
    }

    /// Confidence of the decided value.
    pub fn confidence(&self, entity: usize, attr: usize) -> Option<f64> {
        self.decisions.get(&(entity, attr)).map(|(_, c)| *c)
    }
}

/// Known-true facts used to anchor trust (master data): (entity, attr, value).
pub type Anchors = Vec<(usize, usize, Value)>;

/// What the master data says about an agreement class.
#[derive(Clone, Copy)]
enum Anchor {
    /// The class's slot has no anchor: confidence comes from trust.
    None,
    /// The anchor agrees with the class's value: full confidence.
    Agrees,
    /// The slot is anchored to another value: floored confidence.
    Contradicts,
}

/// Run truth discovery over a claim set.
///
/// Everything that does not depend on trust — the agreement classes and each
/// class's anchor verdict — is resolved before the loop, so an iteration
/// is arithmetic over [`ClaimIndex`](crate::claims::ClaimIndex)'s flat
/// arrays. Every f64 is produced by the expressions, in the order, of the
/// uncompiled loop this replaced (kept as the oracle in `tests/`): the miss
/// product runs in supporter order, a slot's confidences are summed and then
/// each divided by the sum, and sources are credited slot by slot, class by
/// class, supporter by supporter.
pub fn truthfinder(
    claims: &ClaimSet,
    cfg: &TruthFinderConfig,
    anchors: &Anchors,
) -> TruthFinderResult {
    let index = claims.index();
    let n = claims.num_sources();
    let mut trust = vec![cfg.initial_trust.clamp(0.05, 0.95); n];

    // The first anchor naming a slot decides it; anchors naming a slot
    // nobody claims decide nothing.
    let mut anchor = vec![Anchor::None; index.num_classes()];
    let mut anchored = vec![false; index.slots().len()];
    for (e, a, truth) in anchors {
        let Some(slot) = index.slot_no(*e, *a) else {
            continue;
        };
        if std::mem::replace(&mut anchored[slot], true) {
            continue;
        }
        for class in index.classes(slot) {
            let value = &claims.claims()[index.class_rep(class)].value;
            anchor[class] = if values_agree(value, truth, claims.rel_tol()) {
                Anchor::Agrees
            } else {
                Anchor::Contradicts
            };
        }
    }
    // How many claims each source makes: the divisor of its mean confidence.
    let mut claimed = vec![0usize; n];
    for c in claims.claims() {
        claimed[c.source] += 1;
    }

    // Confidence per class, normalized per slot; after the loop it holds the
    // last iteration's.
    let mut conf = vec![0.0f64; index.num_classes()];
    let mut credit = vec![0.0f64; n];
    let mut iterations = 0;
    for _ in 0..cfg.max_iterations {
        iterations += 1;
        // 1. Value confidence per agreement class from current trust:
        //    conf = 1 − Π(1 − γ·t_s) over supporters, normalized per slot.
        //    Master data overrides it: a known-true value gets full
        //    confidence, a contradicted one is floored.
        credit.fill(0.0);
        for slot in 0..index.slots().len() {
            let classes = index.classes(slot);
            for class in classes.clone() {
                conf[class] = match anchor[class] {
                    Anchor::None => {
                        let mut miss = 1.0;
                        for &s in index.supporters(class) {
                            miss *= 1.0 - cfg.dampening * trust[s as usize];
                        }
                        1.0 - miss
                    }
                    Anchor::Agrees => 1.0,
                    Anchor::Contradicts => 0.01,
                };
            }
            let total: f64 = conf[classes.clone()].iter().copied().sum();
            if total > 0.0 {
                for c in &mut conf[classes.clone()] {
                    *c /= total;
                }
            }
            for class in classes {
                for &s in index.supporters(class) {
                    credit[s as usize] += conf[class];
                }
            }
        }
        // 2. Trust update: mean confidence of the source's claims, dampened
        //    towards the previous value for stability.
        let mut max_delta = 0.0f64;
        for s in 0..n {
            if claimed[s] == 0 {
                continue;
            }
            let target = (credit[s] / claimed[s] as f64).clamp(0.02, 0.98);
            let next = 0.5 * trust[s] + 0.5 * target;
            max_delta = max_delta.max((next - trust[s]).abs());
            trust[s] = next;
        }
        if max_delta < cfg.epsilon {
            break;
        }
    }

    // The slot decisions of the last iteration: the most confident class,
    // the earlier one on a tie.
    let decisions = if iterations == 0 {
        BTreeMap::new()
    } else {
        let decide = |(slot, &key): (usize, &(usize, usize))| {
            let mut best: Option<(usize, f64)> = None;
            for class in index.classes(slot) {
                if best.is_none_or(|(_, bc)| conf[class] > bc) {
                    best = Some((class, conf[class]));
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
    };
    TruthFinderResult {
        trust,
        decisions,
        iterations,
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
        let r = truthfinder(&scenario(), &TruthFinderConfig::default(), &Vec::new());
        for s in 0..4 {
            assert!(r.trust[s] > r.trust[4] + 0.2, "trust {:?}", r.trust);
        }
        for e in 0..10 {
            assert_eq!(r.value(e, 0), Some(&Value::Int(e as i64 * 10)));
            assert!(r.confidence(e, 0).unwrap() > 0.6);
        }
    }

    #[test]
    fn converges_and_reports_iterations() {
        let r = truthfinder(&scenario(), &TruthFinderConfig::default(), &Vec::new());
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
        let anchors: Anchors = vec![(0, 0, "blue".into()), (1, 0, "blue".into())];
        let r = truthfinder(&cs, &TruthFinderConfig::default(), &anchors);
        // Anchored slots decide blue, and the blue camp's earned trust tips
        // the remaining unanchored slots too.
        for e in 0..6 {
            assert_eq!(
                r.value(e, 0),
                Some(&Value::Str("blue".into())),
                "entity {e}"
            );
        }
        assert!(r.trust[2] > r.trust[0]);
    }

    #[test]
    fn empty_claimset() {
        let cs = ClaimSet::new(3);
        let r = truthfinder(&cs, &TruthFinderConfig::default(), &Vec::new());
        assert!(r.decisions.is_empty());
        assert!(r.trust.iter().all(|&t| (t - 0.8).abs() < 1e-9));
    }

    #[test]
    fn numeric_tolerance_groups_close_claims() {
        let mut cs = ClaimSet::new(3);
        cs.set_rel_tol(0.01);
        cs.add(0, 0, Value::Float(100.0), 0);
        cs.add(0, 0, Value::Float(100.3), 1);
        cs.add(0, 0, Value::Float(57.0), 2);
        let r = truthfinder(&cs, &TruthFinderConfig::default(), &Vec::new());
        assert!(values_agree(
            r.value(0, 0).unwrap(),
            &Value::Float(100.0),
            0.01
        ));
    }
}
