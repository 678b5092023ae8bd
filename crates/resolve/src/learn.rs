//! Learning matching rules from labeled pairs (Corleone \[20\], hands-off
//! crowdsourcing for entity matching).
//!
//! Labeled duplicate/non-duplicate pairs — from the user or an aggregated
//! crowd — refine the matching rule: the decision threshold is set to the
//! F1-optimal cut over labeled scores, and field weights are tuned by
//! coordinate ascent. This is the §2.4 "feedback refines the automatically
//! generated rules" loop in executable form.

use wrangler_table::Table;

use crate::sim::{record_similarity, ErConfig};

/// One labeled pair.
#[derive(Debug, Clone, Copy)]
pub struct LabeledPair {
    /// Row indices.
    pub i: usize,
    /// Row indices.
    pub j: usize,
    /// True if the rows denote the same entity.
    pub is_match: bool,
}

/// Precision/recall/F1 of a rule on labeled pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrF1 {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

/// Evaluate a configuration against labels.
pub fn evaluate(
    table: &Table,
    labels: &[LabeledPair],
    cfg: &ErConfig,
) -> wrangler_table::Result<PrF1> {
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for l in labels {
        let predicted = record_similarity(table, l.i, l.j, cfg)? >= cfg.threshold;
        match (predicted, l.is_match) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    let precision = if tp + fp == 0 {
        1.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        1.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    Ok(PrF1 {
        precision,
        recall,
        f1,
    })
}

/// Fit the F1-optimal threshold for fixed weights: scores of all labeled
/// pairs are candidate cuts.
fn fit_threshold(
    table: &Table,
    labels: &[LabeledPair],
    cfg: &ErConfig,
) -> wrangler_table::Result<f64> {
    let mut scores: Vec<f64> = labels
        .iter()
        .map(|l| record_similarity(table, l.i, l.j, cfg))
        .collect::<wrangler_table::Result<_>>()?;
    scores.push(0.5);
    scores.sort_by(f64::total_cmp);
    scores.dedup();
    let mut best = (cfg.threshold, 0.0);
    for &t in &scores {
        // Keep thresholds in a sane band: noisy labels must not drive the
        // rule into merge-everything or merge-nothing regimes.
        let t = t.clamp(0.5, 0.995);
        let mut candidate = cfg.clone();
        candidate.threshold = t;
        let m = evaluate(table, labels, &candidate)?;
        if m.f1 > best.1 {
            best = (t, m.f1);
        }
    }
    Ok(best.0)
}

/// Refine a rule from labels: coordinate-ascent over field weights
/// (multiplying each by {0.5, 1, 2} and keeping improvements), refitting the
/// threshold at each step. Returns the improved config and its F1.
pub fn refine_rule(
    table: &Table,
    labels: &[LabeledPair],
    initial: &ErConfig,
    rounds: usize,
) -> wrangler_table::Result<(ErConfig, PrF1)> {
    let mut cfg = initial.clone();
    cfg.threshold = fit_threshold(table, labels, &cfg)?;
    let mut best = evaluate(table, labels, &cfg)?;
    for _ in 0..rounds {
        let mut improved = false;
        for fi in 0..cfg.fields.len() {
            for factor in [0.5, 2.0] {
                let mut cand = cfg.clone();
                cand.fields[fi].weight *= factor;
                cand.threshold = fit_threshold(table, labels, &cand)?;
                let m = evaluate(table, labels, &cand)?;
                if m.f1 > best.f1 + 1e-9 {
                    cfg = cand;
                    best = m;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Ok((cfg, best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FieldSim, SimKind};

    /// Names are noisy; sku is the reliable signal. A good learner should
    /// upweight sku and pick a sane threshold.
    fn t() -> Table {
        Table::literal(
            &["name", "sku"],
            vec![
                vec!["Acme Widget".into(), "a1".into()],
                vec!["Widget by Acme (Pro)".into(), "a1".into()], // dupe (rebranded)
                vec!["Acme Widget".into(), "a9".into()],          // NOT a dupe (same name!)
                vec!["Bolt Gadget".into(), "b2".into()],
                vec!["Bolt Gadget".into(), "b2".into()], // dupe
                vec!["Stark Flange".into(), "s3".into()],
            ],
        )
        .unwrap()
    }

    fn labels() -> Vec<LabeledPair> {
        vec![
            LabeledPair {
                i: 0,
                j: 1,
                is_match: true,
            },
            LabeledPair {
                i: 0,
                j: 2,
                is_match: false,
            },
            LabeledPair {
                i: 1,
                j: 2,
                is_match: false,
            },
            LabeledPair {
                i: 3,
                j: 4,
                is_match: true,
            },
            LabeledPair {
                i: 3,
                j: 5,
                is_match: false,
            },
            LabeledPair {
                i: 0,
                j: 3,
                is_match: false,
            },
        ]
    }

    fn initial() -> ErConfig {
        ErConfig {
            fields: vec![
                FieldSim {
                    column: "name".into(),
                    weight: 1.0,
                    kind: SimKind::Text,
                },
                FieldSim {
                    column: "sku".into(),
                    weight: 1.0,
                    kind: SimKind::Exact,
                },
            ],
            threshold: 0.97,
        }
    }

    #[test]
    fn evaluate_counts_correctly() {
        // With threshold 0.97 only exact pairs match: (3,4) tp, (0,1) fn.
        let m = evaluate(&t(), &labels(), &initial()).unwrap();
        assert!((m.recall - 0.5).abs() < 1e-12, "{m:?}");
        assert_eq!(m.precision, 1.0);
    }

    #[test]
    fn threshold_fitting_improves_f1() {
        let cfg = initial();
        let before = evaluate(&t(), &labels(), &cfg).unwrap();
        let mut tuned = cfg.clone();
        tuned.threshold = fit_threshold(&t(), &labels(), &cfg).unwrap();
        let after = evaluate(&t(), &labels(), &tuned).unwrap();
        assert!(after.f1 >= before.f1);
        assert!(after.f1 > 0.6, "{after:?}");
    }

    #[test]
    fn refinement_reaches_perfect_f1_on_separable_data() {
        let (cfg, m) = refine_rule(&t(), &labels(), &initial(), 5).unwrap();
        assert!((m.f1 - 1.0).abs() < 1e-9, "{m:?} with {cfg:?}");
        // The learner leaned on sku: its weight should not have shrunk
        // relative to the noisy name field.
        let name_w = cfg.fields[0].weight;
        let sku_w = cfg.fields[1].weight;
        assert!(sku_w >= name_w, "sku {sku_w} vs name {name_w}");
    }

    #[test]
    fn empty_labels_are_vacuous() {
        let m = evaluate(&t(), &[], &initial()).unwrap();
        assert_eq!(m.f1, 1.0);
    }
}
