//! Source selection under a user context.
//!
//! Two strategies from the paper's related work:
//!
//! * **Greedy utility selection** — rank sources by the multi-criteria
//!   utility of their quality vectors under the user context, take the best
//!   within budget / source cap. This is the baseline "use the best k".
//! * **Marginal-gain selection** (Dong, Saha, Srivastava, "Less is more"
//!   \[16\]) — integrate sources one by one, each time adding the source with
//!   the highest *marginal* gain in integrated quality net of cost, and stop
//!   as soon as the best marginal gain is non-positive. Because low-accuracy
//!   sources can *hurt* fused accuracy, the optimum is usually a strict
//!   subset of the available sources (experiment E8).

use wrangler_context::{Criterion, QualityVector, UserContext};

use crate::registry::SourceId;

/// Estimated per-source properties used by selection (estimates, not truths:
/// produced by profiling, master-data coverage, and feedback-updated trust).
#[derive(Debug, Clone, Copy)]
pub struct SourceEstimate {
    /// Which source.
    pub id: SourceId,
    /// Estimated fraction of the wanted entities the source covers.
    pub coverage: f64,
    /// Estimated fraction of its values that are correct.
    pub accuracy: f64,
    /// Age of the source's data in ticks.
    pub age: u64,
    /// Cost of integrating the source.
    pub cost: f64,
    /// Relevance to the data context in \[0, 1\].
    pub relevance: f64,
    /// Operational availability in \[0, 1\]: 1 for a source believed healthy,
    /// 0 for one currently quarantined by the acquisition layer's circuit
    /// breaker, in between for sources on probation (half-open breaker).
    /// Selection discounts expected coverage by it — an excellent source that
    /// cannot be reached contributes nothing.
    pub availability: f64,
}

impl SourceEstimate {
    /// Coverage discounted by the probability the source answers at all.
    fn effective_coverage(&self) -> f64 {
        (self.coverage * self.availability).clamp(0.0, 1.0)
    }
}

/// Quality vector of a *single* source estimate under the user context.
fn estimate_quality(est: &SourceEstimate, user: &UserContext) -> QualityVector {
    QualityVector::neutral()
        .with(Criterion::Completeness, est.effective_coverage())
        .with(Criterion::Accuracy, est.accuracy)
        .with(Criterion::Timeliness, user.timeliness_of_age(est.age))
        .with(Criterion::Consistency, est.accuracy) // proxy: error-free data is self-consistent
        .with(Criterion::Relevance, est.relevance)
        .with(Criterion::Cost, cost_score(est.cost, user))
}

fn cost_score(cost: f64, user: &UserContext) -> f64 {
    if user.budget.is_infinite() || user.budget <= 0.0 {
        1.0
    } else {
        (1.0 - cost / user.budget).clamp(0.0, 1.0)
    }
}

/// Greedy per-source utility selection: rank by utility, keep the prefix that
/// fits the budget and the source cap. Irrelevant sources (relevance 0) and
/// unreachable sources (availability 0, i.e. quarantined) are excluded
/// outright.
pub fn select_greedy_utility(estimates: &[SourceEstimate], user: &UserContext) -> Vec<SourceId> {
    let mut scored: Vec<(f64, &SourceEstimate)> = estimates
        .iter()
        .filter(|e| e.relevance > 0.0 && e.availability > 0.0)
        .map(|e| (user.utility(&estimate_quality(e, user)), e))
        .collect();
    // total_cmp keeps the rank total under NaN utilities; ties break on the
    // stable source id so selection is order-independent.
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.id.cmp(&b.1.id)));
    let cap = user.max_sources.unwrap_or(usize::MAX);
    let mut spent = 0.0;
    let mut out = Vec::new();
    for (_, e) in scored {
        if out.len() >= cap {
            break;
        }
        if spent + e.cost > user.budget {
            continue;
        }
        spent += e.cost;
        out.push(e.id);
    }
    out
}

/// Quality of an *integrated set* of sources, under independence assumptions:
///
/// * completeness: probabilistic union `1 − Π(1 − coverage_i)`;
/// * accuracy: coverage-weighted mean accuracy (each source contributes
///   values in proportion to its coverage) — adding an inaccurate source
///   therefore *dilutes* accuracy, which is what makes "less is more" true;
/// * timeliness: coverage-weighted mean;
/// * cost criterion: remaining-budget fraction.
pub fn set_quality(set: &[&SourceEstimate], user: &UserContext) -> QualityVector {
    if set.is_empty() {
        return QualityVector::uniform(0.0).with(Criterion::Cost, 1.0);
    }
    let mut miss = 1.0;
    let mut wacc = 0.0;
    let mut wtim = 0.0;
    let mut wrel = 0.0;
    let mut wsum = 0.0;
    let mut cost = 0.0;
    for e in set {
        miss *= 1.0 - e.effective_coverage();
        let w = e.effective_coverage().max(1e-9);
        wacc += w * e.accuracy;
        wtim += w * user.timeliness_of_age(e.age);
        wrel += w * e.relevance;
        wsum += w;
        cost += e.cost;
    }
    QualityVector::neutral()
        .with(Criterion::Completeness, 1.0 - miss)
        .with(Criterion::Accuracy, wacc / wsum)
        .with(Criterion::Timeliness, wtim / wsum)
        .with(Criterion::Consistency, wacc / wsum)
        .with(Criterion::Relevance, wrel / wsum)
        .with(Criterion::Cost, cost_score(cost, user))
}

/// One step of the marginal-gain trace.
#[derive(Debug, Clone, Copy)]
pub struct GainStep {
    /// Source added at this step.
    pub id: SourceId,
    /// Utility of the integrated set after adding it.
    pub utility: f64,
    /// Marginal gain over the previous step.
    pub gain: f64,
    /// Cumulative cost.
    pub cost: f64,
}

/// Marginal-gain selection \[16\]: greedily add the source with the highest
/// positive marginal utility; stop when no candidate improves utility or the
/// budget/cap would be exceeded. Returns the selected ids and the full trace
/// (useful for plotting the E8 curve — the trace *includes* the stopping
/// point but not rejected candidates).
pub fn select_marginal_gain(
    estimates: &[SourceEstimate],
    user: &UserContext,
) -> (Vec<SourceId>, Vec<GainStep>) {
    let mut remaining: Vec<&SourceEstimate> = estimates.iter().collect();
    let mut chosen: Vec<&SourceEstimate> = Vec::new();
    let mut trace = Vec::new();
    let mut current = user.utility(&set_quality(&chosen, user));
    let cap = user.max_sources.unwrap_or(usize::MAX);
    let mut spent = 0.0;
    while chosen.len() < cap && !remaining.is_empty() {
        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in remaining.iter().enumerate() {
            if spent + cand.cost > user.budget {
                continue;
            }
            let mut tentative = chosen.clone();
            tentative.push(cand);
            let u = user.utility(&set_quality(&tentative, user));
            if best.is_none_or(|(_, bu)| u > bu) {
                best = Some((i, u));
            }
        }
        match best {
            Some((i, u)) if u > current => {
                let cand = remaining.remove(i);
                spent += cand.cost;
                chosen.push(cand);
                trace.push(GainStep {
                    id: cand.id,
                    utility: u,
                    gain: u - current,
                    cost: spent,
                });
                current = u;
            }
            _ => break,
        }
    }
    (chosen.iter().map(|e| e.id).collect(), trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(id: u32, coverage: f64, accuracy: f64, cost: f64) -> SourceEstimate {
        SourceEstimate {
            id: SourceId(id),
            coverage,
            accuracy,
            age: 0,
            cost,
            relevance: 1.0,
            availability: 1.0,
        }
    }

    #[test]
    fn greedy_respects_budget_and_cap() {
        let ests = vec![
            est(0, 0.9, 0.9, 5.0),
            est(1, 0.8, 0.8, 5.0),
            est(2, 0.7, 0.7, 5.0),
        ];
        let user = UserContext::balanced("t").with_budget(10.0);
        let sel = select_greedy_utility(&ests, &user);
        assert_eq!(sel, vec![SourceId(0), SourceId(1)]);
        let user = UserContext::balanced("t").with_max_sources(1);
        let sel = select_greedy_utility(&ests, &user);
        assert_eq!(sel, vec![SourceId(0)]);
    }

    #[test]
    fn greedy_excludes_irrelevant() {
        let mut e = est(0, 0.9, 0.9, 1.0);
        e.relevance = 0.0;
        let sel = select_greedy_utility(&[e, est(1, 0.5, 0.5, 1.0)], &UserContext::balanced("t"));
        assert_eq!(sel, vec![SourceId(1)]);
    }

    #[test]
    fn greedy_excludes_quarantined() {
        let mut e = est(0, 0.9, 0.9, 1.0);
        e.availability = 0.0;
        let sel = select_greedy_utility(&[e, est(1, 0.5, 0.5, 1.0)], &UserContext::balanced("t"));
        assert_eq!(sel, vec![SourceId(1)]);
    }

    #[test]
    fn availability_discounts_set_coverage() {
        let healthy = est(0, 0.8, 0.9, 0.0);
        let mut shaky = est(0, 0.8, 0.9, 0.0);
        shaky.availability = 0.5;
        let user = UserContext::balanced("t");
        let q_healthy = set_quality(&[&healthy], &user);
        let q_shaky = set_quality(&[&shaky], &user);
        assert!(
            q_shaky.get(Criterion::Completeness) < q_healthy.get(Criterion::Completeness),
            "a flaky source promises less coverage"
        );
    }

    #[test]
    fn set_quality_union_coverage() {
        let a = est(0, 0.5, 1.0, 0.0);
        let b = est(1, 0.5, 1.0, 0.0);
        let user = UserContext::balanced("t");
        let q = set_quality(&[&a, &b], &user);
        assert!((q.get(Criterion::Completeness) - 0.75).abs() < 1e-12);
        assert!((q.get(Criterion::Accuracy) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inaccurate_sources_dilute_accuracy() {
        let good = est(0, 0.6, 0.95, 0.0);
        let bad = est(1, 0.6, 0.4, 0.0);
        let user = UserContext::balanced("t");
        let q1 = set_quality(&[&good], &user);
        let q2 = set_quality(&[&good, &bad], &user);
        assert!(q2.get(Criterion::Accuracy) < q1.get(Criterion::Accuracy));
        assert!(q2.get(Criterion::Completeness) > q1.get(Criterion::Completeness));
    }

    #[test]
    fn less_is_more_stops_before_bad_sources() {
        // Three good sources, then a tail of junk. Accuracy-weighted context.
        let mut ests = vec![
            est(0, 0.7, 0.95, 0.1),
            est(1, 0.6, 0.93, 0.1),
            est(2, 0.5, 0.9, 0.1),
        ];
        for i in 3..20 {
            ests.push(est(i, 0.3, 0.3, 0.1));
        }
        let user = UserContext::accuracy_first();
        let (sel, trace) = select_marginal_gain(&ests, &user);
        assert!(!sel.is_empty());
        assert!(
            sel.len() < ests.len(),
            "selected {} of {}",
            sel.len(),
            ests.len()
        );
        assert!(sel.iter().all(|s| s.0 < 3), "only good sources: {sel:?}");
        // Trace gains are positive and utilities non-decreasing.
        for w in trace.windows(2) {
            assert!(w[1].utility >= w[0].utility);
        }
        assert!(trace.iter().all(|s| s.gain > 0.0));
    }

    #[test]
    fn marginal_gain_respects_budget() {
        let ests = vec![est(0, 0.9, 0.95, 6.0), est(1, 0.9, 0.95, 6.0)];
        let user = UserContext::accuracy_first().with_budget(6.0);
        let (sel, _) = select_marginal_gain(&ests, &user);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn empty_estimates() {
        let user = UserContext::balanced("t");
        assert!(select_greedy_utility(&[], &user).is_empty());
        let (sel, trace) = select_marginal_gain(&[], &user);
        assert!(sel.is_empty() && trace.is_empty());
    }
}
