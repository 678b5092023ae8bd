//! Uncertain query answering over wrangled output (§4.3).
//!
//! "For the architecture of Figure 1 there is the additional requirement to
//! reason with uncertainty over potentially numerous sources of evidence;
//! this is a serious issue since even in the classical settings data
//! uncertainty often leads to intractability of the most basic data
//! processing tasks \[1, 23\]."
//!
//! Exact query evaluation under tuple-level uncertainty is #P-hard; the
//! tractable tool is Monte-Carlo evaluation over possible worlds. This
//! module views a wrangled table as a set of independent uncertain facts
//! (each row exists with its delivered `_confidence`) and answers count and
//! aggregate queries with error bars, so downstream analysis "builds on a
//! sound understanding of the available evidence".

use wrangler_table::expr::BoundExpr;
use wrangler_table::{Expr, Table};
use wrangler_uncertainty::worlds::UncertainFacts;

/// A wrangled table viewed under possible-worlds semantics.
#[derive(Debug, Clone)]
pub struct UncertainView {
    table: Table,
    facts: UncertainFacts,
}

/// A Monte-Carlo estimate with its spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Mean over sampled worlds.
    pub mean: f64,
    /// Standard deviation over sampled worlds.
    pub std_dev: f64,
}

impl UncertainView {
    /// Build from a wrangled table carrying a `_confidence` column; each row
    /// is an independent fact existing with that probability.
    pub fn new(table: Table) -> wrangler_table::Result<UncertainView> {
        let conf = table.column_named("_confidence")?;
        let mut facts = UncertainFacts::new();
        for v in conf {
            facts.add(v.as_f64().unwrap_or(0.0));
        }
        Ok(UncertainView { table, facts })
    }

    /// Number of (uncertain) rows.
    pub fn len(&self) -> usize {
        self.table.num_rows()
    }

    /// True if the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.table.num_rows() == 0
    }

    /// Estimate `COUNT(*) WHERE predicate` over possible worlds.
    pub fn estimate_count(
        &self,
        predicate: &Expr,
        seed: u64,
        samples: usize,
    ) -> wrangler_table::Result<Estimate> {
        let matching = self.matching_rows(predicate)?;
        self.sampled(seed, samples, move |world| {
            matching.iter().filter(|&&r| world[r]).count() as f64
        })
    }

    /// Probability that at least one row satisfies the predicate.
    pub fn estimate_exists(
        &self,
        predicate: &Expr,
        seed: u64,
        samples: usize,
    ) -> wrangler_table::Result<f64> {
        let matching = self.matching_rows(predicate)?;
        if matching.is_empty() {
            return Ok(0.0);
        }
        // Independent facts: closed form beats sampling here.
        let miss: f64 = matching.iter().map(|&r| 1.0 - self.facts.prob(r)).product();
        let _ = (seed, samples);
        Ok(1.0 - miss)
    }

    fn matching_rows(&self, predicate: &Expr) -> wrangler_table::Result<Vec<usize>> {
        let bound: BoundExpr = predicate.bind(self.table.schema())?;
        let mut out = Vec::new();
        for i in 0..self.table.num_rows() {
            let row = self.table.row(i);
            if bound.eval_predicate(&row)? {
                out.push(i);
            }
        }
        Ok(out)
    }

    fn sampled<F: FnMut(&[bool]) -> f64>(
        &self,
        seed: u64,
        samples: usize,
        mut f: F,
    ) -> wrangler_table::Result<Estimate> {
        assert!(samples > 0, "need at least one sample");
        let mut sum = 0.0;
        let mut sq = 0.0;
        let mut rng = wrangler_uncertainty::worlds::XorShift64::new(seed);
        for _ in 0..samples {
            let world = self.facts.sample(&mut rng);
            let x = f(&world);
            sum += x;
            sq += x * x;
        }
        let mean = sum / samples as f64;
        let var = (sq / samples as f64 - mean * mean).max(0.0);
        Ok(Estimate {
            mean,
            std_dev: var.sqrt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::Value;

    fn view() -> UncertainView {
        let t = Table::literal(
            &["sku", "price", "_confidence"],
            vec![
                vec!["a".into(), Value::Float(10.0), Value::Float(1.0)],
                vec!["b".into(), Value::Float(20.0), Value::Float(0.5)],
                vec!["c".into(), Value::Float(30.0), Value::Float(0.0)],
                vec!["d".into(), Value::Float(40.0), Value::Float(0.8)],
            ],
        )
        .unwrap();
        UncertainView::new(t).unwrap()
    }

    #[test]
    fn count_estimates_match_expectation() {
        let v = view();
        // All rows match: expected count = 1 + 0.5 + 0 + 0.8 = 2.3.
        let e = v.estimate_count(&Expr::lit(true), 7, 20_000).unwrap();
        assert!((e.mean - 2.3).abs() < 0.05, "mean {}", e.mean);
        assert!(e.std_dev > 0.0);
        // Certain subset: price <= 10 matches only the certain row.
        let e = v
            .estimate_count(&Expr::col("price").le(Expr::lit(10.0)), 7, 5_000)
            .unwrap();
        assert!((e.mean - 1.0).abs() < 1e-9);
        assert_eq!(e.std_dev, 0.0);
    }

    #[test]
    fn exists_is_closed_form() {
        let v = view();
        // price > 15 matches rows b (0.5), c (0.0), d (0.8):
        // P(exists) = 1 − 0.5·1.0·0.2 = 0.9.
        let p = v
            .estimate_exists(&Expr::col("price").gt(Expr::lit(15.0)), 1, 1)
            .unwrap();
        assert!((p - 0.9).abs() < 1e-9);
        // Impossible predicate.
        let p = v
            .estimate_exists(&Expr::col("price").gt(Expr::lit(1e9)), 1, 1)
            .unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let v = view();
        let a = v.estimate_count(&Expr::lit(true), 42, 1000).unwrap();
        let b = v.estimate_count(&Expr::lit(true), 42, 1000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_confidence_column_is_error() {
        let t = Table::literal(&["x"], vec![vec![Value::Int(1)]]).unwrap();
        assert!(UncertainView::new(t).is_err());
    }
}
