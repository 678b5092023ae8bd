//! `wrangler-resolve` — entity resolution (duplicate detection across
//! sources).
//!
//! Integrated data contains the same real-world entity many times — the
//! paper's Example 5 uses crowdsourcing "to identify duplicates, and thereby
//! to refine the automatically generated rules that determine when two
//! records represent the same real-world object \[20\]" (Corleone). The crate
//! provides the full classical stack:
//!
//! * [`sim`] — weighted record similarity over typed field comparators;
//! * [`kernel`] — the [`ErKernel`]: a config precompiled against one table
//!   (columns resolved, text and key columns dictionary-encoded so each
//!   distinct value pair is compared once). It answers *which candidates
//!   match* by grouping the rows into record classes and deciding each
//!   candidate class pair once, from bounds on its score
//!   ([`ErKernel::decide_union`], what the wrangle stage runs), and
//!   *what a pair scores* over a written-down list, serially or across a
//!   deterministic blocked worker pool, bit-identical to the serial path —
//!   the reference the decision is tested against;
//! * [`blocking`] — key-based blocking and sorted-neighbourhood candidate
//!   generation, versus the naive O(n²) baseline (the §4.3 scalability
//!   experiment E7 measures the crossover), and [`UnionBlocks`], the
//!   list-free name ∪ key blocking keys the wrangle stage classes and blocks
//!   its record classes by ([`candidates_union`] writes the candidates
//!   down);
//! * [`cluster`] — union-find clustering of matched pairs, or of matched
//!   class pairs expanded to rows, into entities;
//! * [`learn`] — threshold/weight learning from labeled pairs, the
//!   hands-off rule refinement of \[20\]: crowd labels in, better rules out.

pub mod blocking;
pub mod cluster;
mod dict;
pub mod kernel;
pub mod learn;
pub mod sim;

pub use blocking::{
    candidates_blocked, candidates_blocked_exact, candidates_naive, candidates_sorted_neighborhood,
    candidates_union, UnionBlocks,
};
pub use cluster::{cluster_pairs, UnionFind};
pub use dict::PriorIds;
pub use kernel::{ErKernel, PriorWalk, UnionMatches, WorkerStat};
pub use sim::{record_similarity, ErConfig, FieldSim, SimKind};

use wrangler_table::Table;

/// A scored candidate pair (row indices, `i < j`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPair {
    /// Lower row index.
    pub i: usize,
    /// Higher row index.
    pub j: usize,
    /// Record similarity in \[0, 1\].
    pub score: f64,
}

/// Score candidate pairs serially and keep those at or above the config
/// threshold. This is the uncompiled reference path — it re-renders both
/// rows for every pair — kept as the correctness oracle and the E14
/// baseline; the hot path is [`ErKernel`]. Column names are validated up
/// front, so an unknown column errors before any scoring (even with zero
/// candidates).
pub fn match_pairs(
    table: &Table,
    candidates: &[(usize, usize)],
    cfg: &ErConfig,
) -> wrangler_table::Result<Vec<ScoredPair>> {
    let cols = sim::resolve_columns(table, cfg)?;
    let mut out = Vec::new();
    for &(i, j) in candidates {
        let score = sim::record_similarity_resolved(table, i, j, cfg, &cols)?;
        if score >= cfg.threshold {
            out.push(ScoredPair {
                i: i.min(j),
                j: i.max(j),
                score,
            });
        }
    }
    Ok(out)
}

/// End-to-end ER: block, match (via the precompiled kernel), cluster.
/// Returns entity clusters of row indices (singletons included), in order
/// of first row.
pub fn resolve(
    table: &Table,
    blocking_column: &str,
    cfg: &ErConfig,
) -> wrangler_table::Result<Vec<Vec<usize>>> {
    let candidates = candidates_blocked(table, blocking_column)?;
    let kernel = ErKernel::compile(table, cfg)?;
    let pairs = kernel.filter_matches(&candidates, &kernel.score_pairs(&candidates)?);
    Ok(cluster_pairs(
        table.num_rows(),
        pairs.iter().map(|p| (p.i, p.j)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::Value;

    fn dupes() -> Table {
        Table::literal(
            &["name", "price"],
            vec![
                vec!["Acme Turbo Widget".into(), Value::Float(9.99)],
                vec!["Acme Turbo Widgey".into(), Value::Float(10.05)], // typo dupe of 0
                vec!["Bolt Mini Gadget".into(), Value::Float(45.0)],
                vec!["Acme Turbo Widget".into(), Value::Float(9.99)], // exact dupe of 0
                vec!["Stark Mega Flange".into(), Value::Float(120.0)],
            ],
        )
        .unwrap()
    }

    fn cfg() -> ErConfig {
        ErConfig {
            fields: vec![
                FieldSim {
                    column: "name".into(),
                    weight: 3.0,
                    kind: SimKind::Text,
                },
                FieldSim {
                    column: "price".into(),
                    weight: 1.0,
                    kind: SimKind::Numeric { scale: 0.2 },
                },
            ],
            threshold: 0.85,
        }
    }

    #[test]
    fn end_to_end_resolution_groups_duplicates() {
        let clusters = resolve(&dupes(), "name", &cfg()).unwrap();
        assert_eq!(clusters.len(), 3);
        let big = clusters
            .iter()
            .find(|c| c.len() == 3)
            .expect("triple cluster");
        let mut sorted = big.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 3]);
    }

    #[test]
    fn match_pairs_rejects_unknown_column_before_scoring() {
        // The error must surface even when there is nothing to score: column
        // validation happens up front, not lazily inside the pair loop.
        let bad = ErConfig::text_over(&["ghost"], 0.5);
        assert!(match_pairs(&dupes(), &[], &bad).is_err());
        assert!(match_pairs(&dupes(), &[(0, 1)], &bad).is_err());
    }

    #[test]
    fn threshold_controls_strictness() {
        let mut strict = cfg();
        strict.threshold = 0.999;
        let clusters = resolve(&dupes(), "name", &strict).unwrap();
        // Only the exact duplicate pair survives.
        assert_eq!(clusters.iter().filter(|c| c.len() > 1).count(), 1);
        assert_eq!(clusters.len(), 4);
    }
}
