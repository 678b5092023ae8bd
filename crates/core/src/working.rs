//! Working Data bookkeeping: the refuse set and the work counters.
//!
//! Example 5's closing requirement: "it is of paramount importance that
//! these feedback-induced 'reactions' do not trigger a re-processing of all
//! datasets involved in the computation but rather limit the processing to
//! the strictly necessary data." Feedback that moves a source's trust or
//! refutes one value marks what `rewrangle` must fuse again — one slot, or
//! every slot of one source — and the store counts the actual work
//! performed, so experiments can show incremental ≪ full recomputation
//! (E7b).
//!
//! Whether a derived artifact is current is not decided here. A stale
//! mapping or mapped table is dropped where it goes stale (the session holds
//! it as an `Option`), a held mapped table carries the shape it was cut to
//! ([`crate::incr::Shape`]), and the union blocks and the ER carry are keyed
//! by content ([`crate::incr`]).

use std::collections::{BTreeMap, BTreeSet};

/// Counters of actual work performed (the currency of E7b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Source tables (re)ingested.
    pub extractions: usize,
    /// Mappings (re)generated.
    pub mappings_generated: usize,
    /// Source tables (re)mapped.
    pub tables_mapped: usize,
    /// Candidate pairs compared in ER.
    pub er_pairs: usize,
    /// Slots (re)fused.
    pub slots_fused: usize,
}

impl WorkCounters {
    /// Total units, a crude single scalar for plots.
    pub fn total(&self) -> usize {
        self.extractions
            + self.mappings_generated
            + self.tables_mapped
            + self.er_pairs
            + self.slots_fused
    }
}

impl std::ops::Sub for WorkCounters {
    type Output = WorkCounters;
    fn sub(self, rhs: WorkCounters) -> WorkCounters {
        WorkCounters {
            extractions: self.extractions - rhs.extractions,
            mappings_generated: self.mappings_generated - rhs.mappings_generated,
            tables_mapped: self.tables_mapped - rhs.tables_mapped,
            er_pairs: self.er_pairs - rhs.er_pairs,
            slots_fused: self.slots_fused - rhs.slots_fused,
        }
    }
}

/// A content-keyed map of ER pair scores. No code in this workspace calls
/// it: the session used to answer pair scores from one, and `bench/` still
/// times a replay of that work (`core.pair_cache_ms`). It goes away with the
/// benchmark change that drops that ledger row.
#[derive(Debug, Clone, Default)]
pub struct PairScoreCache {
    scores: BTreeMap<String, f64>,
}

impl PairScoreCache {
    /// Unambiguous key of a scored pair: the left row key is
    /// length-prefixed, so concatenation cannot collide.
    pub fn pair_key(a: &str, b: &str) -> String {
        format!("{}#{a}{b}", a.len())
    }

    /// Stored score for a pair key.
    pub fn lookup(&mut self, key: &str) -> Option<f64> {
        self.scores.get(key).copied()
    }

    /// Record a score. `_sources` is what the benchmark's call passes.
    pub fn insert(&mut self, key: String, score: f64, _sources: (usize, usize)) {
        self.scores.insert(key, score);
    }

    /// Number of stored pair scores.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.scores.len()
    }
}

/// The refuse set plus the work counters.
#[derive(Debug, Clone, Default)]
pub struct WorkingData {
    /// Slots marked for re-fusion one by one, `(entity, attribute)`.
    slots: BTreeSet<(usize, usize)>,
    /// Sources whose trust moved: every slot they claim is marked.
    sources: BTreeSet<usize>,
    /// Cumulative work counters.
    pub work: WorkCounters,
}

impl WorkingData {
    /// Fresh store: nothing marked, no work counted.
    pub fn new() -> Self {
        WorkingData::default()
    }

    /// Mark one fused slot for re-fusion.
    pub fn mark_slot(&mut self, entity: usize, attr: usize) {
        self.slots.insert((entity, attr));
    }

    /// Mark every fused slot `source` claims, as one mark.
    pub fn mark_source(&mut self, source: usize) {
        self.sources.insert(source);
    }

    /// Marked slots, sorted and deduplicated: the ones marked one by one
    /// plus every slot of `claims` (one pass) whose source is marked.
    pub fn dirty_slots(&self, claims: &[wrangler_fusion::Claim]) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self.slots.iter().copied().collect();
        let of_marked = claims.iter().filter(|c| self.sources.contains(&c.source));
        out.extend(of_marked.map(|c| (c.entity, c.attr)));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every slot was just (re-)fused: no mark is left.
    pub fn clean_slots(&mut self) {
        self.slots.clear();
        self.sources.clear();
    }

    /// Number of marks (slot marks plus source marks).
    pub fn dirty_count(&self) -> usize {
        self.slots.len() + self.sources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_slots_listed_sorted() {
        let mut wd = WorkingData::new();
        wd.mark_slot(2, 1);
        wd.mark_slot(0, 3);
        wd.mark_slot(2, 1);
        assert_eq!(wd.dirty_slots(&[]), vec![(0, 3), (2, 1)]);
        assert_eq!(wd.dirty_count(), 2);
    }

    #[test]
    fn source_marks_expand_against_the_claims_and_clean_in_one_sweep() {
        let mut wd = WorkingData::new();
        wd.mark_slot(2, 1);
        wd.mark_source(1);
        wd.mark_source(4);
        // Source 1 also claims the explicit slot, sources 0 and 3 are
        // unmarked, source 4 shares a slot with source 1.
        let claim = |source, entity, attr| wrangler_fusion::Claim {
            entity,
            attr,
            value: wrangler_table::Value::Int(1),
            source,
        };
        let claims = [
            claim(0, 9, 9),
            claim(1, 2, 1),
            claim(1, 0, 0),
            claim(3, 5, 5),
            claim(4, 0, 0),
            claim(4, 1, 2),
        ];
        assert_eq!(wd.dirty_slots(&claims), vec![(0, 0), (1, 2), (2, 1)]);
        assert_eq!(wd.dirty_count(), 3);
        wd.clean_slots();
        assert!(wd.dirty_slots(&claims).is_empty());
        assert_eq!(wd.dirty_count(), 0);
    }

    #[test]
    fn pair_keys_cannot_collide_across_the_join() {
        // ("ab", "c") vs ("a", "bc") concatenate identically without the
        // length prefix.
        assert_ne!(
            PairScoreCache::pair_key("ab", "c"),
            PairScoreCache::pair_key("a", "bc")
        );
    }

    #[test]
    fn work_counter_arithmetic() {
        let a = WorkCounters {
            extractions: 5,
            mappings_generated: 2,
            tables_mapped: 5,
            er_pairs: 100,
            slots_fused: 50,
        };
        let b = WorkCounters {
            extractions: 5,
            mappings_generated: 2,
            tables_mapped: 5,
            er_pairs: 100,
            slots_fused: 60,
        };
        let d = b - a;
        assert_eq!(d.slots_fused, 10);
        assert_eq!(d.total(), 10);
    }
}
