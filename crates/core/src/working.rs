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

use wrangler_fusion::ClaimIndex;

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

    /// The marked slots as ascending slot numbers of `index` — the slots
    /// marked one by one plus every slot a marked source claims, in one pass
    /// over the index's claim ranges — and the number of slots marked one by
    /// one that have no claim.
    pub fn dirty_slot_nos(&self, index: &ClaimIndex) -> (Vec<usize>, usize) {
        let mut marks = self.slots.iter().peekable();
        let mut nos = Vec::new();
        let mut unclaimed = 0;
        let mut marked = vec![false; self.sources.last().map_or(0, |&s| s + 1)];
        for &s in &self.sources {
            marked[s] = true;
        }
        let is_marked = |&s: &u32| marked.get(s as usize).copied().unwrap_or(false);
        for (no, slot) in index.slots().iter().enumerate() {
            while marks.next_if(|&m| m < slot).is_some() {
                unclaimed += 1;
            }
            if marks.next_if(|&m| m == slot).is_some() || index.sources(no).iter().any(is_marked) {
                nos.push(no);
            }
        }
        (nos, unclaimed + marks.count())
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
    use wrangler_fusion::ClaimSet;

    #[test]
    fn slot_marks_become_slot_numbers_and_unclaimed_marks_are_counted() {
        let mut claims = ClaimSet::new(2);
        claims.add(0, 3, 1.into(), 0);
        claims.add(2, 1, 1.into(), 1);
        let mut wd = WorkingData::new();
        wd.mark_slot(2, 1);
        wd.mark_slot(0, 3);
        wd.mark_slot(2, 1);
        wd.mark_slot(1, 1);
        assert_eq!(wd.dirty_slot_nos(claims.index()), (vec![0, 1], 1));
        assert_eq!(wd.dirty_count(), 3);
    }

    #[test]
    fn source_marks_expand_against_the_claims_and_clean_in_one_sweep() {
        let mut wd = WorkingData::new();
        wd.mark_slot(2, 1);
        wd.mark_slot(3, 0);
        wd.mark_slot(9, 9);
        wd.mark_source(1);
        wd.mark_source(4);
        // Source 1 also claims the explicit slot, sources 0 and 3 are
        // unmarked, source 4 shares a slot with source 1; (3, 0) and (9, 9)
        // have no claim.
        let mut claims = ClaimSet::new(5);
        for (source, entity, attr) in [
            (0, 9, 8),
            (1, 2, 1),
            (1, 0, 0),
            (3, 5, 5),
            (4, 0, 0),
            (4, 1, 2),
        ] {
            claims.add(entity, attr, 1.into(), source);
        }
        // Slots: (0,0) (1,2) (2,1) (5,5) (9,8).
        assert_eq!(wd.dirty_slot_nos(claims.index()), (vec![0, 1, 2], 2));
        assert_eq!(wd.dirty_count(), 5);
        wd.clean_slots();
        assert_eq!(wd.dirty_slot_nos(claims.index()), (vec![], 0));
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
