//! Working Data bookkeeping: artifact versions, dirtiness, and work
//! counters.
//!
//! Example 5's closing requirement: "it is of paramount importance that
//! these feedback-induced 'reactions' do not trigger a re-processing of all
//! datasets involved in the computation but rather limit the processing to
//! the strictly necessary data." The store tracks which derived artifacts
//! are stale and counts the actual work performed, so experiments can show
//! incremental ≪ full recomputation (E7b).

use std::collections::{BTreeMap, HashSet};

/// A derived artifact in the Working Data, at per-source or global grain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Artifact {
    /// Mapping (schema alignment) of one source.
    Mapping(usize),
    /// Mapped (target-schema) table of one source.
    MappedTable(usize),
    /// The union + entity clustering.
    Clusters,
    /// One fused slot (entity, attribute).
    FusedSlot(usize, usize),
    /// Every fused slot one source claims (its trust moved), as one mark.
    SourceSlots(usize),
}

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

/// Dirtiness tracking for derived artifacts.
#[derive(Debug, Clone, Default)]
pub struct WorkingData {
    dirty: HashSet<Artifact>,
    /// Cumulative work counters.
    pub work: WorkCounters,
}

impl WorkingData {
    /// Fresh store with everything implicitly dirty (nothing computed yet).
    pub fn new() -> Self {
        WorkingData::default()
    }

    /// Mark an artifact stale.
    pub fn invalidate(&mut self, a: Artifact) {
        self.dirty.insert(a);
    }

    /// Mark a source's whole derivation chain stale (its data changed).
    pub fn invalidate_source(&mut self, source: usize) {
        self.invalidate(Artifact::Mapping(source));
        self.invalidate(Artifact::MappedTable(source));
        self.invalidate(Artifact::Clusters);
    }

    /// Is the artifact stale?
    pub fn is_dirty(&self, a: Artifact) -> bool {
        self.dirty.contains(&a)
    }

    /// Clear an artifact's dirtiness after recomputation.
    pub fn mark_clean(&mut self, a: Artifact) {
        self.dirty.remove(&a);
    }

    /// Dirty fused slots, sorted and deduplicated: the explicitly dirtied
    /// ones plus every slot of `claims` (one pass) whose source is marked.
    pub fn dirty_slots(&self, claims: &[wrangler_fusion::Claim]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut marked = Vec::new();
        for a in &self.dirty {
            match *a {
                Artifact::FusedSlot(e, t) => out.push((e, t)),
                Artifact::SourceSlots(s) => marked.push(s),
                _ => {}
            }
        }
        marked.sort_unstable();
        let of_marked = claims
            .iter()
            .filter(|c| marked.binary_search(&c.source).is_ok());
        out.extend(of_marked.map(|c| (c.entity, c.attr)));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every slot was just (re-)fused: no slot or source mark is stale.
    pub fn clean_slots(&mut self) {
        self.dirty
            .retain(|a| !matches!(a, Artifact::FusedSlot(..) | Artifact::SourceSlots(_)));
    }

    /// Number of dirty artifacts.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalidation_and_cleaning() {
        let mut wd = WorkingData::new();
        assert!(!wd.is_dirty(Artifact::Clusters));
        wd.invalidate(Artifact::Clusters);
        assert!(wd.is_dirty(Artifact::Clusters));
        wd.mark_clean(Artifact::Clusters);
        assert!(!wd.is_dirty(Artifact::Clusters));
    }

    #[test]
    fn source_invalidation_cascades() {
        let mut wd = WorkingData::new();
        wd.invalidate_source(3);
        for a in [Artifact::Mapping(3), Artifact::MappedTable(3), Artifact::Clusters] {
            assert!(wd.is_dirty(a));
        }
        assert!(!wd.is_dirty(Artifact::Mapping(4)));
    }

    #[test]
    fn dirty_slots_listed_sorted() {
        let mut wd = WorkingData::new();
        wd.invalidate(Artifact::FusedSlot(2, 1));
        wd.invalidate(Artifact::FusedSlot(0, 3));
        wd.invalidate(Artifact::Clusters);
        assert_eq!(wd.dirty_slots(&[]), vec![(0, 3), (2, 1)]);
        assert_eq!(wd.dirty_count(), 3);
    }

    #[test]
    fn source_marks_expand_against_the_claims_and_clean_in_one_sweep() {
        let mut wd = WorkingData::new();
        wd.invalidate(Artifact::FusedSlot(2, 1));
        wd.invalidate(Artifact::SourceSlots(1));
        wd.invalidate(Artifact::SourceSlots(4));
        wd.invalidate(Artifact::Mapping(1));
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
        wd.clean_slots();
        assert!(wd.dirty_slots(&claims).is_empty());
        assert!(wd.is_dirty(Artifact::Mapping(1)), "only slot marks go");
        assert_eq!(wd.dirty_count(), 1);
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
