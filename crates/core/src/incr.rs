//! The incremental dataflow engine: per-stage, per-source-partition
//! memoization inside the live session.
//!
//! PR 8's checkpoint chaining proved whole-stage replay across process
//! restarts; this module generalizes the same content-keyed idea *within*
//! the session and below stage grain. Three memo levels:
//!
//! - **Union blocks** ([`BlockMemo`]): each source's contribution to the
//!   union (its contiguous row block, post poison scan and post inline
//!   filter) is keyed on the pass/program fingerprints plus that source's
//!   effective payload, mapping and filter placement. A 1-source update on
//!   an n-source fleet recomputes one block; the other n−1 replay.
//! - **ER** ([`ErMemo`]): the whole clustering is keyed on the union
//!   content. When the union changed (some block is dirty), the memo still
//!   pays: its per-pair scores are kept under *packed row indices*, and the
//!   block layout lets rows of unchanged blocks remap old→new by offset, so
//!   clean-clean candidate pairs replay through an integer binary search;
//!   pairs touching a changed row are scored live.
//! - **Fuse** ([`FuseMemo`]): trust estimation + slot fusion is keyed on
//!   the union/clustering content plus every input that can ripple into a
//!   fused value (belief trust, source ages, master data).
//!
//! Reuse is proof-carrying at the union grain: a block replays only when
//! the plan analyzer established `PartitionIsolated` for its source — i.e.
//! the block is a pure function of (payload, mapping, compiled program,
//! containment policy) with no cross-source filter rewiring. Chaos-mode
//! passes disable the engine wholesale: fault rolls are stateful, so
//! nothing may be skipped. A hit never fakes the skipped work's telemetry;
//! it surfaces as explicit `incr.*` counters instead.

use std::collections::BTreeMap;

use wrangler_table::Value;

use crate::ckpt_io::{ErOut, FuseOut};

/// One source's memoized union contribution.
#[derive(Debug, Clone)]
pub struct BlockMemo {
    /// Content key (see [`module docs`](self)): equal keys mean the live
    /// union loop would reproduce exactly these rows.
    pub key: u64,
    /// The rows the source contributed, in delivery order (source tag
    /// stripped — it is the map key).
    pub rows: Vec<Vec<Value>>,
    /// Rows the inline (Union-placed) filter dropped when the block was
    /// computed; replayed into the `union.filtered` counter.
    pub filtered: u64,
    /// Cells the poison scan walked at compute time — the work a hit
    /// skips. Zero when telemetry was off at compute time.
    pub scan_cells: u64,
    /// Bytes the poison scan walked at compute time (same caveat).
    pub scan_bytes: u64,
}

/// The memoized ER stage: full-stage replay plus the remap fast path.
#[derive(Debug, Clone)]
pub struct ErMemo {
    /// Full-stage key: pass/program fingerprints + union content hash.
    pub key: u64,
    /// Pass fingerprint the memo was computed under; the remap fast path
    /// requires an exact match (it replays raw scores across passes).
    pub pass_fp: u64,
    /// Program fingerprint the memo was computed under. Recorded for
    /// provenance, but *not* a remap precondition: a dirty source's
    /// regenerated mapping shifts the whole-program fingerprint without
    /// touching any clean row, and the layout's per-block content keys
    /// already pin row content exactly.
    pub prog_fp: u64,
    /// The clustering and row → entity index over the memoized union: the
    /// stage's seam record, replayed as is on a key hit.
    pub out: ErOut,
    /// Union block layout at compute time: `(source, block key, rows)` per
    /// contiguous block, in union order. Remapping matches blocks by
    /// `(source, block key)` and shifts row indices by block offset.
    pub layout: Vec<(usize, u64, usize)>,
    /// Every candidate pair's score, keyed by [`pack_pair`] of its (old)
    /// row indices, sorted for binary search.
    pub scores: Vec<(u64, f64)>,
}

impl ErMemo {
    /// Score of a (packed) pair if it was a candidate in the memoized pass.
    pub fn score_of(&self, packed: u64) -> Option<f64> {
        self.scores
            .binary_search_by_key(&packed, |&(k, _)| k)
            .ok()
            .map(|idx| self.scores[idx].1)
    }
}

/// The memoized fuse stage.
#[derive(Debug, Clone)]
pub struct FuseMemo {
    /// Content key over everything that can ripple into a fused value.
    pub key: u64,
    /// The stage's seam record at compute time (blended trust, ages, fused
    /// slots sorted by (entity, attr)); only passes with no fuse-stage
    /// quarantine are memoized.
    pub out: FuseOut,
}

/// Pack a candidate pair's row indices into one ordered u64 key. Callers
/// pass them in any order; the smaller index always takes the high half,
/// matching the `i < j` candidate convention.
pub fn pack_pair(i: usize, j: usize) -> u64 {
    let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
    ((lo as u64) << 32) | (hi as u64 & 0xFFFF_FFFF)
}

/// Row-level mapping from the current pass's union to a memoized one.
/// Blocks match by `(source, block key)` (first occurrence wins, as blocks
/// are unique per source); matched blocks map row-for-row by offset.
/// `None` marks rows of new/changed blocks — those pairs are scored live.
pub fn remap_rows(
    old_layout: &[(usize, u64, usize)],
    new_layout: &[(usize, u64, usize)],
) -> Vec<Option<usize>> {
    let mut old_starts: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    let mut off = 0usize;
    for &(src, key, len) in old_layout {
        old_starts.entry((src, key)).or_insert(off);
        off += len;
    }
    let total: usize = new_layout.iter().map(|&(_, _, len)| len).sum();
    let mut map = Vec::with_capacity(total);
    for &(src, key, len) in new_layout {
        match old_starts.get(&(src, key)) {
            Some(&start) => map.extend((0..len).map(|r| Some(start + r))),
            None => map.extend(std::iter::repeat_n(None, len)),
        }
    }
    map
}

/// The session's incremental-reuse state. On by default; chaos-mode passes
/// and explicit [`set_enabled(false)`](IncrEngine::set_enabled) bypass it.
#[derive(Debug, Clone)]
pub struct IncrEngine {
    enabled: bool,
    /// Per-source union block memos.
    pub blocks: BTreeMap<usize, BlockMemo>,
    /// The ER memo (one per session — ER has no per-source partition).
    pub er: Option<ErMemo>,
    /// The fuse memo.
    pub fuse: Option<FuseMemo>,
}

impl Default for IncrEngine {
    fn default() -> Self {
        IncrEngine::new()
    }
}

impl IncrEngine {
    /// Fresh, enabled engine with nothing memoized.
    pub fn new() -> IncrEngine {
        IncrEngine {
            enabled: true,
            blocks: BTreeMap::new(),
            er: None,
            fuse: None,
        }
    }

    /// Is incremental reuse on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn the engine on/off. Turning it off drops every memo, so a
    /// disabled session is indistinguishable from one that never memoized
    /// (the cold comparator the identity tests clone).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.clear();
        }
    }

    /// Drop every memo (plan shape changed, ER rule refined, …).
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.er = None;
        self.fuse = None;
    }

    /// A source's data changed: its block memo is stale, and fusion (whose
    /// trust estimation reads every claim) must recompute. The ER memo
    /// survives — its key will miss, but its layout + packed scores still
    /// feed the remap fast path for the n−1 clean blocks.
    pub fn forget_source(&mut self, source: usize) {
        self.blocks.remove(&source);
        self.fuse = None;
    }

    /// Number of live memos, for tests and stats.
    pub fn memo_count(&self) -> usize {
        self.blocks.len() + usize::from(self.er.is_some()) + usize::from(self.fuse.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_pair_orders_and_separates() {
        assert_eq!(pack_pair(3, 7), pack_pair(7, 3));
        assert_ne!(pack_pair(3, 7), pack_pair(3, 8));
        assert_eq!(pack_pair(1, 2), (1u64 << 32) | 2);
    }

    #[test]
    fn remap_shifts_clean_blocks_by_offset() {
        // Old union: src0 (key 10, 2 rows), src1 (key 20, 3 rows).
        // New union: src0 changed (key 11, 4 rows), src1 unchanged.
        let old = [(0usize, 10u64, 2usize), (1, 20, 3)];
        let new = [(0usize, 11u64, 4usize), (1, 20, 3)];
        let map = remap_rows(&old, &new);
        assert_eq!(map.len(), 7);
        assert!(map[..4].iter().all(Option::is_none));
        // src1's block started at old offset 2, now at 4.
        assert_eq!(&map[4..], &[Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn remap_matches_blocks_across_reordering() {
        let old = [(0usize, 10u64, 1usize), (1, 20, 2)];
        let new = [(1usize, 20u64, 2usize), (0, 10, 1)];
        let map = remap_rows(&old, &new);
        assert_eq!(map, vec![Some(1), Some(2), Some(0)]);
    }

    #[test]
    fn er_memo_score_binary_search() {
        let memo = ErMemo {
            key: 0,
            pass_fp: 0,
            prog_fp: 0,
            out: ErOut::default(),
            layout: Vec::new(),
            scores: vec![(pack_pair(0, 1), 0.5), (pack_pair(0, 2), 0.75)],
        };
        assert_eq!(memo.score_of(pack_pair(2, 0)), Some(0.75));
        assert_eq!(memo.score_of(pack_pair(1, 2)), None);
    }

    #[test]
    fn disabling_drops_memos() {
        let mut e = IncrEngine::new();
        assert!(e.enabled());
        e.blocks.insert(
            0,
            BlockMemo {
                key: 1,
                rows: Vec::new(),
                filtered: 0,
                scan_cells: 0,
                scan_bytes: 0,
            },
        );
        assert_eq!(e.memo_count(), 1);
        e.set_enabled(false);
        assert_eq!(e.memo_count(), 0);
        assert!(!e.enabled());
    }

    #[test]
    fn forget_source_keeps_er_for_remap() {
        let mut e = IncrEngine::new();
        e.blocks.insert(
            2,
            BlockMemo {
                key: 1,
                rows: Vec::new(),
                filtered: 0,
                scan_cells: 0,
                scan_bytes: 0,
            },
        );
        e.er = Some(ErMemo {
            key: 9,
            pass_fp: 0,
            prog_fp: 0,
            out: ErOut::default(),
            layout: Vec::new(),
            scores: Vec::new(),
        });
        e.fuse = Some(FuseMemo {
            key: 9,
            out: FuseOut {
                selected: Vec::new(),
                fuse_removed: Vec::new(),
                trust: Vec::new(),
                age: Vec::new(),
                fused: Vec::new(),
            },
        });
        e.forget_source(2);
        assert!(e.blocks.is_empty());
        assert!(e.er.is_some());
        assert!(e.fuse.is_none());
    }
}
