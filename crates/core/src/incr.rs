//! The incremental dataflow engine: per-stage, per-source-partition
//! memoization inside the live session.
//!
//! PR 8's checkpoint chaining proved whole-stage replay across process
//! restarts; this module generalizes the same content-keyed idea *within*
//! the session and below stage grain. Three memo levels:
//!
//! - **Union blocks** ([`BlockMemo`]): each source's contribution to the
//!   union (its contiguous row block, post poison scan and post inline
//!   filter) is keyed on the pass fingerprint, the source, its filter
//!   placement and the content hash of its mapped table — the block's one
//!   data input, hashed once per table ([`Mapped`]), not once per pass. The
//!   memo holds no cells: the session already holds the mapped table, so a
//!   block is remembered as *which rows of it the block keeps*. A 1-source
//!   update on an n-source fleet rescans one block; the other n−1 replay.
//! - **ER** ([`ErMemo`]): the union's identity is its block list, so the
//!   whole clustering replays iff the pass fingerprint and the layout are
//!   the memo's, compared exactly. When some block changed, the memo still
//!   pays: it remembers the pass's *matched pairs* by row index, and the
//!   block layout maps rows of unchanged blocks old↔new by offset. A
//!   candidate whose two rows both sit in unchanged blocks, in the same
//!   relative order, is *carried* — it matches now iff it matched then — so
//!   only pairs touching a changed row are decided ([`ErMemo::carry`]). This
//!   rests on one invariant, pinned by `wrangler-resolve`'s proptest
//!   `candidates_restricted_to_surviving_rows`: whether `(i, j)` is a
//!   candidate depends on rows `i` and `j` alone (as do the score, in
//!   argument order, and the threshold), so replacing or deleting rows
//!   leaves the candidates among the survivors as they were, re-indexed.
//! - **Fuse** ([`FuseMemo`]): trust estimation + slot fusion is keyed on
//!   the block list and clustering plus every input that can ripple into a
//!   fused value (belief trust, source ages, master data).
//!   Without a block list (a union replayed from a checkpoint store, or
//!   filtered again by `OptMode::Naive`) neither memo replays or is captured.
//!
//! Reuse is proof-carrying at the union grain: a block replays only when
//! the plan analyzer established `PartitionIsolated` for its source — i.e.
//! the block is a pure function of (mapped table, filter placement, pass
//! fingerprint) with no cross-source filter rewiring. Chaos-mode
//! passes disable the engine wholesale: fault rolls are stateful, so
//! nothing may be skipped. A hit never fakes the skipped work's telemetry;
//! it surfaces as explicit `incr.*` counters instead.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use wrangler_table::{wire, Table};

use crate::ckpt_io::{ErOut, FuseOut};

/// One source's mapped (target-schema) table with what identifies it. The
/// fields are private so that the three cannot drift apart: a new table is
/// a new `Mapped`, without a hash.
#[derive(Debug, Clone)]
pub struct Mapped {
    table: Table,
    /// Which filter placement (and predicate) the table was computed under:
    /// `None` for a plain mapping run, `Some("acquire|…")` or
    /// `Some("post-map|…")` when an early-placed filter already ran. A held
    /// table is reusable only while the tag is the current program's.
    tag: Option<String>,
    /// [`wire::table_hash`] of `table`; moves and clones keep it.
    hash: OnceLock<u64>,
}

impl Mapped {
    /// A freshly derived (or decoded) table: not hashed yet.
    pub fn new(table: Table, tag: Option<String>) -> Mapped {
        Mapped {
            table,
            tag,
            hash: OnceLock::new(),
        }
    }

    /// The mapped table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The filter tag the table was computed under.
    pub fn tag(&self) -> Option<&str> {
        self.tag.as_deref()
    }

    /// Content hash of the table; computed at most once.
    pub fn hash(&self) -> u64 {
        *self.hash.get_or_init(|| wire::table_hash(&self.table))
    }

    /// Has the hash been taken yet? What a test of "at most once" observes.
    pub fn is_hashed(&self) -> bool {
        self.hash.get().is_some()
    }
}

/// One source's memoized union contribution.
#[derive(Debug, Clone)]
pub struct BlockMemo {
    /// Content key (see [`module docs`](self)): equal keys mean the live
    /// union loop would keep exactly these rows of an equal mapped table.
    pub key: u64,
    /// Row indices of the source's mapped table that the block keeps (past
    /// the poison scan and the inline filter), ascending.
    pub kept: Vec<usize>,
    /// Rows the inline (Union-placed) filter dropped when the block was
    /// computed; replayed into the `union.filtered` counter.
    pub filtered: u64,
    /// Cells the poison scan walked at compute time — the work a hit
    /// skips. Zero when telemetry was off at compute time.
    pub scan_cells: u64,
    /// Bytes the poison scan walked at compute time (same caveat).
    pub scan_bytes: u64,
}

/// One contiguous block of the union: `(source, block key, rows)`.
pub type Block = (usize, u64, usize);

/// The memoized ER stage: full-stage replay plus the carry across an update.
#[derive(Debug, Clone)]
pub struct ErMemo {
    /// Pass fingerprint the memo was computed under (it pins the scoring
    /// config and threshold); replay and carry both require an exact match.
    pub pass_fp: u64,
    /// The clustering and row → entity index over the memoized union: the
    /// stage's seam record, replayed as is when `layout` is the pass's too.
    pub out: ErOut,
    /// Union block layout at compute time: the memoized union's identity.
    pub layout: Vec<Block>,
    /// The pairs that matched (score ≥ threshold) as `(i, j)` row indices
    /// of the memoized union, `i < j`, sorted — not one entry per candidate.
    pub matches: Vec<(usize, usize)>,
}

/// What an update carries over from the memoized ER pass.
#[derive(Debug, PartialEq)]
pub struct Carry {
    /// Per current union row, its row in the memoized union (`None` = the
    /// row's block is new or changed).
    old_of: Vec<Option<usize>>,
    /// The memoized matches [`Carry::covers`], as current row indices, in
    /// memo order — sorted unless blocks were reordered.
    pub matches: Vec<(usize, usize)>,
}

impl Carry {
    /// Is this candidate (`i < j`, current indices) decided by the memo —
    /// both rows in unchanged blocks, in their old relative order? Then it
    /// matches iff it is in [`Carry::matches`]. A flipped pair is not: the
    /// kernel would be handed its arguments the other way round.
    pub fn covers(&self, pair: (usize, usize)) -> bool {
        map_pair(&self.old_of, pair).is_some()
    }
}

/// Map both rows of `(a, b)`, `a < b`, keeping the pair only when both map
/// and stay in order. Out-of-range rows map to `None`, so a short or stale
/// map can never fabricate a carried pair.
fn map_pair(map: &[Option<usize>], (a, b): (usize, usize)) -> Option<(usize, usize)> {
    let x = map.get(a).copied().flatten()?;
    let y = map.get(b).copied().flatten()?;
    (x < y).then_some((x, y))
}

impl ErMemo {
    /// Carry this memo across an update to a union of `rows` rows laid out
    /// as `layout`. `None` when nothing may be carried: no block in common,
    /// another pass fingerprint, or a layout that does not cover its union.
    pub fn carry(&self, pass_fp: u64, layout: &[Block], rows: usize) -> Option<Carry> {
        let covered = |l: &[Block]| l.iter().map(|&(_, _, n)| n).sum::<usize>();
        if self.pass_fp != pass_fp
            || covered(layout) != rows
            || covered(&self.layout) != self.out.row_entity.len()
        {
            return None;
        }
        let old_of = remap_rows(&self.layout, layout);
        if old_of.iter().all(Option::is_none) {
            return None;
        }
        let new_of = remap_rows(layout, &self.layout);
        Some(Carry {
            old_of,
            matches: self
                .matches
                .iter()
                .filter_map(|&pair| map_pair(&new_of, pair))
                .collect(),
        })
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

/// Pack a pair's row indices into one u64, smaller index in the high half.
/// No code in this workspace calls it: `bench/` does, for the
/// `core.er_memo_ms` replay of a capture the session no longer does, and it
/// goes away with that ledger row.
pub fn pack_pair(i: usize, j: usize) -> u64 {
    let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
    ((lo as u64) << 32) | (hi as u64 & 0xFFFF_FFFF)
}

/// Per row of `new_layout`'s union, the same row in `old_layout`'s union.
/// Blocks match by `(source, block key)` (first occurrence wins, as blocks
/// are unique per source); matched blocks map row-for-row by offset.
/// `None` marks rows of blocks the other layout lacks. The arguments swap
/// to map the other way.
pub fn remap_rows(old_layout: &[Block], new_layout: &[Block]) -> Vec<Option<usize>> {
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
    fn mapped_is_hashed_on_first_demand_and_a_decoded_one_starts_without() {
        use crate::ckpt_io::{MapApplyOut, SeamRecord};
        use wrangler_table::{Schema, Value};
        let mut table = Table::empty(Schema::of_strs(&["name", "price"]));
        table
            .push_row(vec![Value::Str("a".into()), Value::Float(1.5)])
            .unwrap();
        let m = Mapped::new(table.clone(), Some("post-map|p".into()));
        assert!(!m.is_hashed());
        assert_eq!(m.hash(), wire::table_hash(&table));
        assert!(m.is_hashed() && m.clone().is_hashed());
        // The wire format carries the table and the tag, never the hash.
        let record = MapApplyOut {
            selected: Vec::new(),
            mapped: vec![(3, m)],
        };
        let back = MapApplyOut::decode(&record.encode()).unwrap();
        let (i, decoded) = &back.mapped[0];
        assert_eq!((*i, decoded.tag()), (3, Some("post-map|p")));
        assert!(!decoded.is_hashed());
        assert_eq!(decoded.hash(), wire::table_hash(&table));
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
        // Swapped arguments give the forward (old → new) map.
        assert_eq!(remap_rows(&new, &old), vec![Some(2), Some(0), Some(1)]);
    }

    /// A memo over `layout` whose matched pairs are `matches`.
    fn memo(layout: &[Block], matches: &[(usize, usize)]) -> ErMemo {
        let rows = layout.iter().map(|&(_, _, n)| n).sum();
        ErMemo {
            pass_fp: 7,
            out: ErOut {
                clusters: Vec::new(),
                row_entity: vec![0; rows],
            },
            layout: layout.to_vec(),
            matches: matches.to_vec(),
        }
    }

    #[test]
    fn carry_drops_matches_of_a_dropped_or_resized_block() {
        // Old union: src0 rows 0–1, src1 rows 2–4, src2 rows 5–6.
        let old = [(0usize, 10u64, 2usize), (1, 20, 3), (2, 30, 2)];
        let m = memo(&old, &[(0, 1), (0, 2), (1, 5), (2, 4), (5, 6)]);
        // src1 dropped: src2 shifts down to rows 2–3.
        let c = m.carry(7, &[(0, 10, 2), (2, 30, 2)], 4).unwrap();
        assert_eq!(c.matches, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(c.covers((0, 3)), "clean-clean pair is the memo's to decide");
        // src1 resized (new key, 1 row): its old matches are gone and every
        // pair touching its new row is live.
        let c = m
            .carry(7, &[(0, 10, 2), (1, 21, 1), (2, 30, 2)], 5)
            .unwrap();
        assert_eq!(c.matches, vec![(0, 1), (1, 3), (3, 4)]);
        assert!(!c.covers((0, 2)) && !c.covers((2, 4)));
        assert!(c.covers((1, 4)));
        // One shared block is enough to carry: src0 and src1 re-keyed, src2's
        // rows 5–6 stay put with their match.
        let c = m
            .carry(7, &[(0, 11, 2), (1, 21, 3), (2, 30, 2)], 7)
            .unwrap();
        assert_eq!(c.matches, vec![(5, 6)]);
        assert!(c.covers((5, 6)) && !c.covers((0, 1)) && !c.covers((4, 5)));
    }

    #[test]
    fn carry_keeps_row_order_and_scores_flipped_pairs_live() {
        // The reordered layout of `remap_matches_blocks_across_reordering`:
        // old rows [a | b0 b1] become [b0 b1 | a].
        let old = [(0usize, 10u64, 1usize), (1, 20, 2)];
        let new = [(1usize, 20u64, 2usize), (0, 10, 1)];
        let c = memo(&old, &[(0, 1), (1, 2)]).carry(7, &new, 3).unwrap();
        // (b0, b1) kept its order; (a, b0) would now be scored as (b0, a).
        assert_eq!(c.matches, vec![(0, 1)]);
        assert!(c.covers((0, 1)));
        assert!(!c.covers((0, 2)) && !c.covers((1, 2)));
    }

    #[test]
    fn stale_or_short_layouts_carry_nothing() {
        let old = [(0usize, 10u64, 2usize), (1, 20, 2)];
        let m = memo(&old, &[(0, 2), (1, 3)]);
        // Another pass fingerprint; a current layout that does not cover the
        // union (a post-union filter cleared it); a memo layout shorter than
        // the union it was computed over.
        assert_eq!(m.carry(8, &old, 4), None);
        assert_eq!(m.carry(7, &[], 4), None);
        assert_eq!(m.carry(7, &old, 5), None);
        // Disjoint layouts — every block re-keyed, or other sources: nothing
        // to carry, so no `Carry` at all (not one that covers nothing).
        assert_eq!(m.carry(7, &[(0, 11, 2), (1, 21, 2)], 4), None);
        assert_eq!(m.carry(7, &[(2, 10, 2), (3, 20, 2)], 4), None);
        let mut short = m.clone();
        short.layout.pop();
        assert_eq!(short.carry(7, &old, 4), None);
        // Rows past a map's end have no counterpart: never a panic, never a
        // carried pair.
        let c = m.carry(7, &old, 4).unwrap();
        assert!(!c.covers((0, 9)) && !c.covers((9, 10)));
        assert_eq!(map_pair(&[], (0, 1)), None);
    }

    #[test]
    fn disabling_drops_memos() {
        let mut e = IncrEngine::new();
        assert!(e.enabled());
        e.blocks.insert(
            0,
            BlockMemo {
                key: 1,
                kept: Vec::new(),
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
}
