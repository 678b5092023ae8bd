//! The incremental dataflow engine: per-stage, per-source-partition
//! memoization inside the live session.
//!
//! PR 8's checkpoint chaining proved whole-stage replay across process
//! restarts; this module generalizes the same content-keyed idea *within*
//! the session and below stage grain. Two memo levels:
//!
//! - **Union blocks** ([`BlockMemo`]): each source's contribution to the
//!   union (its contiguous row block, post poison scan and post filter,
//!   fused or separate) is keyed on the pass fingerprint, the source, its filter
//!   placement and the content hash of its mapped table — the block's one
//!   data input, hashed once per table ([`Mapped`]), not once per pass. The
//!   memo holds no cells: the session already holds the mapped table, so a
//!   block is remembered as *which rows of it the block keeps*. A 1-source
//!   update on an n-source fleet rescans one block; the other n−1 replay.
//! - **ER** ([`ErMemo`]): the union's identity is its block list, and the
//!   update's ER costs the records new to the union. ER decides per *record
//!   class* — the union rows with one ER record, every compiled field's
//!   dictionary id and both blocking keys — so the memo remembers the
//!   pass's classes and the class pairs that matched (with the candidate
//!   and matched row-pair counts), and what it derived per union row: the
//!   blocks (blocking keys) and the kernel (dictionary ids and cells). The
//!   block layout maps rows of unchanged blocks old↔new by offset
//!   ([`ErMemo::carry`]), wherever the block now sits. The new blocks and
//!   kernel are *carried*, not rebuilt: a clean row takes its keys and ids
//!   from the memo's, only a dirty row is rendered and interned. A clean row
//!   keeps its class; a dirty row that repeats a record the memo's union
//!   held joins that class by its ids; only a record new to the union mints
//!   a class, and only the class pairs with a new class are decided —
//!   a class pair of two held records matches now iff it matched then,
//!   in each orientation the walk decided; an orientation the new row order
//!   meets for the first time is decided then. A pass after no change is the
//!   case with no dirty row: every class is held, no pair is decided, and
//!   the memo's class pairs cluster into the clustering it recorded. This
//!   rests on one invariant, pinned by `wrangler-resolve`'s proptest
//!   `candidates_restricted_to_surviving_rows`: whether `(i, j)` is a
//!   candidate depends on rows `i` and `j` alone (as do the score, in
//!   argument order, and the threshold), so two rows with one record have
//!   the same candidates and decisions, in any union.
//!   Without a block list (a union replayed from a checkpoint store, whose
//!   record keeps each block's rows as a [`BlockMemo`] does but no key) the
//!   memo is neither carried nor captured. A live union always lays one:
//!   whichever way the program runs the filter, it runs inside the blocks.
//!
//! Fusion keeps no memo: it runs live, or replays from a checkpoint store.
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

use wrangler_plan::FilterPlacement;
use wrangler_resolve::{ErKernel, UnionBlocks, UnionMatches};
use wrangler_table::{wire, Table};

/// What a mapped table was cut to besides its payload and mapping: where
/// the row filter already ran on it, and the row budget it was held to.
/// `map_apply` reuses a held table only under the current pass's shape; the
/// predicate itself changes only through `Wrangler::with_row_filter`, which
/// drops every held table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// The filter placement of the table's source: `Union` when no filter
    /// ran on it (the union loop filters it, or there is no filter);
    /// `PostMap` or `Acquire` when an early-placed filter already did.
    pub filter: FilterPlacement,
    /// `max_rows_per_source` while scans are on; `None` with scans off,
    /// when no budget applies.
    pub budget: Option<usize>,
}

/// One source's mapped (target-schema) table with what identifies it. The
/// fields are private so that the three cannot drift apart: a new table is
/// a new `Mapped`, without a hash.
#[derive(Debug, Clone)]
pub struct Mapped {
    table: Table,
    /// The shape the table was cut to.
    shape: Shape,
    /// [`wire::table_hash`] of `table`; moves and clones keep it.
    hash: OnceLock<u64>,
}

impl Mapped {
    /// A freshly derived table: not hashed yet.
    pub fn new(table: Table, shape: Shape) -> Mapped {
        Mapped {
            table,
            shape,
            hash: OnceLock::new(),
        }
    }

    /// The mapped table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The shape the table was cut to.
    pub fn shape(&self) -> Shape {
        self.shape
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
    /// the poison scan and the union's filter), ascending.
    pub kept: Vec<usize>,
    /// Rows the union's filter (fused or separate) dropped when the block
    /// was computed; replayed into the `union.filtered` counter.
    pub filtered: u64,
    /// Cells the poison scan walked at compute time — the work a hit
    /// skips. Zero when telemetry was off at compute time.
    pub scan_cells: u64,
    /// Bytes the poison scan and a separate filter scan walked at compute
    /// time (same caveat).
    pub scan_bytes: u64,
}

/// One contiguous block of the union: `(source, block key, rows)`.
pub type Block = (usize, u64, usize);

/// The memoized ER stage: what the carry across the next pass reads.
#[derive(Debug, Clone)]
pub struct ErMemo {
    /// Pass fingerprint the memo was computed under (it pins the scoring
    /// config and threshold); the carry requires an exact match.
    pub pass_fp: u64,
    /// Union block layout at compute time: the memoized union's identity.
    pub layout: Vec<Block>,
    /// The memoized union's blocks: each row's two blocking keys. A carried
    /// row takes its keys from here; their row count is the memoized
    /// union's.
    pub blocks: UnionBlocks,
    /// The memoized union's kernel: each row's dictionary ids and cells. A
    /// carried row takes its ids from here.
    pub kernel: ErKernel,
    /// What the memoized walk decided: the union's record classes, the class
    /// pairs that matched or left an orientation undecided — not one entry
    /// per candidate, nor per matching row pair — and the union's candidate
    /// and matching row-pair counts. A dirty row repeating one of these
    /// records joins its class by id; only pairs with a class new to the
    /// union are decided.
    pub decided: UnionMatches,
}

impl ErMemo {
    /// Carry this memo across an update to a union of `rows` rows laid out
    /// as `layout`: per current row, its row in the memoized union, or
    /// `None` for a dirty row — its block is new or changed. A block of the
    /// memoized layout (same source, same key, same length) is carried row
    /// for row wherever it now sits: a class pair is decided in the
    /// orientations the new row order meets, so no clean row needs its old
    /// place. `None` when nothing may be carried: no block in common,
    /// another pass fingerprint, or a layout that does not cover its union.
    pub fn carry(&self, pass_fp: u64, layout: &[Block], rows: usize) -> Option<Vec<Option<usize>>> {
        let covered = |l: &[Block]| l.iter().map(|&(_, _, n)| n).sum::<usize>();
        let old_rows = self.blocks.num_rows();
        if self.pass_fp != pass_fp || covered(layout) != rows || covered(&self.layout) != old_rows {
            return None;
        }
        let mut old_blocks: BTreeMap<(usize, u64), (usize, usize)> = BTreeMap::new();
        let mut off = 0usize;
        for &(src, key, len) in &self.layout {
            old_blocks.entry((src, key)).or_insert((off, len));
            off += len;
        }
        let mut old_of = Vec::with_capacity(rows);
        for &(src, key, len) in layout {
            match old_blocks.get(&(src, key)) {
                Some(&(start, old_len)) if old_len == len => {
                    old_of.extend((start..start + len).map(Some));
                }
                _ => old_of.extend(std::iter::repeat_n(None, len)),
            }
        }
        old_of.iter().any(Option::is_some).then_some(old_of)
    }
}

/// Pack a pair's row indices into one u64, smaller index in the high half.
/// No code in this workspace calls it: `bench/` does, for the
/// `core.er_memo_ms` replay of a capture the session no longer does, and it
/// goes away with that ledger row.
pub fn pack_pair(i: usize, j: usize) -> u64 {
    let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
    ((lo as u64) << 32) | (hi as u64 & 0xFFFF_FFFF)
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
    }

    /// Number of live memos, for tests and stats.
    pub fn memo_count(&self) -> usize {
        self.blocks.len() + usize::from(self.er.is_some())
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
    fn mapped_is_hashed_on_first_demand() {
        use wrangler_table::{Schema, Value};
        let mut table = Table::empty(Schema::of_strs(&["name", "price"]));
        table
            .push_row(vec![Value::Str("a".into()), Value::Float(1.5)])
            .unwrap();
        let shape = Shape {
            filter: FilterPlacement::PostMap,
            budget: Some(7),
        };
        let m = Mapped::new(table.clone(), shape);
        assert!(!m.is_hashed());
        assert_eq!(m.hash(), wire::table_hash(&table));
        assert!(m.is_hashed() && m.clone().is_hashed());
        assert_eq!(m.shape(), shape);
    }

    /// A memo over `layout` (its blocks and kernel cover that many rows of
    /// nothing).
    fn memo(layout: &[Block]) -> ErMemo {
        use wrangler_resolve::ErConfig;
        use wrangler_table::Value;
        let rows = layout.iter().map(|&(_, _, n)| n).sum();
        let table = Table::literal(&["name"], vec![vec![Value::Null]; rows]).unwrap();
        ErMemo {
            pass_fp: 7,
            layout: layout.to_vec(),
            blocks: UnionBlocks::build(&table, "name", "name").unwrap(),
            kernel: ErKernel::compile(&table, &ErConfig::text_over(&["name"], 0.5)).unwrap(),
            decided: UnionMatches::default(),
        }
    }

    #[test]
    fn carry_maps_clean_blocks_by_offset() {
        // Old union: src0 (key 10, 2 rows), src1 (key 20, 3 rows).
        // New union: src0 changed (key 11, 4 rows), src1 unchanged.
        let old = [(0usize, 10u64, 2usize), (1, 20, 3)];
        let old_of = memo(&old).carry(7, &[(0, 11, 4), (1, 20, 3)], 7).unwrap();
        assert!(old_of[..4].iter().all(Option::is_none));
        // src1's block started at old offset 2, now at 4.
        assert_eq!(&old_of[4..], &[Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn carry_maps_nothing_of_a_dropped_or_resized_block() {
        // Old union: src0 rows 0–1, src1 rows 2–4, src2 rows 5–6.
        let old = [(0usize, 10u64, 2usize), (1, 20, 3), (2, 30, 2)];
        let m = memo(&old);
        // src1 dropped: src2 shifts down to rows 2–3.
        let old_of = m.carry(7, &[(0, 10, 2), (2, 30, 2)], 4).unwrap();
        assert_eq!(old_of, vec![Some(0), Some(1), Some(5), Some(6)]);
        // src1 resized (new key, 1 row): its row is dirty.
        let old_of = m
            .carry(7, &[(0, 10, 2), (1, 21, 1), (2, 30, 2)], 5)
            .unwrap();
        assert_eq!(old_of, vec![Some(0), Some(1), None, Some(5), Some(6)]);
        // One shared block is enough to carry.
        let old_of = m
            .carry(7, &[(0, 11, 2), (1, 21, 3), (2, 30, 2)], 7)
            .unwrap();
        assert_eq!(&old_of[5..], &[Some(5), Some(6)]);
        assert!(old_of[..5].iter().all(Option::is_none));
    }

    #[test]
    fn a_block_that_moves_is_carried_where_it_now_sits() {
        // Old rows [a | b0 b1] become [b0 b1 | a]: both blocks are carried —
        // the walk decides a class pair in whichever orientation the new
        // row order meets.
        let old = [(0usize, 10u64, 1usize), (1, 20, 2)];
        let new = [(1usize, 20u64, 2usize), (0, 10, 1)];
        assert_eq!(
            memo(&old).carry(7, &new, 3).unwrap(),
            vec![Some(1), Some(2), Some(0)]
        );
    }

    #[test]
    fn stale_or_short_layouts_carry_nothing() {
        let old = [(0usize, 10u64, 2usize), (1, 20, 2)];
        let m = memo(&old);
        // Another pass fingerprint; a current layout that does not cover the
        // union (a replayed union has none); a memo layout shorter than the
        // union it was computed over.
        assert_eq!(m.carry(8, &old, 4), None);
        assert_eq!(m.carry(7, &[], 4), None);
        assert_eq!(m.carry(7, &old, 5), None);
        // Disjoint layouts — every block re-keyed, or other sources: nothing
        // to carry, so no map at all (not one that covers nothing).
        assert_eq!(m.carry(7, &[(0, 11, 2), (1, 21, 2)], 4), None);
        assert_eq!(m.carry(7, &[(2, 10, 2), (3, 20, 2)], 4), None);
        // A block of the same key that claims another length is not that
        // block.
        assert_eq!(m.carry(7, &[(0, 10, 3), (1, 20, 1)], 4), None);
        let mut short = m.clone();
        short.layout.pop();
        assert_eq!(short.carry(7, &old, 4), None);
        // The same layout carries every row, and only the union's rows.
        assert_eq!(
            m.carry(7, &old, 4).unwrap(),
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
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
