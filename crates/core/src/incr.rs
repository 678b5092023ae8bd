//! The incremental dataflow engine: per-stage, per-source-partition
//! memoization inside the live session.
//!
//! PR 8's checkpoint chaining proved whole-stage replay across process
//! restarts; this module carries reuse *within* the session and below
//! stage grain. Two memo levels:
//!
//! - **Union blocks** ([`BlockMemo`]): each source's contribution to the
//!   union (its contiguous row block, post poison scan and post filter,
//!   fused or separate) belongs to the held mapped table it was cut from
//!   ([`Mapped::block`]). A block is a pure function of its table, the
//!   table's filter placement (its [`Shape`]) and the pass fingerprint, so
//!   it replays when it was kept under the pass's fingerprint: whatever
//!   re-derives or drops the table drops the block with it. The memo holds
//!   no cells: a block is remembered as *which rows of its table it keeps*.
//!   A 1-source update on an n-source fleet rescans one block; the other
//!   n−1 replay.
//! - **ER** ([`ErMemo`]): the union's identity is its block list — each
//!   block named by its source, its table's [`Mapped::id`] and its length —
//!   and the update's ER costs the records new to the union. ER decides per
//!   *record class* — the union rows with one ER record, every compiled
//!   field's dictionary id and both blocking keys — so the memo remembers
//!   the pass's classes and the class pairs that matched (with the
//!   candidate and matched row-pair counts), and what it derived per union
//!   row: the blocks (blocking keys) and the kernel (dictionary ids and
//!   cells). The block layout maps rows of unchanged blocks old↔new by
//!   offset ([`ErMemo::carry`]), wherever the block now sits. The new blocks
//!   and kernel are *carried*, not rebuilt: a clean row takes its keys and
//!   ids from the memo's, only a dirty row is rendered and interned. A clean
//!   row keeps its class; a dirty row that repeats a record the memo's union
//!   held joins that class by its ids — so a table re-derived with the same
//!   cells costs a rescan of its block and no decision; only a record new
//!   to the union mints a class, and only the class pairs with a new class
//!   are decided —
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
//!   record keeps each block's rows as a [`BlockMemo`] does but names no
//!   table) the memo is neither carried nor captured. A live union always
//!   lays one: whichever way the program runs the filter, it runs inside the
//!   blocks.
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
use std::sync::atomic::{AtomicU64, Ordering};

use wrangler_plan::FilterPlacement;
use wrangler_resolve::{ErKernel, UnionBlocks, UnionMatches};
use wrangler_table::Table;

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

/// The next [`Mapped::id`]. `Relaxed` suffices: an id publishes no other
/// data, and `fetch_add` alone keeps ids unique.
static NEXT_MAPPED_ID: AtomicU64 = AtomicU64::new(0);

/// One source's mapped (target-schema) table with what identifies it, and
/// the union block last cut from it. The table, its shape and its id are
/// private so that they cannot drift apart: a new table is a new `Mapped`,
/// with a new id and no block.
#[derive(Debug, Clone)]
pub struct Mapped {
    table: Table,
    /// The shape the table was cut to.
    shape: Shape,
    /// Unique in the process: taken in [`Mapped::new`], kept by clones,
    /// never hashed or persisted.
    id: u64,
    /// The union block last cut from `table`, if the union kept it (a clean
    /// block of an isolated source, cut while reuse was on).
    pub(crate) block: Option<BlockMemo>,
}

impl Mapped {
    /// A freshly derived table: a new id, no block.
    pub fn new(table: Table, shape: Shape) -> Mapped {
        Mapped {
            table,
            shape,
            id: NEXT_MAPPED_ID.fetch_add(1, Ordering::Relaxed),
            block: None,
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

    /// The derivation's id: two `Mapped` share one only as clones.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One source's memoized union contribution: which rows of its mapped
/// table the union kept, and what cutting them cost.
#[derive(Debug, Clone)]
pub struct BlockMemo {
    /// Pass fingerprint the block was cut under (it covers the predicate,
    /// how the union runs it, and the containment policy); the block
    /// replays only under the same one.
    pub pass_fp: u64,
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

/// One contiguous block of the union: `(source, mapped table id, rows)`.
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
    /// memoized layout (same source, same table, same length) is carried row
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
        for &(src, id, len) in &self.layout {
            old_blocks.entry((src, id)).or_insert((off, len));
            off += len;
        }
        let mut old_of = Vec::with_capacity(rows);
        for &(src, id, len) in layout {
            match old_blocks.get(&(src, id)) {
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
    fn a_new_table_gets_a_new_id_and_no_block_and_a_clone_keeps_all_three() {
        use wrangler_table::{Schema, Value};
        let mut table = Table::empty(Schema::of_strs(&["name", "price"]));
        table
            .push_row(vec![Value::Str("a".into()), Value::Float(1.5)])
            .unwrap();
        let shape = Shape {
            filter: FilterPlacement::PostMap,
            budget: Some(7),
        };
        let mut m = Mapped::new(table.clone(), shape);
        assert!(m.block.is_none());
        // The same cells, derived again, are another table.
        let again = Mapped::new(table, shape);
        assert_ne!(again.id(), m.id());
        assert!(again.block.is_none());
        m.block = Some(BlockMemo {
            pass_fp: 7,
            kept: vec![0],
            filtered: 0,
            scan_cells: 2,
            scan_bytes: 9,
        });
        let c = m.clone();
        assert_eq!((c.id(), c.shape()), (m.id(), shape));
        assert_eq!(
            c.block.as_ref().map(|b| (b.pass_fp, &b.kept)),
            Some((7, &vec![0]))
        );
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
        // Old union: src0 (table 10, 2 rows), src1 (table 20, 3 rows).
        // New union: src0 re-derived (table 11, 4 rows), src1 unchanged.
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
        // src1 re-derived (new table, 1 row): its row is dirty.
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
        // Disjoint layouts — every table re-derived, or other sources: nothing
        // to carry, so no map at all (not one that covers nothing).
        assert_eq!(m.carry(7, &[(0, 11, 2), (1, 21, 2)], 4), None);
        assert_eq!(m.carry(7, &[(2, 10, 2), (3, 20, 2)], 4), None);
        // A block of the same table that claims another length is not that
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
}
