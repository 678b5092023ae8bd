//! Candidate generation: naive, key blocking, sorted neighbourhood.
//!
//! Naive all-pairs is O(n²) and dies at big-data scale (§4.3); blocking
//! compares only records sharing a cheap key, sorted neighbourhood compares
//! records within a sliding window of a sort order. Completeness vs cost is
//! experiment E7's subject.

use std::collections::BTreeMap;
use std::ops::Range;

use wrangler_table::{Table, TableError, Value};

use crate::dict::{check_old_of, Dict, NULL_ID};

/// All pairs (i, j), i < j. The quadratic baseline.
pub fn candidates_naive(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push((i, j));
        }
    }
    out
}

/// Blocking key of a value: lowercased first token, first 4 characters.
/// Nulls key to an empty block of their own (never compared).
pub fn block_key(v: &Value) -> Option<String> {
    if v.is_null() {
        return None;
    }
    let r = v.render().to_lowercase();
    let tok = r.split_whitespace().next()?;
    Some(tok.chars().take(4).collect())
}

/// Rows grouped by blocking key (`None` = the row joins no block). Each
/// block lists its rows ascending; the map iterates in key order, so anything
/// emitted block by block is deterministic without an explicit sort.
fn blocks_by(
    column: &[Value],
    key: impl Fn(&Value) -> Option<String>,
) -> BTreeMap<String, Vec<usize>> {
    let mut blocks: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, v) in column.iter().enumerate() {
        if let Some(k) = key(v) {
            blocks.entry(k).or_default().push(i);
        }
    }
    blocks
}

/// [`candidates_blocked_exact`]'s key: the full (trimmed, lowercased)
/// rendering; nulls join no block.
fn exact_key(v: &Value) -> Option<String> {
    (!v.is_null()).then(|| v.render().trim().to_lowercase())
}

/// All within-block pairs, block by block in key order.
fn block_pairs(blocks: &BTreeMap<String, Vec<usize>>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for rows in blocks.values() {
        for a in 0..rows.len() {
            for b in (a + 1)..rows.len() {
                out.push((rows[a], rows[b]));
            }
        }
    }
    out
}

/// Key-based blocking on a column: pairs within the same block only.
pub fn candidates_blocked(
    table: &Table,
    column: &str,
) -> wrangler_table::Result<Vec<(usize, usize)>> {
    Ok(block_pairs(&blocks_by(
        table.column_named(column)?,
        block_key,
    )))
}

/// Exact-value blocking: pairs sharing the column's full (lowercased,
/// trimmed) rendering. The right choice for key-like columns, where prefix
/// blocks would degenerate (all `SKU-…` keys share a prefix).
pub fn candidates_blocked_exact(
    table: &Table,
    column: &str,
) -> wrangler_table::Result<Vec<(usize, usize)>> {
    Ok(block_pairs(&blocks_by(
        table.column_named(column)?,
        exact_key,
    )))
}

/// The wrangle stage's candidates, held without writing one down: prefix
/// blocks of `block_col` ∪ exact blocks of `key_col` — rows whose name is
/// null or typo-prefixed still meet their duplicates through the key. Each
/// blocking keeps every row's key as a dictionary id and is flattened once
/// (`members`: its blocks end to end in key order, rows ascending within a
/// block) with, per row, the span of its block; row `i`'s candidates are
/// `(i, j)` for `j` in the merge of its two spans' later halves
/// ([`Self::partners`]). Rows in order and partners ascending make every
/// walk `(i, j)`-sorted and duplicate-free with no sort. When the two
/// columns coincide only the prefix blocks apply.
///
/// **Invariant** (the incremental engine's ER carry rests on it; pinned by
/// `candidates_restricted_to_surviving_rows` in `tests/proptests.rs`):
/// whether `(i, j)` is a candidate depends on rows `i` and `j` alone, so
/// replacing or deleting rows leaves the candidates among the survivors as
/// they were, re-indexed. Two things stand on it: a carried build
/// ([`Self::carry`]) takes a clean row's keys from the previous blocks, and
/// a walk over a dirty set ([`DirtyRows`]) counts the clean rows' pairs in
/// the previous blocks instead of walking them. A block-size cap or a
/// window here would break both.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionBlocks {
    /// The columns blocked on: `(name, key)`.
    columns: (String, String),
    by_name: Blocking,
    by_key: Blocking,
}

/// One blocking of the rows, flattened.
#[derive(Debug, Clone, PartialEq)]
struct Blocking {
    /// Per row, its blocking key (no id: the row joins no block).
    keys: Dict<String>,
    /// Every block's rows, block after block in key order.
    members: Vec<u32>,
    /// Per row `(first, later, end)`: its block is `members[first..end]`,
    /// and the row itself sits at `later - 1`. `(0, 0, 0)` for a row in no
    /// block. Rows and positions fit `u32` ([`UnionBlocks::carry`] checks):
    /// the blocks live on in the ER memo, and half the width is half the
    /// memory.
    spans: Vec<(u32, u32, u32)>,
}

impl Blocking {
    /// Lay the blocks of `keys` out: a counting sort of the rows by key id,
    /// blocks in key order.
    fn of(keys: Dict<String>) -> Blocking {
        let mut size = vec![0u32; keys.values.len()];
        for &id in keys.ids.iter().filter(|&&id| id != NULL_ID) {
            size[id as usize] += 1;
        }
        let mut first = vec![0u32; keys.values.len()];
        let mut total = 0;
        for &id in &keys.sorted {
            first[id as usize] = total;
            total += size[id as usize];
        }
        let mut members = vec![0; total as usize];
        let mut filled = first.clone();
        let mut spans = vec![(0, 0, 0); keys.ids.len()];
        for (row, &id) in keys.ids.iter().enumerate() {
            if id == NULL_ID {
                continue;
            }
            let k = id as usize;
            members[filled[k] as usize] = row as u32;
            filled[k] += 1;
            spans[row] = (first[k], filled[k], first[k] + size[k]);
        }
        Blocking {
            keys,
            members,
            spans,
        }
    }

    fn later_mates(&self, row: usize) -> &[u32] {
        let (_, later, end) = self.spans[row];
        &self.members[later as usize..end as usize]
    }

    fn earlier_mates(&self, row: usize) -> &[u32] {
        let (first, later, _) = self.spans[row];
        &self.members[first as usize..later.saturating_sub(1) as usize]
    }
}

/// Row `i`'s partners: two ascending lists merged, a row in both kept once.
#[derive(Debug, Clone)]
pub struct Partners<'a> {
    a: &'a [u32],
    b: &'a [u32],
}

impl Iterator for Partners<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let j = match (self.a.first(), self.b.first()) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => return None,
        };
        if self.a.first() == Some(&j) {
            self.a = &self.a[1..];
        }
        if self.b.first() == Some(&j) {
            self.b = &self.b[1..];
        }
        Some(j as usize)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (a, b) = (self.a.len(), self.b.len());
        (a.max(b), Some(a + b))
    }
}

impl UnionBlocks {
    /// Block `table` on `block_col`'s name prefix and `key_col`'s value: the
    /// carried build with nothing carried.
    pub fn build(
        table: &Table,
        block_col: &str,
        key_col: &str,
    ) -> wrangler_table::Result<UnionBlocks> {
        UnionBlocks::carry(table, block_col, key_col, None)
    }

    /// Block `table` as [`Self::build`] does, taking what `prior` already
    /// derived: with `prior = (blocks, old_of)`, row `r` with `old_of[r] =
    /// Some(o)` holds the cells row `o` of the table `blocks` were built
    /// over held, so it takes that row's two keys by id; only the other
    /// rows render and fold a key. The result equals `build(table, …)`
    /// field for field.
    pub fn carry(
        table: &Table,
        block_col: &str,
        key_col: &str,
        prior: Option<(&UnionBlocks, &[Option<usize>])>,
    ) -> wrangler_table::Result<UnionBlocks> {
        let names = table.column_named(block_col)?;
        let keys = (key_col != block_col)
            .then(|| table.column_named(key_col))
            .transpose()?;
        let rows = table.num_rows();
        if rows >= NULL_ID as usize {
            return Err(TableError::Invalid(format!(
                "{rows} rows exceed the blocks' 32-bit row indices"
            )));
        }
        if let Some((blocks, old_of)) = prior {
            if blocks.columns.0 != block_col || blocks.columns.1 != key_col {
                return Err(TableError::Invalid(format!(
                    "blocks on ({block_col}, {key_col}) carried from blocks on {:?}",
                    blocks.columns
                )));
            }
            check_old_of(old_of, rows, blocks.num_rows())?;
        }
        let by_name = Dict::encode(
            names,
            block_key,
            |k| k,
            prior.map(|(b, old_of)| (&b.by_name.keys, old_of)),
        );
        let by_key = match keys {
            Some(column) => Dict::encode(
                column,
                exact_key,
                |k| k,
                prior.map(|(b, old_of)| (&b.by_key.keys, old_of)),
            ),
            None => Dict::empty(rows),
        };
        Ok(UnionBlocks {
            columns: (block_col.to_string(), key_col.to_string()),
            by_name: Blocking::of(by_name),
            by_key: Blocking::of(by_key),
        })
    }

    /// Rows of the blocked table.
    pub fn num_rows(&self) -> usize {
        self.by_name.spans.len()
    }

    /// The later rows `i` is a candidate with, ascending.
    pub fn partners(&self, i: usize) -> Partners<'_> {
        Partners {
            a: self.by_name.later_mates(i),
            b: self.by_key.later_mates(i),
        }
    }

    /// The earlier rows `i` is a candidate with, ascending.
    pub(crate) fn earlier_partners(&self, i: usize) -> Partners<'_> {
        Partners {
            a: self.by_name.earlier_mates(i),
            b: self.by_key.earlier_mates(i),
        }
    }

    /// Every candidate, in `(i, j)` order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_rows()).flat_map(|i| self.partners(i).map(move |j| (i, j)))
    }

    /// What walking row `i` over `dirty` costs, to within the overlap of
    /// the two blockings (a partner in both counts twice) and without
    /// merging: nothing for a clean row; a dirty row's later mates, and its
    /// earlier ones when some row is clean (a walk with no clean row meets
    /// every pair as a later mate).
    fn weight(&self, i: usize, dirty: &DirtyRows) -> usize {
        if !dirty.is_dirty(i) {
            return 0;
        }
        let size = |b: &Blocking| {
            let (first, later, end) = b.spans[i];
            let earlier = if dirty.any_clean {
                later.saturating_sub(first + 1)
            } else {
                0
            };
            (end - later + earlier) as usize
        };
        size(&self.by_name) + size(&self.by_key)
    }

    /// An upper bound on the number of candidates, and a tight one: a pair in
    /// both blockings is counted twice, and key blocks are small.
    pub fn pair_bound(&self) -> usize {
        self.walk_bound(&DirtyRows::all(self.num_rows()), 0..self.num_rows())
    }

    /// A bound on the pairs a walk over `dirty` visits at the rows `rows`,
    /// counted as [`Self::pair_bound`] counts.
    pub(crate) fn walk_bound(&self, dirty: &DirtyRows, rows: Range<usize>) -> usize {
        rows.map(|i| self.weight(i, dirty)).sum()
    }

    /// Split the rows into at most `workers` contiguous strips of about
    /// equal partner count (counted as [`Self::pair_bound`] counts) — not
    /// equal row counts: the early rows of a block have the most later
    /// mates. The strips cover every row once, in order, and each holds a
    /// pair (a table without candidates is one strip; no rows, none).
    pub fn strips(&self, workers: usize) -> Vec<Range<usize>> {
        self.walk_strips(workers, &DirtyRows::all(self.num_rows()))
    }

    /// [`Self::strips`] of a walk over `dirty`, balanced by what each row
    /// costs it.
    pub(crate) fn walk_strips(&self, workers: usize, dirty: &DirtyRows) -> Vec<Range<usize>> {
        let rows = self.num_rows();
        let total = self.walk_bound(dirty, 0..rows);
        let workers = workers.clamp(1, total.max(1));
        let mut strips = Vec::with_capacity(workers);
        let (mut start, mut walked, mut cut_at) = (0, 0, 0);
        for i in 0..rows {
            walked += self.weight(i, dirty);
            // Cut after the row that brings the walk to the next worker's
            // share.
            let share = (strips.len() + 1) * total / workers;
            let strip_and_rest_hold_pairs = cut_at < walked && walked < total;
            if strips.len() + 1 < workers && walked >= share && strip_and_rest_hold_pairs {
                strips.push(start..i + 1);
                (start, cut_at) = (i + 1, walked);
            }
        }
        if start < rows {
            strips.push(start..rows);
        }
        strips
    }

    /// The candidates with a row in `dirty`, counted, not decided: every
    /// dirty row's later partners and its clean earlier ones.
    fn count_touching(&self, dirty: &DirtyRows) -> u64 {
        let clean_earlier = |d| {
            self.earlier_partners(d)
                .filter(|&i| !dirty.is_dirty(i))
                .count()
        };
        (0..self.num_rows())
            .filter(|&d| dirty.is_dirty(d))
            .map(|d| (self.partners(d).count() + clean_earlier(d)) as u64)
            .sum()
    }

    /// What [`Self::count_clean`] steps over, counted as [`Self::pair_bound`]
    /// counts: the clean rows' later mates.
    fn clean_bound(&self, dirty: &DirtyRows) -> usize {
        let later = |b: &Blocking, i: usize| (b.spans[i].2 - b.spans[i].1) as usize;
        (0..self.num_rows())
            .filter(|&c| !dirty.is_dirty(c))
            .map(|c| later(&self.by_name, c) + later(&self.by_key, c))
            .sum()
    }

    /// The candidates between two rows not in `dirty`, counted: every clean
    /// row's clean later partners.
    fn count_clean(&self, dirty: &DirtyRows) -> u64 {
        (0..self.num_rows())
            .filter(|&c| !dirty.is_dirty(c))
            .map(|c| self.partners(c).filter(|&j| !dirty.is_dirty(j)).count() as u64)
            .sum()
    }
}

/// The rows of a union a walk must decide ([`crate::ErKernel::decide_union`])
/// and what is known of the rest. A pair with a dirty row is walked and
/// decided; a pair of two clean rows is not walked at all — its decision is
/// the caller's to carry, and its count comes from the previous pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DirtyRows {
    /// Per row: must its pairs be decided?
    dirty: Vec<bool>,
    /// Is any row clean? Without one, a walk meets every pair as a later
    /// partner and never looks back.
    pub(crate) any_clean: bool,
    /// Candidates between two clean rows.
    pub(crate) clean_pairs: u64,
    /// Pairs counted in the previous blocks to learn `clean_pairs`: those
    /// touching a dirty row, or the clean pairs themselves.
    pub(crate) counted: u64,
}

impl DirtyRows {
    /// Every one of `rows` rows dirty: a cold walk.
    pub fn all(rows: usize) -> DirtyRows {
        DirtyRows {
            dirty: vec![true; rows],
            any_clean: false,
            clean_pairs: 0,
            counted: 0,
        }
    }

    /// The rows of an updated union, given the union `prior` blocked and
    /// walked before (`candidates`: its candidate count) and, per current
    /// row, the prior row with the same cells (`None`: dirty). The clean
    /// rows must keep their order — `old_of`'s `Some` entries strictly
    /// increase — so that every clean pair is the prior pair with the same
    /// arguments in the same order. Their pairs are counted, not walked:
    /// by the [`UnionBlocks`] invariant they are the prior candidates
    /// between rows that stay clean. The count takes whichever side of the
    /// prior blocks is smaller to step over: the prior pairs touching a row
    /// that does not stay clean, taken from the prior total (few dirty
    /// rows), or the clean rows' pairs themselves (many). Either way the
    /// pairs counted plus the pairs the walk decides stay near one cold
    /// walk's for any share of dirty rows.
    pub fn carried(
        prior: &UnionBlocks,
        candidates: u64,
        old_of: &[Option<usize>],
    ) -> wrangler_table::Result<DirtyRows> {
        check_old_of(old_of, old_of.len(), prior.num_rows())?;
        let mut old_dirty = vec![true; prior.num_rows()];
        let mut last = None;
        for &o in old_of.iter().flatten() {
            if last >= Some(o) {
                return Err(TableError::Invalid(format!(
                    "a carry maps clean rows out of order (row {o} after {last:?})"
                )));
            }
            old_dirty[o] = false;
            last = Some(o);
        }
        let old = DirtyRows {
            any_clean: old_dirty.contains(&false),
            dirty: old_dirty,
            clean_pairs: 0,
            counted: 0,
        };
        let rows = 0..prior.num_rows();
        let (clean_pairs, counted) = if prior.walk_bound(&old, rows) < prior.clean_bound(&old) {
            let touching = prior.count_touching(&old);
            (candidates.checked_sub(touching), touching)
        } else {
            let clean = prior.count_clean(&old);
            ((clean <= candidates).then_some(clean), clean)
        };
        let clean_pairs = clean_pairs.ok_or_else(|| {
            TableError::Invalid(format!(
                "{counted} prior pairs counted, of {candidates} prior candidates"
            ))
        })?;
        Ok(DirtyRows {
            dirty: old_of.iter().map(Option::is_none).collect(),
            any_clean: old.any_clean,
            clean_pairs,
            counted,
        })
    }

    /// Rows of the union.
    pub(crate) fn num_rows(&self) -> usize {
        self.dirty.len()
    }

    /// Must row `i`'s pairs be decided?
    pub(crate) fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i]
    }
}

/// [`UnionBlocks`] written down: the candidates sorted by `(i, j)` and
/// deduplicated — [`candidates_blocked`] ∪ [`candidates_blocked_exact`], but
/// always in `(i, j)` order, not in those functions' block-key order. The
/// reference list tests and experiments score; the wrangle stage walks the
/// blocks instead.
pub fn candidates_union(
    table: &Table,
    block_col: &str,
    key_col: &str,
) -> wrangler_table::Result<Vec<(usize, usize)>> {
    let blocks = UnionBlocks::build(table, block_col, key_col)?;
    // The bound is tight, so the list never reallocates.
    let mut out = Vec::with_capacity(blocks.pair_bound());
    out.extend(blocks.pairs());
    Ok(out)
}

/// Sorted neighbourhood: sort rows by the column's rendering, compare each
/// row with the next `window − 1` rows in that order. Robust to key-prefix
/// typos that break key blocking. Null rows are excluded before sorting —
/// the "nulls never compared" contract both blocking variants uphold — and
/// a window below 2 is a structured error, not a panic.
pub fn candidates_sorted_neighborhood(
    table: &Table,
    column: &str,
    window: usize,
) -> wrangler_table::Result<Vec<(usize, usize)>> {
    if window < 2 {
        return Err(wrangler_table::TableError::Invalid(format!(
            "sorted-neighbourhood window must cover at least a pair (got {window})"
        )));
    }
    let col = table.column_named(column)?;
    // Keys rendered once per row (not once per comparison); ties keep the
    // original row order, as the previous stable sort did.
    let mut keyed: Vec<(String, usize)> = col
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_null())
        .map(|(i, v)| (v.render().to_lowercase(), i))
        .collect();
    keyed.sort_unstable();
    let mut out = Vec::new();
    for (pos, (_, i)) in keyed.iter().enumerate() {
        for (_, j) in keyed.iter().skip(pos + 1).take(window - 1) {
            out.push((*i.min(j), *i.max(j)));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(xs: &[&str]) -> Table {
        Table::literal(
            &["name"],
            xs.iter().map(|x| vec![Value::from(*x)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn naive_counts() {
        assert_eq!(candidates_naive(0).len(), 0);
        assert_eq!(candidates_naive(1).len(), 0);
        assert_eq!(candidates_naive(5).len(), 10);
    }

    #[test]
    fn blocking_prunes_cross_block_pairs() {
        let t = names(&[
            "Acme Widget",
            "Acme Gadget",
            "Bolt Thing",
            "acme widget pro",
        ]);
        let pairs = candidates_blocked(&t, "name").unwrap();
        // acme-block rows {0,1,3} → 3 pairs; bolt row alone.
        assert_eq!(pairs.len(), 3);
        assert!(pairs.contains(&(0, 3)));
        assert!(!pairs.iter().any(|&(i, j)| i == 2 || j == 2));
    }

    #[test]
    fn nulls_never_compared() {
        let t = Table::literal(
            &["name"],
            vec![vec![Value::Null], vec![Value::Null], vec!["x".into()]],
        )
        .unwrap();
        assert!(candidates_blocked(&t, "name").unwrap().is_empty());
    }

    #[test]
    fn blocked_is_subset_of_naive() {
        let t = names(&["aa", "ab", "ba", "aa x"]);
        let naive: std::collections::HashSet<_> = candidates_naive(4).into_iter().collect();
        for p in candidates_blocked(&t, "name").unwrap() {
            assert!(naive.contains(&p));
        }
    }

    /// `name` and `sku` columns from `(name, sku)` rows; `""` is a null.
    fn named_and_keyed(rows: &[(&str, &str)]) -> Table {
        let cell = |s: &str| {
            if s.is_empty() {
                Value::Null
            } else {
                Value::from(s)
            }
        };
        Table::literal(
            &["name", "sku"],
            rows.iter().map(|(n, k)| vec![cell(n), cell(k)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn walk_merges_both_blockings_per_row_and_is_what_the_list_collects() {
        // Rows 0, 1, 3 share the name prefix; 1, 2, 3 the key; row 4 is in
        // no block at all; row 5 only meets row 0 through a case-folded key.
        let t = named_and_keyed(&[
            ("Acme Widget", "k9"),
            ("acme gadget", "K1"),
            ("", "k1"),
            ("ACME thing", "k1 "),
            ("", ""),
            ("Bolt", "K9"),
        ]);
        let blocks = UnionBlocks::build(&t, "name", "sku").unwrap();
        assert_eq!(blocks.num_rows(), 6);
        let partners = |i| blocks.partners(i).collect::<Vec<_>>();
        assert_eq!(partners(0), vec![1, 3, 5]);
        assert_eq!(
            partners(1),
            vec![2, 3],
            "(1, 3) is in both blockings, walked once"
        );
        assert_eq!(partners(2), vec![3]);
        assert!(partners(3).is_empty() && partners(4).is_empty() && partners(5).is_empty());
        let listed = candidates_union(&t, "name", "sku").unwrap();
        assert_eq!(listed, vec![(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(blocks.pairs().collect::<Vec<_>>(), listed);
        assert_eq!(blocks.pair_bound(), listed.len() + 1);
        // One column in both roles: the prefix blocks alone, in (i, j) order.
        let mut prefix_only = candidates_blocked(&t, "name").unwrap();
        prefix_only.sort_unstable();
        assert_eq!(candidates_union(&t, "name", "name").unwrap(), prefix_only);
        let by_key = UnionBlocks::build(&t, "sku", "sku").unwrap();
        assert_eq!(
            by_key.pairs().collect::<Vec<_>>(),
            vec![(0, 5), (1, 2), (1, 3), (2, 3)]
        );
        assert!(UnionBlocks::build(&t, "name", "ghost").is_err());
    }

    #[test]
    fn all_null_columns_and_empty_tables_walk_nothing() {
        let nulls = named_and_keyed(&[("", ""), ("", ""), ("", "")]);
        let blocks = UnionBlocks::build(&nulls, "name", "sku").unwrap();
        assert_eq!(blocks.pairs().count(), 0);
        assert_eq!(blocks.pair_bound(), 0);
        // Still every row, once: one strip however many workers ask.
        assert_eq!(blocks.strips(4), vec![0..3]);
        let keyed = named_and_keyed(&[("", "a"), ("", "A"), ("", "")]);
        assert_eq!(
            candidates_union(&keyed, "name", "sku").unwrap(),
            vec![(0, 1)]
        );
        let empty = named_and_keyed(&[]);
        let blocks = UnionBlocks::build(&empty, "name", "sku").unwrap();
        assert!(blocks.strips(3).is_empty() && blocks.pairs().next().is_none());
    }

    #[test]
    fn strips_balance_pairs_not_rows() {
        // One block of 40 rows: row r has 39 − r later mates, 780 pairs in
        // all. Equal row counts would hand the first of two workers 590.
        let t = names(&["acme"; 40]);
        let blocks = UnionBlocks::build(&t, "name", "name").unwrap();
        assert_eq!(blocks.pair_bound(), 780);
        let walked = |rows: Range<usize>| rows.map(|i| blocks.partners(i).count()).sum::<usize>();
        for workers in 1..=9 {
            let strips = blocks.strips(workers);
            assert_eq!(strips.len(), workers);
            assert_eq!(strips[0].start, 0);
            assert_eq!(strips[workers - 1].end, 40);
            assert!(strips.windows(2).all(|s| s[0].end == s[1].start));
            // A strip ends with the row that reaches its share, so it
            // overshoots by less than that row's partners.
            for s in &strips {
                let n = walked(s.clone());
                assert!(
                    n > 0 && n < 780 / workers + 40,
                    "{workers} workers: {strips:?}"
                );
            }
        }
        assert_eq!(
            blocks.strips(2)[0],
            0..12,
            "390 of 780 pairs sit in the first 12 rows"
        );
        // More workers than pairs: one strip per pair at most.
        let two = names(&["acme", "acme"]);
        assert_eq!(
            UnionBlocks::build(&two, "name", "name").unwrap().strips(8),
            vec![0..2]
        );
    }

    #[test]
    fn sorted_neighborhood_window() {
        let t = names(&["delta", "alpha", "beta", "gamma"]);
        let pairs = candidates_sorted_neighborhood(&t, "name", 2).unwrap();
        // Sorted: alpha(1) beta(2) delta(0) gamma(3); adjacent pairs only.
        assert_eq!(pairs.len(), 3);
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(0, 2)));
        assert!(pairs.contains(&(0, 3)));
        // Window 4 on 4 rows = all pairs.
        let all = candidates_sorted_neighborhood(&t, "name", 4).unwrap();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn sorted_neighborhood_nulls_never_compared() {
        // Mirrors `nulls_never_compared` for the sorted-neighbourhood path:
        // null rows must enter neither the sort order nor the window.
        let t = Table::literal(
            &["name"],
            vec![
                vec![Value::Null],
                vec!["beta".into()],
                vec![Value::Null],
                vec!["alpha".into()],
            ],
        )
        .unwrap();
        let pairs = candidates_sorted_neighborhood(&t, "name", 2).unwrap();
        assert_eq!(pairs, vec![(1, 3)]);
        // Even a window spanning everything only pairs the non-null rows.
        let wide = candidates_sorted_neighborhood(&t, "name", 4).unwrap();
        assert_eq!(wide, vec![(1, 3)]);
        let all_null =
            Table::literal(&["name"], vec![vec![Value::Null], vec![Value::Null]]).unwrap();
        assert!(candidates_sorted_neighborhood(&all_null, "name", 3)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn sorted_neighborhood_small_window_is_error_not_panic() {
        let t = names(&["a", "b"]);
        for window in [0, 1] {
            let err = candidates_sorted_neighborhood(&t, "name", window).unwrap_err();
            assert!(
                matches!(err, wrangler_table::TableError::Invalid(_)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn sorted_neighborhood_catches_prefix_typo_that_blocking_misses() {
        // "acme widget" vs "acmd widget": different 4-prefix blocks.
        let t = names(&["acme widget", "acmd widget"]);
        assert!(candidates_blocked(&t, "name").unwrap().is_empty());
        let sn = candidates_sorted_neighborhood(&t, "name", 2).unwrap();
        assert_eq!(sn, vec![(0, 1)]);
    }
}
