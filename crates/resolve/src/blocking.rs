//! Candidate generation: naive, key blocking, sorted neighbourhood.
//!
//! Naive all-pairs is O(n²) and dies at big-data scale (§4.3); blocking
//! compares only records sharing a cheap key, sorted neighbourhood compares
//! records within a sliding window of a sort order. Completeness vs cost is
//! experiment E7's subject.

use std::collections::BTreeMap;
use std::ops::Range;

use wrangler_table::{Table, Value};

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
/// blocking is flattened once (`members`: its blocks end to end, rows
/// ascending within a block) with, per row, the span of its *later*
/// block-mates; row `i`'s candidates are `(i, j)` for `j` in the merge of
/// its two spans ([`Self::partners`]). Rows in order and partners ascending
/// make every walk `(i, j)`-sorted and duplicate-free with no sort. When the
/// two columns coincide only the prefix blocks apply.
///
/// **Invariant** (the incremental engine's ER carry rests on it; pinned by
/// `candidates_restricted_to_surviving_rows` in `tests/proptests.rs`):
/// whether `(i, j)` is a candidate depends on rows `i` and `j` alone, so
/// replacing or deleting rows leaves the candidates among the survivors as
/// they were, re-indexed. A block-size cap or a window here would break it.
#[derive(Debug, Clone)]
pub struct UnionBlocks {
    by_name: Blocking,
    by_key: Blocking,
}

/// One blocking of the rows, flattened.
#[derive(Debug, Clone)]
struct Blocking {
    /// Every block's rows, block after block in key order.
    members: Vec<usize>,
    /// Per row, where in `members` its later block-mates sit (`(0, 0)` for
    /// a row in no block).
    later: Vec<(usize, usize)>,
}

impl Blocking {
    fn flatten(blocks: &BTreeMap<String, Vec<usize>>, rows: usize) -> Blocking {
        let mut members = Vec::with_capacity(blocks.values().map(Vec::len).sum());
        let mut later = vec![(0, 0); rows];
        for block in blocks.values() {
            let end = members.len() + block.len();
            for (pos, &row) in block.iter().enumerate() {
                later[row] = (members.len() + pos + 1, end);
            }
            members.extend_from_slice(block);
        }
        Blocking { members, later }
    }

    fn later_mates(&self, row: usize) -> &[usize] {
        let (start, end) = self.later[row];
        &self.members[start..end]
    }
}

/// Row `i`'s partners: two ascending lists merged, a row in both kept once.
#[derive(Debug, Clone)]
pub struct Partners<'a> {
    a: &'a [usize],
    b: &'a [usize],
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
        Some(j)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (a, b) = (self.a.len(), self.b.len());
        (a.max(b), Some(a + b))
    }
}

impl UnionBlocks {
    /// Block `table` on `block_col`'s name prefix and `key_col`'s value.
    pub fn build(
        table: &Table,
        block_col: &str,
        key_col: &str,
    ) -> wrangler_table::Result<UnionBlocks> {
        let rows = table.num_rows();
        let name_blocks = blocks_by(table.column_named(block_col)?, block_key);
        let key_blocks = if key_col == block_col {
            BTreeMap::new()
        } else {
            blocks_by(table.column_named(key_col)?, exact_key)
        };
        Ok(UnionBlocks {
            by_name: Blocking::flatten(&name_blocks, rows),
            by_key: Blocking::flatten(&key_blocks, rows),
        })
    }

    /// Rows of the blocked table.
    pub fn num_rows(&self) -> usize {
        self.by_name.later.len()
    }

    /// The later rows `i` is a candidate with, ascending.
    pub fn partners(&self, i: usize) -> Partners<'_> {
        Partners {
            a: self.by_name.later_mates(i),
            b: self.by_key.later_mates(i),
        }
    }

    /// Every candidate, in `(i, j)` order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.num_rows()).flat_map(|i| self.partners(i).map(move |j| (i, j)))
    }

    /// Row `i`'s partner count with a partner in both blockings counted
    /// twice: what walking the row costs to within the overlap, known
    /// without merging.
    fn weight(&self, i: usize) -> usize {
        let size = |b: &Blocking| b.later[i].1 - b.later[i].0;
        size(&self.by_name) + size(&self.by_key)
    }

    /// An upper bound on the number of candidates, and a tight one: a pair in
    /// both blockings is counted twice, and key blocks are small.
    pub fn pair_bound(&self) -> usize {
        self.pair_bound_of(0..self.num_rows())
    }

    /// [`Self::pair_bound`] of the candidates whose first row is in `rows`.
    pub(crate) fn pair_bound_of(&self, rows: Range<usize>) -> usize {
        rows.map(|i| self.weight(i)).sum()
    }

    /// Split the rows into at most `workers` contiguous strips of about
    /// equal partner count (counted as [`Self::pair_bound`] counts) — not
    /// equal row counts: the early rows of a block have the most later
    /// mates. The strips cover every row once, in order, and each holds a
    /// pair (a table without candidates is one strip; no rows, none).
    pub fn strips(&self, workers: usize) -> Vec<Range<usize>> {
        let rows = self.num_rows();
        let total = self.pair_bound();
        let workers = workers.clamp(1, total.max(1));
        let mut strips = Vec::with_capacity(workers);
        let (mut start, mut walked, mut cut_at) = (0, 0, 0);
        for i in 0..rows {
            walked += self.weight(i);
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
