//! Candidate generation: naive, key blocking, sorted neighbourhood.
//!
//! Naive all-pairs is O(n²) and dies at big-data scale (§4.3); blocking
//! compares only records sharing a cheap key, sorted neighbourhood compares
//! records within a sliding window of a sort order. Completeness vs cost is
//! experiment E7's subject.

use std::collections::BTreeMap;

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

/// Per row, the later rows of its block — ascending, empty for a row in no
/// block. Row `i`'s candidates under one blocking are exactly `(i, j)` for
/// `j` in `mates[i]`.
fn later_mates(blocks: &BTreeMap<String, Vec<usize>>, rows: usize) -> Vec<&[usize]> {
    let mut mates: Vec<&[usize]> = vec![&[]; rows];
    for block in blocks.values() {
        for (pos, &row) in block.iter().enumerate() {
            mates[row] = &block[pos + 1..];
        }
    }
    mates
}

/// The wrangle stage's candidates: prefix blocks of `block_col` ∪ exact
/// blocks of `key_col` — rows whose name is null or typo-prefixed still meet
/// their duplicates through the key — sorted by `(i, j)` and deduplicated.
/// Equal to [`candidates_blocked`] ∪ [`candidates_blocked_exact`] sorted and
/// deduped, without materialising either list or sorting: rows are walked
/// in order and each row's two ascending partner lists are merged. When the
/// two columns coincide only the prefix blocks apply — the same pairs as
/// [`candidates_blocked`], but in `(i, j)` order like every other output of
/// this function, not in that function's block-key order.
///
/// **Invariant** (the incremental engine's ER carry rests on it; pinned by
/// `candidates_restricted_to_surviving_rows` in `tests/proptests.rs`):
/// whether `(i, j)` is a candidate depends on rows `i` and `j` alone, so
/// replacing or deleting rows leaves the candidates among the survivors as
/// they were, re-indexed. A block-size cap or a window here would break it.
pub fn candidates_union(
    table: &Table,
    block_col: &str,
    key_col: &str,
) -> wrangler_table::Result<Vec<(usize, usize)>> {
    let rows = table.num_rows();
    let name_blocks = blocks_by(table.column_named(block_col)?, block_key);
    let key_blocks = if key_col == block_col {
        BTreeMap::new()
    } else {
        blocks_by(table.column_named(key_col)?, exact_key)
    };
    let by_name = later_mates(&name_blocks, rows);
    let by_key = later_mates(&key_blocks, rows);
    // An upper bound (a pair in both blockings is counted twice), so the
    // list never reallocates; key blocks are small, so it is a tight one.
    let bound: usize = by_name.iter().chain(&by_key).map(|m| m.len()).sum();
    let mut out = Vec::with_capacity(bound);
    for (i, (a, b)) in by_name.iter().zip(&by_key).enumerate() {
        let (mut x, mut y) = (0, 0);
        while x < a.len() && y < b.len() {
            let j = a[x].min(b[y]);
            x += usize::from(a[x] == j);
            y += usize::from(b[y] == j);
            out.push((i, j));
        }
        out.extend(a[x..].iter().chain(&b[y..]).map(|&j| (i, j)));
    }
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
