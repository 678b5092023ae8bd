//! Candidate generation: naive, key blocking, sorted neighbourhood.
//!
//! Naive all-pairs is O(n²) and dies at big-data scale (§4.3); blocking
//! compares only records sharing a cheap key, sorted neighbourhood compares
//! records within a sliding window of a sort order. Completeness vs cost is
//! experiment E7's subject.

use std::collections::{BTreeMap, HashMap}; // hash-ok: the class lookups, below

use wrangler_table::{Table, TableError, Value};

use crate::dict::{check_old_of, Dict, PriorIds, NULL_ID};
use crate::{ErKernel, PriorWalk};

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

/// The wrangle stage's blocking, held as keys: per row, the prefix key of
/// `block_col` ([`block_key`]) and the full key of `key_col`, each a
/// dictionary id. Two rows are candidates when they share a key of either
/// kind — rows whose name is null or typo-prefixed still meet their
/// duplicates through the key; when the two columns coincide only the prefix
/// keys apply. Nothing here lists a pair: [`candidates_union`] writes the
/// candidates down (the reference tests and experiments score), and the ER
/// walk blocks the union's record classes ([`RecordClasses`]), not its rows.
///
/// **Invariant** (the incremental engine's ER carry rests on it; pinned by
/// `candidates_restricted_to_surviving_rows` in `tests/proptests.rs`):
/// whether `(i, j)` is a candidate depends on rows `i` and `j` alone, so
/// replacing or deleting rows leaves the candidates among the survivors as
/// they were, re-indexed, and two rows with the same keys have the same
/// partners. Two things stand on it: a carried build ([`Self::carry`])
/// takes a clean row's keys from the previous blocks, and a class pair the
/// previous walk decided is not decided again. A block-size cap or a window
/// here would break both.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionBlocks {
    /// The columns blocked on: `(name, key)`.
    columns: (String, String),
    /// Per row, its prefix key.
    by_name: Dict<String>,
    /// Per row, its full key (no id: the row has none, or the two columns
    /// coincide).
    by_key: Dict<String>,
}

/// Members grouped by one key, laid out flat: block after block in key-id
/// order, members ascending within a block, and per element the span of its
/// block. [`candidates_union`] lays out rows; the walk, record classes.
#[derive(Debug, Clone, Default, PartialEq)]
struct Layout {
    members: Vec<u32>,
    /// Per element `(first, at, end)`: its block is `members[first..end]`,
    /// the members before it are `members[first..at]`, and a member sits at
    /// `at` itself. `(0, 0, 0)` for an element with no key.
    spans: Vec<(u32, u32, u32)>,
}

impl Layout {
    /// A counting sort of the elements by key: `ids[m]` is element `m`'s key
    /// (`NULL_ID`: none), one of `keys` distinct ones. Every element with a
    /// key is a member.
    fn of(ids: &[u32], keys: usize) -> Layout {
        Layout::among(ids, keys, |_| true)
    }

    /// [`Self::of`] with only the elements `member` keeps as members; any
    /// other element with a key gets the span of its block too, with the
    /// members before it.
    fn among(ids: &[u32], keys: usize, member: impl Fn(usize) -> bool) -> Layout {
        let mut size = vec![0u32; keys];
        for (m, &id) in ids.iter().enumerate() {
            if id != NULL_ID && member(m) {
                size[id as usize] += 1;
            }
        }
        let mut first = Vec::with_capacity(keys);
        let mut total = 0;
        for &n in &size {
            first.push(total);
            total += n;
        }
        let mut members = vec![0; total as usize];
        let mut filled = first.clone();
        let mut spans = vec![(0, 0, 0); ids.len()];
        for (m, &id) in ids.iter().enumerate() {
            if id == NULL_ID {
                continue;
            }
            let k = id as usize;
            spans[m] = (first[k], filled[k], first[k] + size[k]);
            if member(m) {
                members[filled[k] as usize] = m as u32;
                filled[k] += 1;
            }
        }
        Layout { members, spans }
    }

    fn later_mates(&self, m: usize) -> &[u32] {
        let (_, at, end) = self.spans[m];
        let later = &self.members[at as usize..end as usize];
        match later.split_first() {
            Some((&own, rest)) if own as usize == m => rest,
            _ => later,
        }
    }

    fn earlier_mates(&self, m: usize) -> &[u32] {
        let (first, at, _) = self.spans[m];
        &self.members[first as usize..at as usize]
    }

    /// Every block's members, block after block.
    fn blocks(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let &m = self.members.get(at)?;
            let block = &self.members[at..self.spans[m as usize].2 as usize];
            at += block.len();
            Some(block)
        })
    }
}

/// The pairs among elements in groups of the given sizes: Σ `S·(S − 1)/2`,
/// for `N` kinds of element at once.
fn pairs_among<const N: usize>(sizes: impl Iterator<Item = [u64; N]>) -> [u64; N] {
    sizes.fold([0; N], |sum, s| {
        add(sum, s.map(|s| s * s.saturating_sub(1) / 2))
    })
}

fn add<const N: usize>(a: [u64; N], b: [u64; N]) -> [u64; N] {
    std::array::from_fn(|k| a[k] + b[k])
}

/// A member's partners: two ascending lists merged, a member in both kept
/// once.
#[derive(Debug, Clone)]
pub(crate) struct Partners<'a> {
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
        Ok(UnionBlocks::carry(table, block_col, key_col, None)?.0)
    }

    /// Block `table` as [`Self::build`] does, taking what `prior` already
    /// derived: with `prior = (blocks, old_of)`, row `r` with `old_of[r] =
    /// Some(o)` holds the cells row `o` of the table `blocks` were built
    /// over held, so it takes that row's two keys by id; only the other
    /// rows render and fold a key. The result equals `build(table, …)`
    /// field for field; beside it, each key's id in `blocks` (empty when
    /// cold), for a walk carried from them.
    pub fn carry(
        table: &Table,
        block_col: &str,
        key_col: &str,
        prior: Option<(&UnionBlocks, &[Option<usize>])>,
    ) -> wrangler_table::Result<(UnionBlocks, PriorIds)> {
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
        let (by_name, name_ids) = Dict::encode(
            names,
            block_key,
            |k| k,
            prior.map(|(b, old_of)| (&b.by_name, old_of)),
        );
        let (by_key, key_ids) = match keys {
            Some(column) => Dict::encode(
                column,
                exact_key,
                |k| k,
                prior.map(|(b, old_of)| (&b.by_key, old_of)),
            ),
            None => (Dict::empty(rows), Vec::new()),
        };
        let blocks = UnionBlocks {
            columns: (block_col.to_string(), key_col.to_string()),
            by_name,
            by_key,
        };
        Ok((blocks, PriorIds(vec![name_ids, key_ids])))
    }

    /// Rows of the blocked table.
    pub fn num_rows(&self) -> usize {
        self.by_name.ids.len()
    }

    /// The full-key column, unless it is the prefix column too (then only
    /// prefix keys apply).
    fn key_column(&self) -> Option<&str> {
        (self.columns.0 != self.columns.1).then_some(&self.columns.1)
    }

    /// Row `r`'s two keys.
    fn keys(&self, r: usize) -> (u32, u32) {
        (self.by_name.ids[r], self.by_key.ids[r])
    }

    /// Row `r`'s two keys as ids of the blocks these were carried from
    /// (`ids`, what that carry returned); `None` when one is new to them.
    fn prior_keys(&self, ids: &PriorIds, r: usize) -> Option<(u32, u32)> {
        Some((ids.of(0, &self.by_name, r)?, ids.of(1, &self.by_key, r)?))
    }

    /// Do `ids` fit these blocks?
    fn fit(&self, ids: &PriorIds) -> bool {
        let values = [&self.by_name, &self.by_key].map(|d| Some(d.values.len()));
        ids.fit(values.into_iter())
    }

    /// Lay `ids` out by prefix key and by full key, `ids[m]` being member
    /// `m`'s two keys.
    fn layouts(&self, ids: &[(u32, u32)]) -> (Layout, Layout) {
        let of = |pick: fn(&(u32, u32)) -> u32, keys| {
            Layout::of(&ids.iter().map(pick).collect::<Vec<_>>(), keys)
        };
        (
            of(|k| k.0, self.by_name.values.len()),
            of(|k| k.1, self.by_key.values.len()),
        )
    }
}

/// [`UnionBlocks`] written down: every candidate, sorted by `(i, j)` —
/// [`candidates_blocked`] ∪ [`candidates_blocked_exact`], but always in
/// `(i, j)` order, not in those functions' block-key order. Each row walks
/// the merge of its two blocks' later rows, so the list comes out sorted and
/// duplicate-free with no sort. The reference list tests and experiments
/// score; the wrangle stage decides class pairs instead.
pub fn candidates_union(
    table: &Table,
    block_col: &str,
    key_col: &str,
) -> wrangler_table::Result<Vec<(usize, usize)>> {
    let blocks = UnionBlocks::build(table, block_col, key_col)?;
    let keys: Vec<(u32, u32)> = (0..blocks.num_rows()).map(|r| blocks.keys(r)).collect();
    let (by_name, by_key) = blocks.layouts(&keys);
    let mut out = Vec::new();
    for i in 0..blocks.num_rows() {
        let partners = Partners {
            a: by_name.later_mates(i),
            b: by_key.later_mates(i),
        };
        out.extend(partners.map(|j| (i, j)));
    }
    Ok(out)
}

/// The rows of a union grouped into record classes. A row's record is every
/// compiled ER field's dictionary id (a numeric field's cell by its bits)
/// and both blocking keys; rows with one record form a class, and classes
/// are numbered in order of their first row. Two rows of a class score
/// alike against every partner and share every candidate, so the walk
/// decides class pairs ([`crate::ErKernel::decide_union`]): the classes are
/// blocked by their keys as rows are, and a class pair stands for the row
/// pairs between its two classes.
///
/// **The veto.** When the kernel's exact field on the full-key column
/// rejects, by its difference alone, every pair whose two values it holds
/// (the kernel proves it once per compilation), a class pair whose classes
/// both hold a full key and differ in that field's id is rejected before it
/// is met. The walk meets only the other candidates: a class with a full key
/// meets the classes sharing its field id — one folded value renders one
/// full key, so they sit in its full-key block — and the classes without a
/// full key in its prefix block; a class without one meets its whole prefix
/// block.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RecordClasses {
    /// Per row, its class.
    of_row: Vec<u32>,
    /// Class `c`'s rows, ascending: `rows[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    rows: Vec<u32>,
    /// Per class, its two blocking keys.
    keys: Vec<(u32, u32)>,
    /// The classes blocked by prefix key and by full key.
    by_name: Layout,
    by_key: Layout,
    /// Under a veto: the classes by the vetoing field's id, and the classes
    /// without a full key by prefix key.
    veto: Option<(Layout, Layout)>,
}

/// How the classes of a union continue those of the walk before it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClassCarry {
    /// Per class, the prior class holding the same record, or `NULL_ID`: the
    /// record is new to the union.
    pub(crate) prior_of: Vec<u32>,
    /// Per prior class, the class now holding its record, or `NULL_ID`.
    pub(crate) now_of: Vec<u32>,
}

impl ClassCarry {
    /// The class continuing prior class `pc`, numbered on first sight.
    fn adopt(&mut self, pc: u32) -> u32 {
        let now = &mut self.now_of[pc as usize];
        if *now == NULL_ID {
            *now = self.prior_of.len() as u32;
            self.prior_of.push(pc);
        }
        *now
    }

    /// A class for a record new to the union.
    fn mint(&mut self) -> u32 {
        self.prior_of.push(NULL_ID);
        self.prior_of.len() as u32 - 1
    }
}

/// Records → class: a lookup table. Class numbers follow row order, never
/// the table's iteration order.
type Lookup<'a> = HashMap<&'a [u64], u32>; // hash-ok: lookup only

/// Push row `r`'s record: its kernel words, then its two blocking keys.
fn push_record(kernel: &ErKernel, blocks: &UnionBlocks, r: usize, out: &mut Vec<u64>) {
    kernel.push_words(r, out);
    let (name, key) = blocks.keys(r);
    out.extend([u64::from(name), u64::from(key)]);
}

/// Push row `r`'s record in the ids of `prior`'s kernel and blocks; `false`
/// when a value is new to them (what was pushed is the caller's to drop).
fn push_prior_record(
    kernel: &ErKernel,
    blocks: &UnionBlocks,
    prior: PriorWalk<'_>,
    r: usize,
    out: &mut Vec<u64>,
) -> bool {
    let Some((name, key)) = blocks.prior_keys(prior.block_ids, r) else {
        return false;
    };
    let held = kernel.push_prior_words(prior.kernel_ids, r, out);
    out.extend([u64::from(name), u64::from(key)]);
    held
}

impl RecordClasses {
    /// The classes of the rows `kernel` and `blocks` were built over. With a
    /// `prior`, a row the carry maps (`old_of[r] = Some(o)`) takes row `o`'s
    /// class by number, and any other row whose every value the prior's
    /// dictionaries hold (the prior's `block_ids` and `kernel_ids` say which
    /// value it was there) looks its record up among the prior classes with
    /// its two keys — by its ids there, compared word for word; only a
    /// record new to the union mints a class. The caller has checked that
    /// the prior kernel was compiled under this one's rule. Either way the
    /// classes equal those of a derivation with no prior, and the carry says
    /// which ones continue a prior class.
    pub(crate) fn derive(
        kernel: &ErKernel,
        blocks: &UnionBlocks,
        prior: Option<PriorWalk<'_>>,
    ) -> wrangler_table::Result<(RecordClasses, ClassCarry)> {
        let n = kernel.num_rows();
        if blocks.num_rows() != n {
            return Err(TableError::Invalid(format!(
                "blocks over {} rows classed with a kernel over {n}",
                blocks.num_rows()
            )));
        }
        if let Some(p) = prior {
            let old_rows = p.decided.classes.num_rows();
            if p.kernel.num_rows() != old_rows || p.blocks.num_rows() != old_rows {
                return Err(TableError::Invalid(
                    "a prior walk whose kernel, blocks and classes disagree".into(),
                ));
            }
            check_old_of(p.old_of, n, old_rows)?;
            if !blocks.fit(p.block_ids) || !kernel.fit(p.kernel_ids) {
                return Err(TableError::Invalid(
                    "a prior walk whose ids were not carried into these blocks and kernel".into(),
                ));
            }
        }
        let width = kernel.num_fields() + 2;
        let old_of = prior.map_or(&[][..], |p| p.old_of);
        let clean = |r: usize| old_of.get(r).copied().flatten();
        // The records of the rows no carry maps: in this union's ids, and in
        // the prior's where it holds every value.
        let dirty: Vec<usize> = (0..n).filter(|&r| clean(r).is_none()).collect();
        let mut words = Vec::with_capacity(dirty.len() * width);
        let mut old_words = Vec::new();
        let mut translated = Vec::with_capacity(dirty.len());
        for &r in &dirty {
            push_record(kernel, blocks, r, &mut words);
            let at = old_words.len();
            if prior.is_some_and(|p| push_prior_record(kernel, blocks, p, r, &mut old_words)) {
                translated.push(Some(at));
            } else {
                old_words.truncate(at);
                translated.push(None);
            }
        }
        // The prior classes a dirty row may repeat, by record: only those
        // with the two keys of some dirty row (a record's last two words).
        let keys_at = |at: usize| (old_words[at + width - 2], old_words[at + width - 1]);
        let mut wanted: Vec<(u32, u32)> = (translated.iter().flatten())
            .map(|&at| (keys_at(at).0 as u32, keys_at(at).1 as u32))
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let (mut prior_words, mut prior_ids) = (Vec::new(), Vec::new());
        if let Some(p) = prior.filter(|_| !wanted.is_empty()) {
            let classes = &p.decided.classes;
            let held = |c: &usize| wanted.binary_search(&classes.keys[*c]).is_ok();
            for c in (0..classes.len()).filter(held) {
                push_record(p.kernel, p.blocks, classes.first(c), &mut prior_words);
                prior_ids.push(c as u32);
            }
        }
        let prior_index: Lookup = prior_words.chunks(width).zip(prior_ids).collect();
        let prior_classes = prior.map_or(0, |p| p.decided.classes.len());
        let mut carry = ClassCarry {
            prior_of: Vec::new(),
            now_of: vec![NULL_ID; prior_classes],
        };
        let mut fresh = Lookup::default();
        let mut of_row = Vec::with_capacity(n);
        let mut next_dirty = 0;
        for r in 0..n {
            let c = match (prior, clean(r)) {
                (Some(p), Some(o)) => carry.adopt(p.decided.classes.of_row[o]),
                _ => {
                    let k = next_dirty;
                    next_dirty += 1;
                    let found = translated[k]
                        .and_then(|at| prior_index.get(&old_words[at..at + width]).copied());
                    match found {
                        Some(pc) => carry.adopt(pc),
                        None => *fresh
                            .entry(&words[k * width..(k + 1) * width])
                            .or_insert_with(|| carry.mint()),
                    }
                }
            };
            of_row.push(c);
        }
        let classes = carry.prior_of.len();
        let mut start = vec![0u32; classes + 1];
        for &c in &of_row {
            start[c as usize + 1] += 1;
        }
        for c in 0..classes {
            start[c + 1] += start[c];
        }
        let mut filled = start.clone();
        let mut rows = vec![0u32; n];
        for (r, &c) in of_row.iter().enumerate() {
            rows[filled[c as usize] as usize] = r as u32;
            filled[c as usize] += 1;
        }
        let first = |c: usize| rows[start[c] as usize] as usize;
        let keys: Vec<(u32, u32)> = (0..classes).map(|c| blocks.keys(first(c))).collect();
        let (by_name, by_key) = blocks.layouts(&keys);
        let vetoing = blocks
            .key_column()
            .and_then(|column| kernel.vetoing(column));
        let veto = vetoing.map(|dict| {
            let ids: Vec<u32> = (0..classes).map(|c| dict.ids[first(c)]).collect();
            debug_assert!((0..classes).all(|c| (ids[c] == NULL_ID) == (keys[c].1 == NULL_ID)));
            let names: Vec<u32> = keys.iter().map(|k| k.0).collect();
            (
                Layout::of(&ids, dict.values.len()),
                Layout::among(&names, blocks.by_name.values.len(), |c| {
                    keys[c].1 == NULL_ID
                }),
            )
        });
        let classes = RecordClasses {
            of_row,
            start,
            rows,
            keys,
            by_name,
            by_key,
            veto,
        };
        Ok((classes, carry))
    }

    /// Number of classes.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Rows of the union.
    pub(crate) fn num_rows(&self) -> usize {
        self.of_row.len()
    }

    /// Class `c`'s rows, ascending.
    pub(crate) fn rows(&self, c: usize) -> &[u32] {
        &self.rows[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// Class `c`'s row count.
    pub(crate) fn size(&self, c: usize) -> u64 {
        u64::from(self.start[c + 1] - self.start[c])
    }

    /// Class `c`'s first row: the row its decisions are made with.
    pub(crate) fn first(&self, c: usize) -> usize {
        self.rows[self.start[c] as usize] as usize
    }

    /// Class `c`'s last row.
    pub(crate) fn last(&self, c: usize) -> usize {
        self.rows[self.start[c + 1] as usize - 1] as usize
    }

    /// Does class `c` have a blocking key, i.e. are its rows candidates of
    /// one another? Rows whose two keys are both null are nobody's
    /// candidates, not even each other's.
    pub(crate) fn keyed(&self, c: usize) -> bool {
        self.keys[c] != (NULL_ID, NULL_ID)
    }

    /// Must class pair `(lo, hi)`, `lo < hi`, be decided the other way round
    /// too — does some row of `hi` precede some row of `lo`? Every row pair
    /// `(i, j)`, `i < j`, is decided as `(class(i), class(j))`, and
    /// `first(lo) < first(hi)` always gives the pair one such row pair.
    pub(crate) fn reversed(&self, lo: usize, hi: usize) -> bool {
        self.first(hi) < self.last(lo)
    }

    /// The two layouts class `c` meets its partners through: its prefix
    /// and full-key blocks, or under the veto, for a class with a full key,
    /// the classes sharing its vetoing id and the keyless ones of its prefix
    /// block (a class without a full key has no full-key block).
    fn met_through(&self, c: usize) -> [&Layout; 2] {
        match &self.veto {
            Some((by_id, keyless)) if self.keys[c].1 != NULL_ID => [by_id, keyless],
            _ => [&self.by_name, &self.by_key],
        }
    }

    /// The later classes `c` is met with, ascending: its candidates, less
    /// those the veto rejects.
    pub(crate) fn partners(&self, c: usize) -> Partners<'_> {
        let [a, b] = self.met_through(c);
        Partners {
            a: a.later_mates(c),
            b: b.later_mates(c),
        }
    }

    /// The earlier classes `c` is met with, ascending.
    pub(crate) fn earlier_partners(&self, c: usize) -> Partners<'_> {
        let [a, b] = self.met_through(c);
        Partners {
            a: a.earlier_mates(c),
            b: b.earlier_mates(c),
        }
    }

    /// What walking class `c`'s partners costs, to within the overlap of the
    /// two blockings (a partner in both counts twice) and without merging:
    /// its later mates, and its earlier ones too with `earlier`.
    pub(crate) fn mates(&self, c: usize, earlier: bool) -> u64 {
        let count = |l: &Layout| {
            let before = if earlier { l.earlier_mates(c).len() } else { 0 };
            (l.later_mates(c).len() + before) as u64
        };
        self.met_through(c).map(count).iter().sum()
    }

    /// The candidate pairs among elements of the classes, of `N` kinds at
    /// once, `weight(c)[k]` elements of kind `k` in class `c` (its rows:
    /// the candidates; one: the candidate class pairs): those sharing a
    /// prefix key, plus those sharing a full key, less those sharing both —
    /// counted inside each full-key block, by prefix key.
    pub(crate) fn pairs<const N: usize>(&self, weight: impl Fn(usize) -> [u64; N]) -> [u64; N] {
        let block_size =
            |block: &[u32]| (block.iter()).fold([0; N], |n, &c| add(n, weight(c as usize)));
        let by_name = pairs_among(self.by_name.blocks().map(block_size));
        let by_key = pairs_among(self.by_key.blocks().map(block_size));
        let mut names: Vec<(u32, [u64; N])> = Vec::new();
        let mut shared = [0; N];
        for block in self.by_key.blocks() {
            names.clear();
            names.extend(
                block
                    .iter()
                    .map(|&c| (self.keys[c as usize].0, weight(c as usize))),
            );
            names.retain(|&(name, _)| name != NULL_ID);
            names.sort_unstable_by_key(|&(name, _)| name);
            let runs = names.chunk_by(|a, b| a.0 == b.0);
            let sizes = runs.map(|run| run.iter().fold([0; N], |n, &(_, w)| add(n, w)));
            shared = add(shared, pairs_among(sizes));
        }
        std::array::from_fn(|k| by_name[k] + by_key[k] - shared[k])
    }
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
    fn the_list_merges_both_blockings_per_row() {
        // Rows 0, 1, 3 share the name prefix; 1, 2, 3 the key; row 4 is in
        // no block at all; row 5 only meets row 0 through a case-folded key.
        // (1, 3) is in both blockings and listed once.
        let t = named_and_keyed(&[
            ("Acme Widget", "k9"),
            ("acme gadget", "K1"),
            ("", "k1"),
            ("ACME thing", "k1 "),
            ("", ""),
            ("Bolt", "K9"),
        ]);
        let listed = candidates_union(&t, "name", "sku").unwrap();
        assert_eq!(listed, vec![(0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(UnionBlocks::build(&t, "name", "sku").unwrap().num_rows(), 6);
        // One column in both roles: the prefix blocks alone, in (i, j) order.
        let mut prefix_only = candidates_blocked(&t, "name").unwrap();
        prefix_only.sort_unstable();
        assert_eq!(candidates_union(&t, "name", "name").unwrap(), prefix_only);
        assert_eq!(
            candidates_union(&t, "sku", "sku").unwrap(),
            vec![(0, 5), (1, 2), (1, 3), (2, 3)]
        );
        assert!(UnionBlocks::build(&t, "name", "ghost").is_err());
    }

    #[test]
    fn all_null_columns_and_empty_tables_have_no_candidates() {
        let nulls = named_and_keyed(&[("", ""), ("", ""), ("", "")]);
        assert!(candidates_union(&nulls, "name", "sku").unwrap().is_empty());
        let keyed = named_and_keyed(&[("", "a"), ("", "A"), ("", "")]);
        assert_eq!(
            candidates_union(&keyed, "name", "sku").unwrap(),
            vec![(0, 1)]
        );
        let empty = named_and_keyed(&[]);
        assert!(candidates_union(&empty, "name", "sku").unwrap().is_empty());
    }

    /// Classes of `t` under a kernel over its name alone.
    fn classes_of(t: &Table, prior: Option<PriorWalk<'_>>) -> (RecordClasses, ClassCarry) {
        let kernel = ErKernel::compile(t, &crate::ErConfig::text_over(&["name"], 0.5)).unwrap();
        let blocks = UnionBlocks::build(t, "name", "sku").unwrap();
        RecordClasses::derive(&kernel, &blocks, prior).unwrap()
    }

    #[test]
    fn rows_with_one_record_share_a_class_numbered_by_first_row() {
        // The kernel reads the name only, so rows 0 and 4 (one sku apart)
        // differ by a blocking key alone: two classes. Rows 2 and 5 have no
        // key of either kind — one class, nobody's candidate, not even its
        // own rows'.
        let t = named_and_keyed(&[
            ("Acme Widget", "k1"),
            ("Bolt", "k2"),
            ("", ""),
            ("acme widget", "K1"),
            ("Acme Widget", "k3"),
            ("", ""),
            ("Bolt", "k2"),
        ]);
        let (classes, carry) = classes_of(&t, None);
        assert_eq!(classes.of_row, vec![0, 1, 2, 0, 3, 2, 1]);
        assert_eq!(classes.len(), 4);
        assert_eq!(carry.prior_of, vec![NULL_ID; 4], "cold: every class is new");
        assert_eq!(
            (classes.rows(0), classes.rows(2)),
            (&[0, 3][..], &[2, 5][..])
        );
        assert_eq!(
            (classes.size(1), classes.first(1), classes.last(1)),
            (2, 1, 6)
        );
        assert!(classes.keyed(0) && !classes.keyed(2));
        // Class 1's row 6 follows class 3's row 4: a pair decided as (1, 3)
        // also meets the union as (3, 1)'s rows (4, 6).
        assert!(classes.reversed(1, 3) && !classes.reversed(0, 3));
        assert_eq!(classes.partners(0).collect::<Vec<_>>(), vec![3]);
        assert_eq!(classes.earlier_partners(3).collect::<Vec<_>>(), vec![0]);
        let listed = candidates_union(&t, "name", "sku").unwrap();
        assert_eq!(listed.len(), 4);
        assert_eq!(classes.pairs(|c| [classes.size(c)]), [listed.len() as u64]);
    }

    #[test]
    fn under_a_veto_a_keyed_class_meets_its_key_and_the_keyless_of_its_prefix() {
        // Rows 0 and 4 are one record. Class 3's key folds apart from class
        // 0's ("k1 " against "k1") in one full-key block; class 2 has none.
        let t = named_and_keyed(&[
            ("Acme Widget", "k1"),
            ("Acme Gadget", "k2"),
            ("Acme Thing", ""),
            ("Bolt", "k1 "),
            ("acme widget", "K1"),
        ]);
        let blocks = UnionBlocks::build(&t, "name", "sku").unwrap();
        let field = |column: &str, weight, kind| crate::FieldSim {
            column: column.into(),
            weight,
            kind,
        };
        let cfg = |threshold| crate::ErConfig {
            fields: vec![
                field("sku", 2.0, crate::SimKind::Exact),
                field("name", 1.0, crate::SimKind::Text),
            ],
            threshold,
        };
        let classes = |threshold| {
            let kernel = ErKernel::compile(&t, &cfg(threshold)).unwrap();
            RecordClasses::derive(&kernel, &blocks, None).unwrap().0
        };
        let met = |c: &RecordClasses, k: usize| {
            let later: Vec<usize> = c.partners(k).collect();
            (c.earlier_partners(k).collect::<Vec<_>>(), later)
        };
        // At 1/3 a differing key still matches on the name: every candidate.
        let open = classes(1.0 / 3.0);
        assert_eq!(open.of_row, vec![0, 1, 2, 3, 0]);
        assert!(open.veto.is_none());
        assert_eq!(met(&open, 0), (vec![], vec![1, 2, 3]));
        assert_eq!(open.pairs(|c| [1, open.size(c)]), [4, 8]);
        // Over it the key vetoes: (0, 1) and (0, 3) are never met.
        let vetoed = classes(0.34);
        assert!(vetoed.veto.is_some());
        assert_eq!(met(&vetoed, 0), (vec![], vec![2]));
        assert_eq!(met(&vetoed, 1), (vec![], vec![2]));
        assert_eq!(met(&vetoed, 2), (vec![0, 1], vec![]));
        assert_eq!(met(&vetoed, 3), (vec![], vec![]));
        assert_eq!(
            (0..4).map(|c| vetoed.mates(c, true)).collect::<Vec<_>>(),
            [1, 1, 2, 0]
        );
        // One column in both roles: no full key, nothing vetoed.
        let kernel = ErKernel::compile(&t, &cfg(0.34)).unwrap();
        let same = UnionBlocks::build(&t, "sku", "sku").unwrap();
        assert!(RecordClasses::derive(&kernel, &same, None)
            .unwrap()
            .0
            .veto
            .is_none());
    }

    #[test]
    fn a_carried_derivation_equals_a_cold_one_and_says_which_classes_are_new() {
        let old = named_and_keyed(&[("Acme Widget", "k1"), ("Bolt", "k2"), ("Cog", "k4")]);
        let cfg = crate::ErConfig::text_over(&["name"], 0.5);
        let (old_kernel, old_blocks) = (
            ErKernel::compile(&old, &cfg).unwrap(),
            UnionBlocks::build(&old, "name", "sku").unwrap(),
        );
        let decided = old_kernel.decide_union(&old_blocks, 1, None).unwrap();
        // Row 0 is new, row 1 re-delivers "Cog" (a dirty row the carry does
        // not map), row 2 keeps "Acme" and row 3 repeats it.
        let new = named_and_keyed(&[
            ("Dial", "k5"),
            ("cog", "K4"),
            ("Acme Widget", "k1"),
            ("Acme Widget", "k1"),
        ]);
        let old_of = [None, None, Some(0), None];
        let (kernel, kernel_ids) =
            ErKernel::carry(&new, &cfg, Some((&old_kernel, &old_of[..]))).unwrap();
        let (blocks, block_ids) =
            UnionBlocks::carry(&new, "name", "sku", Some((&old_blocks, &old_of[..]))).unwrap();
        let prior = PriorWalk {
            kernel: &old_kernel,
            blocks: &old_blocks,
            decided: &decided,
            old_of: &old_of,
            block_ids: &block_ids,
            kernel_ids: &kernel_ids,
        };
        let (classes, carry) = RecordClasses::derive(&kernel, &blocks, Some(prior)).unwrap();
        assert_eq!(classes, classes_of(&new, None).0);
        assert_eq!(classes.of_row, vec![0, 1, 2, 2]);
        assert_eq!(carry.prior_of, vec![NULL_ID, 2, 0]);
        assert_eq!(carry.now_of, vec![2, NULL_ID, 1]);
        // Ids the carry did not return — a cold compilation's — are refused,
        // and so is a map past the prior's rows.
        let cold_ids = ErKernel::carry(&new, &cfg, None).unwrap().1;
        let misfit = PriorWalk {
            kernel_ids: &cold_ids,
            ..prior
        };
        assert!(RecordClasses::derive(&kernel, &blocks, Some(misfit)).is_err());
        let past = [Some(3), None, None, None];
        let bad = PriorWalk {
            old_of: &past,
            ..prior
        };
        assert!(RecordClasses::derive(&kernel, &blocks, Some(bad)).is_err());
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
