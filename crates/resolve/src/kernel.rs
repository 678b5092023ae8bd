//! The precompiled, parallel entity-resolution kernel.
//!
//! E13's stage attribution put ~90% of a wrangle's wall-clock inside the ER
//! stage, and almost all of it in pair scoring: [`record_similarity`] looks
//! every column name up in the schema *per pair per field*, renders and
//! lowercases both values *per pair*, and rebuilds token sets *per pair* —
//! work that is a pure function of one row, recomputed O(candidates) times.
//!
//! [`ErKernel`] hoists all of it to compile time. [`ErKernel::compile`]
//! resolves the [`ErConfig`]'s column names to indices once (an unknown
//! column errors *before* any scoring), then materialises per-row cells:
//! lowercased renderings, their `char` vectors, sorted-deduped token sets
//! (text fields), ASCII-folded renderings (exact fields) and classified
//! numeric values (numeric fields). Scoring a pair then touches only these
//! cells — no schema lookups, no allocation for renderings or token sets.
//!
//! The arithmetic mirrors the serial path operation for operation, so kernel
//! scores are **bit-identical** to [`record_similarity`] — the
//! `parallel_kernel_equals_serial_match_pairs` proptest holds for any worker
//! count. Parallel scoring splits the candidate list into *contiguous
//! blocked chunks* (worker `w` scores `candidates[start_w..end_w]`, chunks
//! balanced to within one pair) and reassembles them in chunk order, so the
//! output does not depend on scheduling. Blocked pickup is deliberate: the
//! strided fan-out it replaced (worker `w` takes candidates
//! `w, w+workers, …`) interleaved every worker through the whole candidate
//! range and destroyed the per-row cell locality the kernel was compiled
//! for — BENCH_e14 measured it as *negative* scaling. The pool is also
//! sized by [`wrangler_table::par::effective_workers`]: never wider than
//! the machine's cores, and never so wide that a worker gets fewer than
//! [`MIN_PAIRS_PER_WORKER`] pairs — tiny candidate sets (e.g. the handful
//! of cache misses of an incremental pass) run serially instead of paying
//! thread-spawn latency.
//!
//! [`record_similarity`]: crate::sim::record_similarity

use std::time::Instant;

use wrangler_table::par::{self, effective_workers};
pub use wrangler_table::par::WorkerStat;
use wrangler_table::{Table, TableError, Value};

use crate::sim::{ErConfig, SimKind};
use crate::ScoredPair;

/// Minimum candidate pairs per worker before the pool widens by one thread.
/// A pair costs on the order of a microsecond; a thread spawn costs tens of
/// them — below this floor the spawn never pays for itself.
pub const MIN_PAIRS_PER_WORKER: usize = 512;

/// Per-row precomputation for one text field.
#[derive(Debug, Clone)]
struct TextCell {
    /// Lowercased rendering (the serial path's `render().to_lowercase()`).
    lower: String,
    /// `lower` as a char vector (what `jaro`/`levenshtein` collect per call).
    chars: Vec<char>,
    /// `lower`'s bytes when pure ASCII: `char` equality over ASCII strings
    /// is byte equality at the same indices, so the char-level kernels can
    /// run on `u8` slices — same comparisons, same arithmetic, same bits,
    /// a quarter of the memory traffic.
    ascii: Option<Vec<u8>>,
    /// Sorted, deduplicated tokens of `lower` (what `token_jaccard` builds
    /// per call).
    tokens: Vec<String>,
}

/// A classified numeric value. The classification mirrors the serial
/// comparator: nulls are skipped, non-finite values are incomparable (the
/// NaN-poisoning fix), non-numeric payloads compare as "different".
#[derive(Debug, Clone, Copy)]
enum NumCell {
    /// Null value: the field is skipped for any pair involving this row.
    Null,
    /// A finite numeric value.
    Finite(f64),
    /// NaN or ±∞: incomparable, like null.
    NonFinite,
    /// Non-null, non-numeric payload under a numeric comparator.
    NonNumeric,
}

/// Per-row cells of one compiled field.
#[derive(Debug, Clone)]
enum FieldCells {
    /// Text comparator cells (`None` = null row).
    Text(Vec<Option<TextCell>>),
    /// Exact comparator cells: ASCII-folded renderings (`None` = null row).
    /// `a.eq_ignore_ascii_case(b)` ≡ `fold(a) == fold(b)`.
    Exact(Vec<Option<String>>),
    /// Numeric comparator cells with the comparator's scale.
    Numeric { cells: Vec<NumCell>, scale: f64 },
}

/// One field of the compiled configuration.
#[derive(Debug, Clone)]
struct CompiledField {
    weight: f64,
    cells: FieldCells,
}

/// Reusable per-worker buffers for the char-level similarity kernels. A
/// fresh default is indistinguishable from a reused one — every routine
/// clears and re-initialises what it reads — so scratch reuse cannot change
/// a single bit of output; it only removes the 4–5 heap allocations the
/// uncompiled path pays per pair.
#[derive(Debug, Default)]
struct SimScratch {
    /// `jaro`: which `b` chars are already matched.
    b_used: Vec<bool>,
    /// `jaro`: matched `b` positions in `a` order.
    js: Vec<usize>,
    /// `jaro`: the same positions sorted (transposition counting).
    js_sorted: Vec<usize>,
    /// `levenshtein`: previous DP row.
    prev: Vec<usize>,
    /// `levenshtein`: current DP row.
    cur: Vec<usize>,
    /// Myers bit-parallel `levenshtein`: per-symbol pattern bitmasks (256
    /// entries, zeroed after each use so reuse equals a fresh table).
    peq: Vec<u64>,
}

/// An [`ErConfig`] precompiled against one table: column names resolved,
/// comparators monomorphized, per-row renderings cached. Build once per
/// (table, config), score many pairs.
#[derive(Debug, Clone)]
pub struct ErKernel {
    threshold: f64,
    rows: usize,
    fields: Vec<CompiledField>,
}

impl ErKernel {
    /// Compile `cfg` against `table`'s schema and rows. An unknown column in
    /// the config surfaces here, before any pair is scored.
    pub fn compile(table: &Table, cfg: &ErConfig) -> wrangler_table::Result<ErKernel> {
        // Resolve every column first: the error must precede all cell work.
        let cols: Vec<usize> = cfg
            .fields
            .iter()
            .map(|f| table.schema().index_of(&f.column))
            .collect::<wrangler_table::Result<_>>()?;
        let rows = table.num_rows();
        let mut fields = Vec::with_capacity(cfg.fields.len());
        for (f, &col) in cfg.fields.iter().zip(&cols) {
            let column = table.column(col)?;
            let cells = match f.kind {
                SimKind::Text => FieldCells::Text(column.iter().map(text_cell).collect()),
                SimKind::Exact => FieldCells::Exact(
                    column
                        .iter()
                        .map(|v| (!v.is_null()).then(|| v.render().to_ascii_lowercase()))
                        .collect(),
                ),
                SimKind::Numeric { scale } => FieldCells::Numeric {
                    cells: column.iter().map(num_cell).collect(),
                    scale,
                },
            };
            fields.push(CompiledField {
                weight: f.weight,
                cells,
            });
        }
        Ok(ErKernel {
            threshold: cfg.threshold,
            rows,
            fields,
        })
    }

    /// Number of rows the kernel was compiled over.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The decision threshold of the compiled configuration.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Record similarity of rows `i` and `j` — bit-identical to the serial
    /// [`record_similarity`](crate::sim::record_similarity) on the compiled
    /// table and config.
    pub fn score(&self, i: usize, j: usize) -> wrangler_table::Result<f64> {
        self.score_scratch(i, j, &mut SimScratch::default())
    }

    /// [`Self::score`] with caller-owned scratch buffers (one set per
    /// worker, reused across its pairs).
    fn score_scratch(
        &self,
        i: usize,
        j: usize,
        scratch: &mut SimScratch,
    ) -> wrangler_table::Result<f64> {
        if i >= self.rows || j >= self.rows {
            return Err(TableError::Invalid(format!(
                "candidate pair ({i}, {j}) out of bounds for {} rows",
                self.rows
            )));
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for f in &self.fields {
            if let Some(s) = field_similarity(&f.cells, i, j, scratch) {
                num += f.weight * s;
                den += f.weight;
            }
        }
        Ok(if den == 0.0 { 0.0 } else { num / den })
    }

    /// Score `pairs` serially, in order. Returns one score per pair.
    pub fn score_pairs(&self, pairs: &[(usize, usize)]) -> wrangler_table::Result<Vec<f64>> {
        let mut scratch = SimScratch::default();
        pairs
            .iter()
            .map(|&(i, j)| self.score_scratch(i, j, &mut scratch))
            .collect()
    }

    /// Score `pairs` across a blocked worker pool sized by
    /// [`effective_workers`] — `workers` is a *request*, clamped to the
    /// machine's cores and to one thread per [`MIN_PAIRS_PER_WORKER`] pairs.
    /// The returned scores are in pair order and bit-identical for any
    /// requested width; per-worker stats report items and busy wall-clock.
    /// A panicking worker becomes a structured error.
    pub fn score_pairs_parallel(
        &self,
        pairs: &[(usize, usize)],
        workers: usize,
    ) -> wrangler_table::Result<(Vec<f64>, Vec<WorkerStat>)> {
        self.score_pairs_parallel_exact(
            pairs,
            effective_workers(workers, pairs.len(), MIN_PAIRS_PER_WORKER),
        )
    }

    /// [`Self::score_pairs_parallel`] with an *exact* pool width: spawns
    /// `min(workers, pairs.len())` threads, bypassing the sizing policy.
    /// Same output contract — this is the seam tests use to drive real
    /// multi-thread reassembly even on machines with fewer cores, and what
    /// the policy entry point delegates to.
    pub fn score_pairs_parallel_exact(
        &self,
        pairs: &[(usize, usize)],
        workers: usize,
    ) -> wrangler_table::Result<(Vec<f64>, Vec<WorkerStat>)> {
        if pairs.is_empty() {
            return Ok((Vec::new(), Vec::new()));
        }
        if workers.max(1).min(pairs.len()) == 1 {
            let started = Instant::now();
            let scores = self.score_pairs(pairs)?;
            let stat = WorkerStat {
                items: scores.len() as u64,
                busy_nanos: started.elapsed().as_nanos(),
            };
            return Ok((scores, vec![stat]));
        }
        // Contiguous blocked chunks, one per worker, reassembled in chunk
        // order: concatenating the chunks *is* pair order, and each worker
        // walks adjacent pairs so the compiled per-row cells stay hot.
        let (chunks, stats) = par::run_blocked(pairs, workers, |_, chunk| {
            let mut scratch = SimScratch::default();
            chunk
                .iter()
                .map(|&(i, j)| self.score_scratch(i, j, &mut scratch))
                .collect::<wrangler_table::Result<Vec<f64>>>()
        })
        .map_err(|msg| {
            TableError::Unavailable(format!("ER scoring worker panicked: {msg}"))
        })?;
        let mut scores = Vec::with_capacity(pairs.len());
        for chunk in chunks {
            scores.extend(chunk?);
        }
        Ok((scores, stats))
    }

    /// Serial equivalent of [`match_pairs`](crate::match_pairs) on the
    /// compiled table: score candidates, keep those at or above the
    /// threshold.
    pub fn match_pairs(
        &self,
        candidates: &[(usize, usize)],
    ) -> wrangler_table::Result<Vec<ScoredPair>> {
        let scores = self.score_pairs(candidates)?;
        Ok(self.filter_matches(candidates, &scores))
    }

    /// Parallel [`Self::match_pairs`]: identical output for any worker count,
    /// plus per-worker stats. Pool width goes through the sizing policy.
    pub fn match_pairs_parallel(
        &self,
        candidates: &[(usize, usize)],
        workers: usize,
    ) -> wrangler_table::Result<(Vec<ScoredPair>, Vec<WorkerStat>)> {
        let (scores, stats) = self.score_pairs_parallel(candidates, workers)?;
        Ok((self.filter_matches(candidates, &scores), stats))
    }

    /// [`Self::match_pairs_parallel`] with an exact pool width (see
    /// [`Self::score_pairs_parallel_exact`]).
    pub fn match_pairs_parallel_exact(
        &self,
        candidates: &[(usize, usize)],
        workers: usize,
    ) -> wrangler_table::Result<(Vec<ScoredPair>, Vec<WorkerStat>)> {
        let (scores, stats) = self.score_pairs_parallel_exact(candidates, workers)?;
        Ok((self.filter_matches(candidates, &scores), stats))
    }

    /// Apply the threshold to aligned `(candidates, scores)`, preserving
    /// candidate order — the exact filter of the serial `match_pairs`.
    pub fn filter_matches(
        &self,
        candidates: &[(usize, usize)],
        scores: &[f64],
    ) -> Vec<ScoredPair> {
        candidates
            .iter()
            .zip(scores)
            .filter(|(_, &s)| s >= self.threshold)
            .map(|(&(i, j), &s)| ScoredPair {
                i: i.min(j),
                j: i.max(j),
                score: s,
            })
            .collect()
    }

    /// A canonical content key per row over exactly the cells scoring reads.
    /// Two rows share a key iff every compiled field sees identical inputs,
    /// so `(key(i), key(j))` identifies a pair's score across runs. Every
    /// variable-length segment is length-prefixed, so keys are unambiguous.
    /// No code in this workspace calls it: `bench/` does, for the
    /// `core.pair_cache_ms` replay, and it goes away with that ledger row.
    pub fn content_keys(&self) -> Vec<String> {
        use std::fmt::Write as _;
        (0..self.rows)
            .map(|r| {
                let mut key = String::new();
                for f in &self.fields {
                    match &f.cells {
                        FieldCells::Text(cells) => match &cells[r] {
                            Some(c) => {
                                let _ = write!(key, "t{}:{};", c.lower.len(), c.lower);
                            }
                            None => key.push_str("t-;"),
                        },
                        FieldCells::Exact(cells) => match &cells[r] {
                            Some(s) => {
                                let _ = write!(key, "e{}:{};", s.len(), s);
                            }
                            None => key.push_str("e-;"),
                        },
                        FieldCells::Numeric { cells, .. } => match cells[r] {
                            NumCell::Null => key.push_str("n-;"),
                            NumCell::Finite(x) => {
                                let _ = write!(key, "n{:016x};", x.to_bits());
                            }
                            NumCell::NonFinite => key.push_str("nf;"),
                            NumCell::NonNumeric => key.push_str("nn;"),
                        },
                    }
                }
                key
            })
            .collect()
    }
}

/// Build the text cell of one value (`None` for null).
fn text_cell(v: &Value) -> Option<TextCell> {
    if v.is_null() {
        return None;
    }
    let lower = v.render().to_lowercase();
    let chars: Vec<char> = lower.chars().collect();
    let ascii = lower.is_ascii().then(|| lower.as_bytes().to_vec());
    let tokens = tokens_of(&lower);
    Some(TextCell {
        lower,
        chars,
        ascii,
        tokens,
    })
}

/// Classify one value under the numeric comparator.
fn num_cell(v: &Value) -> NumCell {
    if v.is_null() {
        return NumCell::Null;
    }
    match v.as_f64() {
        Some(x) if x.is_finite() => NumCell::Finite(x),
        Some(_) => NumCell::NonFinite,
        None => NumCell::NonNumeric,
    }
}

/// `wrangler_match::strsim::token_jaccard`'s token set, built once per row.
/// The serial path hands `token_jaccard` the lowercased rendering, which it
/// lowercases again — mirrored here so the sets are identical.
fn tokens_of(s: &str) -> Vec<String> {
    let mut out: Vec<String> = s
        .to_lowercase()
        .split(|c: char| c.is_whitespace() || c == '_' || c == '-' || c == '.')
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect();
    out.sort();
    out.dedup();
    out
}

/// One field's contribution to a pair — the compiled mirror of the serial
/// `value_similarity`.
fn field_similarity(cells: &FieldCells, i: usize, j: usize, scratch: &mut SimScratch) -> Option<f64> {
    match cells {
        FieldCells::Exact(cells) => match (&cells[i], &cells[j]) {
            (Some(a), Some(b)) => Some(if a == b { 1.0 } else { 0.0 }),
            _ => None,
        },
        FieldCells::Text(cells) => match (&cells[i], &cells[j]) {
            (Some(a), Some(b)) => Some(text_similarity(a, b, scratch)),
            _ => None,
        },
        FieldCells::Numeric { cells, scale } => match (cells[i], cells[j]) {
            (NumCell::Null, _) | (_, NumCell::Null) => None,
            (NumCell::NonFinite, _) | (_, NumCell::NonFinite) => None,
            (NumCell::Finite(x), NumCell::Finite(y)) => {
                let denom = scale.max(1e-9) * x.abs().max(y.abs()).max(1.0);
                Some(1.0 - ((x - y).abs() / denom).min(1.0))
            }
            _ => Some(0.0),
        },
    }
}

/// Max of Jaro–Winkler, token Jaccard and Levenshtein similarity over the
/// precomputed cells — the compiled `SimKind::Text`, arithmetic identical to
/// the `wrangler_match::strsim` originals. Levenshtein is skipped when it
/// provably cannot raise the running max: its distance is at least the
/// length difference, so its similarity is at most
/// `1 − |len(a)−len(b)| / max_len`; both divisions round the same way, so
/// the bound holds in f64 too, and skipping leaves the max bit-unchanged.
fn text_similarity(a: &TextCell, b: &TextCell, scratch: &mut SimScratch) -> f64 {
    if a.lower == b.lower {
        return 1.0;
    }
    // ASCII pairs run the same comparisons over bytes (see `TextCell::
    // ascii`); any non-ASCII side falls back to the char slices.
    let jw = match (&a.ascii, &b.ascii) {
        (Some(ba), Some(bb)) => jaro_winkler_chars(ba, bb, scratch),
        _ => jaro_winkler_chars(&a.chars, &b.chars, scratch),
    };
    let best = jw.max(token_jaccard_sorted(&a.tokens, &b.tokens));
    // The lowers differ, so at least one side is non-empty: max_len ≥ 1.
    let max_len = a.chars.len().max(b.chars.len());
    let lev_upper = 1.0 - a.chars.len().abs_diff(b.chars.len()) as f64 / max_len as f64;
    if lev_upper > best {
        let lev = match (&a.ascii, &b.ascii) {
            (Some(ba), Some(bb)) => levenshtein_sim_bytes(ba, bb, scratch),
            _ => levenshtein_sim_chars(&a.chars, &b.chars, scratch),
        };
        best.max(lev)
    } else {
        best
    }
}

/// `strsim::jaro` over pre-collected char slices, same arithmetic.
fn jaro_chars<T: PartialEq + Copy>(a: &[T], b: &[T], scratch: &mut SimScratch) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let b_used = &mut scratch.b_used;
    b_used.clear();
    b_used.resize(b.len(), false);
    let js = &mut scratch.js;
    js.clear();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, used) in b_used.iter_mut().enumerate().take(hi).skip(lo) {
            if !*used && b[j] == *ca {
                *used = true;
                js.push(j);
                break;
            }
        }
    }
    let m = js.len();
    if m == 0 {
        return 0.0;
    }
    // Transpositions: matched `b` positions in `a` order vs sorted. The
    // positions are distinct, so an unstable sort is deterministic.
    let by_j = &mut scratch.js_sorted;
    by_j.clear();
    by_j.extend_from_slice(js);
    by_j.sort_unstable();
    let t = js.iter().zip(by_j.iter()).filter(|(x, y)| x != y).count() as f64 / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// `strsim::jaro_winkler` over char slices (0.1 prefix scale, 4-char cap).
fn jaro_winkler_chars<T: PartialEq + Copy>(a: &[T], b: &[T], scratch: &mut SimScratch) -> f64 {
    let j = jaro_chars(a, b, scratch);
    let prefix = a
        .iter()
        .zip(b.iter())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// `strsim::levenshtein_sim` over char slices, same two-row DP.
fn levenshtein_sim_chars<T: PartialEq + Copy>(a: &[T], b: &[T], scratch: &mut SimScratch) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein_chars(a, b, scratch) as f64 / max as f64
}

/// `levenshtein_sim` over ASCII byte slices: the distance comes from Myers'
/// bit-parallel algorithm when the shorter side fits one 64-bit word, the
/// row DP otherwise. Either way the distance is the exact edit distance —
/// the same integer the DP yields — so the similarity is bit-identical.
fn levenshtein_sim_bytes(a: &[u8], b: &[u8], scratch: &mut SimScratch) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 1.0;
    }
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let dist = if pattern.is_empty() || pattern.len() > 64 {
        levenshtein_chars(a, b, scratch)
    } else {
        myers_distance(pattern, text, scratch)
    };
    1.0 - dist as f64 / max as f64
}

/// Exact Levenshtein distance via Myers' bit-parallel algorithm (Hyyrö's
/// formulation); requires `1 ≤ pattern.len() ≤ 64`. Each text symbol costs
/// a dozen word operations instead of a DP row.
fn myers_distance(pattern: &[u8], text: &[u8], scratch: &mut SimScratch) -> usize {
    let m = pattern.len();
    debug_assert!((1..=64).contains(&m));
    let peq = &mut scratch.peq;
    if peq.len() != 256 {
        peq.clear();
        peq.resize(256, 0);
    }
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize] |= 1u64 << i;
    }
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    let mask = 1u64 << (m - 1);
    for &c in text {
        let eq = peq[c as usize];
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & mask != 0 {
            score += 1;
        }
        if mh & mask != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    // Zero only the touched entries — cheaper than wiping 2 KiB per pair,
    // and leaves the table exactly as a fresh one.
    for &c in pattern {
        peq[c as usize] = 0;
    }
    score
}

fn levenshtein_chars<T: PartialEq + Copy>(a: &[T], b: &[T], scratch: &mut SimScratch) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let prev = &mut scratch.prev;
    prev.clear();
    prev.extend(0..=b.len());
    let cur = &mut scratch.cur;
    cur.clear();
    cur.resize(b.len() + 1, 0);
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(prev, cur);
    }
    prev[b.len()]
}

/// `strsim::token_jaccard` over pre-sorted, deduplicated token sets: the
/// intersection count of two sorted deduped lists equals the original's
/// `contains`-based count.
fn token_jaccard_sorted(ta: &[String], tb: &[String]) -> f64 {
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let mut inter = 0usize;
    let (mut x, mut y) = (0usize, 0usize);
    while x < ta.len() && y < tb.len() {
        match ta[x].cmp(&tb[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                x += 1;
                y += 1;
            }
        }
    }
    let union = ta.len() + tb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{record_similarity, FieldSim};
    use crate::{candidates_naive, match_pairs};

    fn t() -> Table {
        Table::literal(
            &["name", "price", "sku"],
            vec![
                vec!["Acme Turbo Widget".into(), Value::Float(9.99), "a1".into()],
                vec!["Acme Turbo Widgey".into(), Value::Float(10.05), "A1".into()],
                vec!["Bolt Mini Gadget".into(), Value::Float(45.0), "b7".into()],
                vec!["Acme Turbo Widget".into(), Value::Null, Value::Null],
                vec![Value::Null, Value::Float(9.99), "a1".into()],
            ],
        )
        .unwrap()
    }

    fn cfg() -> ErConfig {
        ErConfig {
            fields: vec![
                FieldSim {
                    column: "name".into(),
                    weight: 3.0,
                    kind: SimKind::Text,
                },
                FieldSim {
                    column: "price".into(),
                    weight: 1.0,
                    kind: SimKind::Numeric { scale: 0.2 },
                },
                FieldSim {
                    column: "sku".into(),
                    weight: 1.0,
                    kind: SimKind::Exact,
                },
            ],
            threshold: 0.85,
        }
    }

    #[test]
    fn kernel_scores_are_bit_identical_to_serial() {
        let t = t();
        let cfg = cfg();
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        for (i, j) in candidates_naive(t.num_rows()) {
            let serial = record_similarity(&t, i, j, &cfg).unwrap();
            let compiled = kernel.score(i, j).unwrap();
            assert_eq!(serial.to_bits(), compiled.to_bits(), "pair ({i}, {j})");
        }
    }

    #[test]
    fn parallel_match_pairs_equals_serial_for_any_worker_count() {
        let t = t();
        let cfg = cfg();
        let cand = candidates_naive(t.num_rows());
        let serial = match_pairs(&t, &cand, &cfg).unwrap();
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        // Exact widths (including widths beyond the pair count) drive real
        // multi-thread blocked reassembly regardless of the machine's cores.
        for workers in 1..=cand.len() + 2 {
            let (parallel, stats) = kernel.match_pairs_parallel_exact(&cand, workers).unwrap();
            assert_eq!(parallel, serial, "workers = {workers}");
            let items: u64 = stats.iter().map(|s| s.items).sum();
            assert_eq!(items, cand.len() as u64);
            assert_eq!(stats.len(), workers.min(cand.len()));
            assert!(stats.iter().all(|s| s.items > 0), "idle worker");
        }
        // The policy entry point produces the same output after sizing.
        for workers in [1, 4, 64] {
            let (parallel, stats) = kernel.match_pairs_parallel(&cand, workers).unwrap();
            assert_eq!(parallel, serial, "workers = {workers}");
            assert_eq!(stats.iter().map(|s| s.items).sum::<u64>(), cand.len() as u64);
        }
    }

    #[test]
    fn pool_sizing_keeps_tiny_batches_serial() {
        // Fewer pairs than MIN_PAIRS_PER_WORKER: any requested width must
        // resolve to a single worker (no spawn, one stat).
        let kernel = ErKernel::compile(&t(), &cfg()).unwrap();
        let cand = candidates_naive(5);
        assert!(cand.len() < MIN_PAIRS_PER_WORKER);
        let (_, stats) = kernel.score_pairs_parallel(&cand, 8).unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].items, cand.len() as u64);
    }

    #[test]
    fn compile_rejects_unknown_column_before_scoring() {
        let bad = ErConfig::text_over(&["ghost"], 0.5);
        assert!(matches!(
            ErKernel::compile(&t(), &bad),
            Err(TableError::UnknownColumn(_))
        ));
    }

    #[test]
    fn score_rejects_out_of_range_rows() {
        let kernel = ErKernel::compile(&t(), &cfg()).unwrap();
        assert!(kernel.score(0, 99).is_err());
        assert!(kernel.score(99, 0).is_err());
    }

    #[test]
    fn content_keys_reflect_row_content_not_position() {
        let t = Table::literal(
            &["name", "price"],
            vec![
                vec!["Acme".into(), Value::Float(1.0)],
                vec!["Acme".into(), Value::Float(1.0)],
                vec!["Acme".into(), Value::Float(2.0)],
                vec![Value::Null, Value::Float(1.0)],
            ],
        )
        .unwrap();
        let cfg = ErConfig {
            fields: vec![
                FieldSim {
                    column: "name".into(),
                    weight: 1.0,
                    kind: SimKind::Text,
                },
                FieldSim {
                    column: "price".into(),
                    weight: 1.0,
                    kind: SimKind::Numeric { scale: 0.5 },
                },
            ],
            threshold: 0.5,
        };
        let keys = ErKernel::compile(&t, &cfg).unwrap().content_keys();
        assert_eq!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[0], keys[3]);
    }

    #[test]
    fn myers_distance_equals_row_dp() {
        // Randomized cross-check over a small alphabet (collisions and
        // repeats are the hard cases), plus length edges 1 and 64.
        let mut scratch = SimScratch::default();
        let mut state = 0x1401_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..500 {
            let la = (next() % 65) as usize;
            let lb = (next() % 65) as usize;
            let a: Vec<u8> = (0..la).map(|_| b'a' + (next() % 4) as u8).collect();
            let b: Vec<u8> = (0..lb).map(|_| b'a' + (next() % 4) as u8).collect();
            let dp = levenshtein_chars(&a, &b, &mut scratch);
            let (p, t) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
            if !p.is_empty() {
                assert_eq!(
                    myers_distance(p, t, &mut scratch),
                    dp,
                    "a={a:?} b={b:?}"
                );
            }
        }
        let long = vec![b'x'; 64];
        let mut edited = long.clone();
        edited[10] = b'y';
        edited.push(b'z');
        assert_eq!(
            myers_distance(&long, &edited, &mut scratch),
            levenshtein_chars(&long, &edited, &mut scratch)
        );
        assert_eq!(myers_distance(&[b'q'], b"abc", &mut scratch), 3);
    }

    #[test]
    fn empty_candidates_are_fine() {
        let kernel = ErKernel::compile(&t(), &cfg()).unwrap();
        let (scores, stats) = kernel.score_pairs_parallel(&[], 4).unwrap();
        assert!(scores.is_empty() && stats.is_empty());
    }
}
