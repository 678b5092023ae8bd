//! The precompiled, dictionary-encoded, parallel entity-resolution kernel.
//!
//! The uncompiled [`record_similarity`] looks every column name up in the
//! schema *per pair per field*, renders and lowercases both values *per
//! pair*, and rebuilds token sets *per pair* — work that is a pure function
//! of one *value*, recomputed O(candidates) times. And a million blocked
//! candidates hold only tens of thousands of distinct value pairs: the rows
//! of one block are copies of a few names.
//!
//! [`ErKernel::compile`] resolves the [`ErConfig`]'s column names to indices
//! once (an unknown column errors *before* any pair is looked at), then
//! encodes every text and exact field as a dictionary: one `u32` id per row
//! (ids in first-appearance order, `u32::MAX` for a null) and one cell per
//! *distinct* folded value — the lowercased rendering with its sorted token
//! set (text), the ASCII-folded rendering (exact). Numeric fields keep one
//! classified cell per row. A compilation is the carried one
//! ([`ErKernel::carry`]) with nothing carried: given the kernel of the
//! table an update replaced and which old row each new row repeats, a
//! repeated row takes its ids and cells from there and only the other rows
//! are rendered and interned — into the kernel a cold compilation of the
//! new table yields. A pair is then a comparison of ids: equal ids
//! are `1.0`, an exact field is id equality, and only a text field over two
//! *different* values needs its strings — a similarity computed once per
//! *ordered* `(id_a, id_b)` a walk (or a scoring worker's share) meets and
//! answered from an integer-keyed memo (`PairMemo`) afterwards, one memo
//! per field.
//!
//! Two things are asked of a compiled kernel.
//!
//! **Which candidates match** — [`ErKernel::decide_union`], what the wrangle
//! stage runs. Nothing downstream of ER reads a score, only `score ≥
//! threshold`, so nothing is listed and nothing is scored more than once:
//!
//! - *Record classes.* A row's record is its id in every dictionary field,
//!   its numeric cells by their bits and its two blocking keys
//!   ([`UnionBlocks`]); the rows with one record form a class, numbered in
//!   order of its first row ([`RecordClasses`]). Two rows of a class score
//!   alike against every row and share every candidate, so the walk decides
//!   *class* pairs from the classes' first rows: a class of two or more rows
//!   that has a blocking key against itself (rows with neither key are
//!   nobody's candidates, not even each other's), and each candidate class
//!   pair `(a, b)`, `a < b`, once. A class pair stands for the row pairs
//!   between its classes, which is how candidates and matches are counted
//!   and how clusters are built ([`UnionMatches::clusters`]) — without a row
//!   pair written down.
//! - *Orientation.* A row pair `(i, j)`, `i < j`, is decided as `(class(i),
//!   class(j))`, so `(b, a)` is met too when some row of `b` precedes some
//!   row of `a`. A decision settled from ids alone is the same either way
//!   round — every field it reads is symmetric in its two ids (equal ids,
//!   id equality, the numeric formula over `|x − y|` and `max`) and the
//!   bracket sums the fields in config order — so `(b, a)` is decided too
//!   only when `(a, b)` opened a text field and `(b, a)` is met. That is
//!   about one decision in a hundred. Whether the text similarity itself is
//!   symmetric is not known: Jaro's greedy matching is order-dependent in
//!   principle, and though no asymmetric pair has been found (a probe of
//!   three million random strings met none), the kernel does not rely on it
//!   — its memo is keyed by the ordered `(id_a, id_b)`.
//! - *The carry.* Given the walk over the table an update replaced
//!   ([`PriorWalk`]), a row the carry maps keeps its class, a dirty row that
//!   repeats a record the prior union held joins that class by its ids in
//!   the prior's dictionaries (which the carry of the blocks and kernel
//!   returns, [`PriorIds`]; the record compared word for word, not by a
//!   hash), and
//!   only a record new to the union mints a class. Only the pairs with a new
//!   class are decided, plus what the prior never had to decide: a held
//!   class that just reached two rows against itself, and a held pair's
//!   orientation that the new row order meets first. The rest of the prior's
//!   class pairs are carried.
//!
//! The decision brackets the score from the ids: a text field over two
//! different values contributes something in [0, 1], every other field is
//! known, and the score loop run with 0.0 and with 1.0 for the unknowns
//! gives `lo ≤ score ≤ hi` — in f64, bit for bit, on three premises: every
//! field similarity lies in [0, 1] (pinned by a proptest), every weight is
//! finite and ≥ 0 with a finite sum (checked by `compile`; a config that
//! fails it is decided through the exact score, every field opened), and
//! IEEE `*`, `+`, `/` round monotonically. `hi < threshold` rejects, `lo ≥
//! threshold` accepts, and otherwise the heaviest unknown field is opened and
//! the bracket recomputed; with none left both ends *are* the score. Most
//! pairs of a blocked union have two present, different keys, which alone
//! puts `hi` under any threshold above `1 − w_key / W`: compiling proves
//! that once per exact field, over every set of fields a pair can have
//! present (`rejects_alone`), and when it holds for the field on the
//! full-key column such pairs are never visited (the veto of the record
//! classes). The walk runs on one thread.
//!
//! **What a pair scores** — the `score_pairs*` family and
//! [`ErKernel::filter_matches`] over a written-down list: the reference the
//! decision is tested against, and what experiments and the benchmark's
//! replays time. The arithmetic mirrors the serial path operation for
//! operation, and a memo only replays a value computed by that arithmetic on
//! the same two strings in the same order, so kernel scores are
//! **bit-identical** to [`record_similarity`] — the
//! `parallel_kernel_equals_serial_match_pairs` proptest holds for any worker
//! count. Parallel scoring splits the list into *contiguous blocked chunks*
//! and reassembles them in chunk order.
//!
//! Scoring workers share nothing but the compiled kernel and the list, both
//! immutable: a worker's output is a function of its chunk alone, so the
//! concatenation is the same for any pool width by construction. What that
//! costs is one evaluation per worker, not per call, of a value pair two
//! chunks both hold. The pool is sized by
//! [`wrangler_table::par::effective_workers`]: never wider than the machine's
//! cores, and never so wide that a worker gets fewer than
//! [`MIN_PAIRS_PER_WORKER`] pairs — a short list is scored serially instead
//! of paying thread-spawn latency.
//!
//! [`record_similarity`]: crate::sim::record_similarity

use std::borrow::Cow;
use std::sync::Arc;

pub use wrangler_table::par::WorkerStat;
use wrangler_table::par::{self, effective_workers};
use wrangler_table::{Table, TableError, Value};

use crate::blocking::{RecordClasses, UnionBlocks};
use crate::dict::{check_old_of, Dict, Folded, PriorIds, NULL_ID};
use crate::sim::{ErConfig, SimKind};
use crate::ScoredPair;

/// Minimum pairs per worker before [`ErKernel::score_pairs_parallel`]'s
/// pool widens by one thread.
///
/// Measured while the wrangle stage still scored or walked every candidate
/// on a pool: the pipeline's own `wrangle/er/decide` span of whole passes at
/// one worker and at two (2-core VM; 4- to 8-source fleets of 60 to 640
/// products; minimum and median of 9 passes, each sweep run twice). A
/// fan-out cost 150–200 µs before the first pair was saved; two workers
/// over one read 1.62–1.91 at 2,168 pairs, 1.09–1.61 at 7,428–8,881,
/// 0.91–1.06 at 15,465, 0.83–1.06 at 21,458–26,133, 0.73–0.96 at
/// 34,542–44,961 and 0.64–0.74 at 120,487: 16384 — a fan-out from 32,768
/// items — was the smallest power of two at which fanning out was a
/// measured win rather than a coin toss. (It was 512 while the stage scored
/// every pair: a first-seen value pair costs a microsecond.)
pub const MIN_PAIRS_PER_WORKER: usize = 16384;

/// Precomputation for one distinct text value.
#[derive(Debug, Clone, PartialEq)]
struct TextCell {
    /// Lowercased rendering (the serial path's `render().to_lowercase()`).
    /// When pure ASCII its bytes *are* its chars: `char` equality over ASCII
    /// strings is byte equality at the same indices, so the char-level
    /// kernels run on the `u8` slice — same comparisons, same arithmetic,
    /// same bits, a quarter of the memory traffic.
    lower: String,
    /// `lower` as a char vector (what `jaro`/`levenshtein` collect per
    /// call), kept for non-ASCII values only.
    chars: Option<Vec<char>>,
    /// Sorted, deduplicated tokens of `lower` (what `token_jaccard` builds
    /// per call).
    tokens: Vec<String>,
}

impl Folded for Arc<TextCell> {
    fn folded(&self) -> &str {
        &self.lower
    }
}

/// A classified numeric value. The classification mirrors the serial
/// comparator: nulls are skipped, non-finite values are incomparable (the
/// NaN-poisoning fix), non-numeric payloads compare as "different".
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// The cells of one compiled field. A dictionary's `ids[row]` indexes its
/// per-distinct-value vector, or is [`NULL_ID`].
#[derive(Debug, Clone, PartialEq)]
enum FieldCells {
    /// Text comparator: two rows fold to one id iff their lowercased
    /// renderings are equal. A cell is shared, never written, by the kernels
    /// carried from this one (and by the session clones holding it).
    Text(Dict<Arc<TextCell>>),
    /// Exact comparator: ASCII-folded renderings, compared by id.
    /// `a.eq_ignore_ascii_case(b)` ≡ `fold(a) == fold(b)` ≡ `id(a) == id(b)`.
    Exact(Dict<String>),
    /// Numeric comparator cells, one per row, with the comparator's scale.
    Numeric { cells: Vec<NumCell>, scale: f64 },
}

/// One field of the compiled configuration.
#[derive(Debug, Clone, PartialEq)]
struct CompiledField {
    column: String,
    weight: f64,
    cells: FieldCells,
    /// An exact field whose two present, different values alone reject a
    /// pair ([`rejects_alone`]).
    vetoes: bool,
}

/// What the walk, or one scoring worker, owns while it works: the buffers of
/// the char-level similarity kernels and the text-similarity memos. A fresh
/// default is indistinguishable from a reused one — every routine clears and
/// re-initialises the buffers it reads, and a memo only replays what the
/// same arithmetic computed for the same two cells — so reuse cannot change
/// a single bit of output; it only removes the 4–5 heap allocations the
/// uncompiled path pays per evaluation, and the evaluation itself for a
/// value pair it has met.
#[derive(Debug, Default)]
struct SimScratch {
    /// One memo per compiled field ([`ErKernel::scratch`]); none for the
    /// routines below `text_similarity`, which read only the buffers.
    memos: Vec<PairMemo>,
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

/// One memo of one text field: ordered `(id_a, id_b)` → the
/// similarity [`text_similarity`] computed for those two cells, as `(key,
/// value bits)` slots under linear probing. The first stored pair allocates
/// [`Self::FIRST_SLOTS`] slots; at load 3/4 the table is rehashed into one
/// twice the size, up to one slot per pair its owner can meet — a table
/// as large as the pairs it serves means they barely repeat a value
/// pair, so past that bound new pairs are computed without being stored. The
/// only walk over the slots is the rehash, so slot order never reaches an
/// output.
#[derive(Debug)]
struct PairMemo {
    /// Empty or a power of two long, never above 3/4 full: a probe always
    /// ends at a free slot.
    slots: Vec<(u64, u64)>,
    len: usize,
    max_slots: usize,
}

impl PairMemo {
    /// Key of a free slot: `(NULL_ID, NULL_ID)`, which is never looked up
    /// because a null id skips the field.
    const FREE: u64 = u64::MAX;
    /// Slots of the first allocation (16 KiB).
    const FIRST_SLOTS: usize = 1 << 10;

    /// A memo for an owner that meets up to `pairs` pairs; a one-off score's
    /// (`for_pairs(0)`) stores nothing.
    fn for_pairs(pairs: usize) -> PairMemo {
        PairMemo {
            slots: Vec::new(),
            len: 0,
            max_slots: match pairs {
                0 => 0,
                n => n.max(Self::FIRST_SLOTS),
            },
        }
    }

    fn key(a: u32, b: u32) -> u64 {
        u64::from(a) << 32 | u64::from(b)
    }

    /// Where `key` sits in a non-empty table, or the free slot its probe ends
    /// at. The home slot is the top bits of a Fibonacci multiply, which
    /// depend on every key bit.
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (63 - mask.ilog2())) as usize;
        while self.slots[at].0 != key && self.slots[at].0 != Self::FREE {
            at = (at + 1) & mask;
        }
        at
    }

    fn get(&self, key: u64) -> Option<f64> {
        if self.slots.is_empty() {
            return None;
        }
        let (k, v) = self.slots[self.probe(key)];
        (k == key).then(|| f64::from_bits(v))
    }

    /// Store `key → value`, doubling a table at its load bound first; a
    /// table at its size bound declines the insert.
    fn insert(&mut self, key: u64, value: f64) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let doubled = (self.slots.len() * 2).max(Self::FIRST_SLOTS);
            if doubled > self.max_slots {
                return;
            }
            let old = std::mem::replace(&mut self.slots, vec![(Self::FREE, 0); doubled]);
            for (k, v) in old.into_iter().filter(|&(k, _)| k != Self::FREE) {
                let at = self.probe(k);
                self.slots[at] = (k, v);
            }
        }
        let at = self.probe(key);
        if self.slots[at].0 == Self::FREE {
            self.slots[at] = (key, value.to_bits());
            self.len += 1;
        }
    }
}

/// What one field contributes to a pair, as far as the ids tell.
#[derive(Debug, Clone, Copy)]
enum FromIds {
    /// A null or incomparable side: the field is skipped.
    Skipped,
    /// Settled: an exact or numeric field, or a text field over one value.
    Known(f64),
    /// A text field over two different values: somewhere in [0, 1] until
    /// it is opened.
    Unknown,
}

/// A decision of the walk in one orientation of a class pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// `score < threshold`.
    No,
    /// `score ≥ threshold`.
    Yes,
    /// Not decided: no row pair of the union is met in this orientation.
    Open,
}

impl Verdict {
    fn of(matched: bool) -> Verdict {
        if matched {
            Verdict::Yes
        } else {
            Verdict::No
        }
    }
}

/// A class pair the walk keeps: one that matches in some orientation, or
/// that opened a text field and left an orientation undecided. `lo ≤ hi`;
/// `fwd` decides `(lo, hi)` — a row of `lo` as the first argument — and
/// `rev` decides `(hi, lo)`. A class with itself (`lo == hi`) is kept when
/// it matches, with `fwd == rev`. A pair not kept is one that matches in
/// neither orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    pub(crate) lo: u32,
    pub(crate) hi: u32,
    pub(crate) fwd: Verdict,
    pub(crate) rev: Verdict,
}

impl Edge {
    fn kept(&self) -> bool {
        self.fwd == Verdict::Yes || self.rev != Verdict::No
    }
}

/// The walk: one thread deciding every class pair owed, with its scratch,
/// its per-field buffer, the pairs it keeps and what it counted.
struct Walker<'k> {
    kernel: &'k ErKernel,
    scratch: SimScratch,
    state: Vec<FromIds>,
    /// The kept pairs: the carried ones, then the decided ones in walk
    /// order.
    edges: Vec<Edge>,
    decided: u64,
    from_ids: u64,
    text_fields: u64,
    /// Class pairs with a class new to the union met, each once.
    met: u64,
    /// Row pairs under the decisions among held classes: a carried pair's
    /// orientation, a held class against itself.
    redecided: u64,
}

impl Walker<'_> {
    /// Decide `(i, j)`; the verdict, and whether a text field was opened.
    fn decide(&mut self, i: usize, j: usize) -> (Verdict, bool) {
        let mut opened = 0;
        let matched =
            (self.kernel).decide_with(i, j, &mut self.state, &mut self.scratch, &mut opened);
        self.decided += 1;
        self.from_ids += u64::from(opened == 0);
        self.text_fields += opened;
        (Verdict::of(matched), opened > 0)
    }

    fn keep(&mut self, e: Edge) {
        if e.kept() {
            self.edges.push(e);
        }
    }

    /// Decide class pair `(lo, hi)`, `lo < hi`, in the orientations the
    /// union meets: `(lo, hi)` always, `(hi, lo)` when a text field was
    /// opened and some row of `hi` precedes some row of `lo`.
    fn pair(&mut self, classes: &RecordClasses, lo: usize, hi: usize) {
        let (i, j) = (classes.first(lo), classes.first(hi));
        let (fwd, opened) = self.decide(i, j);
        let rev = if !opened {
            fwd
        } else if classes.reversed(lo, hi) {
            self.decide(j, i).0
        } else {
            Verdict::Open
        };
        self.met += 1;
        self.keep(Edge {
            lo: lo as u32,
            hi: hi as u32,
            fwd,
            rev,
        });
    }

    /// Decide the orientations a carried pair leaves open and the union
    /// now meets.
    fn fill(&mut self, classes: &RecordClasses, mut e: Edge) {
        let (lo, hi) = (e.lo as usize, e.hi as usize);
        let (i, j) = (classes.first(lo), classes.first(hi));
        if e.fwd == Verdict::Open {
            e.fwd = self.decide(i, j).0;
        }
        if e.rev == Verdict::Open && classes.reversed(lo, hi) {
            e.rev = self.decide(j, i).0;
        }
        self.redecided += classes.size(lo) * classes.size(hi);
        self.keep(e);
    }
}

/// [`ErKernel::decide_union`]'s answer: the union's record classes, the
/// class pairs that match, and what the walk counted. Row pairs are counted
/// here, and written down only on demand ([`Self::matches`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnionMatches {
    pub(crate) classes: RecordClasses,
    /// Every kept class pair of the union, decided now or carried.
    edges: Vec<Edge>,
    /// Candidates of the union: the length of `candidates_union`'s list.
    pub candidates: u64,
    /// Of those, the row pairs under class pairs this walk did not decide —
    /// their decisions were carried from the prior walk.
    pub covered: u64,
    /// Candidates that match (`score ≥ threshold`), as row pairs.
    pub match_pairs: u64,
    /// Ordered class pairs decided — the walk's unit; a class with itself
    /// counts once.
    pub decided: u64,
    /// Candidate class pairs with a class new to the union that the walk
    /// never met: both classes hold the vetoing key and differ there, which
    /// alone rejects them (module docs).
    pub pruned: u64,
    /// Decisions settled with no text field opened.
    pub from_ids: u64,
    /// Text fields opened over all decisions — a function of each class
    /// pair and the config, not of the memos or the schedule.
    pub text_fields: u64,
}

impl UnionMatches {
    /// Record classes of the union.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The matching candidates written down as `(i, j)` row pairs, `i < j`,
    /// sorted: `filter_matches(candidates_union, score_pairs)`. The
    /// reference spelling tests and experiments compare against; the stage
    /// clusters the class pairs directly.
    pub fn matches(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for e in &self.edges {
            let (lo, hi) = (
                self.classes.rows(e.lo as usize),
                self.classes.rows(e.hi as usize),
            );
            if e.lo == e.hi {
                for (k, &i) in lo.iter().enumerate().filter(|_| e.fwd == Verdict::Yes) {
                    out.extend(lo[k + 1..].iter().map(|&j| (i as usize, j as usize)));
                }
                continue;
            }
            for &i in lo {
                for &j in hi {
                    let (i, j) = (i as usize, j as usize);
                    if i < j && e.fwd == Verdict::Yes {
                        out.push((i, j));
                    } else if j < i && e.rev == Verdict::Yes {
                        out.push((j, i));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The entities: matched rows clustered transitively, every row once,
    /// clusters ordered by their smallest row, rows ascending —
    /// [`cluster_pairs`](crate::cluster_pairs) over [`Self::matches`].
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        crate::cluster::cluster_classes(&self.classes, &self.edges)
    }
}

/// What a walk carries from the walk over the table an update replaced.
/// The caller promises that the blocks and kernel being walked were carried
/// ([`UnionBlocks::carry`], [`ErKernel::carry`]) from these two with this
/// `old_of`, under the same config, and that those carries returned
/// `block_ids` and `kernel_ids`.
#[derive(Debug, Clone, Copy)]
pub struct PriorWalk<'a> {
    /// The blocks the prior walk ran over.
    pub blocks: &'a UnionBlocks,
    /// The kernel it decided with.
    pub kernel: &'a ErKernel,
    /// What it decided.
    pub decided: &'a UnionMatches,
    /// Per current row, the prior row holding the same cells (`None`: the
    /// carry does not map it).
    pub old_of: &'a [Option<usize>],
    /// Each key of the blocks being walked as an id of `blocks`.
    pub block_ids: &'a PriorIds,
    /// Each value of the kernel being walked as an id of `kernel`.
    pub kernel_ids: &'a PriorIds,
}

/// A walk ready to run: the union's classes, which of them are new, and
/// the carried pairs that still need an orientation decided.
struct Walk {
    classes: RecordClasses,
    /// Per class, is its record new to the union (every class, cold)?
    new: Vec<bool>,
    /// Per class, must it be decided against itself?
    selfs: Vec<bool>,
    /// Does any class continue a prior one?
    any_old: bool,
    /// Carried pairs needing no decision.
    carried: Vec<Edge>,
    /// Carried pairs with an orientation to decide, sorted by `lo`.
    fills: Vec<Edge>,
}

/// An [`ErConfig`] precompiled against one table: column names resolved,
/// comparators monomorphized, text and exact columns dictionary-encoded.
/// Build once per (table, config) — or carry from the kernel of the table
/// an update replaced ([`Self::carry`]) — and decide many pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct ErKernel {
    threshold: f64,
    rows: usize,
    fields: Vec<CompiledField>,
    /// Do the weights license deciding from bounds ([`Self::decide_union`])?
    /// Every weight is finite and ≥ 0 and so is their sum.
    bounded: bool,
}

impl ErKernel {
    /// Compile `cfg` against `table`'s schema and rows: the carried
    /// compilation with nothing carried. An unknown column in the config
    /// surfaces here, before any pair is scored.
    pub fn compile(table: &Table, cfg: &ErConfig) -> wrangler_table::Result<ErKernel> {
        Ok(ErKernel::carry(table, cfg, None)?.0)
    }

    /// Compile `cfg` against `table` as [`Self::compile`] does, taking what
    /// `prior` already derived: with `prior = (kernel, old_of)`, `kernel`
    /// was compiled from the same config and row `r` with `old_of[r] =
    /// Some(o)` holds the cells row `o` of its table held, so the row takes
    /// that row's dictionary ids and numeric cells; only the other rows
    /// render, fold and intern. Ids stay in first-appearance order: the
    /// result equals `compile(table, cfg)` field for field. Beside it, each
    /// value's id in `kernel` (empty when cold), for a walk carried from it.
    pub fn carry(
        table: &Table,
        cfg: &ErConfig,
        prior: Option<(&ErKernel, &[Option<usize>])>,
    ) -> wrangler_table::Result<(ErKernel, PriorIds)> {
        // Resolve every column first: the error must precede all cell work.
        let cols: Vec<usize> = cfg
            .fields
            .iter()
            .map(|f| table.schema().index_of(&f.column))
            .collect::<wrangler_table::Result<_>>()?;
        let rows = table.num_rows();
        if rows >= NULL_ID as usize {
            return Err(TableError::Invalid(format!(
                "{rows} rows exceed the ER kernel's 32-bit dictionary ids"
            )));
        }
        // Field k carries from the prior's field k: the same column, and
        // cells of the same comparator (a field whose comparator changed is
        // encoded afresh below).
        if let Some((kernel, old_of)) = prior {
            let same_columns = cfg.fields.len() == kernel.fields.len()
                && (cfg.fields.iter().zip(&kernel.fields)).all(|(f, k)| f.column == k.column);
            if !same_columns {
                return Err(TableError::Invalid(
                    "an ER kernel carried from a kernel over other columns".into(),
                ));
            }
            check_old_of(old_of, rows, kernel.rows)?;
        }
        let mut fields = Vec::with_capacity(cfg.fields.len());
        let mut prior_ids = Vec::with_capacity(cfg.fields.len());
        for (k, (f, &col)) in cfg.fields.iter().zip(&cols).enumerate() {
            let column = table.column(col)?;
            let prior_cells = prior.map(|(kernel, old_of)| (&kernel.fields[k].cells, old_of));
            let cells = match f.kind {
                SimKind::Text => {
                    let prior = prior_cells.and_then(|(cells, old_of)| match cells {
                        FieldCells::Text(dict) => Some((dict, old_of)),
                        _ => None,
                    });
                    let fold = |v: &Value| (!v.is_null()).then(|| v.text().to_lowercase());
                    let make = |lower| Arc::new(text_cell(lower));
                    let (dict, ids) = Dict::encode(column, fold, make, prior);
                    prior_ids.push(ids);
                    FieldCells::Text(dict)
                }
                SimKind::Exact => {
                    let prior = prior_cells.and_then(|(cells, old_of)| match cells {
                        FieldCells::Exact(dict) => Some((dict, old_of)),
                        _ => None,
                    });
                    let fold = |v: &Value| (!v.is_null()).then(|| v.text().to_ascii_lowercase());
                    let (dict, ids) = Dict::encode(column, fold, |s| s, prior);
                    prior_ids.push(ids);
                    FieldCells::Exact(dict)
                }
                SimKind::Numeric { scale } => {
                    let carried = |r: usize| match prior_cells {
                        Some((FieldCells::Numeric { cells, .. }, old_of)) => {
                            old_of[r].map(|o| cells[o])
                        }
                        _ => None,
                    };
                    prior_ids.push(Vec::new());
                    FieldCells::Numeric {
                        cells: (column.iter().enumerate())
                            .map(|(r, v)| carried(r).unwrap_or_else(|| num_cell(v)))
                            .collect(),
                        scale,
                    }
                }
            };
            fields.push(CompiledField {
                column: f.column.clone(),
                weight: f.weight,
                cells,
                vetoes: false,
            });
        }
        let weights: Vec<f64> = cfg.fields.iter().map(|f| f.weight).collect();
        let bounded = weights.iter().all(|&w| w >= 0.0) && weights.iter().sum::<f64>().is_finite();
        for (k, f) in fields.iter_mut().enumerate() {
            f.vetoes = bounded
                && matches!(f.cells, FieldCells::Exact(_))
                && rejects_alone(&weights, k, cfg.threshold);
        }
        let kernel = ErKernel {
            threshold: cfg.threshold,
            rows,
            fields,
            bounded,
        };
        Ok((kernel, PriorIds(prior_ids)))
    }

    /// Number of rows the kernel was compiled over.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The decision threshold of the compiled configuration.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Distinct non-null values of every dictionary-encoded field, as
    /// `(column, count)` in config order. Numeric fields have no dictionary
    /// and are left out. A pure function of the table and config — it does
    /// not depend on what was scored or on how many workers scored it.
    pub fn dict_sizes(&self) -> Vec<(&str, usize)> {
        self.fields
            .iter()
            .filter_map(|f| match &f.cells {
                FieldCells::Text(dict) => Some((f.column.as_str(), dict.values.len())),
                FieldCells::Exact(dict) => Some((f.column.as_str(), dict.values.len())),
                FieldCells::Numeric { .. } => None,
            })
            .collect()
    }

    /// The scratch of a walk or worker meeting up to `pairs` pairs: a memo per field (only
    /// a text field ever stores into its own).
    fn scratch(&self, pairs: usize) -> SimScratch {
        let memos = self.fields.iter().map(|_| PairMemo::for_pairs(pairs));
        SimScratch {
            memos: memos.collect(),
            ..SimScratch::default()
        }
    }

    /// Record similarity of rows `i` and `j` — bit-identical to the serial
    /// [`record_similarity`](crate::sim::record_similarity) on the compiled
    /// table and config. A one-off score has nothing to repeat, so it keeps
    /// no memo.
    pub fn score(&self, i: usize, j: usize) -> wrangler_table::Result<f64> {
        self.score_with(i, j, &mut self.scratch(0))
    }

    /// [`Self::score`] with the calling worker's scratch (reused across its
    /// pairs).
    fn score_with(
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
        for (k, f) in self.fields.iter().enumerate() {
            if let Some(s) = field_similarity(&f.cells, k, i, j, scratch) {
                num += f.weight * s;
                den += f.weight;
            }
        }
        Ok(if den == 0.0 { 0.0 } else { num / den })
    }

    /// Score `pairs` serially, in order. Returns one score per pair.
    pub fn score_pairs(&self, pairs: &[(usize, usize)]) -> wrangler_table::Result<Vec<f64>> {
        Ok(self.score_pairs_parallel_exact(pairs, 1)?.0)
    }

    /// One worker's share: score `pairs` in order into the aligned `scores`.
    fn score_pairs_into(
        &self,
        pairs: &[(usize, usize)],
        scores: &mut [f64],
    ) -> wrangler_table::Result<()> {
        let mut scratch = self.scratch(pairs.len());
        for (&(i, j), score) in pairs.iter().zip(scores) {
            *score = self.score_with(i, j, &mut scratch)?;
        }
        Ok(())
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
        // Contiguous blocked chunks, one per worker, each scored straight
        // into its slice of the output: the slices in order *are* pair
        // order, and each worker walks adjacent pairs so its id columns
        // stay hot.
        let mut scores = vec![0.0; pairs.len()];
        // pool-ok: bench/ reads these workers' stats (resolve.worker_skew); production ER never calls it
        let (chunks, stats) = par::run_blocked_into(pairs, &mut scores, workers, |_, ps, out| {
            self.score_pairs_into(ps, out)
        })
        .map_err(|msg| TableError::Unavailable(format!("ER scoring worker panicked: {msg}")))?;
        chunks.into_iter().collect::<wrangler_table::Result<()>>()?;
        Ok((scores, stats))
    }

    /// Apply the threshold to aligned `(candidates, scores)`, preserving
    /// candidate order — the exact filter of the serial `match_pairs`.
    pub fn filter_matches(&self, candidates: &[(usize, usize)], scores: &[f64]) -> Vec<ScoredPair> {
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

    /// Fields of the compiled config.
    pub(crate) fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Push row `r`'s record words: per field, its dictionary id or its
    /// numeric cell's code. Two rows with equal words score alike against
    /// every row.
    pub(crate) fn push_words(&self, r: usize, out: &mut Vec<u64>) {
        out.extend(self.fields.iter().map(|f| match &f.cells {
            FieldCells::Text(d) => u64::from(d.ids[r]),
            FieldCells::Exact(d) => u64::from(d.ids[r]),
            FieldCells::Numeric { cells, .. } => num_word(cells[r]),
        }));
    }

    /// Push row `r`'s record words in the ids of the kernel this one was
    /// carried from (`ids`, what that carry returned). `false` when a value
    /// is new to it — then no row of it held this record, and what was
    /// pushed is the caller's to drop.
    pub(crate) fn push_prior_words(&self, ids: &PriorIds, r: usize, out: &mut Vec<u64>) -> bool {
        for (k, f) in self.fields.iter().enumerate() {
            let word = match &f.cells {
                FieldCells::Text(d) => ids.of(k, d, r).map(u64::from),
                FieldCells::Exact(d) => ids.of(k, d, r).map(u64::from),
                FieldCells::Numeric { cells, .. } => Some(num_word(cells[r])),
            };
            match word {
                Some(w) => out.push(w),
                None => return false,
            }
        }
        true
    }

    /// Do `ids` fit this kernel, field by field?
    pub(crate) fn fit(&self, ids: &PriorIds) -> bool {
        ids.fit(self.fields.iter().map(|f| match &f.cells {
            FieldCells::Text(d) => Some(d.values.len()),
            FieldCells::Exact(d) => Some(d.values.len()),
            FieldCells::Numeric { .. } => None,
        }))
    }

    /// The dictionary of the exact field on `column` whose two present,
    /// different values alone reject a pair, if the compiled config has one.
    pub(crate) fn vetoing(&self, column: &str) -> Option<&Dict<String>> {
        self.fields.iter().find_map(|f| match &f.cells {
            FieldCells::Exact(dict) if f.vetoes && f.column == column => Some(dict),
            _ => None,
        })
    }

    /// Was `other` compiled from the same config — the same fields, weights,
    /// comparators and threshold, bit for bit?
    fn same_rule(&self, other: &ErKernel) -> bool {
        let kind = |c: &FieldCells| match c {
            FieldCells::Text(_) => (0, 0),
            FieldCells::Exact(_) => (1, 0),
            FieldCells::Numeric { scale, .. } => (2, scale.to_bits()),
        };
        self.threshold.to_bits() == other.threshold.to_bits()
            && self.fields.len() == other.fields.len()
            && self.fields.iter().zip(&other.fields).all(|(a, b)| {
                a.column == b.column
                    && a.weight.to_bits() == b.weight.to_bits()
                    && kind(&a.cells) == kind(&b.cells)
            })
    }

    /// Which candidates of `blocks` match, decided once per pair of record
    /// classes ([`RecordClasses`]) in one walk over the classes. A class of
    /// two or more rows with a blocking key is decided against itself, and
    /// every candidate class pair `(a, b)`, `a < b`, as `(a, b)` from the two
    /// classes' first rows — and as `(b, a)` too only when that decision
    /// opened a text field and some row of `b` precedes some row of `a`: a
    /// decision settled from ids alone is the same either way round (module
    /// docs). A pair the compiled config's vetoing key rejects is never met
    /// ([`UnionMatches::pruned`]). With a `prior` walk, only the pairs with a
    /// class new to the union are decided, with the carried pairs'
    /// orientations the new row order needs and the prior never decided; the
    /// rest are carried. The answer equals
    /// `filter_matches(candidates_union, score_pairs)` for any prior.
    pub fn decide_union(
        &self,
        blocks: &UnionBlocks,
        prior: Option<PriorWalk<'_>>,
    ) -> wrangler_table::Result<UnionMatches> {
        self.run(self.plan(blocks, prior)?)
    }

    /// Class the rows, and take from `prior` the class pairs it decided:
    /// those needing no decision, and those with an orientation to decide.
    fn plan(
        &self,
        blocks: &UnionBlocks,
        prior: Option<PriorWalk<'_>>,
    ) -> wrangler_table::Result<Walk> {
        if blocks.num_rows() != self.rows {
            return Err(TableError::Invalid(format!(
                "blocks over {} rows walked against a kernel over {}",
                blocks.num_rows(),
                self.rows
            )));
        }
        if prior.is_some_and(|p| !self.same_rule(p.kernel)) {
            return Err(TableError::Invalid(
                "a walk carried from a walk under another ER config".into(),
            ));
        }
        let (classes, carry) = RecordClasses::derive(self, blocks, prior)?;
        let new: Vec<bool> = carry.prior_of.iter().map(|&pc| pc == NULL_ID).collect();
        // A class decided against itself before keeps that decision; one
        // that just reached two rows is decided now.
        let decided_alone = |c: usize| {
            prior
                .is_some_and(|p| !new[c] && p.decided.classes.size(carry.prior_of[c] as usize) >= 2)
        };
        let selfs: Vec<bool> = (0..classes.len())
            .map(|c| classes.keyed(c) && classes.size(c) >= 2 && !decided_alone(c))
            .collect();
        let (mut carried, mut fills) = (Vec::new(), Vec::new());
        for e in prior.iter().flat_map(|p| &p.decided.edges) {
            let (lo, hi) = (carry.now_of[e.lo as usize], carry.now_of[e.hi as usize]);
            if lo == NULL_ID || hi == NULL_ID {
                continue;
            }
            let e = if lo <= hi {
                Edge { lo, hi, ..*e }
            } else {
                Edge {
                    lo: hi,
                    hi: lo,
                    fwd: e.rev,
                    rev: e.fwd,
                }
            };
            let (l, h) = (e.lo as usize, e.hi as usize);
            // A class decided against itself now drops the decision it
            // carries: one that shrank below two rows and grew back.
            if l == h && selfs[l] {
                continue;
            }
            let open = l != h
                && (e.fwd == Verdict::Open || (e.rev == Verdict::Open && classes.reversed(l, h)));
            if open {
                fills.push(e);
            } else {
                carried.push(e);
            }
        }
        fills.sort_unstable_by_key(|e| (e.lo, e.hi));
        Ok(Walk {
            any_old: new.contains(&false),
            classes,
            new,
            selfs,
            carried,
            fills,
        })
    }

    /// Walk the classes — each one's decision against itself, a new one's
    /// pairs (its later partners, and its earlier ones that are not new),
    /// and the carried pairs it heads that need an orientation decided —
    /// and gather what was decided with what was carried.
    ///
    /// The walk runs on one thread. Split into strips of classes on two
    /// workers it was no consistent win at any size measured: on
    /// `e14_er_scaling`'s 40-source floor fleets two workers over one read
    /// 0.66–1.12 of the decision from 4k to 80k class pairs met, and no
    /// benchmark workload meets a third of the 32k where the pool widened
    /// (EXPERIMENTS E14).
    fn run(&self, walk: Walk) -> wrangler_table::Result<UnionMatches> {
        // The candidates, and the candidate class pairs; of each, those among
        // held classes.
        let all = &walk.classes;
        let held = |c: usize| u64::from(!walk.new[c]);
        let [candidates, class_pairs, held_rows, held_pairs] = all.pairs(|c| {
            let rows = all.size(c);
            [rows, 1, rows * held(c), held(c)]
        });
        let new_pairs = class_pairs - held_pairs;
        let mut w = Walker {
            kernel: self,
            // A memo never needs a slot for more pairs than the walk can
            // meet or fill.
            scratch: self.scratch(new_pairs as usize + walk.fills.len()),
            state: vec![FromIds::Skipped; self.fields.len()],
            edges: walk.carried,
            decided: 0,
            from_ids: 0,
            text_fields: 0,
            met: 0,
            redecided: 0,
        };
        let mut fills = &walk.fills[..];
        for a in 0..all.len() {
            if walk.selfs[a] {
                let i = all.first(a);
                let (fwd, _) = w.decide(i, i);
                if !walk.new[a] {
                    let s = all.size(a);
                    w.redecided += s * (s - 1) / 2;
                }
                w.keep(Edge {
                    lo: a as u32,
                    hi: a as u32,
                    fwd,
                    rev: fwd,
                });
            }
            if walk.new[a] {
                if walk.any_old {
                    for b in all.earlier_partners(a).filter(|&b| !walk.new[b]) {
                        w.pair(all, b, a);
                    }
                }
                for b in all.partners(a) {
                    w.pair(all, a, b);
                }
            }
            while let Some(&e) = fills.first().filter(|e| e.lo as usize == a) {
                w.fill(all, e);
                fills = &fills[1..];
            }
        }
        // Among held classes, what was not decided again was carried; of the
        // class pairs with a new class, what was not met was vetoed.
        let (covered, pruned) = (
            held_rows.checked_sub(w.redecided),
            new_pairs.checked_sub(w.met),
        );
        let (Some(covered), Some(pruned)) = (covered, pruned) else {
            return Err(TableError::Invalid(format!(
                "{} class pairs met of {new_pairs}, {} held row pairs decided of {held_rows}",
                w.met, w.redecided
            )));
        };
        let match_pairs = (w.edges.iter())
            .map(|e| crate::cluster::matched_row_pairs(all, e))
            .sum();
        Ok(UnionMatches {
            candidates,
            covered,
            match_pairs,
            decided: w.decided,
            pruned,
            from_ids: w.from_ids,
            text_fields: w.text_fields,
            edges: w.edges,
            classes: walk.classes,
        })
    }

    /// Is `score(i, j) ≥ threshold`? Decided from bounds on the score. The
    /// ids settle every field but a text field over two different values,
    /// whose similarity lies in [0, 1]: `score_with`'s loop run with 0.0 and
    /// with 1.0 in its place brackets the score — every weight is ≥ 0 and
    /// IEEE `*`, `+` and `/` round monotonically, so the bracket holds in
    /// f64, bit for bit — and a threshold outside the bracket is decided
    /// there. One inside it opens the heaviest such field and brackets
    /// again; with none left both ends are `score_with`'s `num / den`.
    /// Weights that break the premise (`!self.bounded`) open every field
    /// first. `state` is the walk's per-field buffer; `opened` counts the
    /// text fields opened.
    fn decide_with(
        &self,
        i: usize,
        j: usize,
        state: &mut [FromIds],
        scratch: &mut SimScratch,
        opened: &mut u64,
    ) -> bool {
        for (k, (f, st)) in self.fields.iter().zip(state.iter_mut()).enumerate() {
            *st = match &f.cells {
                FieldCells::Text(Dict { ids, .. })
                    if ids[i] != ids[j] && ids[i] != NULL_ID && ids[j] != NULL_ID =>
                {
                    FromIds::Unknown
                }
                cells => field_similarity(cells, k, i, j, scratch)
                    .map_or(FromIds::Skipped, FromIds::Known),
            };
        }
        loop {
            let (mut lo, mut hi, mut den) = (0.0, 0.0, 0.0);
            let mut heaviest: Option<usize> = None;
            for (k, (f, st)) in self.fields.iter().zip(state.iter()).enumerate() {
                let (s_lo, s_hi) = match *st {
                    FromIds::Skipped => continue,
                    FromIds::Known(s) => (s, s),
                    FromIds::Unknown => {
                        if heaviest.is_none_or(|h| self.fields[h].weight < f.weight) {
                            heaviest = Some(k);
                        }
                        (0.0, 1.0)
                    }
                };
                lo += f.weight * s_lo;
                hi += f.weight * s_hi;
                den += f.weight;
            }
            let Some(k) = heaviest else {
                // Every field known: `lo` and `den` are `score_with`'s.
                return (if den == 0.0 { 0.0 } else { lo / den }) >= self.threshold;
            };
            if self.bounded {
                if den == 0.0 {
                    return 0.0 >= self.threshold;
                }
                if hi / den < self.threshold {
                    return false;
                }
                if lo / den >= self.threshold {
                    return true;
                }
            }
            state[k] = field_similarity(&self.fields[k].cells, k, i, j, scratch)
                .map_or(FromIds::Skipped, FromIds::Known);
            *opened += 1;
        }
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
                        // `NULL_ID` indexes past every dictionary: `get` is `None`.
                        FieldCells::Text(d) => match d.values.get(d.ids[r] as usize) {
                            Some(c) => {
                                let _ = write!(key, "t{}:{};", c.lower.len(), c.lower);
                            }
                            None => key.push_str("t-;"),
                        },
                        FieldCells::Exact(d) => match d.values.get(d.ids[r] as usize) {
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

/// Fields past which [`rejects_alone`] proves nothing: its subsets double
/// with each field (4,096 of them at this bound).
const MAX_VETO_FIELDS: usize = 13;

/// Does field `k` scoring 0.0 alone reject every pair, whatever the other
/// fields score? [`ErKernel::decide_with`]'s upper-bound loop, run with
/// field `k` at 0.0 and every other field at 1.0, over every set of other
/// fields a pair can have present (a null side skips a field, so `den`
/// varies with the set). A pair whose field `k` is present and scores 0.0
/// scores at most that bound in f64 — each weight is finite and ≥ 0 (the
/// caller checks `bounded`), every similarity lies in [0, 1], and IEEE `*`,
/// `+`, `/` round monotonically — so a bound under `threshold` in every set
/// rejects it. A NaN threshold proves nothing.
fn rejects_alone(weights: &[f64], k: usize, threshold: f64) -> bool {
    if weights.len() > MAX_VETO_FIELDS {
        return false;
    }
    let sets = (0..1u32 << weights.len()).filter(|set| set >> k & 1 == 1);
    sets.into_iter().all(|set| {
        let (mut hi, mut den) = (0.0, 0.0);
        for (f, &w) in weights.iter().enumerate().filter(|&(f, _)| set >> f & 1 == 1) {
            hi += w * if f == k { 0.0 } else { 1.0 };
            den += w;
        }
        (if den == 0.0 { 0.0 } else { hi / den }) < threshold
    })
}

/// Build the text cell of one distinct lowercased rendering.
fn text_cell(lower: String) -> TextCell {
    let chars = (!lower.is_ascii()).then(|| lower.chars().collect());
    let tokens = tokens_of(&lower);
    TextCell {
        lower,
        chars,
        tokens,
    }
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

/// A numeric cell as a record word: a finite value by its bits, the other
/// classes by codes no finite value's bits take (they are NaN patterns).
fn num_word(c: NumCell) -> u64 {
    match c {
        NumCell::Finite(x) => x.to_bits(),
        NumCell::Null => u64::MAX,
        NumCell::NonFinite => u64::MAX - 1,
        NumCell::NonNumeric => u64::MAX - 2,
    }
}

/// `wrangler_match::strsim::token_jaccard`'s token set, built once per
/// distinct value. The serial path hands `token_jaccard` the lowercased
/// rendering, which it lowercases again — mirrored here so the sets are
/// identical.
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

/// What field `field` (these `cells`) contributes to a pair — the compiled
/// mirror of the serial `value_similarity`, answered from the scratch's memo
/// of the field where it can be.
fn field_similarity(
    cells: &FieldCells,
    field: usize,
    i: usize,
    j: usize,
    scratch: &mut SimScratch,
) -> Option<f64> {
    match cells {
        FieldCells::Exact(Dict { ids, .. }) => match (ids[i], ids[j]) {
            (NULL_ID, _) | (_, NULL_ID) => None,
            (a, b) => Some(if a == b { 1.0 } else { 0.0 }),
        },
        FieldCells::Text(Dict {
            ids, values: cells, ..
        }) => match (ids[i], ids[j]) {
            (NULL_ID, _) | (_, NULL_ID) => None,
            // One id ⇔ equal lowercased renderings: the serial path's
            // `sa == sb` short-circuit.
            (a, b) if a == b => Some(1.0),
            (a, b) => {
                let key = PairMemo::key(a, b);
                if let Some(s) = scratch.memos[field].get(key) {
                    return Some(s);
                }
                let s = text_similarity(&cells[a as usize], &cells[b as usize], scratch);
                scratch.memos[field].insert(key, s);
                Some(s)
            }
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

#[cfg(test)]
thread_local! {
    /// Calls of [`text_similarity`] on this thread — the work guard's meter.
    static TEXT_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Max of Jaro–Winkler, token Jaccard and Levenshtein similarity of two
/// *distinct* cells — the compiled `SimKind::Text`, arithmetic identical to
/// the `wrangler_match::strsim` originals. Two ASCII cells run the same
/// comparisons over their bytes; a pair with a non-ASCII side runs over
/// chars, widening an ASCII side on the spot (once per distinct pair).
fn text_similarity(a: &TextCell, b: &TextCell, scratch: &mut SimScratch) -> f64 {
    #[cfg(test)]
    TEXT_EVALS.with(|n| n.set(n.get() + 1));
    if a.chars.is_none() && b.chars.is_none() {
        let (ba, bb) = (a.lower.as_bytes(), b.lower.as_bytes());
        return max_similarity(ba, bb, &a.tokens, &b.tokens, levenshtein_sim_bytes, scratch);
    }
    fn widen(c: &TextCell) -> Cow<'_, [char]> {
        match &c.chars {
            Some(chars) => Cow::Borrowed(chars),
            None => Cow::Owned(c.lower.chars().collect()),
        }
    }
    let (ca, cb) = (widen(a), widen(b));
    max_similarity(
        &ca,
        &cb,
        &a.tokens,
        &b.tokens,
        levenshtein_sim_chars,
        scratch,
    )
}

/// [`text_similarity`] over one symbol type. Levenshtein is skipped when it
/// provably cannot raise the running max: its distance is at least the
/// length difference, so its similarity is at most
/// `1 − |len(a)−len(b)| / max_len`; both divisions round the same way, so
/// the bound holds in f64 too, and skipping leaves the max bit-unchanged.
fn max_similarity<T: PartialEq + Copy>(
    a: &[T],
    b: &[T],
    tokens_a: &[String],
    tokens_b: &[String],
    levenshtein_sim: fn(&[T], &[T], &mut SimScratch) -> f64,
    scratch: &mut SimScratch,
) -> f64 {
    let best = jaro_winkler_chars(a, b, scratch).max(token_jaccard_sorted(tokens_a, tokens_b));
    // The renderings differ, so at least one side is non-empty: max_len ≥ 1.
    let max_len = a.len().max(b.len());
    let lev_upper = 1.0 - a.len().abs_diff(b.len()) as f64 / max_len as f64;
    if lev_upper > best {
        best.max(levenshtein_sim(a, b, scratch))
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
    use crate::{candidates_naive, candidates_union, match_pairs};
    use std::collections::BTreeSet;

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
            let (scores, stats) = kernel.score_pairs_parallel_exact(&cand, workers).unwrap();
            let parallel = kernel.filter_matches(&cand, &scores);
            assert_eq!(parallel, serial, "workers = {workers}");
            let items: u64 = stats.iter().map(|s| s.items).sum();
            assert_eq!(items, cand.len() as u64);
            assert_eq!(stats.len(), workers.min(cand.len()));
            assert!(stats.iter().all(|s| s.items > 0), "idle worker");
        }
        // The policy entry point produces the same output after sizing.
        for workers in [1, 4, 64] {
            let (scores, stats) = kernel.score_pairs_parallel(&cand, workers).unwrap();
            let parallel = kernel.filter_matches(&cand, &scores);
            assert_eq!(parallel, serial, "workers = {workers}");
            assert_eq!(
                stats.iter().map(|s| s.items).sum::<u64>(),
                cand.len() as u64
            );
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
    fn decide_union_returns_the_scored_list_filtered_and_counts_what_it_opened() {
        // Blocks on name ∪ sku: {0, 1, 3} by prefix, {0, 1, 4} by key. Every
        // row is a record of its own, so each class pair is one row pair.
        let (t, cfg) = (t(), cfg());
        let blocks = UnionBlocks::build(&t, "name", "sku").unwrap();
        let listed = candidates_union(&t, "name", "sku").unwrap();
        assert_eq!(listed, vec![(0, 1), (0, 3), (0, 4), (1, 3), (1, 4)]);
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        assert!(kernel.bounded);
        let serial = match_pairs(&t, &listed, &cfg).unwrap();
        let want: Vec<_> = serial.iter().map(|p| (p.i, p.j)).collect();
        assert_eq!(want, listed, "fixture: every candidate matches at 0.85");
        let got = kernel.decide_union(&blocks, None).unwrap();
        assert_eq!(got.matches(), want);
        assert_eq!(got.num_classes(), 5);
        assert_eq!((got.candidates, got.covered, got.match_pairs), (5, 0, 5));
        // (0, 3) has one name, (0, 4) and (1, 4) a null one: ids settle them.
        // (0, 1) and (1, 3) bracket 0.85 until the name is opened; no row of
        // the later class precedes one of the earlier, so neither is decided
        // the other way round.
        assert_eq!((got.decided, got.from_ids, got.text_fields), (5, 3, 2));
        assert_eq!(got.clusters(), vec![vec![0, 1, 3, 4], vec![2]]);
        // Blocks of another table are refused whole.
        let other = UnionBlocks::build(&repeated_names(7, 2), "name", "name").unwrap();
        assert!(kernel.decide_union(&other, None).is_err());
    }

    #[test]
    fn a_carried_walk_decides_only_the_pairs_of_classes_new_to_the_union() {
        // Out of reach of every score: rejected without opening anything.
        let strict = ErConfig {
            threshold: 1.5,
            ..cfg()
        };
        let old = t();
        let old_blocks = UnionBlocks::build(&old, "name", "sku").unwrap();
        let old_kernel = ErKernel::compile(&old, &strict).unwrap();
        let before = old_kernel.decide_union(&old_blocks, None).unwrap();
        assert_eq!((before.candidates, before.decided), (5, 5));
        // Row 2 of `old` replaced by `record`; every other row carried.
        let after = |record: Vec<Value>| {
            let mut rows: Vec<Vec<Value>> = (0..5).map(|r| old.row(r)).collect();
            rows[2] = record;
            let new = Table::from_rows(old.schema().clone(), rows).unwrap();
            let old_of = [Some(0), Some(1), None, Some(3), Some(4)];
            let blocks = UnionBlocks::carry(&new, "name", "sku", Some((&old_blocks, &old_of[..])));
            let (blocks, block_ids) = blocks.unwrap();
            let carried = ErKernel::carry(&new, &strict, Some((&old_kernel, &old_of[..])));
            let (kernel, kernel_ids) = carried.unwrap();
            let prior = PriorWalk {
                blocks: &old_blocks,
                kernel: &old_kernel,
                decided: &before,
                old_of: &old_of,
                block_ids: &block_ids,
                kernel_ids: &kernel_ids,
            };
            let got = kernel.decide_union(&blocks, Some(prior)).unwrap();
            let cold = kernel.decide_union(&blocks, None).unwrap();
            assert_eq!(
                (got.matches(), got.candidates),
                (cold.matches(), cold.candidates)
            );
            assert_eq!(got.num_classes(), cold.num_classes());
            got
        };
        // A new record (prefix "acme", key "a1"): its class meets classes 0
        // and 1 before it and 3 and 4 after — four decisions, none opened.
        let got = after(vec![
            "Acme Turbo Gizmo".into(),
            Value::Float(9.5),
            "a1".into(),
        ]);
        assert_eq!((got.candidates, got.covered, got.decided), (9, 5, 4));
        assert_eq!((got.from_ids, got.text_fields), (4, 0));
        // Row 0's record again: the dirty row joins class 0 by its ids, and
        // the one decision owed is the class against itself, now two rows.
        let got = after(old.row(0));
        assert_eq!(got.num_classes(), 4);
        assert_eq!((got.candidates, got.covered, got.decided), (9, 8, 1));
        // Row 2's own record: nothing new to the union, nothing decided.
        let got = after(old.row(2));
        assert_eq!((got.candidates, got.covered, got.decided), (5, 5, 0));
        // A prior decided under another rule, or whose map does not fit it,
        // is refused.
        let kernel = ErKernel::compile(&old, &cfg()).unwrap();
        let no_ids = PriorIds::default();
        let prior = PriorWalk {
            blocks: &old_blocks,
            kernel: &old_kernel,
            decided: &before,
            old_of: &[None; 5],
            block_ids: &no_ids,
            kernel_ids: &no_ids,
        };
        assert!(kernel.decide_union(&old_blocks, Some(prior)).is_err());
        let short = PriorWalk {
            old_of: &[None; 4],
            ..prior
        };
        assert!(old_kernel.decide_union(&old_blocks, Some(short)).is_err());
    }

    #[test]
    fn a_walk_decides_every_class_pair_once() {
        // One block of 40 classes: class c has 39 − c later mates, 780 pairs
        // in all.
        let t = Table::literal(
            &["name"],
            (0..40)
                .map(|k| vec![Value::from(format!("acme {k}"))])
                .collect(),
        )
        .unwrap();
        let blocks = UnionBlocks::build(&t, "name", "name").unwrap();
        let kernel = ErKernel::compile(&t, &ErConfig::text_over(&["name"], 0.99)).unwrap();
        let got = kernel.decide_union(&blocks, None).unwrap();
        assert_eq!(
            (got.num_classes(), got.decided, got.candidates),
            (40, 780, 780)
        );
        // Two rows of one record: one class, decided once against itself.
        let two = Table::literal(&["name"], vec![vec!["acme".into()]; 2]).unwrap();
        let blocks = UnionBlocks::build(&two, "name", "name").unwrap();
        let kernel = ErKernel::compile(&two, &ErConfig::text_over(&["name"], 0.5)).unwrap();
        let got = kernel.decide_union(&blocks, None).unwrap();
        assert_eq!((got.num_classes(), got.decided), (1, 1));
        assert_eq!((got.candidates, got.match_pairs), (1, 1));
        // No rows: no class, nothing decided.
        let none = Table::literal(&["name"], vec![]).unwrap();
        let blocks = UnionBlocks::build(&none, "name", "name").unwrap();
        let kernel = ErKernel::compile(&none, &ErConfig::text_over(&["name"], 0.5)).unwrap();
        let got = kernel.decide_union(&blocks, None).unwrap();
        assert_eq!((got.num_classes(), got.decided, got.candidates), (0, 0, 0));
    }

    #[test]
    fn weights_outside_the_premise_open_every_field_and_equal_the_serial_path() {
        let t = t();
        let blocks = UnionBlocks::build(&t, "name", "sku").unwrap();
        let listed = candidates_union(&t, "name", "sku").unwrap();
        for (price_weight, threshold) in [
            (-1.0, 0.85),
            (-1.0, 1.5),
            (f64::NAN, 0.85),
            (f64::INFINITY, 0.0),
            (f64::MAX, 0.85),
        ] {
            let mut cfg = cfg();
            cfg.threshold = threshold;
            cfg.fields[1].weight = price_weight;
            // `MAX + MAX` overflows: finite weights, no finite sum.
            cfg.fields[2].weight = if price_weight == f64::MAX {
                f64::MAX
            } else {
                1.0
            };
            let kernel = ErKernel::compile(&t, &cfg).unwrap();
            assert!(!kernel.bounded, "weight {price_weight}");
            let serial = match_pairs(&t, &listed, &cfg).unwrap();
            let want: Vec<_> = serial.iter().map(|p| (p.i, p.j)).collect();
            let got = kernel.decide_union(&blocks, None).unwrap();
            assert_eq!(got.matches(), want, "weight {price_weight} at {threshold}");
            // No bracket is trusted: both pairs with two names open them,
            // even at a threshold no score reaches.
            assert_eq!((got.from_ids, got.text_fields), (3, 2));
        }
    }

    #[test]
    fn the_veto_proof_checks_every_set_of_present_fields() {
        // With all three present a differing key scores at most
        // 2^53 / (2^53 + 2) < 1.0; with the middle one null, `1 + 2^53`
        // rounds to 2^53 and the bound is 1.0 itself. Only the subsets see it.
        let big = 2f64.powi(53);
        let all = (0.0 + 1.0 + big) / (1.0 + 1.0 + big);
        assert!(all < 1.0 && (0.0 + big) / (1.0 + big) == 1.0);
        assert!(!rejects_alone(&[1.0, 1.0, big], 0, 1.0));
        assert!(rejects_alone(&[1.0, 1.0, big], 0, 1.0f64.next_up()));
        // And such a pair matches: the walk must meet it.
        let t = Table::literal(
            &["sku", "name", "brand"],
            vec![
                vec!["a".into(), "x".into(), "Acme".into()],
                vec!["b".into(), Value::Null, "Acme".into()],
            ],
        )
        .unwrap();
        let field = |column: &str, weight, kind| FieldSim {
            column: column.into(),
            weight,
            kind,
        };
        let cfg = ErConfig {
            fields: vec![
                field("sku", 1.0, SimKind::Exact),
                field("name", 1.0, SimKind::Text),
                field("brand", big, SimKind::Text),
            ],
            threshold: 1.0,
        };
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        assert!(kernel.bounded && kernel.vetoing("sku").is_none());
        let got = kernel
            .decide_union(&UnionBlocks::build(&t, "brand", "sku").unwrap(), None)
            .unwrap();
        assert_eq!((got.matches(), got.pruned), (vec![(0, 1)], 0));
        // Zero weights leave `den` at 0 for some sets: the score is 0.0 there.
        assert!(rejects_alone(&[0.0, 0.0], 0, f64::MIN_POSITIVE));
        assert!(!rejects_alone(&[0.0, 0.0], 0, 0.0));
        assert!(!rejects_alone(&[2.0, 5.0], 0, f64::NAN));
        assert!(!rejects_alone(&[1.0; MAX_VETO_FIELDS + 1], 0, 1.5));
    }

    #[test]
    fn a_key_over_its_line_vetoes_class_pairs_unmet() {
        // The wrangler's config shape: key 2, name 3, two texts 1 — a
        // differing key leaves at most 5/7. Rows 0 and 1 differ in the key
        // alone (trailing space: one full-key block, two exact ids), row 2
        // has another key, row 3 none, row 4 another prefix and row 0's key
        // in another case (one exact id).
        let t = Table::literal(
            &["sku", "name", "brand", "category"],
            vec![
                vec!["K1".into(), "Acme Widget".into(), "acme".into(), "x".into()],
                vec!["k1 ".into(), "Acme Widget".into(), "acme".into(), "x".into()],
                vec!["K2".into(), "Acme Widgets".into(), "acme".into(), "x".into()],
                vec![Value::Null, "Acme Widget".into(), "acme".into(), "x".into()],
                vec!["k1".into(), "Bolt Gadget".into(), "bolt".into(), "x".into()],
            ],
        )
        .unwrap();
        let field = |column: &str, weight, kind| FieldSim {
            column: column.into(),
            weight,
            kind,
        };
        let mut cfg = ErConfig {
            fields: vec![
                field("sku", 2.0, SimKind::Exact),
                field("name", 3.0, SimKind::Text),
                field("brand", 1.0, SimKind::Text),
                field("category", 1.0, SimKind::Text),
            ],
            threshold: 0.0,
        };
        let blocks = UnionBlocks::build(&t, "name", "sku").unwrap();
        let listed = candidates_union(&t, "name", "sku").unwrap();
        assert_eq!(listed.len(), 8);
        let line: f64 = (0.0 + 3.0 + 1.0 + 1.0) / 7.0;
        for (threshold, vetoed) in [(line.next_down(), 0), (line, 0), (line.next_up(), 4)] {
            cfg.threshold = threshold;
            let kernel = ErKernel::compile(&t, &cfg).unwrap();
            assert_eq!(kernel.vetoing("sku").is_some(), vetoed > 0);
            assert!(kernel.vetoing("name").is_none());
            let scores = kernel.score_pairs(&listed).unwrap();
            let want: Vec<_> = (kernel.filter_matches(&listed, &scores).iter())
                .map(|p| (p.i, p.j))
                .collect();
            let got = kernel.decide_union(&blocks, None).unwrap();
            assert_eq!(got.matches(), want, "{threshold}");
            // (0, 1), (0, 2), (1, 2) share a prefix with two keys, (1, 4)
            // a full key with two exact ids: met only up to the line.
            let counts = (got.pruned, got.decided);
            assert_eq!(counts, (vetoed, 8 - vetoed), "{threshold}");
            assert_eq!((got.candidates, got.covered), (8, 0));
        }
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
    fn dictionary_folds_case_variants_and_skips_nulls() {
        // name: "Acme Turbo Widget" ×2 and "Acme Turbo Widgey" (row 4 null);
        // sku: "a1"/"A1" fold to one value, "b7" is the other (row 3 null).
        let kernel = ErKernel::compile(&t(), &cfg()).unwrap();
        assert_eq!(kernel.dict_sizes(), vec![("name", 3), ("sku", 2)]);
    }

    #[test]
    fn pair_memo_survives_growth_and_rehash() {
        // 8,192 pairs bound the table at 8,192 slots: three doublings from
        // the first allocation, then 6,144 entries and no more. Ids up to
        // u32::MAX − 1 exercise both key halves.
        let mut memo = PairMemo::for_pairs(8192);
        let key = |k: u32| PairMemo::key(k.wrapping_mul(0x9E37_79B1), u32::MAX - 1 - k);
        let value = |k: u32| f64::from(k) / 7000.0;
        let mut sizes = vec![];
        for k in 0..7000 {
            assert_eq!(memo.get(key(k)), None, "key {k} before insert");
            memo.insert(key(k), value(k));
            let want = (k < 6144).then(|| value(k));
            assert_eq!(memo.get(key(k)), want, "key {k} after insert");
            if sizes.last() != Some(&memo.slots.len()) {
                sizes.push(memo.slots.len());
                // Everything stored so far is still answered after a rehash.
                for seen in 0..k {
                    assert_eq!(memo.get(key(seen)), Some(value(seen)), "key {seen} of {k}");
                }
            }
        }
        assert_eq!(sizes, [1024, 2048, 4096, 8192]);
        assert_eq!(memo.len, 6144);
        // Past the bound the stored keys stay intact and the rest are
        // declined (the caller recomputes them every time).
        for k in 0..7000 {
            let want = (k < 6144).then(|| value(k));
            assert_eq!(memo.get(key(k)), want, "key {k}");
        }
        assert_eq!(memo.get(PairMemo::key(7, 7)), None);
        // A second insert of a stored key changes nothing.
        memo.insert(key(3), 9.0);
        assert_eq!(memo.get(key(3)), Some(value(3)));
        assert_eq!(memo.len, 6144);
    }

    #[test]
    fn pair_memo_starts_small_and_is_bounded_by_the_workers_pairs() {
        // Nothing is allocated for a worker that never opens a text field;
        // the first stored pair allocates 1,024 slots whatever the share.
        let mut memo = PairMemo::for_pairs(1 << 20);
        assert_eq!(memo.slots.capacity(), 0);
        assert_eq!(memo.get(PairMemo::key(0, 1)), None);
        memo.insert(PairMemo::key(0, 1), 0.25);
        assert_eq!(memo.slots.len(), 1024);
        assert_eq!(memo.get(PairMemo::key(0, 1)), Some(0.25));
        assert_eq!(memo.get(PairMemo::key(1, 0)), None, "the key is ordered");
        // A share of 1,500 pairs bounds the table at 1,024 slots, i.e. 768
        // entries, and a share under 1,024 pairs still gets the first table.
        for pairs in [1500, 3] {
            let mut memo = PairMemo::for_pairs(pairs);
            for k in 0..1000u32 {
                memo.insert(PairMemo::key(k, k + 1), f64::from(k));
            }
            assert_eq!((memo.slots.len(), memo.len), (1024, 768));
        }
        // The memo of a one-off score: nothing stored, nothing allocated.
        let mut none = PairMemo::for_pairs(0);
        none.insert(PairMemo::key(1, 2), 0.5);
        assert_eq!(none.get(PairMemo::key(1, 2)), None);
        assert_eq!(none.slots.capacity(), 0);
        // Nor is anything allocated for a field that is not text.
        let (kernel, pairs) = (ErKernel::compile(&t(), &cfg()).unwrap(), candidates_naive(5));
        let mut scratch = kernel.scratch(pairs.len());
        for &(i, j) in &pairs {
            kernel.score_with(i, j, &mut scratch).unwrap();
        }
        let slots: Vec<usize> = scratch.memos.iter().map(|m| m.slots.capacity()).collect();
        assert_eq!(slots, [1024, 0, 0], "name is the one text field");
    }

    #[test]
    fn a_worker_evaluates_each_value_pair_of_its_own_share_once() {
        // The per-worker work guard. 400 rows × 20 names, all 79,800 pairs,
        // at exact widths 1, 2 and 8: a worker shares nothing, so it owes
        // one evaluation per distinct ordered pair of different names in
        // *its* chunk — not one per row pair, and nothing for what another
        // worker met. The meter is per thread, read inside each worker.
        let t = repeated_names(400, 20);
        let cfg = ErConfig::text_over(&["name"], 0.9);
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        let pairs = candidates_naive(400);
        let serial = kernel.score_pairs(&pairs).unwrap();
        for workers in [1, 2, 8] {
            let mut scores = vec![0.0; pairs.len()];
            let (evals, _) = par::run_blocked_into(&pairs, &mut scores, workers, |_, chunk, out| {
                TEXT_EVALS.with(|n| n.set(0));
                kernel.score_pairs_into(chunk, out).unwrap();
                let names = chunk.iter().map(|&(i, j)| (i % 20, j % 20));
                let distinct: BTreeSet<_> = names.filter(|(a, b)| a != b).collect();
                (TEXT_EVALS.with(std::cell::Cell::get), distinct.len() as u64)
            })
            .unwrap();
            assert_eq!(evals.len(), workers);
            for (w, (evaluated, distinct)) in evals.into_iter().enumerate() {
                assert_eq!(evaluated, distinct, "worker {w} of {workers}");
                assert!(distinct <= 380);
            }
            assert_eq!(
                scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                serial.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    /// `n` rows over `distinct` different names, row `r` carrying name
    /// `r % distinct`.
    fn repeated_names(n: usize, distinct: usize) -> Table {
        Table::literal(
            &["name"],
            (0..n)
                .map(|r| {
                    vec![Value::from(format!(
                        "product {} mk{}",
                        (r % distinct) * 37,
                        r % distinct
                    ))]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn text_similarity_runs_once_per_distinct_ordered_value_pair() {
        // The work guard: 400 rows, 20 distinct names, all 79,800 pairs. A
        // kernel that scores per row pair evaluates 75,800 similarities; the
        // dictionary kernel may evaluate each ordered pair of distinct names
        // at most once.
        let t = repeated_names(400, 20);
        let cfg = ErConfig::text_over(&["name"], 0.9);
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        assert_eq!(kernel.dict_sizes(), vec![("name", 20)]);
        let pairs = candidates_naive(400);
        TEXT_EVALS.with(|n| n.set(0));
        let scores = kernel.score_pairs(&pairs).unwrap();
        let evals = TEXT_EVALS.with(std::cell::Cell::get);
        assert!(evals <= 20 * 19, "{evals} text similarity evaluations");
        assert!(evals > 0);
        for (&(i, j), s) in pairs.iter().zip(&scores).step_by(97) {
            let serial = record_similarity(&t, i, j, &cfg).unwrap();
            assert_eq!(serial.to_bits(), s.to_bits(), "pair ({i}, {j})");
        }
    }

    #[test]
    fn scores_stay_bit_identical_across_a_memo_rehash() {
        // 250 distinct names → 62,250 ordered pairs, met by a worker whose
        // share bounds its table at 16,384 slots: four doublings, then
        // 12,288 stored pairs and every later one recomputed. Lookups
        // before, across and after the rehashes and past the bound must all
        // equal the serial oracle, in both orders.
        let t = repeated_names(400, 250);
        let cfg = ErConfig::text_over(&["name"], 0.9);
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        let mut pairs = candidates_naive(400);
        pairs.extend(candidates_naive(400).into_iter().map(|(i, j)| (j, i)));
        let mut scratch = kernel.scratch(20_000);
        let scores: Vec<f64> = pairs
            .iter()
            .map(|&(i, j)| kernel.score_with(i, j, &mut scratch).unwrap())
            .collect();
        let memo = &scratch.memos[0];
        assert_eq!((memo.slots.len(), memo.len), (16_384, 12_288));
        for (&(i, j), s) in pairs.iter().zip(&scores).step_by(7) {
            let serial = record_similarity(&t, i, j, &cfg).unwrap();
            assert_eq!(serial.to_bits(), s.to_bits(), "pair ({i}, {j})");
        }
        // A worker handed the whole list grows past that and stores them all.
        let mut scratch = kernel.scratch(pairs.len());
        for (&(i, j), s) in pairs.iter().zip(&scores) {
            let again = kernel.score_with(i, j, &mut scratch).unwrap();
            assert_eq!(again.to_bits(), s.to_bits(), "pair ({i}, {j})");
        }
        assert_eq!(scratch.memos[0].len, 250 * 249);
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
            let (p, t) = if a.len() <= b.len() {
                (&a, &b)
            } else {
                (&b, &a)
            };
            if !p.is_empty() {
                assert_eq!(myers_distance(p, t, &mut scratch), dp, "a={a:?} b={b:?}");
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
        assert_eq!(myers_distance(b"q", b"abc", &mut scratch), 3);
    }

    #[test]
    fn empty_candidates_are_fine() {
        let kernel = ErKernel::compile(&t(), &cfg()).unwrap();
        let (scores, stats) = kernel.score_pairs_parallel(&[], 4).unwrap();
        assert!(scores.is_empty() && stats.is_empty());
    }
}
