//! Property tests for entity resolution: union-find laws, blocking
//! soundness, similarity bounds.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wrangler_resolve::{
    candidates_blocked, candidates_blocked_exact, candidates_naive, candidates_sorted_neighborhood,
    candidates_union, cluster_pairs, match_pairs, record_similarity, ErConfig, ErKernel, FieldSim,
    PriorWalk, SimKind, UnionBlocks, UnionFind, UnionMatches,
};
use wrangler_table::{Table, Value};

fn arb_name() -> impl Strategy<Value = String> {
    "[a-d]{1,6}( [a-d]{1,6}){0,2}"
}

fn arb_table(rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec((arb_name(), prop::option::of(-100i64..100)), 1..=rows).prop_map(|rs| {
        let rows = rs
            .into_iter()
            .map(|(n, v)| vec![Value::from(n), v.map(Value::Int).unwrap_or(Value::Null)])
            .collect();
        Table::literal(&["name", "x"], rows).expect("aligned")
    })
}

/// A "messy" second column: nulls, ordinary numbers, non-finite floats and
/// plain text — everything real sources throw at a numeric comparator.
fn arb_messy_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-100i64..100).prop_map(Value::Int),
        (0usize..5).prop_map(|k| Value::Float(
            [1.5, -2.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k]
        )),
        arb_name().prop_map(Value::from),
    ]
}

/// Tables with nullable names and messy numerics — the adversarial input
/// for the kernel/serial equivalence and non-finite-safety properties.
fn arb_messy_table(rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec((prop::option::of(arb_name()), arb_messy_value()), 1..=rows).prop_map(
        |rs| {
            let rows = rs
                .into_iter()
                .map(|(n, v)| vec![n.map(Value::from).unwrap_or(Value::Null), v])
                .collect();
            Table::literal(&["name", "x"], rows).expect("aligned")
        },
    )
}

fn messy_cfg() -> ErConfig {
    ErConfig {
        fields: vec![
            FieldSim {
                column: "name".into(),
                weight: 2.0,
                kind: SimKind::Text,
            },
            FieldSim {
                column: "x".into(),
                weight: 1.0,
                kind: SimKind::Numeric { scale: 0.5 },
            },
        ],
        threshold: 0.7,
    }
}

/// A small pool of names drawn with replacement, so tables repeat values
/// heavily: case variants that fold to one dictionary id, near-duplicates,
/// non-ASCII renderings (alone and against ASCII), whitespace-only, and
/// names past 64 bytes (beyond the bit-parallel Levenshtein word).
fn arb_pooled_name() -> impl Strategy<Value = String> {
    const POOL: [&str; 14] = [
        "ACME Turbo Widget",
        "acme turbo widget",
        "Acme Turbo Widgey",
        "Acme Turbo",
        "Bolt Mini Gadget",
        "bolt-mini_gadget",
        "Café Crème Deluxe",
        "CAFÉ crème deluxe",
        "Cafe Creme Deluxe",
        "naïve façade",
        "Ünïcode Ωmega",
        " ",
        "stark industrial grade heavy duty mega flange with reinforced titanium collar mk2",
        "stark industrial grade heavy duty mega flange with reinforced titanium collar mk3",
    ];
    (0usize..POOL.len()).prop_map(|k| POOL[k].to_string())
}

/// Tables over the pooled names: a nullable text column, a nullable key
/// column with case variants, and a messy numeric column.
fn arb_duplicated_table(rows: usize) -> impl Strategy<Value = Table> {
    let key = (0usize..6).prop_map(|k| ["SKU-1", "sku-1", "SKU-2", "Sku-3", "sku-3 ", "ß4"][k]);
    prop::collection::vec(
        (
            prop::option::of(arb_pooled_name()),
            prop::option::of(key),
            arb_messy_value(),
        ),
        1..=rows,
    )
    .prop_map(|rs| {
        let rows = rs
            .into_iter()
            .map(|(n, k, v)| {
                vec![
                    n.map(Value::from).unwrap_or(Value::Null),
                    k.map(Value::from).unwrap_or(Value::Null),
                    v,
                ]
            })
            .collect();
        Table::literal(&["name", "sku", "x"], rows).expect("aligned")
    })
}

fn duplicated_cfg() -> ErConfig {
    ErConfig {
        fields: vec![
            FieldSim {
                column: "name".into(),
                weight: 3.0,
                kind: SimKind::Text,
            },
            FieldSim {
                column: "sku".into(),
                weight: 1.5,
                kind: SimKind::Exact,
            },
            FieldSim {
                column: "x".into(),
                weight: 1.0,
                kind: SimKind::Numeric { scale: 0.5 },
            },
        ],
        threshold: 0.7,
    }
}

/// One row of [`arb_wide_table`]'s six columns.
fn arb_wide_row() -> impl Strategy<Value = Vec<Value>> {
    let brand = (0usize..4).prop_map(|k| ["Acme", "ACME", "Bölt", "bolt"][k]);
    let text = (
        prop::option::of(arb_pooled_name()),
        prop::option::of(brand),
        prop::option::of(arb_pooled_name()),
    );
    let key = (0usize..4).prop_map(|k| ["SKU-1", "sku-1", "SKU-2", "ß4"][k]);
    let rest = (prop::option::of(key), arb_messy_value(), arb_messy_value());
    (text, rest).prop_map(|((name, brand, note), (sku, x, y))| {
        let text = |v: Option<&str>| v.map(Value::from).unwrap_or(Value::Null);
        vec![
            text(name.as_deref()),
            text(sku),
            x,
            text(brand),
            text(note.as_deref()),
            y,
        ]
    })
}

const WIDE_COLUMNS: [&str; 6] = ["name", "sku", "x", "brand", "note", "y"];

/// Six columns for the decision property: two pooled text columns and a
/// short one, a key, two messy numerics — nulls everywhere.
fn arb_wide_table(rows: usize) -> impl Strategy<Value = Table> {
    prop::collection::vec(arb_wide_row(), 1..=rows)
        .prop_map(|rows| Table::literal(&WIDE_COLUMNS, rows).expect("aligned"))
}

/// Tables of [`arb_wide_table`]'s columns whose rows are drawn from a pool
/// of at most six records, so classes hold up to twenty rows. Record 1 is
/// record 0 under another key — told apart by a blocking key alone when the
/// config leaves `sku` out — and record 2 has neither key.
fn arb_pooled_table(rows: usize) -> impl Strategy<Value = Table> {
    let pool = prop::collection::vec(arb_wide_row(), 1..=6);
    (pool, prop::collection::vec(any::<usize>(), 2..=rows)).prop_map(|(mut pool, picks)| {
        if pool.len() > 1 {
            pool[1] = pool[0].clone();
            pool[1][1] = Value::from(if pool[0][1] == Value::from("ß4") {
                "SKU-2"
            } else {
                "ß4"
            });
        }
        if pool.len() > 2 {
            (pool[2][0], pool[2][1]) = (Value::Null, Value::Null);
        }
        let rows = picks
            .iter()
            .map(|&k| pool[k % pool.len()].clone())
            .collect();
        Table::literal(&WIDE_COLUMNS, rows).expect("aligned")
    })
}

/// The six comparators of [`arb_wide_table`], in column order.
const WIDE_KINDS: [(&str, SimKind); 6] = [
    ("name", SimKind::Text),
    ("sku", SimKind::Exact),
    ("x", SimKind::Numeric { scale: 0.5 }),
    ("brand", SimKind::Text),
    ("note", SimKind::Text),
    ("y", SimKind::Numeric { scale: 2.0 }),
];

/// One to six of [`WIDE_KINDS`] (bit `k` of `mask` keeps field `k`), with
/// weight `weights[k]` each.
fn wide_cfg(mask: u8, weights: &[f64], threshold: f64) -> ErConfig {
    let mask = if mask.is_multiple_of(64) { 1 } else { mask };
    ErConfig {
        fields: WIDE_KINDS
            .iter()
            .zip(weights)
            .enumerate()
            .filter(|(k, _)| mask >> k & 1 == 1)
            .map(|(_, (&(column, kind), &weight))| FieldSim {
                column: column.into(),
                weight,
                kind,
            })
            .collect(),
        threshold,
    }
}

/// Weights the bound argument covers: zero, tiny, ordinary, huge.
fn arb_weight() -> impl Strategy<Value = f64> {
    (0usize..7).prop_map(|k| [0.0, 0.0, 1e-3, 0.5, 1.0, 3.0, 1e300][k])
}

/// A threshold a bound could get wrong: the bits of a reachable score and
/// its two neighbours, the line `1 − w_key/W` below which a key mismatch
/// stops rejecting, the ends of [0, 1], beyond it, and NaN.
fn adversarial_threshold(
    kernel: &ErKernel,
    cfg: &ErConfig,
    pairs: &[(usize, usize)],
    mode: u8,
    pick: usize,
) -> f64 {
    let reachable = || match pairs.len() {
        0 => 0.5,
        n => {
            let (i, j) = pairs[pick % n];
            kernel.score(i, j).unwrap()
        }
    };
    match mode % 8 {
        0 => reachable(),
        1 => reachable().next_up(),
        2 => reachable().next_down(),
        3 => {
            let total: f64 = cfg.fields.iter().map(|f| f.weight).sum();
            let key = cfg.fields.iter().find(|f| f.kind == SimKind::Exact);
            1.0 - key.map_or(cfg.fields[0].weight, |f| f.weight) / total
        }
        4 => 0.0,
        5 => 1.0,
        6 => 1.5,
        _ => f64::NAN,
    }
}

/// `filter_matches(candidates_union, score_pairs)` as `(i, j)`: what
/// `decide_union` must return, computed the long way.
fn listed_and_scored(kernel: &ErKernel, pairs: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let scores = kernel.score_pairs(pairs).unwrap();
    let matched = kernel.filter_matches(pairs, &scores);
    matched.iter().map(|p| (p.i, p.j)).collect()
}

/// Tables of [`arb_wide_table`]'s columns whose keys fold apart under the
/// exact comparator yet share a full-key block (`trim().to_lowercase()`):
/// a leading or trailing space, non-ASCII case — beside a second key and
/// nulls.
fn arb_vetoed_table(rows: usize) -> impl Strategy<Value = Table> {
    let key =
        (0usize..7).prop_map(|k| ["SKU-1", "sku-1", "SKU-1 ", " sku-1", "Ü7", "ü7", "SKU-2"][k]);
    prop::collection::vec((arb_wide_row(), prop::option::of(key)), 1..=rows).prop_map(|rows| {
        let rows = rows
            .into_iter()
            .map(|(mut row, key)| {
                row[1] = key.map(Value::from).unwrap_or(Value::Null);
                row
            })
            .collect();
        Table::literal(&WIDE_COLUMNS, rows).expect("aligned")
    })
}

/// What a pair whose `sku` differs scores at most with every field of `cfg`
/// present: the bracket's upper-bound loop with `sku` at 0.0 and every other
/// field at 1.0. Only a threshold above it can let the key veto.
fn veto_line(cfg: &ErConfig) -> f64 {
    let (mut hi, mut den) = (0.0, 0.0);
    for f in &cfg.fields {
        hi += f.weight * if f.column == "sku" { 0.0 } else { 1.0 };
        den += f.weight;
    }
    if den == 0.0 {
        0.0
    } else {
        hi / den
    }
}

/// An update of a table laid out in blocks, as a union is by source.
struct Update {
    new: Table,
    /// Per row of `new`, the row of the old table it copies (`None`: the
    /// row is new or its block changed).
    old_of: Vec<Option<usize>>,
}

/// Cut `old` into blocks (a block starts at row `r > 0` where `cuts[r]`),
/// give each a fate — kept (0), replaced by as many rows of `fresh` (1),
/// deleted (2), resized to another count of `fresh` rows (3) — and, with
/// `rotate`, move the first block to the end.
fn update(old: &Table, fresh: &Table, cuts: &[bool], fates: &[u8], rotate: bool) -> Update {
    let mut blocks: Vec<std::ops::Range<usize>> = Vec::new();
    for r in 0..old.num_rows() {
        match blocks.last_mut() {
            Some(b) if !cuts[r % cuts.len()] => b.end = r + 1,
            _ => blocks.push(r..r + 1),
        }
    }
    if rotate && !blocks.is_empty() {
        blocks.rotate_left(1);
    }
    let (mut rows, mut old_of) = (Vec::new(), Vec::new());
    let mut next_fresh = 0;
    for (k, block) in blocks.into_iter().enumerate() {
        let replaced = match fates[k % fates.len()] {
            0 => {
                for r in block {
                    rows.push(old.row(r));
                    old_of.push(Some(r));
                }
                continue;
            }
            1 => block.len(),
            2 => 0,
            _ if block.len() > 1 => block.len() - 1,
            _ => 2,
        };
        for _ in 0..replaced {
            rows.push(fresh.row(next_fresh % fresh.num_rows()));
            next_fresh += 1;
            old_of.push(None);
        }
    }
    Update {
        new: Table::from_rows(old.schema().clone(), rows).unwrap(),
        old_of,
    }
}

/// Block-fate vectors for [`update`]: random, all kept, all replaced.
fn fates_for(mode: u8, fates: Vec<u8>) -> Vec<u8> {
    match mode % 3 {
        0 => fates,
        1 => vec![0],
        _ => vec![1],
    }
}

/// Canonical form of a clustering: rows sorted within clusters, clusters
/// sorted by content.
fn normalize(mut clusters: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort_unstable();
    clusters
}

/// Row `r`'s record under [`wide_cfg`] with every field: what the kernel's
/// dictionaries see of each column — a text field's lowercased rendering,
/// the key's ASCII-folded one, a numeric cell's class or bits. Both
/// blocking keys are functions of the name's and the key's.
fn record(t: &Table, r: usize) -> Vec<String> {
    let cell = |k: usize, v: &Value| match k {
        _ if v.is_null() => "-".to_string(),
        1 => format!("e{}", v.render().to_ascii_lowercase()),
        2 | 5 => match v.as_f64() {
            Some(x) if x.is_finite() => format!("n{:x}", x.to_bits()),
            Some(_) => "nf".into(),
            None => "nn".into(),
        },
        _ => format!("t{}", v.render().to_lowercase()),
    };
    t.row(r)
        .iter()
        .enumerate()
        .map(|(k, v)| cell(k, v))
        .collect()
}

/// The walk of `new` carried from a cold walk of `old` (`old_of`: per row
/// of `new`, the row of `old` with the same cells, or `None`), under `cfg`
/// — every field of [`wide_cfg`] — against the listed oracle and a cold walk
/// of `new`: the same matches, counts and clusters. And what was decided is
/// what touches a class new to the union — all a cold walk decides less
/// what it decides among the records `old` held, in their new order — plus
/// each held class that just reached two rows against itself, plus at most
/// one orientation of each held pair that opened a text field (one the new
/// row order meets for the first time); exactly the first two when nothing
/// opens a text field.
fn check_carried_walk(
    old: &Table,
    new: &Table,
    old_of: &[Option<usize>],
    cfg: &ErConfig,
    workers: usize,
) -> Result<UnionMatches, String> {
    let old_blocks = UnionBlocks::build(old, "name", "sku").unwrap();
    let old_kernel = ErKernel::compile(old, cfg).unwrap();
    let before = old_kernel.decide_union(&old_blocks, 2, None).unwrap();
    let (blocks, block_ids) =
        UnionBlocks::carry(new, "name", "sku", Some((&old_blocks, old_of))).unwrap();
    let (kernel, kernel_ids) = ErKernel::carry(new, cfg, Some((&old_kernel, old_of))).unwrap();
    let prior = PriorWalk {
        blocks: &old_blocks,
        kernel: &old_kernel,
        decided: &before,
        old_of,
        block_ids: &block_ids,
        kernel_ids: &kernel_ids,
    };
    let got = kernel
        .decide_union_exact(&blocks, workers, Some(prior))
        .unwrap();
    let cold = kernel.decide_union_exact(&blocks, 1, None).unwrap();
    let listed = candidates_union(new, "name", "sku").unwrap();
    let want = listed_and_scored(&kernel, &listed);
    prop_assert_eq!(&got.matches(), &want, "workers = {}", workers);
    prop_assert_eq!(
        got.clusters(),
        cluster_pairs(new.num_rows(), want.iter().copied())
    );
    prop_assert_eq!(
        (got.candidates, got.match_pairs, got.num_classes()),
        (listed.len() as u64, want.len() as u64, cold.num_classes())
    );
    prop_assert_eq!(
        got.workers.iter().map(|s| s.items).sum::<u64>(),
        got.decided
    );
    let old_records: BTreeSet<Vec<String>> = (0..old.num_rows()).map(|r| record(old, r)).collect();
    let held: Vec<usize> = (0..new.num_rows())
        .filter(|&r| old_records.contains(&record(new, r)))
        .collect();
    let held_table = Table::from_rows(
        new.schema().clone(),
        held.iter().map(|&r| new.row(r)).collect(),
    )
    .unwrap();
    let among_held = ErKernel::compile(&held_table, cfg)
        .unwrap()
        .decide_union(
            &UnionBlocks::build(&held_table, "name", "sku").unwrap(),
            1,
            None,
        )
        .unwrap();
    let count =
        |t: &Table, rec: &Vec<String>| (0..t.num_rows()).filter(|&r| &record(t, r) == rec).count();
    let keyed = |r: usize| {
        wrangler_resolve::blocking::block_key(&new.row(r)[0]).is_some() || !new.row(r)[1].is_null()
    };
    let grown: BTreeSet<Vec<String>> = held
        .iter()
        .filter(|&&r| keyed(r))
        .map(|&r| record(new, r))
        .filter(|rec| count(old, rec) < 2 && count(new, rec) >= 2)
        .collect();
    let least = cold.decided - among_held.decided + grown.len() as u64;
    let opened_held = among_held.decided - among_held.from_ids;
    prop_assert!(
        least <= got.decided && got.decided <= least + opened_held,
        "decided {} of at least {} (+ {} opened among held records)",
        got.decided,
        least,
        opened_held
    );
    if cold.text_fields == 0 {
        prop_assert_eq!(got.decided, least);
    }
    // A vetoed pair the carried walk skips has a class new to the union.
    prop_assert!(got.pruned <= cold.pruned);
    // A pair not decided is carried or vetoed: with neither, every one.
    prop_assert!(got.covered <= got.candidates);
    if got.decided == 0 && got.pruned == 0 {
        prop_assert_eq!(got.covered, got.candidates);
    }
    Ok(got)
}

proptest! {
    #[test]
    fn union_find_partitions(n in 1usize..60, pairs in prop::collection::vec((0usize..60, 0usize..60), 0..80)) {
        let pairs: Vec<(usize, usize)> =
            pairs.into_iter().filter(|&(a, b)| a < n && b < n).collect();
        let clusters = cluster_pairs(n, pairs.iter().copied());
        // Every element appears exactly once.
        let mut seen = vec![false; n];
        for c in &clusters {
            for &x in c {
                prop_assert!(!seen[x], "element {x} in two clusters");
                seen[x] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
        // All unioned pairs are co-clustered.
        let mut uf = UnionFind::new(n);
        for &(a, b) in &pairs {
            uf.union(a, b);
        }
        for &(a, b) in &pairs {
            prop_assert!(uf.same(a, b));
        }
    }

    #[test]
    fn same_is_equivalence_relation(n in 1usize..30, pairs in prop::collection::vec((0usize..30, 0usize..30), 0..40)) {
        let pairs: Vec<(usize, usize)> =
            pairs.into_iter().filter(|&(a, b)| a < n && b < n).collect();
        let mut uf = UnionFind::new(n);
        for &(a, b) in &pairs {
            uf.union(a, b);
        }
        for x in 0..n {
            prop_assert!(uf.same(x, x)); // reflexive
        }
        for &(a, b) in &pairs {
            prop_assert_eq!(uf.same(a, b), uf.same(b, a)); // symmetric
        }
    }

    #[test]
    fn blocked_candidates_are_subset_of_naive(t in arb_table(25)) {
        let naive: std::collections::HashSet<(usize, usize)> =
            candidates_naive(t.num_rows()).into_iter().collect();
        for p in candidates_blocked(&t, "name").unwrap() {
            prop_assert!(naive.contains(&p), "{p:?} not a valid pair");
        }
    }

    #[test]
    fn record_similarity_is_symmetric_and_bounded(t in arb_table(12)) {
        let cfg = ErConfig {
            fields: vec![
                FieldSim { column: "name".into(), weight: 2.0, kind: SimKind::Text },
                FieldSim { column: "x".into(), weight: 1.0, kind: SimKind::Numeric { scale: 0.5 } },
            ],
            threshold: 0.8,
        };
        let n = t.num_rows();
        for i in 0..n.min(6) {
            for j in 0..n.min(6) {
                let s_ij = record_similarity(&t, i, j, &cfg).unwrap();
                let s_ji = record_similarity(&t, j, i, &cfg).unwrap();
                prop_assert!((s_ij - s_ji).abs() < 1e-12);
                prop_assert!((0.0..=1.0).contains(&s_ij));
                if i == j {
                    // Self-similarity is 1 when any field is comparable.
                    let name_null = t.get(i, 0).unwrap().is_null();
                    let x_null = t.get(i, 1).unwrap().is_null();
                    if !(name_null && x_null) {
                        prop_assert!((s_ij - 1.0).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_kernel_equals_serial_match_pairs(t in arb_messy_table(18), workers in 1usize..9) {
        let cfg = messy_cfg();
        let candidates = candidates_naive(t.num_rows());
        let serial = match_pairs(&t, &candidates, &cfg).unwrap();
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        // `_exact` bypasses the pool-sizing policy so the property exercises
        // real multi-thread blocked reassembly even on a small machine.
        let (scores, stats) = kernel.score_pairs_parallel_exact(&candidates, workers).unwrap();
        let par = kernel.filter_matches(&candidates, &scores);
        prop_assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            prop_assert_eq!((a.i, a.j), (b.i, b.j));
            // Bit-identical, not approximately equal: the parallel kernel
            // must be indistinguishable from the serial reference.
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        prop_assert_eq!(
            stats.iter().map(|s| s.items).sum::<u64>(),
            candidates.len() as u64
        );
        // The policy entry point sizes the pool differently but must score
        // identically.
        let (policy, _) = kernel.score_pairs_parallel(&candidates, workers).unwrap();
        prop_assert_eq!(&kernel.filter_matches(&candidates, &policy), &par);
    }

    #[test]
    fn interned_kernel_equals_record_similarity_on_duplicated_tables(t in arb_duplicated_table(24)) {
        // Every ordered pair, swaps and self-pairs included: the memo key is
        // ordered (no one has shown the text similarity symmetric, so the
        // kernel does not assume it), so `(i, j)` and `(j, i)` must each
        // equal the serial oracle on their own.
        let cfg = duplicated_cfg();
        let n = t.num_rows();
        let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
        let oracle: Vec<u64> = pairs
            .iter()
            .map(|&(i, j)| record_similarity(&t, i, j, &cfg).unwrap().to_bits())
            .collect();
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        for workers in 1usize..=4 {
            let (scores, stats) = kernel.score_pairs_parallel_exact(&pairs, workers).unwrap();
            let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
            prop_assert_eq!(&bits, &oracle, "workers = {}", workers);
            prop_assert_eq!(stats.len(), workers.min(pairs.len()));
        }
        // One-off scoring starts from an empty memo every time.
        for (&(i, j), &want) in pairs.iter().zip(&oracle) {
            prop_assert_eq!(kernel.score(i, j).unwrap().to_bits(), want);
        }
    }

    #[test]
    fn candidates_union_equals_sorted_deduped_blockings(
        t in arb_duplicated_table(30),
        same_column in any::<bool>(),
    ) {
        // With one column for both roles only the prefix blocks apply, and
        // the expectation is `candidates_blocked` as a *set*: that function
        // lists pairs block by block in key order, `candidates_union` always
        // in `(i, j)` order, so the sort below is what makes them comparable.
        let key_col = if same_column { "name" } else { "sku" };
        let mut want = candidates_blocked(&t, "name").unwrap();
        if !same_column {
            want.extend(candidates_blocked_exact(&t, key_col).unwrap());
        }
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(candidates_union(&t, "name", key_col).unwrap(), want);
    }

    #[test]
    fn deciding_in_the_walk_equals_listing_scoring_and_filtering(
        t in arb_wide_table(28),
        mask in any::<u8>(),
        weights in prop::collection::vec(arb_weight(), 6),
        mode in any::<u8>(),
        pick in any::<usize>(),
    ) {
        let pairs = candidates_union(&t, "name", "sku").unwrap();
        let mut cfg = wide_cfg(mask, &weights, 0.0);
        let probe = ErKernel::compile(&t, &cfg).unwrap();
        cfg.threshold = adversarial_threshold(&probe, &cfg, &pairs, mode, pick);
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        let want = listed_and_scored(&kernel, &pairs);
        let blocks = UnionBlocks::build(&t, "name", "sku").unwrap();
        let serial = kernel.decide_union_exact(&blocks, 1, None).unwrap();
        prop_assert_eq!(&serial.matches(), &want, "threshold {:?}", cfg.threshold);
        prop_assert_eq!(serial.candidates, pairs.len() as u64);
        prop_assert_eq!(serial.match_pairs, want.len() as u64);
        prop_assert_eq!(serial.covered, 0);
        prop_assert_eq!(serial.clusters(), cluster_pairs(t.num_rows(), want.iter().copied()));
        prop_assert!(serial.from_ids <= serial.decided);
        // A decision not settled from ids opened a text field.
        prop_assert!(serial.text_fields >= serial.decided - serial.from_ids);
        for workers in [2usize, 3, 7] {
            let wide = kernel.decide_union_exact(&blocks, workers, None).unwrap();
            prop_assert_eq!(&wide.matches(), &want, "workers = {}", workers);
            // What was decided and opened is a function of the class pairs,
            // not of the schedule.
            prop_assert_eq!(
                (wide.candidates, wide.decided, wide.from_ids, wide.text_fields),
                (serial.candidates, serial.decided, serial.from_ids, serial.text_fields)
            );
            prop_assert_eq!(wide.workers.iter().map(|s| s.items).sum::<u64>(), wide.decided);
            prop_assert!(wide.workers.len() <= workers);
            prop_assert!(wide.decided == 0 || wide.workers.iter().all(|s| s.items > 0));
        }
        let policy = kernel.decide_union(&blocks, 4, None).unwrap();
        prop_assert_eq!(&policy.matches(), &want);
        // Carried from a walk of the table itself, with every third row
        // mapped and the rest looked up by their ids: no record is new, so
        // nothing is decided and every candidate is carried.
        let old_of: Vec<Option<usize>> =
            (0..t.num_rows()).map(|r| r.is_multiple_of(3).then_some(r)).collect();
        let (carried_blocks, block_ids) =
            UnionBlocks::carry(&t, "name", "sku", Some((&blocks, &old_of))).unwrap();
        let (carried_kernel, kernel_ids) = ErKernel::carry(&t, &cfg, Some((&kernel, &old_of))).unwrap();
        let prior = PriorWalk {
            blocks: &blocks,
            kernel: &kernel,
            decided: &serial,
            old_of: &old_of,
            block_ids: &block_ids,
            kernel_ids: &kernel_ids,
        };
        let part = carried_kernel.decide_union_exact(&carried_blocks, 2, Some(prior)).unwrap();
        prop_assert_eq!(&part.matches(), &want);
        prop_assert_eq!((part.candidates, part.covered, part.decided), (pairs.len() as u64, pairs.len() as u64, 0));
    }

    #[test]
    fn duplicate_heavy_tables_decide_each_class_pair_once_and_equal_the_oracle(
        t in arb_pooled_table(60),
        mask in any::<u8>(),
        weights in prop::collection::vec(arb_weight(), 6),
        mode in any::<u8>(),
        pick in any::<usize>(),
        same_column in any::<bool>(),
    ) {
        // Classes of up to twenty rows, one with neither blocking key (its
        // rows are nobody's candidates, not even each other's), two told
        // apart by a key alone when the config leaves `sku` out.
        let key_col = if same_column { "name" } else { "sku" };
        let pairs = candidates_union(&t, "name", key_col).unwrap();
        let mut cfg = wide_cfg(mask, &weights, 0.0);
        let probe = ErKernel::compile(&t, &cfg).unwrap();
        cfg.threshold = adversarial_threshold(&probe, &cfg, &pairs, mode, pick);
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        let want = listed_and_scored(&kernel, &pairs);
        let clusters = cluster_pairs(t.num_rows(), want.iter().copied());
        let blocks = UnionBlocks::build(&t, "name", key_col).unwrap();
        let mut decided = None;
        for workers in [1usize, 2, 3, 7] {
            let got = kernel.decide_union_exact(&blocks, workers, None).unwrap();
            prop_assert_eq!(&got.matches(), &want, "workers = {}", workers);
            prop_assert_eq!(got.candidates, pairs.len() as u64);
            prop_assert_eq!(got.match_pairs, want.len() as u64);
            prop_assert_eq!(&got.clusters(), &clusters);
            prop_assert_eq!(got.workers.iter().map(|s| s.items).sum::<u64>(), got.decided);
            prop_assert_eq!(*decided.get_or_insert(got.decided), got.decided);
            // At most six records: at most 6 classes against themselves and
            // 15 class pairs, each in two orientations.
            prop_assert!(got.num_classes() <= 6 && got.decided <= 6 + 2 * 15);
        }
    }

    #[test]
    fn a_carried_walk_equals_a_cold_one_and_decides_only_what_touches_a_new_class(
        old in arb_pooled_table(30),
        fresh in prop::collection::vec(arb_wide_row(), 1..6),
        fates in prop::collection::vec((0u8..3, any::<usize>()), 30),
        weights in prop::collection::vec(arb_weight(), 6),
        mode in any::<u8>(),
        pick in any::<usize>(),
        workers in 1usize..5,
    ) {
        // Replace a random subset of rows: some with a copy of another row
        // of the old table — a record the union held, on a row the carry
        // does not map — and some with a record drawn afresh.
        let n = old.num_rows();
        let (mut rows, mut old_of) = (Vec::new(), Vec::new());
        for (r, &(fate, k)) in fates.iter().take(n).enumerate() {
            let (row, of) = match fate {
                0 => (old.row(r), Some(r)),
                1 => (old.row(k % n), None),
                _ => (fresh[k % fresh.len()].clone(), None),
            };
            rows.push(row);
            old_of.push(of);
        }
        let new = Table::from_rows(old.schema().clone(), rows).unwrap();
        let pairs = candidates_union(&old, "name", "sku").unwrap();
        let mut cfg = wide_cfg(63, &weights, 0.0);
        let probe = ErKernel::compile(&old, &cfg).unwrap();
        cfg.threshold = adversarial_threshold(&probe, &cfg, &pairs, mode, pick);
        check_carried_walk(&old, &new, &old_of, &cfg, workers)?;
    }

    #[test]
    fn a_walk_carried_from_a_carried_walk_equals_the_oracle(
        old in arb_pooled_table(30),
        thin in any::<u8>(),
        grow in prop::collection::vec(any::<bool>(), 1..30),
        weights in prop::collection::vec(arb_weight(), 6),
        mode in any::<u8>(),
        pick in any::<usize>(),
        workers in 1usize..5,
    ) {
        // Two updates. The first keeps only the first row of each record
        // whose bit of `thin` is set: its class shrinks to one row and stays
        // held, carrying its decision against itself. The second copies
        // each row before itself where `grow` says, on a row the carry does
        // not map: a thinned class grows back to two rows and more.
        let mut seen: Vec<Vec<String>> = Vec::new();
        let (mut rows, mut mid_of) = (Vec::new(), Vec::new());
        for r in 0..old.num_rows() {
            let rec = record(&old, r);
            let keep = match seen.iter().position(|s| s == &rec) {
                None => {
                    seen.push(rec);
                    true
                }
                Some(k) => thin >> k & 1 == 0,
            };
            if keep {
                rows.push(old.row(r));
                mid_of.push(Some(r));
            }
        }
        let mid = Table::from_rows(old.schema().clone(), rows).unwrap();
        let (mut rows, mut new_of) = (Vec::new(), Vec::new());
        for r in 0..mid.num_rows() {
            if grow[r % grow.len()] {
                rows.push(mid.row(r));
                new_of.push(None);
            }
            rows.push(mid.row(r));
            new_of.push(Some(r));
        }
        let new = Table::from_rows(old.schema().clone(), rows).unwrap();
        let pairs = candidates_union(&old, "name", "sku").unwrap();
        let mut cfg = wide_cfg(63, &weights, 0.0);
        let probe = ErKernel::compile(&old, &cfg).unwrap();
        cfg.threshold = adversarial_threshold(&probe, &cfg, &pairs, mode, pick);
        let blocks = UnionBlocks::build(&old, "name", "sku").unwrap();
        let kernel = ErKernel::compile(&old, &cfg).unwrap();
        let mut walk = kernel.decide_union(&blocks, 2, None).unwrap();
        let (mut blocks, mut kernel) = (blocks, kernel);
        for (t, old_of) in [(&mid, &mid_of), (&new, &new_of)] {
            let (next_blocks, block_ids) =
                UnionBlocks::carry(t, "name", "sku", Some((&blocks, old_of))).unwrap();
            let (next_kernel, kernel_ids) = ErKernel::carry(t, &cfg, Some((&kernel, old_of))).unwrap();
            let prior = PriorWalk {
                blocks: &blocks,
                kernel: &kernel,
                decided: &walk,
                old_of,
                block_ids: &block_ids,
                kernel_ids: &kernel_ids,
            };
            let next = next_kernel
                .decide_union_exact(&next_blocks, workers, Some(prior))
                .unwrap();
            let listed = candidates_union(t, "name", "sku").unwrap();
            let want = listed_and_scored(&next_kernel, &listed);
            prop_assert_eq!(&next.matches(), &want, "workers = {}", workers);
            prop_assert_eq!(
                (next.candidates, next.match_pairs),
                (listed.len() as u64, want.len() as u64)
            );
            prop_assert_eq!(next.clusters(), cluster_pairs(t.num_rows(), want.iter().copied()));
            prop_assert_eq!(next.workers.iter().map(|s| s.items).sum::<u64>(), next.decided);
            (blocks, kernel, walk) = (next_blocks, next_kernel, next);
        }
    }

    #[test]
    fn a_vetoing_key_leaves_the_walk_equal_to_the_oracle(
        t in arb_vetoed_table(40),
        mask in any::<u8>(),
        weights in prop::collection::vec(arb_weight(), 6),
        bad in 0usize..6,
        at in 0usize..6,
        side in 0usize..3,
        key_col in 0usize..3,
    ) {
        // `sku` always in the config, at a threshold one ulp under the line,
        // on it, or one over; in a third of the cases one weight negative or
        // infinite, which proves nothing. Blocked on the key, on a text
        // column (the exact field is off the full-key column), or on the
        // name alone (no full key).
        let mut weights = weights;
        if bad < 2 {
            weights[at] = [-1.0, f64::INFINITY][bad];
        }
        let mut cfg = wide_cfg(mask | 2, &weights, 0.0);
        let line = veto_line(&cfg);
        cfg.threshold = [line.next_down(), line, line.next_up()][side];
        let key_col = ["sku", "brand", "name"][key_col];
        let pairs = candidates_union(&t, "name", key_col).unwrap();
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        let want = listed_and_scored(&kernel, &pairs);
        let clusters = cluster_pairs(t.num_rows(), want.iter().copied());
        let blocks = UnionBlocks::build(&t, "name", key_col).unwrap();
        let serial = kernel.decide_union_exact(&blocks, 1, None).unwrap();
        for workers in [1usize, 2, 3, 7] {
            let got = kernel.decide_union_exact(&blocks, workers, None).unwrap();
            prop_assert_eq!(&got.matches(), &want, "workers = {}, threshold {:?}", workers, cfg.threshold);
            prop_assert_eq!(&got.clusters(), &clusters);
            prop_assert_eq!(
                (got.candidates, got.match_pairs, got.covered),
                (pairs.len() as u64, want.len() as u64, 0)
            );
            prop_assert_eq!(got.workers.iter().map(|s| s.items).sum::<u64>(), got.decided);
            prop_assert_eq!((got.decided, got.pruned), (serial.decided, serial.pruned));
        }
        // Nothing is vetoed on or under the line, outside the premise, or
        // without the exact field on the full-key column.
        if side < 2 || bad < 2 || key_col != "sku" {
            prop_assert_eq!(serial.pruned, 0);
        }
    }

    #[test]
    fn a_carried_walk_under_a_vetoing_key_equals_the_oracle(
        old in arb_vetoed_table(30),
        fresh in arb_vetoed_table(8),
        cuts in prop::collection::vec(any::<bool>(), 30),
        fates in prop::collection::vec(0u8..4, 30),
        mode in 0u8..3,
        rotate in any::<bool>(),
        weights in prop::collection::vec(arb_weight(), 6),
        side in 0usize..3,
        workers in 1usize..5,
    ) {
        // The carried walk skips the vetoed pairs of its new classes, before
        // and after them, around the line as above.
        let up = update(&old, &fresh, &cuts, &fates_for(mode, fates), rotate);
        let mut cfg = wide_cfg(63, &weights, 0.0);
        let line = veto_line(&cfg);
        cfg.threshold = [line.next_down(), line, line.next_up()][side];
        check_carried_walk(&old, &up.new, &up.old_of, &cfg, workers)?;
    }

    #[test]
    fn every_field_similarity_lies_in_the_unit_interval(t in arb_wide_table(16)) {
        // The premise of the bound: a one-field config's score *is* that
        // field's similarity (weight 1: `1.0 * s / 1.0`), or 0.0 when the
        // field is skipped. Never NaN, never outside [0, 1] — for NaN, ±∞
        // and text payloads under a numeric comparator too.
        for (k, _) in WIDE_KINDS.iter().enumerate() {
            let cfg = wide_cfg(1 << k, &[1.0; 6], 0.5);
            let kernel = ErKernel::compile(&t, &cfg).unwrap();
            let n = t.num_rows();
            for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                let s = kernel.score(i, j).unwrap();
                prop_assert!((0.0..=1.0).contains(&s), "field {k} pair ({i}, {j}): {s}");
            }
        }
    }

    #[test]
    fn weights_outside_the_premise_decide_through_the_exact_score(
        t in arb_wide_table(24),
        bad in 0usize..4,
        at in 0usize..6,
        mode in any::<u8>(),
        pick in any::<usize>(),
    ) {
        // A negative, NaN or infinite weight — or finite ones whose sum is
        // not: no bracket holds, so every field is opened and the decision
        // is `score ≥ threshold` on the exact score.
        let mut weights = [1.0, 2.0, 0.5, 3.0, 1.0, 0.25];
        weights[at] = [-1.0, f64::NAN, f64::INFINITY, f64::MAX][bad];
        if bad == 3 {
            weights[(at + 1) % 6] = f64::MAX;
        }
        let pairs = candidates_union(&t, "name", "sku").unwrap();
        let mut cfg = wide_cfg(63, &weights, 0.0);
        let probe = ErKernel::compile(&t, &cfg).unwrap();
        cfg.threshold = adversarial_threshold(&probe, &cfg, &pairs, mode, pick);
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        // The uncompiled serial path is the oracle here.
        let serial = match_pairs(&t, &pairs, &cfg).unwrap();
        let want: Vec<(usize, usize)> = serial.iter().map(|p| (p.i, p.j)).collect();
        let blocks = UnionBlocks::build(&t, "name", "sku").unwrap();
        for workers in [1usize, 3] {
            let got = kernel.decide_union_exact(&blocks, workers, None).unwrap();
            prop_assert_eq!(&got.matches(), &want, "weights {:?}", weights);
        }
    }

    #[test]
    fn the_walk_covers_the_candidate_list_and_strips_share_the_class_pairs(
        t in arb_duplicated_table(30),
        same_column in any::<bool>(),
        workers in 1usize..9,
    ) {
        // At threshold 0 every candidate matches: the matches the walk
        // expands to are the candidate list, whatever the strips.
        let key_col = if same_column { "name" } else { "sku" };
        let listed = candidates_union(&t, "name", key_col).unwrap();
        prop_assert!(listed.windows(2).all(|p| p[0] < p[1]), "sorted, no duplicate");
        let cfg = ErConfig { threshold: 0.0, ..duplicated_cfg() };
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        let blocks = UnionBlocks::build(&t, "name", key_col).unwrap();
        let got = kernel.decide_union_exact(&blocks, workers, None).unwrap();
        prop_assert_eq!(got.matches(), listed.clone());
        prop_assert_eq!((got.candidates, got.match_pairs), (listed.len() as u64, listed.len() as u64));
        prop_assert!(got.workers.len() <= workers);
        prop_assert_eq!(got.workers.iter().map(|s| s.items).sum::<u64>(), got.decided);
        // Not empty of work either: with a pair anywhere, each strip has one.
        prop_assert!(listed.is_empty() || got.workers.iter().all(|s| s.items > 0));
        prop_assert!(got.decided as usize <= listed.len() + got.num_classes());
    }

    #[test]
    fn candidates_restricted_to_surviving_rows(
        old in arb_duplicated_table(24),
        fresh in arb_duplicated_table(24),
        fates in prop::collection::vec(0u8..3, 24),
    ) {
        // The invariant the incremental engine's ER carry rests on: whether
        // (i, j) is a candidate depends on rows i and j alone. Each row of
        // `old` survives (fate 0), is replaced by a row of `fresh` (1) or is
        // deleted (2); among the survivors the candidates must be the old
        // ones, re-indexed. A block-size cap or a windowed strategy in
        // `candidates_union` would fail here, not as a byte-identity
        // mismatch after a source update.
        let mut rows = Vec::new();
        let mut new_of = vec![None; old.num_rows()];
        for (r, fate) in fates.iter().take(old.num_rows()).enumerate() {
            match fate {
                0 => {
                    new_of[r] = Some(rows.len());
                    rows.push(old.row(r));
                }
                1 => rows.push(fresh.row(r % fresh.num_rows())),
                _ => {}
            }
        }
        let survivors: Vec<usize> = new_of.iter().flatten().copied().collect();
        let new = Table::from_rows(old.schema().clone(), rows).unwrap();
        let want: Vec<(usize, usize)> = candidates_union(&old, "name", "sku")
            .unwrap()
            .into_iter()
            .filter_map(|(i, j)| Some((new_of[i]?, new_of[j]?)))
            .collect();
        let got: Vec<(usize, usize)> = candidates_union(&new, "name", "sku")
            .unwrap()
            .into_iter()
            .filter(|(a, b)| survivors.contains(a) && survivors.contains(b))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn carried_blocks_and_kernel_equal_a_cold_build_of_the_new_union(
        old in arb_duplicated_table(24),
        fresh in arb_duplicated_table(12),
        cuts in prop::collection::vec(any::<bool>(), 24),
        fates in prop::collection::vec(0u8..4, 24),
        fates2 in prop::collection::vec(0u8..4, 24),
        modes in (0u8..3, 0u8..3),
        rotate in (any::<bool>(), any::<bool>()),
        same_column in any::<bool>(),
    ) {
        // Structurally, not just in what they answer: the same key and
        // dictionary ids in the same first-appearance order, the same block
        // members. Then once more from the carried build: a carry of a carry.
        let key_col = if same_column { "name" } else { "sku" };
        let cfg = duplicated_cfg();
        let mut blocks = UnionBlocks::build(&old, "name", key_col).unwrap();
        let mut kernel = ErKernel::compile(&old, &cfg).unwrap();
        let mid = update(&old, &fresh, &cuts, &fates_for(modes.0, fates), rotate.0);
        let new = update(&mid.new, &fresh, &cuts[3..], &fates_for(modes.1, fates2), rotate.1);
        for step in [mid, new] {
            let (t, old_of) = (&step.new, &step.old_of[..]);
            let carried_blocks = UnionBlocks::carry(t, "name", key_col, Some((&blocks, old_of)));
            let carried_blocks = carried_blocks.unwrap().0;
            prop_assert_eq!(&carried_blocks, &UnionBlocks::build(t, "name", key_col).unwrap());
            let carried_kernel = ErKernel::carry(t, &cfg, Some((&kernel, old_of))).unwrap().0;
            prop_assert_eq!(&carried_kernel, &ErKernel::compile(t, &cfg).unwrap());
            (blocks, kernel) = (carried_blocks, carried_kernel);
        }
    }

    #[test]
    fn walking_a_carried_union_equals_the_full_walk_without_the_carried_pairs(
        old in arb_wide_table(24),
        fresh in arb_wide_table(12),
        cuts in prop::collection::vec(any::<bool>(), 24),
        fates in prop::collection::vec(0u8..4, 24),
        mode in 0u8..3,
        rotate in any::<bool>(),
        weights in prop::collection::vec(arb_weight(), 6),
        threshold in 0usize..4,
    ) {
        // Whole blocks kept, replaced, deleted, resized or moved, as a
        // union's sources are: the carried walk decides what a full walk
        // decides less the pairs of records the old union held.
        let up = update(&old, &fresh, &cuts, &fates_for(mode, fates), rotate);
        let cfg = wide_cfg(63, &weights, [0.0, 0.5, 0.85, 1.0][threshold]);
        for workers in 1usize..=4 {
            check_carried_walk(&old, &up.new, &up.old_of, &cfg, workers)?;
        }
    }

    #[test]
    fn parallel_kernel_handles_more_workers_than_pairs(t in arb_messy_table(4), extra in 1usize..9) {
        // Worker counts exceeding the pair count must cap, not idle or panic.
        let cfg = messy_cfg();
        let candidates = candidates_naive(t.num_rows());
        let workers = candidates.len() + extra;
        let serial = match_pairs(&t, &candidates, &cfg).unwrap();
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        let (scores, stats) = kernel.score_pairs_parallel_exact(&candidates, workers).unwrap();
        let par = kernel.filter_matches(&candidates, &scores);
        prop_assert_eq!(serial.len(), par.len());
        for (a, b) in serial.iter().zip(&par) {
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        prop_assert_eq!(stats.len(), candidates.len().min(workers));
        prop_assert!(stats.iter().all(|s| s.items > 0), "idle worker spawned");
    }

    #[test]
    fn non_finite_inputs_never_produce_non_finite_scores(t in arb_messy_table(12)) {
        let cfg = messy_cfg();
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        for (i, j) in candidates_naive(t.num_rows()) {
            let s = kernel.score(i, j).unwrap();
            let r = record_similarity(&t, i, j, &cfg).unwrap();
            prop_assert!(s.is_finite(), "kernel score not finite: {s}");
            prop_assert!((0.0..=1.0).contains(&s), "out of range: {s}");
            prop_assert_eq!(s.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn sorted_neighborhood_is_subset_of_naive_with_null_free_endpoints(
        t in arb_messy_table(20),
        window in 2usize..6,
    ) {
        let naive: std::collections::HashSet<(usize, usize)> =
            candidates_naive(t.num_rows()).into_iter().collect();
        for (i, j) in candidates_sorted_neighborhood(&t, "name", window).unwrap() {
            prop_assert!(naive.contains(&(i, j)), "{i},{j} not a valid pair");
            prop_assert!(!t.get(i, 0).unwrap().is_null(), "null row {i} compared");
            prop_assert!(!t.get(j, 0).unwrap().is_null(), "null row {j} compared");
        }
    }

    #[test]
    fn clustering_is_invariant_under_candidate_order(t in arb_messy_table(16), seed in any::<u64>()) {
        let cfg = messy_cfg();
        let kernel = ErKernel::compile(&t, &cfg).unwrap();
        let candidates = candidates_naive(t.num_rows());
        let pairs = listed_and_scored(&kernel, &candidates);
        let base = normalize(cluster_pairs(t.num_rows(), pairs));
        // Deterministic Fisher–Yates driven by a splitmix64 stream.
        let mut shuffled = candidates;
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for k in (1..shuffled.len()).rev() {
            let r = (next() % (k as u64 + 1)) as usize;
            shuffled.swap(k, r);
        }
        let pairs2 = listed_and_scored(&kernel, &shuffled);
        let alt = normalize(cluster_pairs(t.num_rows(), pairs2));
        prop_assert_eq!(base, alt);
    }

    #[test]
    fn identical_rows_always_cluster(name in arb_name(), copies in 2usize..6) {
        let rows: Vec<Vec<Value>> =
            (0..copies).map(|_| vec![Value::from(name.clone()), Value::Int(1)]).collect();
        let t = Table::literal(&["name", "x"], rows).unwrap();
        let cfg = ErConfig::text_over(&["name"], 0.95);
        let clusters = wrangler_resolve::resolve(&t, "name", &cfg).unwrap();
        prop_assert_eq!(clusters.len(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn strips_that_grow_their_memos_at_different_pairs_decide_what_one_worker_decides(
        names in prop::collection::vec(0usize..300, 400),
        workers in 2usize..5,
    ) {
        // One name block of 400 rows over at most 300 names — a class per
        // name — every class pair opened (a text-only config brackets
        // [0, 1]). Each strip owns its memo: it meets its own 769th distinct
        // value pair — the first rehash — at a pair no other strip does,
        // and replays from a table no other strip filled.
        let rows = names
            .iter()
            .map(|k| vec![Value::from(format!("widget {} mk{k}", k * 37 % 101))]);
        let t = Table::literal(&["name"], rows.collect()).unwrap();
        let blocks = UnionBlocks::build(&t, "name", "name").unwrap();
        let kernel = ErKernel::compile(&t, &ErConfig::text_over(&["name"], 0.9)).unwrap();
        let serial = kernel.decide_union_exact(&blocks, 1, None).unwrap();
        let wide = kernel.decide_union_exact(&blocks, workers, None).unwrap();
        // The fixture's premise, per strip: enough decisions — each one of
        // a distinct ordered pair of names — for the memo's bound to allow a
        // rehash and to force one.
        prop_assert_eq!(wide.workers.len(), workers);
        for w in &wide.workers {
            prop_assert!(w.items >= 2048, "{} decisions", w.items);
        }
        // Only a class against itself is settled from ids.
        prop_assert!(serial.from_ids as usize <= serial.num_classes());
        let matched = serial.match_pairs;
        prop_assert!(0 < matched && matched < serial.candidates, "{matched} matches");
        prop_assert_eq!(&wide.matches(), &serial.matches());
        prop_assert_eq!(
            (wide.candidates, wide.decided, wide.from_ids, wide.text_fields),
            (serial.candidates, serial.decided, serial.from_ids, serial.text_fields)
        );
    }
}
