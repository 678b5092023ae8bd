//! Property tests for entity resolution: union-find laws, blocking
//! soundness, similarity bounds.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wrangler_resolve::{
    candidates_blocked, candidates_blocked_exact, candidates_naive, candidates_sorted_neighborhood,
    candidates_union, cluster_pairs, match_pairs, record_similarity, ErConfig, ErKernel, FieldSim,
    SimKind, UnionBlocks, UnionFind,
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

/// Six columns for the decision property: two pooled text columns and a
/// short one, a key, two messy numerics — nulls everywhere.
fn arb_wide_table(rows: usize) -> impl Strategy<Value = Table> {
    let brand = (0usize..4).prop_map(|k| ["Acme", "ACME", "Bölt", "bolt"][k]);
    let text = (
        prop::option::of(arb_pooled_name()),
        prop::option::of(brand),
        prop::option::of(arb_pooled_name()),
    );
    let key = (0usize..4).prop_map(|k| ["SKU-1", "sku-1", "SKU-2", "ß4"][k]);
    let rest = (prop::option::of(key), arb_messy_value(), arb_messy_value());
    prop::collection::vec((text, rest), 1..=rows).prop_map(|rs| {
        let text = |v: Option<&str>| v.map(Value::from).unwrap_or(Value::Null);
        let rows = rs
            .into_iter()
            .map(|((name, brand, note), (sku, x, y))| {
                vec![
                    text(name.as_deref()),
                    text(sku),
                    x,
                    text(brand),
                    text(note.as_deref()),
                    y,
                ]
            })
            .collect();
        Table::literal(&["name", "sku", "x", "brand", "note", "y"], rows).expect("aligned")
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

/// Canonical form of a clustering: rows sorted within clusters, clusters
/// sorted by content.
fn normalize(mut clusters: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort_unstable();
    clusters
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
        // ordered (Jaro's greedy matching is not symmetric), so `(i, j)` and
        // `(j, i)` must each equal the serial oracle on their own.
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
        let serial = kernel.decide_union_exact(&blocks, 1, |_, _| false).unwrap();
        prop_assert_eq!(&serial.matches, &want, "threshold {:?}", cfg.threshold);
        prop_assert_eq!(serial.candidates, pairs.len() as u64);
        prop_assert_eq!(serial.covered, 0);
        prop_assert!(serial.from_ids <= serial.candidates);
        // A pair not settled from ids opened a text field.
        prop_assert!(serial.text_fields >= serial.candidates - serial.from_ids);
        for workers in [2usize, 3, 7] {
            let wide = kernel.decide_union_exact(&blocks, workers, |_, _| false).unwrap();
            prop_assert_eq!(&wide.matches, &want, "workers = {}", workers);
            // What was opened is a function of the pairs, not of the schedule.
            prop_assert_eq!(
                (wide.candidates, wide.from_ids, wide.text_fields),
                (serial.candidates, serial.from_ids, serial.text_fields)
            );
            prop_assert_eq!(wide.workers.iter().map(|s| s.items).sum::<u64>(), wide.candidates);
            prop_assert!(wide.workers.len() <= workers);
            prop_assert!(pairs.is_empty() || wide.workers.iter().all(|s| s.items > 0));
        }
        let policy = kernel.decide_union(&blocks, 4, |_, _| false).unwrap();
        prop_assert_eq!(&policy.matches, &want);
        // A covered pair is walked and counted, never decided.
        let covered = |i: usize, j: usize| (i + j).is_multiple_of(3);
        let rest: Vec<(usize, usize)> =
            pairs.iter().copied().filter(|&(i, j)| !covered(i, j)).collect();
        let part = kernel.decide_union_exact(&blocks, 2, covered).unwrap();
        prop_assert_eq!(&part.matches, &listed_and_scored(&kernel, &rest));
        prop_assert_eq!(part.candidates, pairs.len() as u64);
        prop_assert_eq!(part.covered, (pairs.len() - rest.len()) as u64);
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
            let got = kernel.decide_union_exact(&blocks, workers, |_, _| false).unwrap();
            prop_assert_eq!(&got.matches, &want, "weights {:?}", weights);
        }
    }

    #[test]
    fn the_walk_yields_the_candidate_list_and_strips_partition_the_rows(
        t in arb_duplicated_table(30),
        same_column in any::<bool>(),
        workers in 1usize..9,
    ) {
        let key_col = if same_column { "name" } else { "sku" };
        let blocks = UnionBlocks::build(&t, "name", key_col).unwrap();
        let listed = candidates_union(&t, "name", key_col).unwrap();
        prop_assert_eq!(blocks.pairs().collect::<Vec<_>>(), listed.clone());
        prop_assert!(listed.windows(2).all(|p| p[0] < p[1]), "sorted, no duplicate");
        prop_assert!(blocks.pair_bound() >= listed.len());
        let strips = blocks.strips(workers);
        prop_assert!(strips.len() <= workers);
        let mut next = 0;
        for strip in &strips {
            prop_assert_eq!(strip.start, next);
            prop_assert!(!strip.is_empty());
            // Not empty of work either: with a pair anywhere, each strip has one.
            let walked = strip.clone().map(|i| blocks.partners(i).count()).sum::<usize>();
            prop_assert!(listed.is_empty() || walked > 0, "strip {:?} walks nothing", strip);
            next = strip.end;
        }
        prop_assert_eq!(next, t.num_rows());
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
        names in prop::collection::vec(0usize..90, 140),
        workers in 2usize..5,
    ) {
        // One name block of 140 rows over at most 90 names, every pair of
        // different names opened (a text-only config brackets [0, 1]). Each
        // strip owns its memo: it meets its own 769th distinct value pair —
        // the first rehash — at a pair no other strip does, and replays
        // from a table no other strip filled.
        let rows = names
            .iter()
            .map(|k| vec![Value::from(format!("widget {} mk{k}", k * 37 % 101))]);
        let t = Table::literal(&["name"], rows.collect()).unwrap();
        let blocks = UnionBlocks::build(&t, "name", "name").unwrap();
        let kernel = ErKernel::compile(&t, &ErConfig::text_over(&["name"], 0.9)).unwrap();
        // The fixture's premise, per strip: enough pairs for the memo's bound
        // to allow a rehash, enough distinct value pairs to force one.
        let strips = blocks.strips(workers);
        prop_assert_eq!(strips.len(), workers);
        for rows in strips {
            let pairs = rows.flat_map(|i| blocks.partners(i).map(move |j| (i, j)));
            let values: Vec<_> = pairs.map(|(i, j)| (names[i], names[j])).collect();
            let distinct: BTreeSet<_> = values.iter().filter(|(a, b)| a != b).collect();
            prop_assert!(
                values.len() >= 2048 && distinct.len() > 768,
                "{} pairs, {} distinct",
                values.len(),
                distinct.len()
            );
        }
        let serial = kernel.decide_union_exact(&blocks, 1, |_, _| false).unwrap();
        let wide = kernel.decide_union_exact(&blocks, workers, |_, _| false).unwrap();
        let matched = serial.matches.len() as u64;
        prop_assert!(0 < matched && matched < serial.candidates, "{matched} matches");
        prop_assert_eq!(&wide.matches, &serial.matches);
        prop_assert_eq!(
            (wide.candidates, wide.from_ids, wide.text_fields),
            (serial.candidates, serial.from_ids, serial.text_fields)
        );
    }
}
