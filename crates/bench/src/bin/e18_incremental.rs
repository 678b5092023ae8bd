//! E18 — incremental rewrangling: update k of 40 sources, pay less than a
//! cold pass while few are dirty, byte-identically (§4.2 "pay-as-you-go",
//! §2.2 reuse).
//!
//! Real source fleets churn one feed at a time: a provider ships a corrected
//! price file while the other 39 sources are untouched. Claim under test:
//! the session's per-source-partition memoization recomputes only the dirty
//! partitions — clean union blocks replay from memos, and ER decides only
//! the pairs of record classes new to the union: a clean row keeps its class,
//! a re-delivered row whose record the union held joins that class, and a
//! class pair of two held records is carried from the ER memo's class pairs
//! instead of being decided — while the delivered table stays
//! byte-identical (`f64::to_bits`, canonical table hash) to a cold session
//! that never memoized anything.
//!
//! Protocol: one warm 40-source session per update count k ∈
//! {0, 1, 2, 4, 8, 20, 40}; after a cold first pass, k sources receive a
//! deterministically nudged payload via `update_source`, and the follow-up
//! pass is timed (best of 3, cloning the post-update state per rep so every
//! rep replays the same memo state). The cold comparator is a clone of the
//! *same* post-update state with the incremental engine disabled — which
//! drops every stage memo, so it recomputes from scratch exactly as a
//! pre-incremental session would on a source update. The user context is
//! completeness-dominant on purpose:
//! all-relevant selection keeps the selected set stable when an update
//! bumps a source's freshness — under marginal-gain selection the fleet
//! legitimately reshuffles and a partition comparison would be meaningless
//! (DESIGN.md §16). `--counts` prints the deterministic half (k=1 pass
//! counters + outcome fingerprint) for CI double-run diffing. A full run
//! writes `BENCH_e18.json`; `scripts/check_e18_incremental.py` gates the
//! k=0, k=1 and k=40 ratios, the k=1 block reuse, the identity column, the
//! share of k=1 candidate pairs the ER memo carried, the class pairs the
//! k=1 walk decided as a share of those the cold comparator's walk decided
//! (`er.walk.visited` on both sides), and that the k=0 walk decides none
//! while the carry covers every candidate.
//!
//! `lint-allow:` exemptions follow the experiment-binary convention:
//! drivers may panic on their own fixtures.

use std::time::Instant;

use wrangler_bench::{default_fleet_config, fleet, header, row, session};
use wrangler_context::UserContext;
use wrangler_core::{WrangleOutcome, Wrangler};
use wrangler_sources::{SourceId, SyntheticFleet};
use wrangler_table::{wire, Table, Value};

const SEED: u64 = 1807;
const TIMING_REPS: usize = 3;
const UPDATE_COUNTS: [usize; 7] = [0, 1, 2, 4, 8, 20, 40];
/// incr/cold ceiling at k=1; `scripts/check_e18_incremental.py` is the gate
/// and records where the number comes from.
const RATIO_LIMIT: f64 = 0.60;

fn e18_fleet() -> SyntheticFleet {
    let mut cfg = default_fleet_config();
    cfg.num_products = 100;
    cfg.num_sources = 40;
    fleet(&cfg, SEED)
}

fn build(f: &SyntheticFleet) -> Wrangler {
    session(f, UserContext::completeness_first())
}

/// Deterministic provider update: the first numeric/string cell nudged,
/// same schema.
fn nudged(table: &Table) -> Table {
    let schema = table.schema().clone();
    let mut cols: Vec<Vec<Value>> = (0..table.num_columns())
        .map(|i| table.column(i).unwrap().to_vec()) // lint-allow: fixture shape
        .collect();
    'outer: for col in cols.iter_mut() {
        for v in col.iter_mut() {
            match v {
                Value::Float(f) => {
                    *f += 1.0;
                    break 'outer;
                }
                Value::Int(n) => {
                    *n += 1;
                    break 'outer;
                }
                Value::Str(s) => {
                    s.push_str(" v2");
                    break 'outer;
                }
                _ => {}
            }
        }
    }
    Table::from_columns(schema, cols).expect("same shape") // lint-allow: fixture shape
}

/// Everything "byte-identical" covers: the delivered table plus the shape
/// facts a reader would notice.
fn fingerprint(out: &WrangleOutcome) -> (u64, String) {
    let state = format!(
        "sel={:?} skip={:?} ent={} util={}",
        out.selected_sources,
        out.skipped_sources,
        out.entities,
        out.utility.to_bits(),
    );
    (wire::table_hash(&out.table), state)
}

/// A warm session one cold pass in, with the first k sources (selected
/// first, so k=1 always dirties a live partition) updated. Returns the
/// session and the first pass's counter snapshot (counters are cumulative;
/// deltas against this snapshot isolate the incremental pass).
fn warmed_and_updated(
    f: &SyntheticFleet,
    k: usize,
) -> (Wrangler, std::collections::BTreeMap<String, u64>) {
    let mut w = build(f);
    let first = w.wrangle().expect("cold first pass"); // lint-allow: experiment fixture
    let mut order: Vec<SourceId> = first.selected_sources.clone();
    for i in 0..f.registry.len() {
        let id = SourceId(i as u32);
        if !order.contains(&id) {
            order.push(id);
        }
    }
    for id in order.into_iter().take(k) {
        let t = nudged(&f.registry.get(id).expect("fixture source").table); // lint-allow: experiment fixture
        assert!(w.update_source(id, t).expect("update applies")); // lint-allow: experiment fixture
    }
    (w, first.metrics.counts)
}

fn main() {
    if std::env::args().any(|a| a == "--counts") {
        // Deterministic half: cold pass, 1-source update, incremental pass;
        // print the session's counters + outcome fingerprint. CI double-runs
        // this and diffs the output byte-for-byte.
        let f = e18_fleet();
        let (mut w, _) = warmed_and_updated(&f, 1);
        let out = w.wrangle().expect("incremental pass"); // lint-allow: experiment fixture
        let (th, st) = fingerprint(&out);
        print!("{}", out.metrics.render_counts());
        println!("table_hash={th:016x}");
        println!("state={st}");
        return;
    }

    println!("E18: update k of 40 sources, rewrangle incrementally vs cold");
    println!("(per k: 1 cold warm-up pass, k payload updates, then the follow-up pass");
    println!(" timed best-of-{TIMING_REPS}; cold comparator = same state, every memo dropped)\n");

    let f = e18_fleet();
    let widths = [4, 10, 10, 7, 10, 10, 9, 9, 10];
    println!(
        "{}",
        header(
            &[
                "k",
                "cold(ms)",
                "incr(ms)",
                "ratio",
                "blk reuse",
                "remapped",
                "visited%",
                "bytes%",
                "identical"
            ],
            &widths
        )
    );

    let mut rows_json: Vec<String> = Vec::new();
    let mut ratio_at_1 = f64::NAN;
    let mut all_identical = true;
    let mut candidates_at_1 = 0;
    let mut remap_share = f64::NAN;
    for k in UPDATE_COUNTS {
        let (base, snap) = warmed_and_updated(&f, k);
        // Timed incremental reps: clone the post-update state so every rep
        // starts from the same memos.
        let mut incr_secs = f64::INFINITY;
        let mut warm_out = None;
        for _ in 0..TIMING_REPS {
            let mut w = base.clone();
            let t = Instant::now();
            let out = std::hint::black_box(w.wrangle().expect("incremental pass")); // lint-allow: experiment fixture
            incr_secs = incr_secs.min(t.elapsed().as_secs_f64());
            warm_out = Some(out);
        }
        let mut cold_secs = f64::INFINITY;
        let mut cold_out = None;
        for _ in 0..TIMING_REPS {
            let mut w = base.clone();
            w.set_incr_enabled(false);
            let t = Instant::now();
            let out = std::hint::black_box(w.wrangle().expect("cold pass")); // lint-allow: experiment fixture
            cold_secs = cold_secs.min(t.elapsed().as_secs_f64());
            cold_out = Some(out);
        }
        let warm_out = warm_out.expect("reps ran"); // lint-allow: experiment fixture
        let cold_out = cold_out.expect("reps ran"); // lint-allow: experiment fixture
        let identical = fingerprint(&warm_out) == fingerprint(&cold_out);
        all_identical &= identical;
        let ratio = incr_secs / cold_secs;
        let delta = |key: &str| {
            warm_out.metrics.counts.get(key).copied().unwrap_or(0)
                - snap.get(key).copied().unwrap_or(0)
        };
        let blocks_reused = delta("incr.union.reused");
        let remapped = delta("incr.er.pairs_remapped");
        let candidates = delta("er.candidates");
        let visited = delta("er.walk.visited");
        let cold_visited = cold_out
            .metrics
            .counts
            .get("er.walk.visited")
            .copied()
            .unwrap_or(0)
            - snap.get("er.walk.visited").copied().unwrap_or(0);
        let visited_pct = 100.0 * visited as f64 / cold_visited.max(1) as f64;
        if k == 1 {
            ratio_at_1 = ratio;
            candidates_at_1 = candidates;
            remap_share = remapped as f64 / candidates_at_1.max(1) as f64;
        }
        let bytes_scanned = delta("scan.bytes");
        let bytes_skipped = delta("incr.union.bytes_skipped");
        let bytes_pct = if bytes_scanned + bytes_skipped > 0 {
            100.0 * bytes_skipped as f64 / (bytes_scanned + bytes_skipped) as f64
        } else {
            0.0
        };
        println!(
            "{}",
            row(
                &[
                    format!("{k}"),
                    format!("{:.2}", 1e3 * cold_secs),
                    format!("{:.2}", 1e3 * incr_secs),
                    format!("{ratio:.3}"),
                    format!("{blocks_reused}"),
                    format!("{remapped}"),
                    format!("{visited_pct:.1}"),
                    format!("{bytes_pct:.1}"),
                    if identical { "yes" } else { "NO" }.to_string(),
                ],
                &widths
            )
        );
        rows_json.push(format!(
            "{{\"k\":{k},\"cold_secs\":{cold_secs:.6},\"incr_secs\":{incr_secs:.6},\
             \"ratio\":{ratio:.4},\"blocks_reused\":{blocks_reused},\
             \"pairs_remapped\":{remapped},\"candidates\":{candidates},\
             \"visited\":{visited},\"cold_visited\":{cold_visited},\
             \"bytes_skipped_pct\":{bytes_pct:.2},\
             \"identical\":{identical}}}"
        ));
    }

    let verdict_ratio = ratio_at_1 <= RATIO_LIMIT;
    let verdict_remap = remap_share >= 0.90;
    println!(
        "\nverdict: 1-source update costs {:.0}% of cold ({} the {:.0}% ceiling); \
         outputs {}; {:.1}% of k=1 candidate pairs remapped ({} the 90% floor)",
        100.0 * ratio_at_1,
        if verdict_ratio { "under" } else { "OVER" },
        100.0 * RATIO_LIMIT,
        if all_identical {
            "all byte-identical"
        } else {
            "DIVERGED"
        },
        100.0 * remap_share,
        if verdict_remap { "above" } else { "BELOW" },
    );

    let json = format!(
        "{{\"experiment\":\"e18_incremental\",\"seed\":{SEED},\"num_sources\":40,\
         \"num_products\":100,\"timing_reps\":{TIMING_REPS},\
         \"candidates\":{candidates_at_1},\"remap_share\":{remap_share:.4},\"rows\":[{}]}}\n",
        rows_json.join(",")
    );
    wrangler_bench::write_artifact("BENCH_e18.json", &json);

    println!(
        "\nShape expected: ~0.25-0.4 at k=0 (the ER carry maps every row and decides no pair,"
    );
    println!(
        "visited% 0, while fusion runs live), ~0.35-0.5 at k=1, not 1/40: a clean row takes its"
    );
    println!("blocking keys, dictionary ids and record class from the ER memo, a re-delivered row");
    println!("whose record the union held joins its class, and only the pairs of classes new to");
    println!("the union are decided (visited% = class pairs decided over the cold walk's),");
    println!("but fusion and assembly run over the whole union whatever changed. The ratio climbs with k: at k=40, where nothing is");
    println!("clean, the pass pays the memo capture on top of a cold pass (~1.0). The identity");
    println!("column never reads NO: reuse is proof-carrying (PartitionIsolated), and a union");
    println!("block is kept on the mapped table it was cut from, under the pass fingerprint, so");
    println!("a memo can only replay bytes the cold path would recompute.");
}
