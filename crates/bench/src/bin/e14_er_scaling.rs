//! E14 — the precompiled kernels on the measured hot path: ER *and* fuse
//! (§4.3).
//!
//! E13 showed entity resolution dominating the wrangle wall clock with fuse
//! next in line. Claims under test here:
//!
//! 1. The [`ErKernel`] — ER config compiled once against the union schema,
//!    text and key columns dictionary-encoded, the union's rows grouped
//!    into record classes and every candidate class pair decided once, on
//!    the spot, in one walk (`decide_union`, the entry point the wrangle
//!    stage runs) — beats the uncompiled serial reference (`match_pairs`
//!    over the written-down candidate list, re-rendering both rows for
//!    every pair) by ≥2× on the 40-source workload while producing the
//!    **same** matched pairs and clusters; the kernel's exact scores
//!    (`score_pairs_parallel`) are checked bit for bit against the same
//!    reference, untimed. The walk runs on one thread: its strips on a
//!    worker pool were no consistent win at any size this experiment
//!    measured (EXPERIMENTS E14), so the ER rows time the decision alone.
//! 2. The [`FuseKernel`] — per-source weights/decays compiled once per pass,
//!    slots fused one after another on one thread — is bit-identical to the
//!    uncompiled per-slot `fuse_attribute` reference, and each side is
//!    timed once per fleet of the source sweep.
//!
//! The ER decision is read at scale off `ER_FLOOR_PRODUCTS`: 4k to 80k
//! class pairs met. The CI gate (`scripts/check_e14_scaling.py`) reads the
//! identity columns.
//!
//! Protocol: per fleet size, wrangle once to materialise the mapped union
//! and the claim set, rebuild the pipeline's candidate set (name blocking +
//! exact-sku blocking), then time `REPS` runs of (a) serial `match_pairs`
//! over that list, (b) blocking + ER kernel compile + class-and-decide, (c) serial
//! `fuse_attribute` over all slots and (d) fuse kernel compile + fuse,
//! taking the best of the runs (minimum suppresses scheduler noise on a
//! shared box; a sub-millisecond fuse time still reads 5–10% apart from
//! itself, which is why nothing is gated on one). Every kernel output is
//! compared bit-for-bit against its serial reference. Timings are wall-clock; the count half
//! of the metrics report is seeded-deterministic — `--counts` prints only
//! that half and CI double-runs it to assert byte-identical output. A full
//! run writes `BENCH_e14.json`.
//!
//! `lint-allow:` exemptions here follow the experiment-binary convention:
//! drivers may panic on their own fixtures.

use std::time::Instant;

use wrangler_bench::{default_fleet_config, fleet, header, row, session};
use wrangler_context::UserContext;
use wrangler_core::Wrangler;
use wrangler_fusion::strategies::fuse_attribute;
use wrangler_fusion::{FuseKernel, FusedValue};
use wrangler_resolve::{
    candidates_blocked, candidates_blocked_exact, cluster_pairs, match_pairs, ErConfig, ErKernel,
    PriorWalk, ScoredPair, UnionBlocks,
};
use wrangler_sources::{FleetConfig, SyntheticFleet};
use wrangler_table::{par, Table};

const SEED: u64 = 1401;
/// 10, 20, 40 sources, then 400 = 10 × the old largest.
const FLEET_SIZES: [usize; 4] = [10, 20, 40, 400];
const REPS: usize = 5;
/// Products in every fleet of the source sweep.
const PRODUCTS: usize = 200;
/// ER-floor fleets, by product count (`ER_FLOOR_SOURCES` sources each): the
/// class pairs their walks decide — ~4,100, ~12,400, ~24,100 and ~80,500;
/// a pair a differing key rejects is never met, so it takes forty sources
/// and thousands of products to time the decision at sizes no benchmark
/// workload reaches.
const ER_FLOOR_PRODUCTS: [usize; 4] = [1000, 2000, 4000, 8000];
const ER_FLOOR_SOURCES: usize = 40;
/// Runs per timing of the ER-floor rows.
const FLOOR_REPS: usize = 10;

fn fleet_of(num_sources: usize, num_products: usize) -> SyntheticFleet {
    let cfg = FleetConfig {
        num_sources,
        num_products,
        ..default_fleet_config()
    };
    fleet(&cfg, SEED)
}

fn build(num_sources: usize, num_products: usize) -> Wrangler {
    session(&fleet_of(num_sources, num_products), UserContext::balanced("e14"))
}

/// The pipeline's ER candidate set over a union table: name blocking plus
/// exact-key blocking, sorted and deduplicated (mirrors the wrangle stage).
fn pipeline_candidates(union: &Table) -> Vec<(usize, usize)> {
    let mut candidates =
        candidates_blocked(union, "name").expect("union has a name column"); // lint-allow: experiment fixture
    candidates.extend(
        candidates_blocked_exact(union, "sku").expect("union has a sku column"), // lint-allow: experiment fixture
    );
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

/// Best (minimum) wall-clock seconds of `REPS` runs of `f` — the standard
/// noise-resistant estimator on a shared/oversubscribed machine, where the
/// median still absorbs scheduler stalls.
fn best_secs(f: impl FnMut()) -> f64 {
    best_secs_of(REPS, f)
}

fn best_secs_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Bit-level equality of two scored-pair lists (indices and score bits).
fn pairs_identical(a: &[ScoredPair], b: &[ScoredPair]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.i == y.i && x.j == y.j && x.score.to_bits() == y.score.to_bits()
        })
}

/// Bit-level equality of two fused-slot lists (values, supporters, and the
/// bits of every reported f64).
fn fused_identical(a: &[Option<FusedValue>], b: &[Option<FusedValue>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.value == y.value
                    && x.supporters == y.supporters
                    && x.weight.to_bits() == y.weight.to_bits()
                    && x.total_weight.to_bits() == y.total_weight.to_bits()
                    && x.freshness.to_bits() == y.freshness.to_bits()
            }
            _ => false,
        })
}

struct FleetResult {
    sources: usize,
    /// Union rows, their record classes, the class pairs a walk decides and
    /// those a differing key rejects unmet.
    rows: usize,
    classes: usize,
    decided: u64,
    pruned: u64,
    candidates: usize,
    serial_ms: f64,
    kernel_ms: f64,
    identical: bool,
}

struct FuseResult {
    sources: usize,
    slots: usize,
    serial_ms: f64,
    kernel_ms: f64,
    identical: bool,
}

fn measure_fleet(num_sources: usize) -> (FleetResult, FuseResult) {
    let mut w = build(num_sources, PRODUCTS);
    w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
    let union = w.union_table().expect("wrangle caches the union"); // lint-allow: experiment fixture
    let cfg: ErConfig = w.er_config().clone();
    let candidates = pipeline_candidates(&union);

    // --- ER: serial reference vs kernel --------------------------------------
    // Serial reference: the uncompiled path, column names resolved once but
    // every pair re-rendering both rows.
    let serial =
        match_pairs(&union, &candidates, &cfg).expect("serial scoring succeeds"); // lint-allow: experiment fixture
    let serial_clusters =
        cluster_pairs(union.num_rows(), serial.iter().map(|p| (p.i, p.j)));
    let serial_ms = 1e3
        * best_secs(|| {
            std::hint::black_box(
                match_pairs(&union, &candidates, &cfg).expect("serial scoring succeeds"), // lint-allow: experiment fixture
            );
        });

    // The kernel's exact scores against the reference, bit for bit: the
    // oracle the decision is tested against, checked once, untimed.
    let compiled = ErKernel::compile(&union, &cfg).expect("schema compiles"); // lint-allow: experiment fixture
    let (scores, _) = compiled
        .score_pairs_parallel(&candidates, par::available_parallelism())
        .expect("parallel scoring succeeds"); // lint-allow: experiment fixture
    let scored = compiled.filter_matches(&candidates, &scores);
    let mut identical = pairs_identical(&serial, &scored);
    let serial_matches: Vec<(usize, usize)> = serial.iter().map(|p| (p.i, p.j)).collect();

    // Timed end-to-end, as the wrangle stage runs it: block, compile, walk
    // and decide. Blocking and precompilation are part of the kernel's cost,
    // not free setup (the serial column is handed its candidate list).
    let decide = || {
        let blocks = UnionBlocks::build(&union, "name", "sku").expect("union has both columns"); // lint-allow: experiment fixture
        let k = ErKernel::compile(&union, &cfg).expect("schema compiles"); // lint-allow: experiment fixture
        k.decide_union(&blocks, None).expect("deciding succeeds") // lint-allow: experiment fixture
    };
    let kernel_ms = 1e3
        * best_secs(|| {
            std::hint::black_box(decide());
        });
    let decided = decide();
    identical &= decided.matches() == serial_matches
        && decided.clusters() == serial_clusters
        && decided.candidates == candidates.len() as u64;

    let er = FleetResult {
        sources: num_sources,
        rows: union.num_rows(),
        classes: decided.num_classes(),
        decided: decided.decided,
        pruned: decided.pruned,
        candidates: candidates.len(),
        serial_ms,
        kernel_ms,
        identical,
    };
    (er, measure_fuse(&w, num_sources))
}

struct ErFloorResult {
    products: usize,
    /// Candidates of the union.
    candidates: u64,
    /// Class pairs the walk decides, and those it rejects unmet.
    pairs: u64,
    pruned: u64,
    /// The decision alone (blocks built, kernel compiled).
    decide_ms: f64,
    identical: bool,
}

/// The ER decision at scale, over a warm kernel, and against a walk carried
/// from it: with every other row left to be looked up by its ids, every
/// record is one the prior union held, so the carried walk decides nothing
/// and must deliver the same matches.
fn measure_er_floor(products: usize) -> ErFloorResult {
    let mut w = build(ER_FLOOR_SOURCES, products);
    w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
    let union = w.union_table().expect("wrangle caches the union"); // lint-allow: experiment fixture
    let blocks = UnionBlocks::build(&union, "name", "sku").expect("union has both columns"); // lint-allow: experiment fixture
    let kernel = ErKernel::compile(&union, w.er_config()).expect("schema compiles"); // lint-allow: experiment fixture
    let decide = || {
        kernel
            .decide_union(&blocks, None)
            .expect("deciding succeeds") // lint-allow: experiment fixture
    };
    let decide_ms = 1e3
        * best_secs_of(FLOOR_REPS, || {
            std::hint::black_box(decide());
        });
    let cold = decide();
    let old_of: Vec<Option<usize>> = (0..union.num_rows())
        .map(|r| (r % 2 == 0).then_some(r))
        .collect();
    let (carried_blocks, block_ids) =
        UnionBlocks::carry(&union, "name", "sku", Some((&blocks, &old_of)))
            .expect("the union carries onto itself"); // lint-allow: experiment fixture
    let (carried_kernel, kernel_ids) =
        ErKernel::carry(&union, w.er_config(), Some((&kernel, &old_of)))
            .expect("the kernel carries onto itself"); // lint-allow: experiment fixture
    let prior = PriorWalk {
        blocks: &blocks,
        kernel: &kernel,
        decided: &cold,
        old_of: &old_of,
        block_ids: &block_ids,
        kernel_ids: &kernel_ids,
    };
    let carried = carried_kernel
        .decide_union(&carried_blocks, Some(prior))
        .expect("deciding succeeds"); // lint-allow: experiment fixture
    ErFloorResult {
        products,
        candidates: cold.candidates,
        pairs: cold.decided,
        pruned: cold.pruned,
        decide_ms,
        identical: carried.decided == 0 && carried.matches() == cold.matches(),
    }
}

/// Fuse: serial `fuse_attribute` vs `FuseKernel`, over the claim set a
/// finished wrangle left behind.
fn measure_fuse(w: &Wrangler, sources: usize) -> FuseResult {
    let (claims, ctx, strategy) = w.fusion_inputs().expect("wrangle caches the claim set"); // lint-allow: experiment fixture
    let slots = claims.slots();
    let reference = || -> Vec<Option<FusedValue>> {
        slots
            .iter()
            .map(|&(e, a)| fuse_attribute(claims, e, a, strategy, ctx))
            .collect()
    };
    let kernel = || FuseKernel::compile(claims, strategy, ctx).fuse_slots(&slots);
    let serial_ms = 1e3
        * best_secs(|| {
            std::hint::black_box(reference());
        });
    let kernel_ms = 1e3
        * best_secs(|| {
            std::hint::black_box(kernel());
        });
    FuseResult {
        sources,
        slots: slots.len(),
        serial_ms,
        kernel_ms,
        identical: fused_identical(&reference(), &kernel()),
    }
}

fn main() {
    let counts_only = std::env::args().any(|a| a == "--counts");
    if counts_only {
        // Deterministic half only: counts and gauges of the largest
        // workload, byte-identical across runs.
        let mut w = build(*FLEET_SIZES.last().expect("const non-empty"), PRODUCTS); // lint-allow: const fixture
        w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
        print!("{}", w.metrics().render_counts());
        return;
    }

    let cores = par::available_parallelism();
    println!("E14: precompiled kernels (ER + fuse) vs serial references ({PRODUCTS} products)");
    println!("(serial = uncompiled match_pairs over the listed candidates, re-rendering rows per");
    println!(" pair; rows / classes = union rows and their record classes, decided = class pairs");
    println!(" a walk decides, pruned = those a differing key rejects unmet; kernel = block + compile +");
    println!(" class-and-decide, on one thread; best of {REPS} runs; identical = matched pairs and");
    println!(" clusters equal serial's, and the kernel's exact scores equal serial's bit for bit)\n");

    let widths = [7, 6, 7, 8, 8, 10, 9, 9, 9, 10];
    println!(
        "{}",
        header(
            &[
                "sources",
                "rows",
                "classes",
                "decided",
                "pruned",
                "cands",
                "serial",
                "kernel",
                "speedup",
                "identical"
            ],
            &widths
        )
    );

    let mut results = Vec::new();
    let mut fuse_results = Vec::new();
    for &n in &FLEET_SIZES {
        let (r, fuse) = measure_fleet(n);
        fuse_results.push(fuse);
        let cells = vec![
            r.sources.to_string(),
            r.rows.to_string(),
            r.classes.to_string(),
            r.decided.to_string(),
            r.pruned.to_string(),
            r.candidates.to_string(),
            format!("{:.1}", r.serial_ms),
            format!("{:.1}", r.kernel_ms),
            format!("{:.2}x", r.serial_ms / r.kernel_ms),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ];
        println!("{}", row(&cells, &widths));
        results.push(r);
    }

    println!("\nER decision at scale ({ER_FLOOR_SOURCES}-source fleets sized in products; pairs = class");
    println!(" pairs the walk decides, pruned = those a differing key rejects unmet; decide = the");
    println!(" decision alone, best of {FLOOR_REPS}; identical = a walk carried from it, every other");
    println!(" row looked up by its ids, decides nothing and delivers the same matches):");
    let ewidths = [8, 10, 8, 10, 8, 9];
    println!(
        "{}",
        header(
            &["products", "cands", "pairs", "pruned", "decide", "identical"],
            &ewidths
        )
    );
    let er_floor: Vec<ErFloorResult> = ER_FLOOR_PRODUCTS
        .iter()
        .map(|&p| measure_er_floor(p))
        .collect();
    for r in &er_floor {
        let cells = vec![
            r.products.to_string(),
            r.candidates.to_string(),
            r.pairs.to_string(),
            r.pruned.to_string(),
            format!("{:.3}", r.decide_ms),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ];
        println!("{}", row(&cells, &ewidths));
    }

    println!("\nfuse kernel (serial = per-slot fuse_attribute; kernel = compile + fuse");
    println!(" every slot on one thread; best of {REPS} runs; identical = bit for bit):");
    let fwidths = [7, 7, 8, 8, 8, 9];
    println!(
        "{}",
        header(
            &[
                "sources",
                "slots",
                "serial",
                "kernel",
                "speedup",
                "identical"
            ],
            &fwidths
        )
    );
    for r in &fuse_results {
        let cells = vec![
            r.sources.to_string(),
            r.slots.to_string(),
            format!("{:.3}", r.serial_ms),
            format!("{:.3}", r.kernel_ms),
            format!("{:.2}x", r.serial_ms / r.kernel_ms),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ];
        println!("{}", row(&cells, &fwidths));
    }

    // --- Verdicts ------------------------------------------------------------
    let big = *FLEET_SIZES.last().expect("const non-empty"); // lint-allow: const fixture
    let last = results.last().expect("const non-empty fleet list"); // lint-allow: const fixture
    let speedup = last.serial_ms / last.kernel_ms;
    let verdict_speed = speedup >= 2.0;
    let verdict_identical =
        results.iter().all(|r| r.identical) && er_floor.iter().all(|r| r.identical);
    let verdict_fuse_identical = fuse_results.iter().all(|r| r.identical);
    println!(
        "\nverdict: the ER kernel {} the 2x floor at {big} sources ({speedup:.2}x); ER outputs {}; \
         fuse outputs {}",
        if verdict_speed { "clears" } else { "MISSES" },
        if verdict_identical {
            "byte-identical to serial"
        } else {
            "DIVERGE"
        },
        if verdict_fuse_identical {
            "byte-identical"
        } else {
            "DIVERGE"
        },
    );

    // --- Machine-readable results -------------------------------------------
    let fleets_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"sources\":{},\"rows\":{},\"classes\":{},\"decided\":{},\
                 \"pruned\":{},\"candidates\":{},\"serial_ms\":{:.4},\
                 \"kernel_ms\":{:.4},\"identical\":{}}}",
                r.sources,
                r.rows,
                r.classes,
                r.decided,
                r.pruned,
                r.candidates,
                r.serial_ms,
                r.kernel_ms,
                r.identical,
            )
        })
        .collect();
    let fuse_fleets_json: Vec<String> = fuse_results
        .iter()
        .map(|r| {
            format!(
                "{{\"sources\":{},\"fuse_slots\":{},\"fuse_serial_ms\":{:.4},\
                 \"fuse_kernel_ms\":{:.4},\"fuse_identical\":{}}}",
                r.sources, r.slots, r.serial_ms, r.kernel_ms, r.identical,
            )
        })
        .collect();
    let er_floor_json: Vec<String> = er_floor
        .iter()
        .map(|r| {
            format!(
                "{{\"sources\":{ER_FLOOR_SOURCES},\"products\":{},\"candidates\":{},\
                 \"pairs\":{},\"pruned\":{},\"decide_ms\":{:.4},\"identical\":{}}}",
                r.products, r.candidates, r.pairs, r.pruned, r.decide_ms, r.identical,
            )
        })
        .collect();
    let json = format!(
        "{{\"experiment\":\"e14_er_scaling\",\"seed\":{SEED},\"cores\":{cores},\
         \"speedup\":{speedup:.4},\
         \"fleets\":[{}],\"er_floor_fleets\":[{}],\"fuse_fleets\":[{}]}}\n",
        fleets_json.join(","),
        er_floor_json.join(","),
        fuse_fleets_json.join(",")
    );
    wrangler_bench::write_artifact("BENCH_e14.json", &json);

    println!("\nShape expected: the kernels win big on one thread — precompilation (a dictionary");
    println!("per column, per-source weights cached once instead of per item) and, for ER,");
    println!("deciding each pair of record classes once, and never meeting the ~95% a differing");
    println!("key rejects — and never change a bit of output.");
}
