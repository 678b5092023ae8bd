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
//!    slots fused over the blocked pool — is bit-identical to the
//!    uncompiled per-slot `fuse_attribute` reference at every worker count.
//! 3. Fuse scaling is non-negative: with the pool sized by
//!    `effective_workers` (never wider than the machine's cores, never
//!    fewer than `MIN_SLOTS_PER_WORKER` slots per thread),
//!    `fuse_kernel_ms@4 < fuse_kernel_ms@1` on multi-core machines, and on
//!    narrower machines the clamp makes the widths coincide instead of
//!    oversubscribing. The JSON records `cores` so the CI gate
//!    (`scripts/check_e14_scaling.py`) knows which regime it is reading.
//!    The fuse kernel's work is slots, which the source sweep never moves
//!    past ~1,050 — one serial plan at every width — so the gate reads a
//!    fleet sized in products instead (`FUSE_FLEET_PRODUCTS`, the largest
//!    ~17,000 slots). The rows either side of the fan-out floor carry a
//!    two-workers-regardless column, and the pipeline's own fuse loop is
//!    timed on the first fleet over the floor: the two measurements
//!    `MIN_SLOTS_PER_WORKER`'s derivation compares. The ER decision is read
//!    at scale off `ER_FLOOR_PRODUCTS`: 4k to 80k class pairs met.
//!
//! Protocol: per fleet size, wrangle once to materialise the mapped union
//! and the claim set, rebuild the pipeline's candidate set (name blocking +
//! exact-sku blocking), then time `REPS` runs of (a) serial `match_pairs`
//! over that list, (b) blocking + ER kernel compile + class-and-decide, (c) serial
//! `fuse_attribute` over all slots and (d) fuse kernel compile+fuse at each
//! worker count, taking the best of the runs (minimum suppresses scheduler
//! noise on a shared box; a sub-millisecond fuse sweep still reads 5–10%
//! apart from itself, which is why nothing is gated on one). The fuse-only
//! fleets run (c) and (d) alone; the pipeline's loop is read off whole
//! passes' `wrangle/fuse/kernel` span. Every kernel output is compared
//! bit-for-bit against its serial reference. Timings are wall-clock; the count half
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
use wrangler_fusion::{FuseKernel, FusedValue, MIN_SLOTS_PER_WORKER};
use wrangler_resolve::{
    candidates_blocked, candidates_blocked_exact, cluster_pairs, match_pairs, ErConfig, ErKernel,
    PriorWalk, ScoredPair, UnionBlocks,
};
use wrangler_sources::{FleetConfig, SyntheticFleet};
use wrangler_table::{par, Table};

const SEED: u64 = 1401;
/// 10, 20, 40 sources, then 400 = 10 × the old largest.
const FLEET_SIZES: [usize; 4] = [10, 20, 40, 400];
const WORKERS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;
/// Products in every fleet of the source sweep.
const PRODUCTS: usize = 200;
/// Fuse-only fleets, by product count (`FUSE_FLEET_SOURCES` sources each).
/// The fuse kernel's work is slots — entities × attributes — and the source
/// sweep above never leaves ~1,050 of them, far under the fan-out floor of
/// 2 × `MIN_SLOTS_PER_WORKER` = 8192 where every width is one serial plan.
/// These straddle the floor: ~5,600 slots still fuse serially, ~10,700 are
/// the first the policy fans out (two workers) and ~17,000 — the fleet the
/// scaling gate reads — the first it gives four.
const FUSE_FLEET_PRODUCTS: [usize; 3] = [1000, 2000, 3200];
const FUSE_FLEET_SOURCES: usize = 10;
/// The first of them over the floor: where the pipeline's own fuse loop is
/// timed at one worker and at four requested.
const FUSE_PASS_PRODUCTS: usize = FUSE_FLEET_PRODUCTS[1];
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
    products: usize,
    slots: usize,
    serial_ms: f64,
    /// Requested width → best ms, width resolved by the sizing policy.
    kernel_ms: Vec<(usize, f64)>,
    /// The pool width the policy resolved four requested workers to.
    width_at_4: usize,
    /// Two workers spawned whatever the policy says: against `kernel_ms@1`
    /// on fleets either side of the floor, the measurement the floor rests on.
    exact2_ms: f64,
    identical: bool,
}

/// A stage's own span (ms) in a whole pass over `fleet`, best of `REPS`
/// passes, the session prepared by `with_workers`: what the pipeline pays —
/// per-item panic isolation, stitching the pieces back, and a fan-out that
/// happens once per pass, onto cores the rest of the pass left idle — where
/// the sweeps above re-run a warm kernel. Read for `wrangle/fuse/kernel`.
fn pass_span_ms(
    fleet: &SyntheticFleet,
    span: &str,
    with_workers: impl Fn(Wrangler) -> Wrangler,
) -> f64 {
    (0..REPS)
        .map(|_| {
            let mut w = with_workers(session(fleet, UserContext::balanced("e14")));
            let out = w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
            out.metrics.timings[span].nanos as f64 / 1e6
        })
        .fold(f64::INFINITY, f64::min)
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
    (er, measure_fuse(&w, num_sources, PRODUCTS))
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

/// Fuse: serial `fuse_attribute` vs `FuseKernel` at each worker count, over
/// the claim set a finished wrangle left behind.
fn measure_fuse(w: &Wrangler, sources: usize, products: usize) -> FuseResult {
    let (claims, ctx, strategy) = w.fusion_inputs().expect("wrangle caches the claim set"); // lint-allow: experiment fixture
    let slots = claims.slots();
    let fuse_serial: Vec<Option<FusedValue>> = slots
        .iter()
        .map(|&(e, a)| fuse_attribute(claims, e, a, strategy, ctx))
        .collect();
    let serial_ms = 1e3
        * best_secs(|| {
            std::hint::black_box(
                slots
                    .iter()
                    .map(|&(e, a)| fuse_attribute(claims, e, a, strategy, ctx))
                    .collect::<Vec<Option<FusedValue>>>(),
            );
        });
    let mut kernel_ms = Vec::new();
    let mut identical = true;
    let mut width_at_4 = 0;
    for &workers in &WORKERS {
        let ms = 1e3
            * best_secs(|| {
                let k = FuseKernel::compile(claims, strategy, ctx);
                std::hint::black_box(
                    k.fuse_slots_parallel(&slots, workers)
                        .expect("parallel fusion succeeds"), // lint-allow: experiment fixture
                );
            });
        kernel_ms.push((workers, ms));
        let k = FuseKernel::compile(claims, strategy, ctx);
        let (fused, stats) = k
            .fuse_slots_parallel(&slots, workers)
            .expect("parallel fusion succeeds"); // lint-allow: experiment fixture
        identical &= fused_identical(&fuse_serial, &fused)
            && stats.iter().map(|s| s.items).sum::<u64>() == slots.len() as u64;
        if workers == 4 {
            width_at_4 = stats.len();
        }
    }
    let exact2_ms = 1e3
        * best_secs(|| {
            let k = FuseKernel::compile(claims, strategy, ctx);
            std::hint::black_box(
                k.fuse_slots_parallel_exact(&slots, 2)
                    .expect("parallel fusion succeeds"), // lint-allow: experiment fixture
            );
        });
    FuseResult {
        sources,
        products,
        slots: slots.len(),
        serial_ms,
        kernel_ms,
        width_at_4,
        exact2_ms,
        identical,
    }
}

fn ms_at(kernel_ms: &[(usize, f64)], w: usize) -> f64 {
    kernel_ms
        .iter()
        .find(|&&(k, _)| k == w)
        .map_or(f64::NAN, |&(_, ms)| ms)
}

fn main() {
    let counts_only = std::env::args().any(|a| a == "--counts");
    if counts_only {
        // Deterministic half only: counts and gauges of the largest workload
        // with a fixed fuse width, byte-identical across runs. A pinned width
        // matters: per-worker counters depend on the requested pool size
        // (the sizing policy then resolves it identically every run on a
        // given machine).
        let mut w = build(*FLEET_SIZES.last().expect("const non-empty"), PRODUCTS) // lint-allow: const fixture
            .with_fuse_workers(4);
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

    println!("\nfuse kernel (serial = per-slot fuse_attribute; the source sweep's fleets, then");
    println!(" {FUSE_FLEET_SOURCES}-source fleets sized in products so the slots straddle the fan-out floor of");
    println!(" 2 x {MIN_SLOTS_PER_WORKER}; width4 = the pool width four requested workers resolve to;");
    println!(" x2 = two workers spawned whatever the policy says):");
    let fwidths = [7, 8, 7, 8, 8, 8, 8, 8, 6, 8, 9];
    println!(
        "{}",
        header(
            &[
                "sources", "products", "slots", "serial", "f@1", "f@2", "f@4", "f@8", "width4",
                "x2", "identical"
            ],
            &fwidths
        )
    );
    for &products in &FUSE_FLEET_PRODUCTS {
        let mut w = build(FUSE_FLEET_SOURCES, products);
        w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
        fuse_results.push(measure_fuse(&w, FUSE_FLEET_SOURCES, products));
    }
    for r in &fuse_results {
        let cells = vec![
            r.sources.to_string(),
            r.products.to_string(),
            r.slots.to_string(),
            format!("{:.2}", r.serial_ms),
            format!("{:.2}", ms_at(&r.kernel_ms, 1)),
            format!("{:.2}", ms_at(&r.kernel_ms, 2)),
            format!("{:.2}", ms_at(&r.kernel_ms, 4)),
            format!("{:.2}", ms_at(&r.kernel_ms, 8)),
            r.width_at_4.to_string(),
            format!("{:.2}", r.exact2_ms),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ];
        println!("{}", row(&cells, &fwidths));
    }

    let pass_fleet = fleet_of(FUSE_FLEET_SOURCES, FUSE_PASS_PRODUCTS);
    let fuse_pass = |n| pass_span_ms(&pass_fleet, "wrangle/fuse/kernel", |w| w.with_fuse_workers(n));
    let (pass1, pass4) = (fuse_pass(1), fuse_pass(4));
    println!("\nthe pipeline's own fuse loop on the first fleet over the floor ({FUSE_PASS_PRODUCTS} products;");
    println!(" the `wrangle/fuse/kernel` span of a whole pass, best of {REPS} passes):");
    println!(
        " 1 worker {pass1:.2} ms, 4 requested {pass4:.2} ms ({:.2}x)",
        pass4 / pass1
    );

    // --- Verdicts ------------------------------------------------------------
    let big = *FLEET_SIZES.last().expect("const non-empty"); // lint-allow: const fixture
    let last = results.last().expect("const non-empty fleet list"); // lint-allow: const fixture
    let speedup = last.serial_ms / last.kernel_ms;
    let verdict_speed = speedup >= 2.0;
    // On a machine with ≥4 cores the blocked pool must actually win at 4
    // workers; on narrower machines the sizing policy clamps the widths
    // together and the comparison is two measurements of the same
    // configuration (the gate script applies a noise tolerance there).
    let large_fuse = fuse_results
        .iter()
        .max_by_key(|r| r.slots)
        .expect("const non-empty fleet list"); // lint-allow: const fixture
    let fuse_scaling = ms_at(&large_fuse.kernel_ms, 1) / ms_at(&large_fuse.kernel_ms, 4);
    let verdict_scaling = fuse_scaling > 1.0;
    let verdict_identical =
        results.iter().all(|r| r.identical) && er_floor.iter().all(|r| r.identical);
    let verdict_fuse_identical = fuse_results.iter().all(|r| r.identical);
    println!(
        "\nverdict: the ER kernel {} the 2x floor at {big} sources ({speedup:.2}x); ER outputs {}; \
         fuse f@1/f@4 = {fuse_scaling:.2}x at {} slots ({}); fuse outputs {}",
        if verdict_speed { "clears" } else { "MISSES" },
        if verdict_identical {
            "byte-identical to serial"
        } else {
            "DIVERGE"
        },
        large_fuse.slots,
        if verdict_scaling {
            "positive scaling"
        } else {
            "NOT positive"
        },
        if verdict_fuse_identical {
            "byte-identical"
        } else {
            "DIVERGE"
        },
    );

    // --- Machine-readable results -------------------------------------------
    let ms_json = |kernel_ms: &[(usize, f64)]| {
        kernel_ms
            .iter()
            .map(|(w, ms)| format!("\"{w}\":{:.4}", ms))
            .collect::<Vec<_>>()
            .join(",")
    };
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
                "{{\"sources\":{},\"products\":{},\"fuse_slots\":{},\
                 \"fuse_serial_ms\":{:.4},\"fuse_kernel_ms\":{{{}}},\
                 \"fuse_width_at_4\":{},\"fuse_exact2_ms\":{:.4},\"fuse_identical\":{}}}",
                r.sources,
                r.products,
                r.slots,
                r.serial_ms,
                ms_json(&r.kernel_ms),
                r.width_at_4,
                r.exact2_ms,
                r.identical,
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
         \"fleets\":[{}],\"er_floor_fleets\":[{}],\"fuse_fleets\":[{}],\
         \"fuse_pass\":{{\"products\":{FUSE_PASS_PRODUCTS},\
         \"kernel_span_ms\":{{\"1\":{pass1:.4},\"4\":{pass4:.4}}}}}}}\n",
        fleets_json.join(","),
        er_floor_json.join(","),
        fuse_fleets_json.join(",")
    );
    wrangler_bench::write_artifact("BENCH_e14.json", &json);

    println!("\nShape expected: the kernels win big on one thread — precompilation (a dictionary");
    println!("per column, per-source weights cached once instead of per item) and, for ER,");
    println!("deciding each pair of record classes once, and never meeting the ~95% a differing");
    println!("key rejects; extra fuse workers help exactly when cores exist and the slots clear");
    println!("the floor — the sizing policy refuses oversubscription — and never change a bit of");
    println!("output.");
}
