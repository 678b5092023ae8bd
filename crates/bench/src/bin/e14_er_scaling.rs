//! E14 — kernel scaling on the measured hot path: ER *and* fuse (§4.3).
//!
//! E13 showed entity resolution dominating the wrangle wall clock with fuse
//! next in line. Claims under test here:
//!
//! 1. The [`ErKernel`] — ER config compiled once against the union schema,
//!    text and key columns dictionary-encoded, the candidate blocks walked
//!    and every pair decided on the spot across row strips
//!    (`decide_union`, the entry point the wrangle stage runs) — beats the
//!    uncompiled serial reference (`match_pairs` over the written-down
//!    candidate list, re-rendering both rows for every pair) by ≥2× on the
//!    40-source workload while producing the **same** matched pairs and
//!    clusters for any worker count; the kernel's exact scores
//!    (`score_pairs_parallel`) are checked bit for bit against the same
//!    reference, untimed. Contiguous strips replaced the original strided
//!    pickup (worker *w* took pairs *w, w+workers, …*), whose cache-hostile
//!    interleaving this experiment exposed as *negative* scaling (8 workers
//!    42% slower than 1 at 40 sources).
//! 2. The [`FuseKernel`] — per-source weights/decays compiled once per pass,
//!    slots fused over the same blocked pool — is bit-identical to the
//!    uncompiled per-slot `fuse_attribute` reference at every worker count.
//! 3. Scaling is non-negative on a 10×-larger fleet (400 sources): with the
//!    pool sized by `effective_workers` (never wider than the machine's
//!    cores, never fewer than `MIN_PAIRS_PER_WORKER`/`MIN_SLOTS_PER_WORKER`
//!    items per thread), `kernel_ms@4 < kernel_ms@1` on multi-core machines,
//!    and on narrower machines the clamp makes the widths coincide instead
//!    of oversubscribing — the flat-to-negative half of the old curve is
//!    structurally gone. The JSON records `cores` so the CI gate
//!    (`scripts/check_e14_scaling.py`) knows which regime it is reading.
//!    The fuse kernel's work is slots, which the source sweep never moves
//!    past ~1,050 — one serial plan at every width — so its half of the
//!    gate reads a fleet sized in products instead (`FUSE_FLEET_PRODUCTS`,
//!    the largest ~17,000 slots). The rows either side of the fan-out
//!    floor carry a two-workers-regardless column, and the pipeline's own
//!    fuse loop is timed on the first fleet over the floor: the two
//!    measurements `MIN_SLOTS_PER_WORKER`'s derivation compares. The ER
//!    pool's floor (`MIN_PAIRS_PER_WORKER` pairs *walked* per thread) is
//!    read the same way off `ER_FLOOR_PRODUCTS`: the decision at one
//!    worker against two spawned regardless, and the pipeline's own
//!    `wrangle/er/decide` span on the fleets over it.
//!
//! Protocol: per fleet size, wrangle once to materialise the mapped union
//! and the claim set, rebuild the pipeline's candidate set (name blocking +
//! exact-sku blocking), then time `REPS` runs of (a) serial `match_pairs`
//! over that list, (b) blocking + ER kernel compile + walk-and-decide at
//! each worker count, (c) serial
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
use wrangler_resolve::kernel::MIN_PAIRS_PER_WORKER;
use wrangler_resolve::{
    candidates_blocked, candidates_blocked_exact, cluster_pairs, match_pairs, ErConfig, ErKernel,
    ScoredPair, UnionBlocks,
};
use wrangler_sources::{FleetConfig, SyntheticFleet};
use wrangler_table::{par, Table};

const SEED: u64 = 1401;
/// The last entry is the 10× fleet the scaling gate reads (10, 20, 40
/// sources, then 400 = 10 × the old largest).
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
/// pairs their walks cover straddle the decision pool's fan-out floor of
/// 2 × `MIN_PAIRS_PER_WORKER` = 32,768: ~7,700 and ~22,000 pairs decide
/// serially, ~40,600 are the first the policy fans out, ~120,000 the last
/// row. The two over the floor are where the pipeline's own
/// `wrangle/er/decide` span is read at one worker and at two requested.
const ER_FLOOR_PRODUCTS: [usize; 4] = [160, 300, 320, 640];
const ER_FLOOR_SOURCES: usize = 4;
/// Runs per timing of the sub-millisecond ER-floor rows.
const FLOOR_REPS: usize = 40;

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
    candidates: usize,
    serial_ms: f64,
    kernel_ms: Vec<(usize, f64)>,
    identical: bool,
    no_idle_worker: bool,
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
/// the sweeps above re-run a warm kernel. Read for `wrangle/fuse/kernel`
/// and `wrangle/er/decide`.
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

    // --- ER: serial reference vs kernel at each worker count ----------------
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

    let mut kernel_ms = Vec::new();
    let mut no_idle_worker = true;
    for &workers in &WORKERS {
        // Timed end-to-end, as the wrangle stage runs it: block, compile,
        // walk and decide. Blocking and precompilation are part of the
        // kernel's cost, not free setup (the serial column is handed its
        // candidate list). The requested width goes through the
        // pool-sizing policy, exactly as the pipeline's does.
        let decide = || {
            let blocks = UnionBlocks::build(&union, "name", "sku").expect("union has both columns"); // lint-allow: experiment fixture
            let k = ErKernel::compile(&union, &cfg).expect("schema compiles"); // lint-allow: experiment fixture
            k.decide_union(&blocks, workers, |_, _| false)
                .expect("deciding succeeds") // lint-allow: experiment fixture
        };
        let ms = 1e3
            * best_secs(|| {
                std::hint::black_box(decide());
            });
        kernel_ms.push((workers, ms));
        let decided = decide();
        let clusters = cluster_pairs(union.num_rows(), decided.matches.iter().copied());
        identical &= decided.matches == serial_matches && clusters == serial_clusters;
        // The sizing policy decides the spawned width; whatever it picks,
        // the items must cover every candidate with no idle worker.
        no_idle_worker &= decided.workers.iter().map(|s| s.items).sum::<u64>()
            == candidates.len() as u64
            && !decided.workers.is_empty()
            && decided.workers.iter().all(|s| s.items > 0);
    }

    let er = FleetResult {
        sources: num_sources,
        candidates: candidates.len(),
        serial_ms,
        kernel_ms,
        identical,
        no_idle_worker,
    };
    (er, measure_fuse(&w, num_sources, PRODUCTS))
}

struct ErFloorResult {
    products: usize,
    /// Pairs the walk covers — what the pool is sized by.
    pairs: usize,
    /// The pool width two requested workers resolve to.
    width_at_2: usize,
    /// The decision alone (blocks built, kernel compiled) at one worker.
    decide1_ms: f64,
    /// Two workers spawned whatever the policy says.
    exact2_ms: f64,
    identical: bool,
}

/// The ER decision either side of its fan-out floor: one worker against two
/// spawned regardless, over a warm kernel — the measurement
/// `MIN_PAIRS_PER_WORKER` rests on.
fn measure_er_floor(products: usize) -> ErFloorResult {
    let mut w = build(ER_FLOOR_SOURCES, products);
    w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
    let union = w.union_table().expect("wrangle caches the union"); // lint-allow: experiment fixture
    let blocks = UnionBlocks::build(&union, "name", "sku").expect("union has both columns"); // lint-allow: experiment fixture
    let kernel = ErKernel::compile(&union, w.er_config()).expect("schema compiles"); // lint-allow: experiment fixture
    let at = |workers: usize| {
        kernel
            .decide_union_exact(&blocks, workers, |_, _| false)
            .expect("deciding succeeds") // lint-allow: experiment fixture
    };
    let time = |workers: usize| {
        1e3 * best_secs_of(FLOOR_REPS, || {
            std::hint::black_box(at(workers));
        })
    };
    let policy = kernel
        .decide_union(&blocks, 2, |_, _| false)
        .expect("deciding succeeds"); // lint-allow: experiment fixture
    let serial = at(1);
    ErFloorResult {
        products,
        pairs: policy.candidates as usize,
        width_at_2: policy.workers.len(),
        decide1_ms: time(1),
        exact2_ms: time(2),
        identical: serial.matches == at(2).matches && serial.matches == policy.matches,
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
        // with fixed worker counts, byte-identical across runs. Pinned
        // counts matter: per-worker counters depend on the requested pool
        // size (the sizing policy then resolves it identically every run on
        // a given machine).
        let mut w = build(*FLEET_SIZES.last().expect("const non-empty"), PRODUCTS) // lint-allow: const fixture
            .with_er_workers(4)
            .with_fuse_workers(4);
        w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
        print!("{}", w.metrics().render_counts());
        return;
    }

    let cores = par::available_parallelism();
    println!("E14: precompiled kernels (ER + fuse) vs serial references ({PRODUCTS} products)");
    println!("(serial = uncompiled match_pairs over the listed candidates, re-rendering rows per");
    println!(" pair; k@w = block + compile + walk-and-decide with w requested workers, width");
    println!(
        " resolved by the sizing policy — this machine has {cores} core(s); best of {REPS} runs;"
    );
    println!(" identical = matched pairs and clusters equal serial at every w, and the kernel's");
    println!(" exact scores equal serial's bit for bit)\n");

    let widths = [7, 10, 9, 9, 9, 9, 9, 9, 10];
    println!(
        "{}",
        header(
            &[
                "sources", "cands", "serial", "k@1", "k@2", "k@4", "k@8", "speedup4",
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
        let speedup4 = r.serial_ms / ms_at(&r.kernel_ms, 4);
        let cells = vec![
            r.sources.to_string(),
            r.candidates.to_string(),
            format!("{:.1}", r.serial_ms),
            format!("{:.1}", ms_at(&r.kernel_ms, 1)),
            format!("{:.1}", ms_at(&r.kernel_ms, 2)),
            format!("{:.1}", ms_at(&r.kernel_ms, 4)),
            format!("{:.1}", ms_at(&r.kernel_ms, 8)),
            format!("{:.2}x", speedup4),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ];
        println!("{}", row(&cells, &widths));
        results.push(r);
    }

    println!("\nER decision either side of its fan-out floor ({ER_FLOOR_SOURCES}-source fleets sized in products;");
    println!(" pairs = what the walk covers, the pool is sized by it: 2 x {MIN_PAIRS_PER_WORKER} pairs fan out;");
    println!(" width2 = the pool width two requested workers resolve to; d@1 = the decision alone");
    println!(
        " at one worker, x2 = two workers spawned whatever the policy says; best of {FLOOR_REPS}):"
    );
    let ewidths = [8, 8, 6, 8, 8, 7, 9];
    println!(
        "{}",
        header(
            &[
                "products",
                "pairs",
                "width2",
                "d@1",
                "x2",
                "x2/d@1",
                "identical"
            ],
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
            r.pairs.to_string(),
            r.width_at_2.to_string(),
            format!("{:.3}", r.decide1_ms),
            format!("{:.3}", r.exact2_ms),
            format!("{:.2}", r.exact2_ms / r.decide1_ms),
            if r.identical { "yes" } else { "NO" }.to_string(),
        ];
        println!("{}", row(&cells, &ewidths));
    }
    let er_pass: Vec<(usize, f64, f64)> = ER_FLOOR_PRODUCTS[2..]
        .iter()
        .map(|&products| {
            let f = fleet_of(ER_FLOOR_SOURCES, products);
            let decide = |n| pass_span_ms(&f, "wrangle/er/decide", |w| w.with_er_workers(n));
            (products, decide(1), decide(2))
        })
        .collect();
    println!("\nthe pipeline's own `wrangle/er/decide` span on the fleets over the floor (best of {REPS} passes):");
    for &(products, d1, d2) in &er_pass {
        println!(
            " {products} products: 1 worker {d1:.3} ms, 2 requested {d2:.3} ms ({:.2}x)",
            d2 / d1
        );
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
    let speedup4 = last.serial_ms / ms_at(&last.kernel_ms, 4);
    let scaling4 = ms_at(&last.kernel_ms, 1) / ms_at(&last.kernel_ms, 4);
    let verdict_speed = speedup4 >= 2.0;
    // On a machine with ≥4 cores the blocked pool must actually win at 4
    // workers; on narrower machines the sizing policy clamps the widths
    // together and the comparison is two measurements of the same
    // configuration (the gate script applies a noise tolerance there).
    let verdict_scaling = ms_at(&last.kernel_ms, 4) < ms_at(&last.kernel_ms, 1);
    let verdict_identical =
        results.iter().all(|r| r.identical) && er_floor.iter().all(|r| r.identical);
    let verdict_fuse_identical = fuse_results.iter().all(|r| r.identical);
    let verdict_workers = results.iter().all(|r| r.no_idle_worker);
    println!(
        "\nverdict: kernel@4 {} the 2x floor at {big} sources ({speedup4:.2}x); \
         k@1/k@4 = {scaling4:.2}x ({}); ER outputs {}; fuse outputs {}; \
         worker items {} candidates",
        if verdict_speed { "clears" } else { "MISSES" },
        if verdict_scaling {
            "positive scaling"
        } else {
            "NOT positive"
        },
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
        if verdict_workers { "cover" } else { "DROP" },
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
                "{{\"sources\":{},\"candidates\":{},\"serial_ms\":{:.4},\
                 \"kernel_ms\":{{{}}},\"identical\":{}}}",
                r.sources,
                r.candidates,
                r.serial_ms,
                ms_json(&r.kernel_ms),
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
                "{{\"sources\":{ER_FLOOR_SOURCES},\"products\":{},\"pairs\":{},\
                 \"width_at_2\":{},\"decide_ms\":{:.4},\"decide_exact2_ms\":{:.4},\
                 \"identical\":{}}}",
                r.products, r.pairs, r.width_at_2, r.decide1_ms, r.exact2_ms, r.identical,
            )
        })
        .collect();
    let er_pass_json: Vec<String> = er_pass
        .iter()
        .map(|(products, d1, d2)| {
            format!(
                "{{\"products\":{products},\"decide_span_ms\":{{\"1\":{d1:.4},\"2\":{d2:.4}}}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\"experiment\":\"e14_er_scaling\",\"seed\":{SEED},\"cores\":{cores},\
         \"speedup_at_4_workers\":{speedup4:.4},\
         \"fleets\":[{}],\"er_floor_fleets\":[{}],\"er_pass\":[{}],\"fuse_fleets\":[{}],\
         \"fuse_pass\":{{\"products\":{FUSE_PASS_PRODUCTS},\
         \"kernel_span_ms\":{{\"1\":{pass1:.4},\"4\":{pass4:.4}}}}}}}\n",
        fleets_json.join(","),
        er_floor_json.join(","),
        er_pass_json.join(","),
        fuse_fleets_json.join(",")
    );
    wrangler_bench::write_artifact("BENCH_e14.json", &json);

    println!("\nShape expected: the kernels win big even at 1 worker — precompilation (a");
    println!("dictionary per column, per-source weights cached once instead of per item) and,");
    println!("for ER, deciding ~99% of the candidates from ids without opening a string;");
    println!("extra workers help exactly when cores exist and the work clears the floor — the");
    println!("sizing policy refuses oversubscription — and never change a bit of output.");
}
