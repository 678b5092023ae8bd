//! E13 — pipeline observability: overhead and stage attribution (§4.2).
//!
//! Claim under test: the `wrangler-obs` telemetry layer is cheap enough to
//! leave on (<5% wall-clock overhead versus `ObsMode::Off` on the 40-source
//! workload) and informative enough to attribute where a wrangle's time goes
//! (direct-child stage spans cover ≥95% of the root span's wall clock).
//!
//! Protocol: per fleet size, build a fresh session and wrangle once with
//! telemetry on, recording per-stage wall-clock shares from the span tree.
//! For the overhead measurement, run `REPS` fresh sessions per mode on the
//! largest fleet, the modes taking turns, and compare **best-of-REPS** wall
//! clock On vs Off — the estimator E14 uses. The median was noisy enough on this workload to
//! report a *negative* overhead (-7.6% in one run): scheduling jitter per
//! rep exceeds the actual telemetry cost, and the minimum is the standard
//! low-noise estimator of a run's intrinsic cost. Timings are
//! wall-clock and therefore vary run to run; the *count* half of the metrics
//! report is a pure function of the seeded data flow. `--counts` prints only
//! that half, and CI double-runs it to assert byte-identical output. A full
//! run also writes `BENCH_e13.json` with the machine-readable results.
//!
//! `lint-allow:` exemptions here follow the experiment-binary convention:
//! drivers may panic on their own fixtures.

use std::time::Instant;

use wrangler_bench::{default_fleet_config, fleet, header, row, session};
use wrangler_context::UserContext;
use wrangler_core::{ObsMode, Wrangler};
use wrangler_sources::FleetConfig;

const SEED: u64 = 1301;
const FLEET_SIZES: [usize; 3] = [10, 20, 40];
/// Fresh sessions per mode in the overhead measurement. It was 5 while a
/// 40-source pass took ~25 ms; the pass is ~10 ms now and half a millisecond
/// of scheduler noise is 5% of it.
const REPS: usize = 15;

/// The pipeline stages in execution order (direct children of "wrangle").
const STAGES: [&str; 9] = [
    "select",
    "acquire",
    "map_generate",
    "preflight",
    "map_apply",
    "union",
    "er",
    "fuse",
    "assemble",
];

fn build(num_sources: usize, mode: ObsMode) -> Wrangler {
    let cfg = FleetConfig {
        num_sources,
        ..default_fleet_config()
    };
    let f = fleet(&cfg, SEED);
    session(&f, UserContext::balanced("e13")).with_obs_mode(mode)
}

/// Best (minimum) wall-clock seconds of `REPS` fresh wrangles per mode, as
/// `(off, on)`, the two modes taking turns so that a shift in the machine's
/// state lands on both. Best-of-N, as E14: the minimum estimates intrinsic
/// cost; the median still carries enough scheduler jitter to swamp a
/// few-percent overhead signal.
fn best_walls(num_sources: usize) -> (f64, f64) {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..REPS {
        for (slot, mode) in [ObsMode::Off, ObsMode::On].into_iter().enumerate() {
            let mut w = build(num_sources, mode);
            let t = Instant::now();
            w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
            best[slot] = best[slot].min(t.elapsed().as_secs_f64());
        }
    }
    (best[0], best[1])
}

fn main() {
    let counts_only = std::env::args().any(|a| a == "--counts");
    if counts_only {
        // Deterministic half only: counts and gauges of the largest workload,
        // byte-identical across runs of the same build on the same machine.
        let mut w = build(*FLEET_SIZES.last().expect("const non-empty"), ObsMode::On); // lint-allow: const fixture
        w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
        print!("{}", w.metrics().render_counts());
        return;
    }

    println!("E13: observability overhead + per-stage attribution (200 products)");
    println!("(share% = stage span wall / root span wall from the telemetry span tree;");
    println!(" coverage% = sum of direct-child stage shares — unattributed time is");
    println!(" span bookkeeping and inter-stage glue)\n");

    // --- Per-stage attribution across fleet sizes ---------------------------
    let widths = [7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9];
    let mut names = vec!["sources", "wall_ms"];
    names.extend(STAGES.iter().map(|s| match *s {
        "map_generate" => "map_gen",
        "map_apply" => "map_app",
        "preflight" => "preflt",
        "assemble" => "asm",
        other => other,
    }));
    names.push("coverage%");
    println!("{}", header(&names, &widths));

    let mut fleets_json = Vec::new();
    for &n in &FLEET_SIZES {
        let mut w = build(n, ObsMode::On);
        w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
        let m = w.metrics();
        let root_ns = m.timings.get("wrangle").map_or(0, |t| t.nanos);
        let share = |stage: &str| -> f64 {
            let ns = m.timings.get(&format!("wrangle/{stage}")).map_or(0, |t| t.nanos);
            if root_ns == 0 {
                0.0
            } else {
                ns as f64 / root_ns as f64
            }
        };
        let coverage = m.stage_coverage("wrangle");
        let mut cells = vec![
            n.to_string(),
            format!("{:.1}", root_ns as f64 / 1e6),
        ];
        cells.extend(STAGES.iter().map(|s| format!("{:.1}", 100.0 * share(s))));
        cells.push(format!("{:.1}", 100.0 * coverage));
        println!("{}", row(&cells, &widths));
        let stage_json = STAGES
            .iter()
            .map(|s| format!("\"{s}\":{:.4}", share(s)))
            .collect::<Vec<_>>()
            .join(",");
        fleets_json.push(format!(
            "{{\"sources\":{n},\"wall_ms\":{:.3},\"coverage\":{:.4},\"stage_shares\":{{{stage_json}}}}}",
            root_ns as f64 / 1e6,
            coverage
        ));
    }

    // --- Overhead: On vs Off on the largest workload ------------------------
    let big = *FLEET_SIZES.last().expect("const non-empty"); // lint-allow: const fixture
    let (off, on) = best_walls(big);
    let overhead = if off > 0.0 { on / off - 1.0 } else { 0.0 };
    println!(
        "\noverhead at {big} sources (best of {REPS} fresh sessions):\n  \
         off = {:.1} ms, on = {:.1} ms, overhead = {:+.2}%  (budget: <5%)",
        off * 1e3,
        on * 1e3,
        overhead * 100.0
    );
    let verdict_overhead = overhead < 0.05;
    let verdict_coverage = {
        let mut w = build(big, ObsMode::On);
        w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
        w.metrics().stage_coverage("wrangle") >= 0.95
    };
    println!(
        "verdict: overhead {} budget, stage coverage {} 95% floor",
        if verdict_overhead { "within" } else { "OVER" },
        if verdict_coverage { "meets" } else { "BELOW" },
    );

    // --- Machine-readable results -------------------------------------------
    let mut w = build(big, ObsMode::On);
    w.wrangle().expect("seeded workload wrangles"); // lint-allow: experiment fixture
    let json = format!(
        "{{\"experiment\":\"e13_observability\",\"seed\":{SEED},\
         \"overhead\":{{\"off_s\":{off:.6},\"on_s\":{on:.6},\"fraction\":{overhead:.6}}},\
         \"fleets\":[{}],\"metrics\":{}}}\n",
        fleets_json.join(","),
        w.metrics().to_json()
    );
    wrangler_bench::write_artifact("BENCH_e13.json", &json);

    println!("\nShape expected: no stage dominates. er is the largest at about 0.3 of a");
    println!("40-source pass — it walks the blocks and decides ~99% of the candidates from");
    println!("dictionary ids, opening a text field for the rest — with select (~0.25),");
    println!("map_generate (~0.17) and fuse (~0.15) behind it: the next optimisation is no");
    println!("longer ER's by default. er's own split is in the report's wrangle/er/* spans.");
    println!("Counts and gauges are seeded-deterministic; re-run with --counts and diff.");
}
