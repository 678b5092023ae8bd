//! E16 — the typed plan IR: static catch-rate and proof-carrying
//! optimization payoff (§4.2, Doan et al.'s compiled-wrangling agenda).
//!
//! Two claims under test. (1) *Analysis*: the whole-plan analyzer catches
//! the three plan-level defect classes — a dead column the projection still
//! consumes, a filter pushed below a lossy/uncertified cast, duplicated map
//! work over one source — statically, with zero error-grade findings on the
//! clean lowered plan. None of these raises a runtime error: without the
//! analyzer they ship silent corruption or silent waste. (2) *Optimization*:
//! executing the optimized plan (filter pushdown, shared target profiles,
//! dead-fusion skipping — every rewrite citing its analysis facts) delivers
//! a byte-identical table while cutting wall-clock and/or bytes scanned
//! versus naive execution, swept at 10/20/40 sources.
//!
//! Protocol: the standard fleet with a 2-of-6-categories row filter and a
//! `[sku, name, price]` projection, containment off (the barrier must be
//! down for acquisition-time pushdown to be legal — barrier-up placements
//! are covered by the core equivalence tests). Catch-rate injects each
//! defect class into the *real lowered* naive IR under 8 seeds. The sweep
//! wrangles each fleet size under naive and optimized modes, asserts the
//! delivered tables fingerprint-identical (`f64::to_bits`), and reads the
//! deterministic `scan.bytes` counters for the bytes-scanned axis.
//! `--counts` prints only the seeded-deterministic half (counters + the
//! rewrite ledger) for CI double-run diffing. A full run writes
//! `BENCH_e16.json`.
//!
//! `lint-allow:` exemptions here follow the experiment-binary convention:
//! drivers may panic on their own fixtures.

use std::time::Instant;

use wrangler_bench::{default_fleet_config, fleet, header, row, session};
use wrangler_context::UserContext;
use wrangler_core::{plan_table, ContainPolicy, OptMode, Wrangler};
use wrangler_lint::{Code, DefectClass};
use wrangler_plan::{analyze, inject_plan_defect};
use wrangler_sources::{FleetConfig, SyntheticFleet};
use wrangler_table::{Expr, Table, Value};

const SEED: u64 = 1606;
const SWEEP: [usize; 3] = [10, 20, 40];
const TRIALS: u64 = 8;
const REPS: usize = 3;

fn e16_fleet(num_sources: usize) -> SyntheticFleet {
    let cfg = FleetConfig {
        num_sources,
        ..default_fleet_config()
    };
    fleet(&cfg, SEED)
}

fn workload_filter() -> Expr {
    Expr::col("category")
        .eq(Expr::lit("electronics"))
        .or(Expr::col("category").eq(Expr::lit("home")))
}

fn build(f: &SyntheticFleet, mode: OptMode) -> Wrangler {
    session(f, UserContext::balanced("e16"))
        .with_contain_policy(ContainPolicy::off())
        .with_opt_mode(mode)
        .with_row_filter(workload_filter())
        .with_output_columns(vec!["sku".into(), "name".into(), "price".into()])
}

/// Bit-exact fingerprint: floats via `to_bits`, everything else via debug.
fn fingerprint(t: &Table) -> String {
    let mut s = String::new();
    for r in 0..t.num_rows() {
        for c in 0..t.num_columns() {
            match t.get(r, c).unwrap() {
                // lint-allow: experiment fixture
                Value::Float(v) => s.push_str(&format!("f{:016x};", v.to_bits())),
                v => s.push_str(&format!("{v:?};")),
            }
        }
        s.push('\n');
    }
    s
}

struct SweepRow {
    sources: usize,
    naive_s: f64,
    opt_s: f64,
    naive_bytes: u64,
    opt_bytes: u64,
    rewrites: usize,
    identical: bool,
}

fn sweep(num_sources: usize) -> SweepRow {
    let f = e16_fleet(num_sources);
    let run = |mode: OptMode| {
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..REPS {
            let mut w = build(&f, mode);
            let t = Instant::now();
            let out = w.wrangle().expect("faultless wrangle"); // lint-allow: experiment fixture
            best = best.min(t.elapsed().as_secs_f64());
            let bytes = out.metrics.counts.get("scan.bytes").copied().unwrap_or(0);
            let rewrites = w.plan_program().map_or(0, |p| p.rewrites.len());
            result = Some((fingerprint(&out.table), bytes, rewrites));
        }
        let (fp, bytes, rewrites) = result.expect("at least one rep"); // lint-allow: experiment fixture
        (best, fp, bytes, rewrites)
    };
    let (naive_s, naive_fp, naive_bytes, _) = run(OptMode::Naive);
    let (opt_s, opt_fp, opt_bytes, rewrites) = run(OptMode::Optimized);
    SweepRow {
        sources: num_sources,
        naive_s,
        opt_s,
        naive_bytes,
        opt_bytes,
        rewrites,
        identical: naive_fp == opt_fp,
    }
}

/// The clean naive IR as the wrangler actually lowered it for this fleet: a
/// naive-mode session executes it unrewritten.
fn lowered_naive_ir(num_sources: usize) -> wrangler_plan::PlanIr {
    let f = e16_fleet(num_sources);
    let mut w = build(&f, OptMode::Naive);
    w.wrangle().expect("clean wrangle"); // lint-allow: experiment fixture
    w.plan_program().expect("program recorded").ir.clone() // lint-allow: experiment fixture
}

fn main() {
    let counts_only = std::env::args().any(|a| a == "--counts");
    if counts_only {
        // Deterministic half only: counters plus the rewrite ledger of the
        // optimized 20-source run, byte-identical across runs.
        let f = e16_fleet(20);
        let mut w = build(&f, OptMode::Optimized);
        w.wrangle().expect("clean wrangle"); // lint-allow: experiment fixture
        print!("{}", w.metrics().render_counts());
        let ledger = plan_table(&w).expect("plan table"); // lint-allow: experiment fixture
        for r in 0..ledger.num_rows() {
            let cells: Vec<String> = (0..ledger.num_columns())
                .map(|c| ledger.get(r, c).unwrap().render()) // lint-allow: experiment fixture
                .collect();
            println!("rewrite: {}", cells.join(" | "));
        }
        return;
    }

    println!("E16: typed plan IR — static catch-rate + proof-carrying optimization");
    println!("(workload: category-filter (2 of 6 categories) + [sku,name,price]");
    println!(" projection, containment off so the scan barrier is down)\n");

    // --- Static catch-rate on the real lowered plan -------------------------
    let ir = lowered_naive_ir(10);
    let baseline = analyze(&ir);
    println!(
        "clean lowered plan: {} nodes, {} facts, {} error-grade findings (false positives)",
        ir.nodes.len(),
        baseline.facts.len(),
        baseline.report.errors().count()
    );
    let widths = [24, 7, 7, 9, 9];
    println!(
        "{}",
        header(&["plan defect class", "trials", "caught", "caught%", "runtime%"], &widths)
    );
    let classes = [
        (DefectClass::DeadColumnConsumed, Code::PlanDeadColumn),
        (DefectClass::LossyPushdown, Code::PlanLossyPushdown),
        (DefectClass::DuplicateMapWork, Code::PlanDuplicateMapWork),
    ];
    let mut catch = Vec::new();
    for (class, code) in classes {
        let mut trials = 0usize;
        let mut caught = 0usize;
        for k in 0..TRIALS {
            let inj_seed = SEED ^ ((class as u64) << 32) ^ k;
            let Some(bad) = inject_plan_defect(&ir, class, inj_seed) else {
                continue;
            };
            trials += 1;
            let report = analyze(&bad).report;
            if report.has_code(code) && !report.newly_versus(&baseline.report).is_empty() {
                caught += 1;
            }
        }
        println!(
            "{}",
            row(
                &[
                    class.name().to_string(),
                    trials.to_string(),
                    caught.to_string(),
                    format!("{:.0}", 100.0 * caught as f64 / trials.max(1) as f64),
                    // None of the plan classes raises any runtime error:
                    // execution happily fuses dead columns, filters lossy
                    // bindings and maps twice. Only the analyzer sees them.
                    "0".to_string(),
                ],
                &widths
            )
        );
        catch.push((class, trials, caught));
    }

    // --- Naive vs optimized sweep -------------------------------------------
    println!();
    let widths = [8, 9, 9, 8, 12, 12, 7, 9, 10];
    println!(
        "{}",
        header(
            &[
                "sources", "naive-ms", "opt-ms", "speedup", "naive-bytes", "opt-bytes",
                "bytes%", "rewrites", "identical"
            ],
            &widths
        )
    );
    let mut rows = Vec::new();
    for &n in &SWEEP {
        let r = sweep(n);
        println!(
            "{}",
            row(
                &[
                    r.sources.to_string(),
                    format!("{:.1}", 1e3 * r.naive_s),
                    format!("{:.1}", 1e3 * r.opt_s),
                    format!("{:.2}x", r.naive_s / r.opt_s),
                    r.naive_bytes.to_string(),
                    r.opt_bytes.to_string(),
                    format!(
                        "-{:.0}",
                        100.0 * (1.0 - r.opt_bytes as f64 / r.naive_bytes.max(1) as f64)
                    ),
                    r.rewrites.to_string(),
                    if r.identical { "yes" } else { "NO" }.to_string(),
                ],
                &widths
            )
        );
        rows.push(r);
    }

    // --- Verdicts ------------------------------------------------------------
    let all_caught = catch.iter().all(|(_, t, c)| *t > 0 && t == c);
    let zero_fp = baseline.report.errors().count() == 0;
    let at40 = rows.last().expect("sweep ran"); // lint-allow: const fixture
    let speedup = at40.naive_s / at40.opt_s;
    let bytes_cut = 1.0 - at40.opt_bytes as f64 / at40.naive_bytes.max(1) as f64;
    let all_identical = rows.iter().all(|r| r.identical);
    let verdict_perf = speedup >= 1.2 || bytes_cut >= 0.30;
    println!(
        "\nverdict: plan classes {} statically (zero false positives: {}); outputs {} \
         byte-identical; at 40 sources speedup = {speedup:.2}x, bytes scanned cut by \
         {:.0}% — {} the >=1.2x-or->=30% bar",
        if all_caught { "all caught" } else { "NOT all caught" },
        if zero_fp { "yes" } else { "NO" },
        if all_identical { "all" } else { "NOT" },
        100.0 * bytes_cut,
        if verdict_perf { "clears" } else { "MISSES" },
    );

    // --- Machine-readable results -------------------------------------------
    let catch_json: Vec<String> = catch
        .iter()
        .map(|(class, t, c)| {
            format!(
                "{{\"class\":\"{}\",\"trials\":{t},\"caught\":{c}}}",
                class.name()
            )
        })
        .collect();
    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"sources\":{},\"naive_s\":{:.4},\"opt_s\":{:.4},\"naive_bytes\":{},\
                 \"opt_bytes\":{},\"rewrites\":{},\"identical\":{}}}",
                r.sources, r.naive_s, r.opt_s, r.naive_bytes, r.opt_bytes, r.rewrites, r.identical
            )
        })
        .collect();
    let json = format!(
        "{{\"experiment\":\"e16_plan_opt\",\"seed\":{SEED},\
         \"catch\":[{}],\"sweep\":[{}],\
         \"speedup_at_40\":{speedup:.3},\"bytes_cut_at_40\":{bytes_cut:.3}}}\n",
        catch_json.join(","),
        rows_json.join(",")
    );
    wrangler_bench::write_artifact("BENCH_e16.json", &json);

    println!("\nShape expected: every plan class is caught statically with zero runtime");
    println!("signal — these defects ship silently without the analyzer. The optimized");
    println!("path pushes the filter below mapping for every cell-exact source, shares");
    println!("one target profile across the fleet and skips dead fusion slots, so bytes");
    println!("scanned falls sharply and wall-clock follows; outputs stay byte-identical");
    println!("because every rewrite had to cite a fact proving it invisible.");
}
