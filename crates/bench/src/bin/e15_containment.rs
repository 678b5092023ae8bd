//! E15 — stage-level fault containment under mid-pipeline poison (§2.2, §4.2).
//!
//! E11 hardened *acquisition*: sources that are down, slow or rate-limited.
//! But a source can clear acquisition and still poison the pipeline —
//! schema-drifted rows, type-poisoned cells, pathological strings, NaN/∞
//! payloads, oversized row dumps. Claim under test: the containment layer
//! ([`ContainPolicy`] + per-stage [`StageGuard`]s) quarantines the poisonous
//! source mid-pipeline and completes the pass on survivors, where the strict
//! abort discipline fails the whole pass; and the scans cost <2% when no
//! fault is present.
//!
//! Protocol: per fault rate, `TRIALS` seeded trials draw post-acquisition
//! payload-fault profiles (`FaultConfig::assign_payload`) over the fleet and
//! wrangle once under (a) containment and (b) abort-on-violation. Reported:
//! completion rate, mean output F1 on survivors (completed runs), mean
//! sources quarantined and rows dropped. The overhead section times
//! containment scans against the legacy no-scan path on a faultless fleet:
//! `PAIRS` interleaved pairs of fresh wrangles, off and on, whose paired
//! ratio's median and quartiles it prints. A single best-of-N time on each
//! side moved by more than the 2% ceiling between runs of unchanged code,
//! so the verdict reads `unresolved` while the quartiles lie further apart
//! than that ceiling. The chaos section injects deterministic
//! panics into every guarded stage and shows the pass surviving them.
//! Counts and the containment report are seeded-deterministic — `--counts`
//! prints only that half and CI double-runs it to assert byte-identical
//! output. A full run writes `BENCH_e15.json`.
//!
//! `lint-allow:` exemptions here follow the experiment-binary convention:
//! drivers may panic on their own fixtures.

use std::time::Instant;

use wrangler_bench::{default_fleet_config, fleet, header, row, session};
use wrangler_context::UserContext;
use wrangler_core::eval::score_against_truth;
use wrangler_core::{ChaosPolicy, ContainPolicy, Wrangler};
use wrangler_sources::faults::FaultConfig;
use wrangler_sources::{FleetConfig, SourceId, SyntheticFleet};

const SEED: u64 = 1506;
const RATES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
const TRIALS: u64 = 8;
const PAIRS: usize = 11;

/// Budgets tight enough that every payload profile is actually caught:
/// `Oversized` blows the row budget, `PathologicalStrings` the cell budget.
fn tight(mut policy: ContainPolicy) -> ContainPolicy {
    policy.max_rows_per_source = 400;
    policy.max_cell_bytes = 2048;
    policy
}

fn e15_fleet() -> SyntheticFleet {
    let cfg = FleetConfig {
        num_products: 120,
        ..default_fleet_config()
    };
    fleet(&cfg, SEED)
}

fn build(f: &SyntheticFleet, policy: ContainPolicy) -> Wrangler {
    session(f, UserContext::completeness_first()).with_contain_policy(policy)
}

struct Trial {
    ok: bool,
    f1: f64,
    quarantined: usize,
    dropped_rows: u64,
}

fn run_trial(f: &SyntheticFleet, rate: f64, trial: u64, policy: ContainPolicy) -> Trial {
    let mut w = build(f, policy);
    let profiles = FaultConfig::with_rate(rate, SEED.wrapping_add(trial))
        .assign_payload(f.registry.len());
    for (i, p) in profiles.iter().enumerate() {
        w.set_fault_profile(SourceId(i as u32), *p);
    }
    match w.wrangle() {
        Ok(out) => {
            let s = score_against_truth(&out.table, &f.truth, 0.005).expect("score"); // lint-allow: experiment fixture
            Trial {
                ok: true,
                f1: s.f1,
                quarantined: out.containment.quarantines.len(),
                dropped_rows: out.containment.totals().dropped_rows,
            }
        }
        Err(_) => Trial {
            ok: false,
            f1: 0.0,
            quarantined: w.containment_report().quarantines.len(),
            dropped_rows: w.containment_report().totals().dropped_rows,
        },
    }
}

struct RateRow {
    rate: f64,
    contain_ok: usize,
    abort_ok: usize,
    mean_f1: f64,
    mean_quarantined: f64,
    mean_dropped: f64,
}

fn sweep_rate(f: &SyntheticFleet, rate: f64) -> RateRow {
    let mut contain_ok = 0;
    let mut abort_ok = 0;
    let mut f1_sum = 0.0;
    let mut q_sum = 0usize;
    let mut d_sum = 0u64;
    for t in 0..TRIALS {
        let c = run_trial(f, rate, t, tight(ContainPolicy::contain()));
        if c.ok {
            contain_ok += 1;
            f1_sum += c.f1;
        }
        q_sum += c.quarantined;
        d_sum += c.dropped_rows;
        let a = run_trial(f, rate, t, tight(ContainPolicy::abort()));
        abort_ok += usize::from(a.ok);
    }
    RateRow {
        rate,
        contain_ok,
        abort_ok,
        mean_f1: if contain_ok > 0 {
            f1_sum / contain_ok as f64
        } else {
            0.0
        },
        mean_quarantined: q_sum as f64 / TRIALS as f64,
        mean_dropped: d_sum as f64 / TRIALS as f64,
    }
}

/// Wall-clock seconds of one fresh wrangle under `policy`.
fn wrangle_secs(f: &SyntheticFleet, policy: &ContainPolicy) -> f64 {
    let mut w = build(f, policy.clone());
    let t = Instant::now();
    std::hint::black_box(w.wrangle().expect("faultless wrangle")); // lint-allow: experiment fixture
    t.elapsed().as_secs_f64()
}

/// The `p` quantile of ascending `xs`, interpolated between ranks.
fn quantile(xs: &[f64], p: f64) -> f64 {
    let at = p * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

/// Containment's scan overhead on `f`: `PAIRS` pairs of fresh wrangles with
/// containment off and on, each pair's order alternating, after one
/// untimed wrangle of each. Returns the median off and on times and the
/// paired on/off ratio's quartiles `[q1, median, q3]`, as percentages over 1.
fn paired_overhead(f: &SyntheticFleet) -> (f64, f64, [f64; 3]) {
    let (off, on) = (ContainPolicy::off(), ContainPolicy::contain());
    wrangle_secs(f, &off);
    wrangle_secs(f, &on);
    let (mut offs, mut ons, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..PAIRS {
        let (off_s, on_s) = if i % 2 == 0 {
            let off_s = wrangle_secs(f, &off);
            (off_s, wrangle_secs(f, &on))
        } else {
            let on_s = wrangle_secs(f, &on);
            (wrangle_secs(f, &off), on_s)
        };
        offs.push(off_s);
        ons.push(on_s);
        ratios.push(on_s / off_s);
    }
    for xs in [&mut offs, &mut ons, &mut ratios] {
        xs.sort_by(f64::total_cmp);
    }
    let pct = |p| 100.0 * (quantile(&ratios, p) - 1.0);
    (
        quantile(&offs, 0.5),
        quantile(&ons, 0.5),
        [pct(0.25), pct(0.5), pct(0.75)],
    )
}

fn main() {
    let counts_only = std::env::args().any(|a| a == "--counts");
    if counts_only {
        // Deterministic half only: the 30%-fault containment run at trial 0,
        // counts plus the containment report, byte-identical across runs.
        let f = e15_fleet();
        let mut w = build(&f, tight(ContainPolicy::contain()));
        let profiles = FaultConfig::with_rate(0.3, SEED).assign_payload(f.registry.len());
        for (i, p) in profiles.iter().enumerate() {
            w.set_fault_profile(SourceId(i as u32), *p);
        }
        w.wrangle().expect("containment completes on survivors"); // lint-allow: experiment fixture
        print!("{}", w.metrics().render_counts());
        print!("{}", w.containment_report().render());
        return;
    }

    println!("E15: stage-level containment vs abort under mid-pipeline poison");
    println!("(contain = quarantine poisonous sources, complete on survivors;");
    println!(" abort = first violation fails the pass; {TRIALS} seeded trials/rate;");
    println!(" f1/quar/drop averaged over completed containment trials)\n");

    let f = e15_fleet();
    let widths = [7, 11, 9, 7, 7, 7];
    println!(
        "{}",
        header(
            &["fault%", "contain-ok", "abort-ok", "f1", "quar", "drop"],
            &widths
        )
    );
    let mut rows = Vec::new();
    for &rate in &RATES {
        let r = sweep_rate(&f, rate);
        println!(
            "{}",
            row(
                &[
                    format!("{:.0}", rate * 100.0),
                    format!("{}/{}", r.contain_ok, TRIALS),
                    format!("{}/{}", r.abort_ok, TRIALS),
                    format!("{:.3}", r.mean_f1),
                    format!("{:.1}", r.mean_quarantined),
                    format!("{:.0}", r.mean_dropped),
                ],
                &widths
            )
        );
        rows.push(r);
    }

    // --- Containment overhead on a faultless fleet --------------------------
    let (off_s, on_s, [q1_pct, overhead_pct, q3_pct]) = paired_overhead(&f);
    println!(
        "\ncontainment overhead at fault-rate 0 ({PAIRS} interleaved pairs): \
         off = {:.1}ms, contain = {:.1}ms (medians), paired overhead = \
         {overhead_pct:.2}% (quartiles {q1_pct:.2}% .. {q3_pct:.2}%)",
        1e3 * off_s,
        1e3 * on_s
    );

    // --- Chaos: deterministic panic injection into every guarded stage ------
    let chaos = ChaosPolicy::new(0.3, SEED);
    let mut w = build(&f, tight(ContainPolicy::contain()).with_chaos(chaos));
    let chaos_ok = w.wrangle().is_ok();
    let chaos_report = w.containment_report().clone();
    let chaos_panics = chaos_report.totals().panics_caught;
    let mut wa = build(
        &f,
        tight(ContainPolicy::abort()).with_chaos(ChaosPolicy::new(0.3, SEED)),
    );
    let chaos_abort_err = wa.wrangle().is_err();
    println!(
        "\nchaos harness (panic rate 30% across all guarded stages): contain {} \
         with {chaos_panics} panics caught and {} sources quarantined; abort {}",
        if chaos_ok { "completed" } else { "FAILED" },
        chaos_report.quarantines.len(),
        if chaos_abort_err {
            "failed as designed"
        } else {
            "UNEXPECTEDLY COMPLETED"
        },
    );

    // --- Verdicts ------------------------------------------------------------
    let at30 = rows.iter().find(|r| (r.rate - 0.3).abs() < 1e-9).expect("rate table covers 30%"); // lint-allow: const fixture
    let verdict_complete = at30.contain_ok as f64 / TRIALS as f64 >= 0.95;
    let verdict_abort = at30.abort_ok == 0;
    // The ceiling is read only when the pairs agree to within it.
    let verdict_overhead = if q3_pct - q1_pct > 2.0 {
        "unresolved against"
    } else if overhead_pct < 2.0 {
        "under"
    } else {
        "OVER"
    };
    println!(
        "\nverdict: containment completion at 30% faults {} the 95% floor \
         ({}/{TRIALS}); abort baseline {} ({}/{TRIALS}); scan overhead {} the 2% \
         ceiling ({overhead_pct:.2}%); chaos pass {}",
        if verdict_complete { "clears" } else { "MISSES" },
        at30.contain_ok,
        if verdict_abort { "fails outright" } else { "SURVIVES" },
        at30.abort_ok,
        verdict_overhead,
        if chaos_ok && chaos_abort_err { "contained" } else { "NOT CONTAINED" },
    );

    // --- Machine-readable results -------------------------------------------
    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"fault_rate\":{:.2},\"contain_ok\":{},\"abort_ok\":{},\"trials\":{TRIALS},\
                 \"mean_f1\":{:.4},\"mean_quarantined\":{:.2},\"mean_dropped_rows\":{:.1}}}",
                r.rate, r.contain_ok, r.abort_ok, r.mean_f1, r.mean_quarantined, r.mean_dropped
            )
        })
        .collect();
    let json = format!(
        "{{\"experiment\":\"e15_containment\",\"seed\":{SEED},\
         \"overhead_pct\":{overhead_pct:.4},\"overhead_q1_pct\":{q1_pct:.4},\
         \"overhead_q3_pct\":{q3_pct:.4},\"overhead_pairs\":{PAIRS},\
         \"chaos\":{{\"contain_completed\":{chaos_ok},\"panics_caught\":{chaos_panics},\
         \"abort_failed\":{chaos_abort_err}}},\
         \"rates\":[{}]}}\n",
        rows_json.join(",")
    );
    wrangler_bench::write_artifact("BENCH_e15.json", &json);

    println!("\nShape expected: abort-ok collapses as soon as any poison profile lands");
    println!("(one bad source fails the whole pass); contain-ok stays at or near full");
    println!("completion with F1 degrading gracefully as survivors thin out. The scans");
    println!("are a single pass over union rows — noise next to ER.");
}
