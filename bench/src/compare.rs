//! `perf_suite compare <a.json> <b.json>` — the one ratio-based gate.
//!
//! One row per (metric, workload): both medians, the ratio with its base,
//! the metric's bound (the `spec` table, which `BENCHMARK.json` repeats) and
//! a verdict. `unresolved` means the samples inside either file spread wider
//! than the bound, so the files cannot tell `same` from `worse`. Exits
//! non-zero on any `worse` row or a higher failed share.

use crate::json::Json;
use crate::spec::{Better, Metric, END_TO_END, PER_LAYER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the median and the quartile spread of its samples.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

/// `b` against `a` under `m`'s direction and bound.
pub fn verdict(m: &Metric, a: Side, b: Side) -> Verdict {
    if a.spread.max(b.spread) > m.bound {
        return Verdict::Unresolved;
    }
    let worsening = match m.better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    if worsening > m.bound {
        Verdict::Worse
    } else if worsening < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The runs of a result file: a merged file lists them under `runs`, a
/// single-workload file is one run.
fn runs(doc: &Json) -> Vec<&Json> {
    match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    }
}

fn side(run: &Json, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    let median = m.get("value")?.as_f64()?;
    let quartile = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(median);
    let spread = if median == 0.0 {
        0.0
    } else {
        (quartile("q3") - quartile("q1")) / median.abs()
    };
    Some(Side { median, spread })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two parsed result files; returns the report and whether the gate passes.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = format!(
        "{:<28} {:<10} {:>14} {:>14} {:>26} {:>10}  {}\n",
        "metric", "workload", "a", "b", "ratio (base a)", "bound", "verdict"
    );
    let mut pass = true;
    for ra in runs(a) {
        let key = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let (workload, kind) = (key(ra, "workload"), key(ra, "kind"));
        let Some(rb) = runs(b)
            .into_iter()
            .find(|r| key(r, "workload") == workload && key(r, "kind") == kind)
        else {
            out.push_str(&format!("{workload} ({kind}): missing from b\n"));
            pass = false;
            continue;
        };
        let gated = kind == "end_to_end";
        for m in if gated {
            &END_TO_END[..]
        } else {
            &PER_LAYER[..]
        } {
            let (Some(sa), Some(sb)) = (side(ra, m.name), side(rb, m.name)) else {
                out.push_str(&format!(
                    "{:<28} {workload:<10} missing from one side\n",
                    m.name
                ));
                pass &= !gated;
                continue;
            };
            let ratio = format!(
                "x{:.4} of {:.4} {}",
                sb.median / sa.median,
                sa.median,
                m.unit
            );
            let (bound, v) = if gated {
                let v = verdict(m, sa, sb);
                pass &= v != Verdict::Worse;
                (
                    format!("{:.0}% {}", m.bound * 100.0, m.better.name()),
                    v.name(),
                )
            } else {
                ("-".to_string(), "info")
            };
            out.push_str(&format!(
                "{:<28} {workload:<10} {:>14.4} {:>14.4} {ratio:>26} {bound:>10}  {v}\n",
                m.name, sa.median, sb.median
            ));
        }
        let share = |r: &Json| r.get("failed_share").and_then(Json::as_f64).unwrap_or(0.0);
        let higher = share(rb) > share(ra);
        pass &= !higher;
        out.push_str(&format!(
            "{:<28} {workload:<10} {:>14} {:>14} {:>26} {:>10}  {}\n",
            "failed_share",
            share(ra),
            share(rb),
            "",
            "0% lower",
            if higher { "worse" } else { "same" }
        ));
    }
    (out, pass)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: perf_suite compare <a.json> <b.json>".into());
    };
    let (report, pass) = compare(&load(a)?, &load(b)?);
    print!("{report}");
    println!(
        "{}",
        if pass {
            "gate: pass"
        } else {
            "gate: FAIL (a `worse` row, a missing row or a higher failed share)"
        }
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cold: f64, q1: f64, q3: f64, failed_share: f64) -> Json {
        let metrics = END_TO_END.iter().map(|m| {
            let (v, lo, hi) = if m.name == "cold_pass_ms" {
                (cold, q1, q3)
            } else {
                (10.0, 10.0, 10.0)
            };
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(v)),
                    ("q1", Json::Num(lo)),
                    ("q3", Json::Num(hi)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str("dense40")),
            ("kind", Json::str("end_to_end")),
            ("failed_share", Json::Num(failed_share)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = Metric {
            name: "t",
            unit: "ms",
            better: Better::Lower,
            bound: 0.10,
        };
        let higher = Metric {
            better: Better::Higher,
            ..lower
        };
        let at = |median| Side {
            median,
            spread: 0.01,
        };
        assert_eq!(verdict(&lower, at(100.0), at(105.0)), Verdict::Same);
        assert_eq!(verdict(&lower, at(100.0), at(111.0)), Verdict::Worse);
        assert_eq!(verdict(&lower, at(100.0), at(85.0)), Verdict::Better);
        assert_eq!(verdict(&higher, at(100.0), at(85.0)), Verdict::Worse);
        assert_eq!(verdict(&higher, at(100.0), at(111.0)), Verdict::Better);
        let noisy = Side {
            median: 150.0,
            spread: 0.2,
        };
        assert_eq!(verdict(&lower, at(100.0), noisy), Verdict::Unresolved);
    }

    #[test]
    fn gate_fails_on_worse_rows_and_on_more_failures() {
        let base = run(1000.0, 990.0, 1010.0, 0.0);
        let (report, pass) = compare(&base, &run(1020.0, 1010.0, 1030.0, 0.0));
        assert!(pass && report.contains("same"), "{report}");
        let (report, pass) = compare(&base, &run(1300.0, 1290.0, 1310.0, 0.0));
        assert!(!pass && report.contains("worse"), "{report}");
        let (_, pass) = compare(&base, &run(1000.0, 990.0, 1010.0, 0.1));
        assert!(!pass, "a higher failed share fails the gate");
        let merged = Json::obj([("runs", Json::Arr(vec![base.clone()]))]);
        assert!(compare(&merged, &base).1, "merged and single files compare");
        let (report, pass) = compare(&base, &Json::obj([("runs", Json::Arr(vec![]))]));
        assert!(!pass && report.contains("missing"), "{report}");
    }
}
