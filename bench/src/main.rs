//! `perf_suite` — the repo's benchmark: three fleets, five user operations,
//! a layered ledger. See `bench/README.md`.
//!
//! ```text
//! perf_suite [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! perf_suite --counts [--workload W] [--seed N]
//! perf_suite compare <a.json> <b.json> [--bounds BENCHMARK.json]
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! stdout is the result object the driver reads. Without it, each workload
//! runs in its own child process and the results are merged into one file.

mod compare;
mod fleet;
mod json;
mod layers;
mod machine;
mod ops;
mod spec;
mod timing;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use timing::Summary;

/// Seed used when none is given; the program only ever sees the fleets
/// generated from it.
const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    counts: bool,
    shape: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        counts: false,
        shape: false,
        out: PathBuf::from("bench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--counts" => a.counts = true,
            "--shape" => a.shape = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if fleet::workload(w).is_none() {
            let names: Vec<&str> = fleet::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; one of {names:?}"));
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    let mut m = BTreeMap::from([
        ("value".to_string(), Json::Num(s.median)),
        ("unit".to_string(), Json::str(unit)),
        ("n".to_string(), Json::Num(s.n as f64)),
        ("q1".to_string(), Json::Num(s.q1)),
        ("q3".to_string(), Json::Num(s.q3)),
    ]);
    if let Some((p, v)) = s.tail {
        m.insert(format!("p{p}"), Json::Num(v));
    }
    Json::Obj(m)
}

/// Print the metrics table and return (driver line metrics, result-file metrics).
fn report(table: &[spec::Metric], metrics: &BTreeMap<String, Summary>) -> (Json, Json) {
    println!(
        "{:<34} {:>14} {:<6} {:>4} {:>14} {:>14}",
        "metric", "median", "unit", "n", "q1", "q3"
    );
    let mut line = BTreeMap::new();
    let mut full = BTreeMap::new();
    for m in table {
        let Some(s) = metrics.get(m.name) else {
            println!("{:<34} {:>14}", m.name, "missing");
            continue;
        };
        let tail = s
            .tail
            .map_or(String::new(), |(p, v)| format!("  p{p}={v:.4}"));
        println!(
            "{:<34} {:>14.4} {:<6} {:>4} {:>14.4} {:>14.4}{tail}",
            m.name, s.median, m.unit, s.n, s.q1, s.q3
        );
        line.insert(
            m.name.to_string(),
            Json::obj([("value", Json::Num(s.median)), ("unit", Json::str(m.unit))]),
        );
        full.insert(m.name.to_string(), summary_json(s, m.unit));
    }
    (Json::Obj(line), Json::Obj(full))
}

/// One workload, in this process. The last line printed is the driver's.
fn run_workload(a: &Args, name: &str) -> Result<bool, String> {
    let w = fleet::workload(name).expect("validated by parse_args");
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let kind = if a.trace { "per_layer" } else { "end_to_end" };
    println!(
        "workload {name} ({kind}), seed {}, {} s, closed loop, 1 client",
        a.seed, a.seconds
    );
    println!("why: {}", w.why);
    let (result, table) = if a.trace {
        (layers::run_traced(w, a.seed, &a.out)?, &spec::PER_LAYER[..])
    } else {
        (
            ops::run_end_to_end(w, a.seed, a.seconds, &a.out)?,
            &spec::END_TO_END[..],
        )
    };
    let (line, full) = report(table, &result.metrics);
    let failed_share = result.failed as f64 / result.attempted.max(1) as f64;
    println!(
        "ops_attempted {}  ops_failed {}  failed_share {failed_share}",
        result.attempted, result.failed
    );
    let correct = result.failed == 0 && table.iter().all(|m| result.metrics.contains_key(m.name));

    let file = a.out.join(format!("{name}.{kind}.json"));
    let doc = Json::obj([
        ("machine", machine::describe(a.seed)),
        ("workload", Json::str(name)),
        ("kind", Json::str(kind)),
        ("seconds", Json::Num(a.seconds)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("failed_share", Json::Num(failed_share)),
        ("correct", Json::Bool(correct)),
        ("metrics", full),
    ]);
    std::fs::write(&file, format!("{doc}\n")).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());

    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(result.attempted as f64)),
            ("failed", Json::Num(result.failed as f64)),
            ("metrics", line),
        ])
    );
    // The verdict travels in the result line; the exit code says the
    // benchmark itself ran.
    Ok(true)
}

/// Every workload, each in its own child process, one after the other; the
/// children's result files are merged into `<out>/result.<kind>.json`.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let kind = if a.trace { "per_layer" } else { "end_to_end" };
    let mut all_correct = true;
    let mut runs = Vec::new();
    for w in &fleet::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &a.seed.to_string()])
            .args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
            ])
            .arg("--out")
            .arg(&a.out)
            .status()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let file = a.out.join(format!("{}.{kind}.json", w.name));
        let run = std::fs::read_to_string(&file)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{}: {e}", file.display()));
        match run {
            Ok(run) if status.success() => {
                all_correct &= run.get("correct") == Some(&Json::Bool(true));
                runs.push(run);
            }
            _ => all_correct = false,
        }
        println!();
    }
    let merged = a.out.join(format!("result.{kind}.json"));
    let doc = Json::obj([
        ("machine", machine::describe(a.seed)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&merged, format!("{doc}\n"))
        .map_err(|e| format!("{}: {e}", merged.display()))?;
    println!("wrote {}", merged.display());
    Ok(all_correct)
}

fn counts(a: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    for w in &fleet::WORKLOADS {
        if a.workload.as_deref().is_none_or(|n| n == w.name) {
            print!("{}", layers::render_counts(w, a.seed, &a.out)?);
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().is_some_and(|s| s == "compare") {
        compare::main(&args[1..])
    } else {
        parse_args(&args).and_then(|a| match &a.workload {
            _ if a.shape => {
                fleet::WORKLOADS
                    .iter()
                    .for_each(|w| print!("{}", fleet::shape_report(w)));
                Ok(true)
            }
            _ if a.counts => counts(&a),
            Some(name) => run_workload(&a, name),
            None => run_all(&a),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf_suite: {e}");
            ExitCode::from(2)
        }
    }
}
