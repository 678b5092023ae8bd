//! The machine descriptor written into every result file, so that ratios —
//! not milliseconds — are what gets compared across machines.

use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// A fixed integer loop; its rate is the machine's single-core score.
fn calibration_mops() -> f64 {
    const ITERS: u64 = 50_000_000;
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..ITERS {
        x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
    }
    std::hint::black_box(x);
    ITERS as f64 / started.elapsed().as_secs_f64() / 1e6
}

/// First line of a tool's stdout, or "unknown" (the driver's checkout is not
/// a git repository, and nothing here may fail the run).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn describe(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("calibration_mops", Json::Num(calibration_mops())),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}
