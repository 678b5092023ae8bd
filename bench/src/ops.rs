//! The five user operations, their set-up, and the closed measuring loop.
//!
//! One client: each operation waits for the previous one. Sessions keep
//! their default worker width (`available_parallelism`), so the process never
//! runs more threads than the machine has cores. The system is driven only
//! through `Wrangler`'s public API.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use wrangler_bench::session;
use wrangler_context::UserContext;
use wrangler_core::{CheckpointStore, CrashPolicy, CrashSite, WrangleOutcome, Wrangler};
use wrangler_feedback::{FeedbackItem, FeedbackTarget, Verdict};
use wrangler_sources::{SourceId, SyntheticFleet};
use wrangler_table::{wire, Table};

use crate::fleet::{build_fleet, nudged, payload, update_source, Workload};
use crate::timing::{median, summarize, time, Summary};

/// Set-ups per run, each on its own fleet drawn from the seed. Samples
/// rotate over them, so a reported median spans three fleets of one shape.
pub const SETUPS: usize = 3;
/// Re-fuse samples per round: the operation is milliseconds, its untimed
/// session clone is not.
pub const REFUSES_PER_ROUND: usize = 4;
/// Feedback items given before one `rewrangle()`.
pub const FEEDBACK_ITEMS: usize = 16;

/// Completeness-first keeps the selected set stable under updates (DESIGN §16).
pub fn user() -> UserContext {
    UserContext::completeness_first()
}

/// What "the same outcome" means: the delivered table and the shape facts a
/// reader would notice, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint(pub String);

pub fn fingerprint(out: &WrangleOutcome) -> Fingerprint {
    Fingerprint(format!(
        "table={:016x} sel={:?} skip={:?} ent={} util={:016x}",
        wire::table_hash(&out.table),
        out.selected_sources,
        out.skipped_sources,
        out.entities,
        out.utility.to_bits(),
    ))
}

/// One timed operation: wall-clock, the outcome, and the session that
/// produced it (the traced run reads its store and counters).
pub struct Pass {
    pub secs: f64,
    pub out: WrangleOutcome,
    pub session: Wrangler,
}

fn finish(
    secs: f64,
    r: wrangler_table::Result<WrangleOutcome>,
    session: Wrangler,
) -> Result<Pass, String> {
    r.map(|out| Pass { secs, out, session })
        .map_err(|e| e.to_string())
}

/// `wrangle()` on the given, not yet used session.
pub fn wrangle_timed(mut w: Wrangler) -> Result<Pass, String> {
    let (secs, r) = time(|| w.wrangle());
    finish(secs, r, w)
}

/// `wrangle()` on a fresh default session: obs on, lint deny, incr on and
/// empty, no store.
pub fn cold_pass(fleet: &SyntheticFleet) -> Result<Pass, String> {
    wrangle_timed(session(fleet, user()))
}

/// On a clone of a warm session: one source delivers a corrected payload,
/// then `wrangle()`.
pub fn update_pass(warm: &Wrangler, id: SourceId, delivery: &Table) -> Result<Pass, String> {
    let mut w = warm.clone();
    let delivery = delivery.clone();
    let (secs, r) = time(|| {
        w.update_source(id, delivery)?;
        w.wrangle()
    });
    finish(secs, r, w)
}

/// `wrangle()` with an empty checkpoint store attached: the write side.
pub fn ckpt_cold_pass(fleet: &SyntheticFleet, dir: &Path) -> Result<Pass, String> {
    let store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    wrangle_timed(session(fleet, user()).with_checkpoint_store(store))
}

/// `resume()` of a fresh session over a copy of a store left by a pass
/// killed after ER: the read side.
pub fn resume_pass(fleet: &SyntheticFleet, crashed: &Path, dir: &Path) -> Result<Pass, String> {
    copy_dir(crashed, dir).map_err(|e| e.to_string())?;
    let store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let mut w = session(fleet, user()).with_checkpoint_store(store);
    let (secs, r) = time(|| w.resume());
    finish(secs, r, w)
}

/// On a clone of a warm session: a sitting of expert feedback, then
/// `rewrangle()`.
pub fn refuse_pass(warm: &Wrangler, items: &[FeedbackItem]) -> Result<Pass, String> {
    let mut w = warm.clone();
    let items = items.to_vec();
    let (secs, r) = time(|| {
        for item in items {
            w.give_feedback(item);
        }
        w.rewrangle()
    });
    finish(secs, r, w)
}

/// Run a pass with a store attached and kill it right after the ER seam
/// persisted, leaving `dir` as a crashed process would.
fn crash_after_er(fleet: &SyntheticFleet, dir: &Path) -> Result<(), String> {
    let store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let mut w = session(fleet, user())
        .with_checkpoint_store(store)
        .with_crash_policy(CrashPolicy::panic_at(CrashSite::AfterEr));
    // The injected crash is a panic; keep its backtrace off the report.
    // (The session's own `catch_quiet` regions reset the library's mute flag,
    // so the hook is swapped here instead.)
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let crashed = catch_unwind(AssertUnwindSafe(|| w.wrangle())).is_err();
    std::panic::set_hook(hook);
    if crashed {
        Ok(())
    } else {
        Err("the pass never reached the post-ER crash site".into())
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Bytes on disk under a (flat) store directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Scratch space for checkpoint stores, under the benchmark's own `out/`
/// directory; removed when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    pub fn new(out_dir: &Path) -> Scratch {
        Scratch {
            root: out_dir.join(format!("scratch-{}", std::process::id())),
            next: 0,
        }
    }

    /// A path no earlier call returned; nothing exists there yet.
    pub fn fresh(&mut self, label: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{label}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Everything the timed operations need, prepared once per fleet: the
/// fleet, a warm session, the delivery and feedback to apply, a crashed
/// store, and the oracle of every operation — cold ≡ checkpointed ≡ resumed;
/// an incremental update ≡ the same update on a session with the incremental
/// engine off; every re-fuse ≡ the first. Running them also warms each code
/// path up before the clock starts.
pub struct Setup {
    pub fleet: SyntheticFleet,
    pub warm: Wrangler,
    pub reference: WrangleOutcome,
    pub update_id: SourceId,
    pub delivery: Table,
    pub feedback: Vec<FeedbackItem>,
    pub crashed: PathBuf,
    pub cold_ref: Fingerprint,
    pub update_ref: Fingerprint,
    pub refuse_ref: Fingerprint,
    pub secs: f64,
}

pub fn set_up(w: &Workload, seed: u64, k: usize, scratch: &mut Scratch) -> Result<Setup, String> {
    let started = Instant::now();
    let fleet = build_fleet(w, seed, k as u64);
    let Pass {
        out: reference,
        session: warm,
        ..
    } = cold_pass(&fleet)?;
    let cold_ref = fingerprint(&reference);

    let update_id =
        update_source(&fleet, &reference.selected_sources).ok_or("no source selected")?;
    let delivery = nudged(payload(&fleet, update_id));
    // The update oracle: the same delivery on a session that memoizes
    // nothing. Every timed, incremental update must reproduce it.
    let update_ref = {
        let mut scratch_session = warm.clone();
        scratch_session.set_incr_enabled(false);
        scratch_session
            .update_source(update_id, delivery.clone())
            .map_err(|e| e.to_string())?;
        fingerprint(&scratch_session.wrangle().map_err(|e| e.to_string())?)
    };

    let crashed = scratch.fresh("crashed");
    crash_after_er(&fleet, &crashed)?;
    let resume_dir = scratch.fresh("resume");
    let resumed = resume_pass(&fleet, &crashed, &resume_dir)?;
    let _ = std::fs::remove_dir_all(&resume_dir);
    if fingerprint(&resumed.out) != cold_ref {
        return Err("the crashed store does not resume to the cold outcome".into());
    }

    // An expert refutes `FEEDBACK_ITEMS` delivered prices spread evenly over
    // the table. One item's cost hinges on how many sources claim that one
    // slot and where else they have claims; a spread of them averages out.
    let price = warm.target().index_of("price").map_err(|e| e.to_string())?;
    let prices = reference
        .table
        .column_named("price")
        .map_err(|e| e.to_string())?;
    let delivered: Vec<usize> = (0..prices.len())
        .filter(|&e| !prices[e].is_null())
        .collect();
    let items = FEEDBACK_ITEMS.min(delivered.len());
    if items == 0 {
        return Err("no price delivered".into());
    }
    let feedback: Vec<FeedbackItem> = (0..items)
        .map(|i| {
            let entity = delivered[(2 * i + 1) * delivered.len() / (2 * items)];
            FeedbackItem::expert(
                FeedbackTarget::Value {
                    entity,
                    attr: price,
                    value: None,
                },
                Verdict::Negative,
                1.0,
            )
        })
        .collect();
    let refuse_ref = fingerprint(&refuse_pass(&warm, &feedback)?.out);

    Ok(Setup {
        fleet,
        warm,
        reference,
        update_id,
        delivery,
        feedback,
        crashed,
        cold_ref,
        update_ref,
        refuse_ref,
        secs: started.elapsed().as_secs_f64(),
    })
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Result of one run: operations attempted and failed, and a summary per metric.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Summary>,
}

/// Samples per metric, and the tally of operations against their oracles.
#[derive(Default)]
pub struct Ledger {
    pub samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn put(&mut self, metric: &str, value: f64) {
        self.samples
            .entry(metric.to_string())
            .or_default()
            .push(value);
    }

    /// Median of a metric's samples so far (NaN before the first).
    pub fn median(&self, metric: &str) -> f64 {
        self.samples.get(metric).map_or(f64::NAN, |v| median(v))
    }

    /// Record one operation: it fails if it is an `Err` or its outcome
    /// differs from its oracle. Only a correct operation contributes its
    /// time, in milliseconds, to `metric`. The pass is handed back.
    pub fn record(
        &mut self,
        metric: &str,
        pass: Result<Pass, String>,
        oracle: &Fingerprint,
    ) -> Result<Pass, String> {
        self.attempted += 1;
        match &pass {
            Ok(p) if fingerprint(&p.out) == *oracle => self.put(metric, p.secs * 1e3),
            Ok(_) => {
                eprintln!("{metric}: outcome differs from its oracle");
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("{metric}: {e}");
                self.failed += 1;
            }
        }
        pass
    }

    pub fn into_result(self) -> RunResult {
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            metrics: self
                .samples
                .iter()
                .map(|(k, v)| (k.clone(), summarize(v)))
                .collect(),
        }
    }
}

/// The end-to-end run of one workload: `SETUPS` set-ups, then rounds of the
/// five operations — at least one round per set-up — until `seconds` passed.
pub fn run_end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let mut scratch = Scratch::new(out_dir);
    let setups: Vec<Setup> = (0..SETUPS)
        .map(|k| set_up(w, seed, k, &mut scratch))
        .collect::<Result<_, _>>()?;

    let mut led = Ledger::default();
    let mut store_mib: Vec<Option<f64>> = vec![None; SETUPS];
    let started = Instant::now();
    let mut round = 0;
    while round < SETUPS || started.elapsed().as_secs_f64() < seconds {
        let k = round % SETUPS;
        let s = &setups[k];
        // A failed operation is counted, not fatal; each pass (and its
        // session) is dropped before the next starts.
        let _ = led.record("cold_pass_ms", cold_pass(&s.fleet), &s.cold_ref);
        let _ = led.record(
            "update_k1_pass_ms",
            update_pass(&s.warm, s.update_id, &s.delivery),
            &s.update_ref,
        );

        let dir = scratch.fresh("ckpt");
        let _ = led.record(
            "ckpt_cold_pass_ms",
            ckpt_cold_pass(&s.fleet, &dir),
            &s.cold_ref,
        );
        // (An interrupted pass leaves a smaller store; it also fails the run.)
        store_mib[k].get_or_insert(dir_bytes(&dir) as f64 / (1024.0 * 1024.0));
        let _ = std::fs::remove_dir_all(&dir);

        let dir = scratch.fresh("resume");
        let _ = led.record(
            "resume_post_er_ms",
            resume_pass(&s.fleet, &s.crashed, &dir),
            &s.cold_ref,
        );
        let _ = std::fs::remove_dir_all(&dir);

        for _ in 0..REFUSES_PER_ROUND {
            let _ = led.record(
                "refuse_pass_ms",
                refuse_pass(&s.warm, &s.feedback),
                &s.refuse_ref,
            );
        }
        round += 1;
    }

    for s in &setups {
        led.put("setup_s", s.secs);
    }
    // Exact per fleet, so one number per run: the middle fleet's.
    let store: Vec<f64> = store_mib.into_iter().flatten().collect();
    if !store.is_empty() {
        led.put("ckpt_store_mib", median(&store));
    }
    led.put("peak_rss_mib", peak_rss_mib());
    Ok(led.into_result())
}
