//! Stage-level fault containment.
//!
//! PR 1 made *acquisition* resilient: a source that fails to answer is
//! retried, breaker-gated, and finally skipped while the pass completes on
//! survivors. This module extends the same philosophy past the acquisition
//! boundary into the pipeline itself. A payload that clears acquisition and
//! then breaks `map_apply`, union, ER, or fuse must degrade the pass, not
//! kill it: the offending source is *quarantined* mid-pipeline, the event is
//! recorded in a [`ContainmentReport`], and the wrangle completes on the
//! surviving sources — exactly like acquisition degradation does today.
//!
//! Three mechanisms, all seeded-deterministic:
//!
//! * **Poison scanning** — rows are inspected at the union boundary for
//!   payloads the downstream stages cannot digest (non-finite floats,
//!   oversized cells, control bytes). Individual poison rows are dropped;
//!   a source exceeding [`ContainPolicy::poison_row_threshold`] is ejected.
//! * **Budgets / deadlines** — logical per-stage limits (row budget per
//!   source, alignment-cell budget for schema matching) play the role of
//!   wall-clock deadlines without breaking determinism, mirroring
//!   `acquire::RetryPolicy::attempt_deadline`.
//! * **Panic isolation** — per-source-partition `catch_unwind`, generalizing
//!   the ad-hoc worker-panic catch that used to live inline in `wrangler.rs`.
//!   A panicking partition quarantines its source; the hook-muted catch keeps
//!   stderr clean.
//!
//! The [`ChaosPolicy`] exists because the organic pipeline (post PR 3/4) is
//! NaN-safe and junk-tolerant: without injected panics the panic-isolation
//! path would be dead code in tests. Chaos rolls are drawn from the seed via
//! splitmix, so a chaos run is exactly reproducible.

use std::collections::BTreeMap;
use std::fmt;

use wrangler_sources::SourceId;
use wrangler_table::{TableError, Value};

use wrangler_obs::Telemetry;

/// Pipeline stages a guard can wrap, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Schema matching: generating a mapping per source.
    MapGenerate,
    /// Pre-flight lint gate over the plan and per-source artifacts.
    Preflight,
    /// Executing each source's mapping against its payload.
    MapApply,
    /// Union of mapped rows into the working set.
    Union,
    /// Entity resolution over the unioned rows.
    Er,
    /// Conflict resolution / fusion of claims into slots.
    Fuse,
    /// Final table assembly.
    Assemble,
}

impl Stage {
    /// Canonical lowercase name, used in counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::MapGenerate => "map_generate",
            Stage::Preflight => "preflight",
            Stage::MapApply => "map_apply",
            Stage::Union => "union",
            Stage::Er => "er",
            Stage::Fuse => "fuse",
            Stage::Assemble => "assemble",
        }
    }

    /// All stages in execution order.
    pub fn all() -> [Stage; 7] {
        [
            Stage::MapGenerate,
            Stage::Preflight,
            Stage::MapApply,
            Stage::Union,
            Stage::Er,
            Stage::Fuse,
            Stage::Assemble,
        ]
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the pipeline responds to a mid-stage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContainMode {
    /// No scanning, no chaos, no quarantine: the legacy pipeline. Used as
    /// the overhead baseline in E15 — a wrangle under `Off` must cost the
    /// same as before this module existed.
    Off,
    /// Scans and budgets are enforced but the first violation aborts the
    /// whole pass with a structured error. The E15 "abort baseline".
    Abort,
    /// Quarantine-and-continue (the default): offending sources are ejected,
    /// the pass completes on survivors.
    #[default]
    Contain,
}

/// Deterministic mid-pipeline panic injection, for exercising the
/// panic-isolation path that organic data cannot reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPolicy {
    /// Probability in `[0, 1]` that a given (stage, source) partition panics.
    pub panic_rate: f64,
    /// Seed for the chaos rolls; independent of the fleet seed.
    pub seed: u64,
    /// Restrict injection to one stage (None = all guarded stages).
    pub only_stage: Option<Stage>,
}

impl ChaosPolicy {
    /// New policy injecting panics at `panic_rate` across all stages.
    pub fn new(panic_rate: f64, seed: u64) -> ChaosPolicy {
        ChaosPolicy {
            panic_rate,
            seed,
            only_stage: None,
        }
    }

    /// Restrict injection to `stage`.
    pub fn at_stage(mut self, stage: Stage) -> ChaosPolicy {
        self.only_stage = Some(stage);
        self
    }

    /// Deterministic roll: should the (stage, source) partition panic?
    pub fn should_panic(&self, stage: Stage, source: SourceId) -> bool {
        if let Some(only) = self.only_stage {
            if only != stage {
                return false;
            }
        }
        if self.panic_rate <= 0.0 {
            return false;
        }
        let z = mix3(self.seed, stage as u64 + 1, u64::from(source.0));
        unit_roll(z) < self.panic_rate
    }
}

/// splitmix64-style mixer over three words; the chaos twin of
/// `wrangler_sources::faults::mix`.
fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a mixed word to `[0, 1)`.
fn unit_roll(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Containment configuration: mode, budgets, thresholds, optional chaos.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainPolicy {
    /// Response mode. Default [`ContainMode::Contain`].
    pub mode: ContainMode,
    /// Row budget per source at `map_apply`; excess rows are dropped
    /// (deterministic prefix) and counted as a deadline hit.
    pub max_rows_per_source: usize,
    /// A `Str` cell longer than this many bytes is poison.
    pub max_cell_bytes: usize,
    /// Alignment budget at `map_generate`: a source whose `rows × cols`
    /// exceeds this is quarantined before schema matching starts (the
    /// logical-clock deadline for the most expensive stage).
    pub max_align_cells: usize,
    /// A source dropping at least this many poison rows in one pass is
    /// ejected entirely rather than filtered row-by-row.
    pub poison_row_threshold: usize,
    /// Optional deterministic panic injection.
    pub chaos: Option<ChaosPolicy>,
}

impl Default for ContainPolicy {
    fn default() -> Self {
        ContainPolicy {
            mode: ContainMode::Contain,
            max_rows_per_source: 100_000,
            max_cell_bytes: 4096,
            max_align_cells: 2_000_000,
            poison_row_threshold: 8,
            chaos: None,
        }
    }
}

impl ContainPolicy {
    /// Default quarantine-and-continue policy.
    pub fn contain() -> ContainPolicy {
        ContainPolicy::default()
    }

    /// Strict mode: scans on, first violation aborts the pass.
    pub fn abort() -> ContainPolicy {
        ContainPolicy {
            mode: ContainMode::Abort,
            ..ContainPolicy::default()
        }
    }

    /// Legacy mode: no scans, no chaos, no quarantine.
    pub fn off() -> ContainPolicy {
        ContainPolicy {
            mode: ContainMode::Off,
            ..ContainPolicy::default()
        }
    }

    /// Attach a chaos policy.
    pub fn with_chaos(mut self, chaos: ChaosPolicy) -> ContainPolicy {
        self.chaos = Some(chaos);
        self
    }

    /// True when poison scanning and budget checks run at all.
    pub fn scans_enabled(&self) -> bool {
        self.mode != ContainMode::Off
    }

    /// True in legacy mode.
    pub fn is_off(&self) -> bool {
        self.mode == ContainMode::Off
    }
}

/// One quarantine decision: which source, at which stage, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// The ejected source.
    pub source: SourceId,
    /// The stage where the fault surfaced.
    pub stage: Stage,
    /// Human-readable reason (stable across runs at a fixed seed).
    pub reason: String,
}

/// Per-stage containment tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTallies {
    /// Sources ejected at this stage.
    pub quarantined: u64,
    /// Rows dropped at this stage (poison rows + budget truncation).
    pub dropped_rows: u64,
    /// Budget / deadline violations observed.
    pub deadline_hits: u64,
    /// Panics caught and converted to quarantines.
    pub panics_caught: u64,
}

impl StageTallies {
    fn is_zero(&self) -> bool {
        self.quarantined == 0
            && self.dropped_rows == 0
            && self.deadline_hits == 0
            && self.panics_caught == 0
    }
}

/// What containment did during one pass: every quarantine decision plus
/// per-stage tallies. Deterministic at a fixed seed — E15 asserts the
/// rendered report is byte-identical across double runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContainmentReport {
    /// Quarantine events in the order they were decided.
    pub quarantines: Vec<QuarantineEvent>,
    stages: BTreeMap<&'static str, StageTallies>,
}

impl ContainmentReport {
    /// Record a source ejection.
    pub fn record_quarantine(&mut self, source: SourceId, stage: Stage, reason: impl Into<String>) {
        self.quarantines.push(QuarantineEvent {
            source,
            stage,
            reason: reason.into(),
        });
        self.stages.entry(stage.name()).or_default().quarantined += 1;
    }

    /// Count `n` rows dropped at `stage`.
    pub fn drop_rows(&mut self, stage: Stage, n: u64) {
        self.stages.entry(stage.name()).or_default().dropped_rows += n;
    }

    /// Count a budget/deadline violation at `stage`.
    fn hit_deadline(&mut self, stage: Stage) {
        self.stages.entry(stage.name()).or_default().deadline_hits += 1;
    }

    /// Count a caught panic at `stage`.
    pub fn caught_panic(&mut self, stage: Stage) {
        self.stages.entry(stage.name()).or_default().panics_caught += 1;
    }

    /// Tallies for `stage` (zeroes if the stage never recorded anything).
    pub fn tallies(&self, stage: Stage) -> StageTallies {
        self.stages.get(stage.name()).copied().unwrap_or_default()
    }

    /// Overwrite `stage`'s tallies wholesale — the checkpoint-restore path,
    /// which rebuilds a report exactly as the crashed pass left it. A
    /// zero tally removes the entry so restored reports compare equal
    /// (`PartialEq`) to originals that never touched the stage.
    pub fn set_tallies(&mut self, stage: Stage, t: StageTallies) {
        if t.is_zero() {
            self.stages.remove(stage.name());
        } else {
            self.stages.insert(stage.name(), t);
        }
    }

    /// Ids of all quarantined sources, deduplicated, ascending.
    pub fn quarantined_sources(&self) -> Vec<SourceId> {
        let mut ids: Vec<SourceId> = self.quarantines.iter().map(|q| q.source).collect();
        ids.sort_by_key(|id| id.0);
        ids.dedup();
        ids
    }

    /// True when nothing was quarantined, dropped, or caught.
    pub fn is_clean(&self) -> bool {
        self.quarantines.is_empty() && self.stages.values().all(StageTallies::is_zero)
    }

    /// Summed tallies across all stages.
    pub fn totals(&self) -> StageTallies {
        let mut t = StageTallies::default();
        for s in self.stages.values() {
            t.quarantined += s.quarantined;
            t.dropped_rows += s.dropped_rows;
            t.deadline_hits += s.deadline_hits;
            t.panics_caught += s.panics_caught;
        }
        t
    }

    /// Canonical text rendering — stable across runs at a fixed seed, used
    /// by E15's double-run byte-identity check.
    pub fn render(&self) -> String {
        let mut out = String::from("containment report\n");
        if self.is_clean() {
            out.push_str("  clean pass: no quarantines, no drops\n");
            return out;
        }
        for (stage, t) in &self.stages {
            if t.is_zero() {
                continue;
            }
            out.push_str(&format!(
                "  {stage}: quarantined={} dropped_rows={} deadline_hits={} panics_caught={}\n",
                t.quarantined, t.dropped_rows, t.deadline_hits, t.panics_caught
            ));
        }
        for q in &self.quarantines {
            out.push_str(&format!(
                "  src{} @ {}: {}\n",
                q.source.0,
                q.stage.name(),
                q.reason
            ));
        }
        out
    }

    /// Emit `contain.<stage>.*` counters into the telemetry sink. Zero
    /// tallies are skipped, matching the obs convention that absent and
    /// zero are the same thing.
    pub fn emit(&self, obs: &mut Telemetry) {
        if !obs.is_on() {
            return;
        }
        for (stage, t) in &self.stages {
            if t.quarantined > 0 {
                obs.count(&format!("contain.{stage}.quarantined"), t.quarantined);
            }
            if t.dropped_rows > 0 {
                obs.count(&format!("contain.{stage}.dropped_rows"), t.dropped_rows);
            }
            if t.deadline_hits > 0 {
                obs.count(&format!("contain.{stage}.deadline_hits"), t.deadline_hits);
            }
            if t.panics_caught > 0 {
                obs.count(&format!("contain.{stage}.panics_caught"), t.panics_caught);
            }
        }
    }
}

/// Outcome of a guarded per-source stage execution.
#[derive(Debug)]
pub enum Guarded<T> {
    /// The closure completed; here is its value.
    Ok(T),
    /// The source was quarantined (Contain mode); the caller should drop it
    /// from the pass and continue.
    Quarantined,
    /// Fatal: propagate this error (Abort/Off modes, or zero survivors).
    Fatal(TableError),
}

// The panic-to-message adapter now lives in `wrangler_table::par` so the
// compute kernels in leaf crates (resolve, fusion) can use it for per-item
// isolation; re-exported here for the containment layer's callers.
pub use wrangler_table::par::{catch_quiet, panic_message};

/// Run `f` under panic isolation when containment is `on` (a panic comes
/// back as its message); run it bare otherwise.
pub(crate) fn isolate<T>(on: bool, f: impl FnOnce() -> T) -> Result<T, String> {
    if on {
        catch_quiet(f)
    } else {
        Ok(f())
    }
}

/// Scan one row for payloads the pipeline must not ingest. Returns the
/// reason when poisoned. Newlines/tabs/CRs are legitimate in text cells;
/// other control bytes are not.
pub fn poison_reason(row: &[Value], policy: &ContainPolicy) -> Option<&'static str> {
    for v in row {
        match v {
            Value::Float(f) if !f.is_finite() => return Some("non-finite numeric cell"),
            Value::Str(s) => {
                if s.len() > policy.max_cell_bytes {
                    return Some("oversized cell");
                }
                if s.chars()
                    .any(|c| c.is_control() && c != '\n' && c != '\t' && c != '\r')
                {
                    return Some("control bytes in cell");
                }
            }
            _ => {}
        }
    }
    None
}

/// A guard wrapping one pipeline stage: runs per-source closures with panic
/// isolation and chaos injection, and converts faults into quarantine
/// decisions (Contain) or structured errors (Abort/Off).
pub struct StageGuard<'a> {
    stage: Stage,
    policy: &'a ContainPolicy,
    report: &'a mut ContainmentReport,
}

impl<'a> StageGuard<'a> {
    /// Guard `stage` under `policy`, recording into `report`.
    pub fn new(
        stage: Stage,
        policy: &'a ContainPolicy,
        report: &'a mut ContainmentReport,
    ) -> StageGuard<'a> {
        StageGuard {
            stage,
            policy,
            report,
        }
    }

    /// The guarded stage.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Mutable access to the underlying report, for stage-specific tallies
    /// (e.g. counting dropped poison rows alongside a `run` call).
    pub fn report_mut(&mut self) -> &mut ContainmentReport {
        self.report
    }

    /// Run `f` for `source` with panic isolation and (in non-Off modes)
    /// chaos injection. An `Err` or panic quarantines the source in Contain
    /// mode and is fatal otherwise.
    pub fn run<T>(
        &mut self,
        source: SourceId,
        f: impl FnOnce() -> Result<T, TableError>,
    ) -> Guarded<T> {
        let chaos_hit = !self.policy.is_off()
            && self
                .policy
                .chaos
                .as_ref()
                .is_some_and(|c| c.should_panic(self.stage, source));
        let stage = self.stage;
        let outcome = catch_quiet(move || {
            if chaos_hit {
                panic!("chaos: injected {stage} panic"); // lint-allow: deterministic chaos injection, caught by this guard
            }
            f()
        });
        match outcome {
            Ok(Ok(value)) => Guarded::Ok(value),
            Ok(Err(e)) => match self.flag(source, &format!("error: {e}")) {
                None => Guarded::Quarantined,
                Some(fatal) => Guarded::Fatal(fatal),
            },
            Err(msg) => {
                self.report.caught_panic(self.stage);
                match self.flag(source, &format!("panicked: {msg}")) {
                    None => Guarded::Quarantined,
                    Some(fatal) => Guarded::Fatal(fatal),
                }
            }
        }
    }

    /// Flag `source` as faulty. In Contain mode this records a quarantine
    /// and returns `None` (caller continues on survivors); in Abort/Off it
    /// returns the structured error to propagate.
    pub fn flag(&mut self, source: SourceId, reason: &str) -> Option<TableError> {
        match self.policy.mode {
            ContainMode::Contain => {
                self.report.record_quarantine(source, self.stage, reason);
                None
            }
            ContainMode::Abort | ContainMode::Off => Some(TableError::Unavailable(format!(
                "src{}: {} at {} (abort mode)",
                source.0, reason, self.stage
            ))),
        }
    }

    /// Record a budget/deadline violation for `source` at this stage. In
    /// Contain mode `dropped` rows are tallied and the pass continues
    /// (`None`); otherwise the violation is fatal.
    pub fn deadline_excess(
        &mut self,
        source: SourceId,
        what: &str,
        dropped: u64,
    ) -> Option<TableError> {
        self.report.hit_deadline(self.stage);
        match self.policy.mode {
            ContainMode::Contain => {
                if dropped > 0 {
                    self.report.drop_rows(self.stage, dropped);
                }
                None
            }
            ContainMode::Abort | ContainMode::Off => Some(TableError::Unavailable(format!(
                "src{}: {} exceeded at {} (abort mode)",
                source.0, what, self.stage
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::all().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "map_generate",
                "preflight",
                "map_apply",
                "union",
                "er",
                "fuse",
                "assemble"
            ]
        );
    }

    #[test]
    fn chaos_rolls_are_deterministic_and_rate_scaled() {
        let c = ChaosPolicy::new(0.3, 99);
        let first: Vec<bool> = (0..200)
            .map(|i| c.should_panic(Stage::Union, SourceId(i)))
            .collect();
        let second: Vec<bool> = (0..200)
            .map(|i| c.should_panic(Stage::Union, SourceId(i)))
            .collect();
        assert_eq!(first, second);
        let hits = first.iter().filter(|&&b| b).count();
        assert!((30..=90).contains(&hits), "rate ~0.3, got {hits}/200");
        let zero = ChaosPolicy::new(0.0, 99);
        assert!((0..50).all(|i| !zero.should_panic(Stage::Er, SourceId(i))));
    }

    #[test]
    fn chaos_stage_restriction() {
        let c = ChaosPolicy::new(1.0, 7).at_stage(Stage::Fuse);
        assert!(c.should_panic(Stage::Fuse, SourceId(0)));
        assert!(!c.should_panic(Stage::Union, SourceId(0)));
    }

    #[test]
    fn catch_quiet_returns_value_or_message() {
        assert_eq!(catch_quiet(|| 42), Ok(42));
        let err = catch_quiet(|| -> i32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err, "boom 7");
        // Subsequent normal execution is unaffected.
        assert_eq!(catch_quiet(|| "fine"), Ok("fine"));
    }

    #[test]
    fn poison_scan_catches_the_three_classes() {
        let policy = ContainPolicy::default();
        assert_eq!(poison_reason(&[Value::Int(1), Value::Null], &policy), None);
        assert_eq!(
            poison_reason(&[Value::Float(f64::NAN)], &policy),
            Some("non-finite numeric cell")
        );
        assert_eq!(
            poison_reason(&[Value::Float(f64::INFINITY)], &policy),
            Some("non-finite numeric cell")
        );
        let big = Value::from("x".repeat(policy.max_cell_bytes + 1));
        assert_eq!(poison_reason(&[big], &policy), Some("oversized cell"));
        let ctl = Value::Str("ok\u{1}bad".into());
        assert_eq!(
            poison_reason(&[ctl], &policy),
            Some("control bytes in cell")
        );
        // Benign whitespace control chars pass.
        let ws = Value::Str("line1\nline2\tcol".into());
        assert_eq!(poison_reason(&[ws], &policy), None);
    }

    #[test]
    fn guard_quarantines_in_contain_mode_and_aborts_in_abort_mode() {
        let contain = ContainPolicy::contain();
        let mut report = ContainmentReport::default();
        let mut guard = StageGuard::new(Stage::MapApply, &contain, &mut report);
        match guard.run(SourceId(3), || -> Result<i32, TableError> {
            Err(TableError::Invalid("bad binding".into()))
        }) {
            Guarded::Quarantined => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        match guard.run(SourceId(4), || Ok(7)) {
            Guarded::Ok(7) => {}
            other => panic!("expected ok, got {other:?}"),
        }
        assert_eq!(report.tallies(Stage::MapApply).quarantined, 1);
        assert_eq!(report.quarantined_sources(), vec![SourceId(3)]);

        let abort = ContainPolicy::abort();
        let mut report = ContainmentReport::default();
        let mut guard = StageGuard::new(Stage::MapApply, &abort, &mut report);
        match guard.run(SourceId(3), || -> Result<i32, TableError> {
            Err(TableError::Invalid("bad binding".into()))
        }) {
            Guarded::Fatal(TableError::Unavailable(msg)) => {
                assert!(msg.contains("src3"), "{msg}");
                assert!(msg.contains("map_apply"), "{msg}");
            }
            other => panic!("expected fatal, got {other:?}"),
        }
    }

    #[test]
    fn guard_catches_panics_and_attributes_them() {
        let policy = ContainPolicy::contain();
        let mut report = ContainmentReport::default();
        let mut guard = StageGuard::new(Stage::Er, &policy, &mut report);
        match guard.run(SourceId(9), || -> Result<(), TableError> {
            panic!("worker exploded")
        }) {
            Guarded::Quarantined => {}
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(report.tallies(Stage::Er).panics_caught, 1);
        let q = &report.quarantines[0];
        assert_eq!(q.source, SourceId(9));
        assert!(q.reason.contains("worker exploded"), "{}", q.reason);
    }

    #[test]
    fn chaos_injection_flows_through_the_guard() {
        let policy =
            ContainPolicy::contain().with_chaos(ChaosPolicy::new(1.0, 1).at_stage(Stage::Union));
        let mut report = ContainmentReport::default();
        let mut guard = StageGuard::new(Stage::Union, &policy, &mut report);
        match guard.run(SourceId(0), || Ok(())) {
            Guarded::Quarantined => {}
            other => panic!("expected chaos quarantine, got {other:?}"),
        }
        assert_eq!(report.tallies(Stage::Union).panics_caught, 1);
        // Off mode never rolls chaos.
        let off = ContainPolicy::off().with_chaos(ChaosPolicy::new(1.0, 1));
        let mut report = ContainmentReport::default();
        let mut guard = StageGuard::new(Stage::Union, &off, &mut report);
        match guard.run(SourceId(0), || Ok(5)) {
            Guarded::Ok(5) => {}
            other => panic!("off mode must not inject, got {other:?}"),
        }
    }

    #[test]
    fn deadline_excess_drops_rows_in_contain_and_is_fatal_in_abort() {
        let contain = ContainPolicy::contain();
        let mut report = ContainmentReport::default();
        let mut guard = StageGuard::new(Stage::MapApply, &contain, &mut report);
        assert!(guard
            .deadline_excess(SourceId(2), "row budget", 150)
            .is_none());
        let t = report.tallies(Stage::MapApply);
        assert_eq!(t.deadline_hits, 1);
        assert_eq!(t.dropped_rows, 150);

        let abort = ContainPolicy::abort();
        let mut report = ContainmentReport::default();
        let mut guard = StageGuard::new(Stage::MapApply, &abort, &mut report);
        let err = guard
            .deadline_excess(SourceId(2), "row budget", 150)
            .expect("abort mode is fatal"); // lint-allow: test
        assert!(matches!(err, TableError::Unavailable(_)));
    }

    #[test]
    fn report_render_is_canonical_and_deterministic() {
        let mut a = ContainmentReport::default();
        a.record_quarantine(SourceId(1), Stage::Union, "oversized cell");
        a.drop_rows(Stage::Union, 12);
        a.hit_deadline(Stage::MapApply);
        let mut b = ContainmentReport::default();
        b.record_quarantine(SourceId(1), Stage::Union, "oversized cell");
        b.drop_rows(Stage::Union, 12);
        b.hit_deadline(Stage::MapApply);
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("src1 @ union: oversized cell"));
        assert!(!a.is_clean());
        let totals = a.totals();
        assert_eq!(totals.quarantined, 1);
        assert_eq!(totals.dropped_rows, 12);
        assert_eq!(totals.deadline_hits, 1);

        let clean = ContainmentReport::default();
        assert!(clean.is_clean());
        assert!(clean.render().contains("clean pass"));
    }

    #[test]
    fn emit_writes_only_nonzero_counters() {
        use wrangler_obs::ObsMode;
        let mut report = ContainmentReport::default();
        report.record_quarantine(SourceId(0), Stage::Fuse, "chaos");
        report.caught_panic(Stage::Fuse);
        let mut obs = Telemetry::new(ObsMode::On);
        obs.start_pass();
        report.emit(&mut obs);
        let m = obs.report();
        let rendered = m.render_counts();
        assert!(rendered.contains("contain.fuse.quarantined"), "{rendered}");
        assert!(
            rendered.contains("contain.fuse.panics_caught"),
            "{rendered}"
        );
        assert!(!rendered.contains("dropped_rows"), "{rendered}");
    }
}

