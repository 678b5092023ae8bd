//! `wrangler-core` — the wrangling architecture of Figure 1, assembled.
//!
//! This crate composes every component crate into the end-to-end system the
//! paper envisions: Data Sources → Data Extraction → Data Integration →
//! Wrangled Data, with a shared **Working Data** store holding auxiliary
//! data (user + data context), quality analyses, feedback and uncertainty —
//! and *no hard-wired workflow*: a [`planner::Plan`] derived from the user
//! context decides selection strategy, fusion strategy, ER thresholds and
//! confidence gating ("autonomic" composition, §4.2).
//!
//! * [`working`] — the refuse set (which fused slots feedback marked) and
//!   the work counters of incremental (pay-as-you-go) recomputation;
//! * [`planner`] — derives the concrete plan from the user context;
//! * [`wrangler`] — the [`wrangler::Wrangler`] session: add sources,
//!   `wrangle()`, give feedback, re-wrangle incrementally;
//! * [`contain`] — stage-level fault containment: poison-payload
//!   quarantine, per-stage budgets and panic isolation, so a source that
//!   goes bad *mid-pipeline* degrades the pass instead of killing it;
//! * [`ckpt_io`] — checkpoint serialization: the [`ckpt_io::SessionState`]
//!   snapshot plus per-stage output records that `wrangler-ckpt` persists at
//!   every stage seam, making a wrangle crash-resilient (kill the process at
//!   any boundary; `resume` replays the deepest valid prefix byte-identically);
//! * [`union`] — how the union is held: one columnar table plus its
//!   per-source runs, the single value the pass, the union seam record and
//!   the session cache carry;
//! * [`lower`] — lowers each wrangle pass into the `wrangler-plan` typed IR;
//!   the compiled [`wrangler_plan::PlanProgram`] then drives filter
//!   placement, fuse liveness, profile sharing and the output projection;
//! * [`baseline`] — the manually specified ETL comparator with effort
//!   accounting (what §1 argues cannot scale);
//! * [`eval`] — ground-truth scoring against the synthetic fleet, used by
//!   every experiment.

pub mod acquire;
pub mod active;
pub mod baseline;
pub mod ckpt_io;
pub mod contain;
pub mod eval;
pub mod incr;
pub mod lower;
pub mod planner;
pub mod provenance;
pub mod uncertain;
pub mod union;
pub mod working;
pub mod wrangler;

pub use acquire::{
    Acquisition, AcquisitionMode, AcquisitionSummary, BreakerConfig, BreakerState, CircuitBreaker,
    EngineState, RetryPolicy,
};
pub use active::suggest_feedback_targets;
pub use contain::{
    ChaosPolicy, ContainMode, ContainPolicy, ContainmentReport, QuarantineEvent, Stage,
    StageTallies,
};
pub use lower::{lower, LowerInput};
pub use planner::Plan;
pub use provenance::{acquisition_table, lint_table, metrics_table, plan_table, provenance_table};
pub use uncertain::UncertainView;
pub use ckpt_io::SessionState;
pub use wrangler::{WrangleOutcome, Wrangler};
pub use wrangler_ckpt::{
    scratch_dir, write_atomic, CheckpointStore, CkptStats, CrashMode, CrashPolicy, CrashSite,
};
pub use wrangler_obs::{MetricsReport, ObsMode, Telemetry};
pub use wrangler_plan::{OptMode, PlanProgram};
