//! The end-to-end wrangling session.

use std::collections::HashMap; // hash-ok: HashMap here is lookup-only (slot/feedback state); nothing iterates it into output

use wrangler_context::{Criterion, DataContext, QualityVector, UserContext};
use wrangler_feedback::router::ValueProvenance;
use wrangler_feedback::{
    route, FeedbackItem, FeedbackStore, FeedbackTarget, RoutedSignal, RoutingMode,
};
use wrangler_fusion::strategies::{FusedValue, SourceContext};
use wrangler_fusion::{ClaimSet, FuseKernel};
use wrangler_lint::{GateMode, Report as LintReport};
use wrangler_mapping::Mapping;
use wrangler_match::MatchConfig;
use wrangler_obs::{MetricsReport, ObsMode, Telemetry};
use wrangler_quality::profile::{quality_vector, ExternalSignals, TableProfile};
use wrangler_resolve::learn::{refine_rule, LabeledPair};
use wrangler_resolve::{cluster_pairs, ErConfig, ErKernel, FieldSim, SimKind, UnionBlocks};
use wrangler_sources::faults::{Degradation, FaultConfig, FaultProfile};
use wrangler_sources::{Source, SourceEstimate, SourceId, SourceMeta, SourceRegistry};
use wrangler_plan::{OptMode, PlanProgram};
use wrangler_table::{DataType, Expr, Schema, Table, TableError, Value};
use wrangler_uncertainty::{Belief, Evidence, EvidenceKind};

use wrangler_ckpt::{CheckpointStore, CrashPolicy};
use wrangler_table::wire;

use crate::acquire::{Acquisition, AcquisitionSummary};
use crate::contain::{ContainPolicy, ContainmentReport, Stage};
use crate::incr::{IncrEngine, Mapped};
use crate::planner::Plan;
use crate::union::Union;
use crate::working::{Artifact, WorkingData};

mod pass;
mod stages;

use pass::Pass;

/// Per-source wrangling state in the Working Data.
#[derive(Debug, Clone)]
struct SourceState {
    /// Feedback-updated trust in the source.
    trust: Belief,
    /// The current mapping, if generated.
    mapping: Option<Mapping>,
    /// The mapped (target-schema) table, if computed.
    mapped: Option<Mapped>,
    /// Relevance to the data context in \[0, 1\].
    relevance: f64,
}

/// Caches from the last full wrangle, the substrate of incremental
/// recomputation.
#[derive(Debug, Clone)]
struct WrangleCache {
    /// The union the pass resolved and fused.
    union: Union,
    /// Entity id per union row.
    row_entity: Vec<usize>,
    /// Number of entities.
    entities: usize,
    /// The claim set.
    claims: ClaimSet,
    /// Source trust/age context used at fusion time.
    source_ctx: SourceContext,
    /// Fused slots.
    fused: HashMap<(usize, usize), FusedValue>, // hash-ok: keyed by slot, read via get()
    /// Selected sources.
    selected: Vec<SourceId>,
}

/// The result of a wrangle.
#[derive(Debug, Clone)]
pub struct WrangleOutcome {
    /// One row per entity in the target schema, plus a `_confidence` column.
    pub table: Table,
    /// Quality vector of the result under the session's user context.
    pub quality: QualityVector,
    /// Multi-criteria utility of `quality` under the user context.
    pub utility: f64,
    /// Sources that were integrated.
    pub selected_sources: Vec<SourceId>,
    /// Number of entities produced.
    pub entities: usize,
    /// Budget spent so far (source access + feedback).
    pub cost_spent: f64,
    /// Selected sources that could not be acquired and were excluded from
    /// this result, with the reason (graceful degradation: the result covers
    /// the surviving subset only).
    pub skipped_sources: Vec<(SourceId, String)>,
    /// Sources integrated from degraded payloads (truncated / partially
    /// corrupted), with what was degraded.
    pub degraded_sources: Vec<(SourceId, Degradation)>,
    /// Acquisition attempts the last pass spent (the retry-cost axis).
    pub acquisition_attempts: u64,
    /// Virtual ticks the last acquisition pass spent (latency + backoff).
    pub acquisition_ticks: u64,
    /// Pre-flight static-analysis findings for this wrangle (merged across
    /// mappings and the plan audit); empty when the gate is off or everything
    /// was clean.
    pub lint: LintReport,
    /// Telemetry snapshot at delivery time: per-stage spans, counters and
    /// gauges aggregated over the session so far. Empty under
    /// [`ObsMode::Off`].
    pub metrics: MetricsReport,
    /// What stage-level containment did during this pass: sources
    /// quarantined mid-pipeline, rows dropped, budgets hit, panics caught.
    /// Clean (empty) when nothing went wrong past acquisition.
    pub containment: ContainmentReport,
}

/// A wrangling session: context + sources + working data + feedback loop.
#[derive(Debug, Clone)]
pub struct Wrangler {
    /// The declarative user context steering every decision.
    pub user: UserContext,
    /// The data context (ontology, master data, reference lists).
    pub data_ctx: DataContext,
    /// The feedback ledger.
    pub feedback: FeedbackStore,
    /// Working-data bookkeeping (dirtiness + work counters).
    pub working: WorkingData,
    /// How feedback is propagated (Shared is the paper's proposal; Siloed is
    /// the E4 baseline).
    pub routing: RoutingMode,
    /// The resilient acquisition engine: retry/backoff policy, per-source
    /// circuit breakers, and the failure-handling mode.
    pub acquisition: Acquisition,
    /// Stage-level fault containment: per-stage budgets, poison scanning,
    /// panic isolation, and the quarantine-vs-abort mode. Default
    /// [`ContainMode::Contain`] — a source that goes bad *mid-pipeline*
    /// degrades the pass instead of killing it.
    pub contain: ContainPolicy,
    /// The session's telemetry collector: hierarchical stage spans over the
    /// monotonic clock plus deterministic counters/gauges (see
    /// [`wrangler_obs`]). On by default; E13 puts the overhead under 5% of
    /// wall on the standard workload.
    pub obs: Telemetry,
    target: Schema,
    target_sample: Table,
    /// Content hash of `target_sample`, which is never reassigned.
    target_sample_hash: u64,
    registry: SourceRegistry,
    states: Vec<SourceState>,
    er_cfg: ErConfig,
    /// Worker-count override for the ER decision pool (`None` = hardware
    /// parallelism). Output is identical for any value; experiments pin it.
    er_workers: Option<usize>,
    /// Worker-count override for the fuse-slot pool (`None` = hardware
    /// parallelism). Output is identical for any value; experiments pin it.
    fuse_workers: Option<usize>,
    match_cfg: MatchConfig,
    now: u64,
    cache: Option<WrangleCache>,
    last_acquisition: AcquisitionSummary,
    access_spent: f64,
    fusion_override: Option<wrangler_fusion::Strategy>,
    /// Slot-level constraints from direct value feedback: values the user
    /// refuted (never deliver again) and values the user confirmed (pin).
    vetoes: HashMap<(usize, usize), Vec<Value>>, // hash-ok: point lookups only
    confirmations: HashMap<(usize, usize), Value>, // hash-ok: point lookups only
    /// Pre-flight gate mode: `Deny` (default) refuses to execute artifacts
    /// with error-grade findings, `Warn` records and proceeds, `Off` skips
    /// analysis entirely.
    lint_gate: GateMode,
    /// Findings of the last pre-flight pass, labelled by origin (`"plan"`,
    /// `"plan-ir"` or `"src{i}"`), kept for provenance export.
    last_lint: Vec<(String, LintReport)>,
    /// Containment report of the last full wrangle.
    last_containment: ContainmentReport,
    /// Optional row predicate over the target schema, applied before ER.
    /// Where it actually runs is the optimizer's decision (per-source
    /// pushdown when the facts allow it; the union loop otherwise).
    row_filter: Option<Expr>,
    /// Optional output projection (target column names). `None` delivers
    /// every target column. Drives dead-column elimination at fuse.
    output_columns: Option<Vec<String>>,
    /// Whether wrangles execute the optimized plan (default) or the naive
    /// one — the E16 comparison axis. Outputs are byte-identical.
    opt_mode: OptMode,
    /// The compiled plan program of the last wrangle (IR, analysis facts,
    /// findings, and the verified rewrite ledger).
    last_program: Option<PlanProgram>,
    /// Optional checkpoint store: with one attached, every wrangle persists
    /// each stage seam under a content key, and a fresh process pointed at
    /// the same store replays the deepest valid prefix instead of
    /// recomputing it (crash-resilient wrangling).
    ckpt: Option<CheckpointStore>,
    /// Optional crash-injection policy (test/bench harness): deterministic
    /// panic or process exit at one stage seam.
    crash: Option<CrashPolicy>,
    /// The incremental dataflow engine: per-source union block memos plus
    /// whole-stage ER/fuse memos, all content-keyed off the pass
    /// fingerprint (see [`crate::incr`]). On by default.
    incr: IncrEngine,
}

impl Wrangler {
    /// New session. `target_sample` carries the target schema *and* sample
    /// instances (typically the master catalog), which matching exploits.
    pub fn new(user: UserContext, data_ctx: DataContext, target_sample: Table) -> Wrangler {
        let target = target_sample.schema().clone();
        let plan = Plan::derive(&user);
        let er_cfg = build_er_config(&target, plan.er_threshold);
        Wrangler {
            user,
            data_ctx,
            feedback: FeedbackStore::new(),
            working: WorkingData::new(),
            routing: RoutingMode::Shared,
            acquisition: Acquisition::default(),
            contain: ContainPolicy::default(),
            obs: Telemetry::default(),
            target,
            target_sample_hash: wire::table_hash(&target_sample),
            target_sample,
            registry: SourceRegistry::new(),
            states: Vec::new(),
            er_cfg,
            er_workers: None,
            fuse_workers: None,
            match_cfg: MatchConfig::default(),
            now: 0,
            cache: None,
            last_acquisition: AcquisitionSummary::default(),
            access_spent: 0.0,
            fusion_override: None,
            vetoes: HashMap::new(), // hash-ok: see field declaration
            confirmations: HashMap::new(), // hash-ok: see field declaration
            lint_gate: GateMode::default(),
            last_lint: Vec::new(),
            last_containment: ContainmentReport::default(),
            row_filter: None,
            output_columns: None,
            opt_mode: OptMode::default(),
            last_program: None,
            ckpt: None,
            crash: None,
            incr: IncrEngine::new(),
        }
    }

    /// Install a row predicate over the target schema: only rows satisfying
    /// it enter ER and fusion. The predicate must be pure (no side channels —
    /// the analyzer checks) and is placed by the optimizer: at acquisition
    /// when every referenced binding is certified cell-exact, after mapping
    /// when the containment barrier is down, in the union loop otherwise.
    pub fn with_row_filter(mut self, predicate: Expr) -> Wrangler {
        self.row_filter = Some(predicate);
        self.invalidate_plan_shape();
        self
    }

    /// Project the delivered table onto `columns` (target names, in the
    /// given order; `_confidence` is always appended). Unprojected columns
    /// become dead at fuse and the optimizer skips fusing them.
    pub fn with_output_columns(mut self, columns: Vec<String>) -> Wrangler {
        self.output_columns = Some(columns);
        self.invalidate_plan_shape();
        self
    }

    /// Select naive or optimized plan execution (default:
    /// [`OptMode::Optimized`]). Outputs are byte-identical; naive is the E16
    /// cost baseline.
    pub fn with_opt_mode(mut self, mode: OptMode) -> Wrangler {
        self.opt_mode = mode;
        self.invalidate_plan_shape();
        self
    }

    /// The compiled plan program of the last wrangle: the typed IR, the
    /// analysis fact base, findings, and the verified rewrite ledger.
    pub fn plan_program(&self) -> Option<&PlanProgram> {
        self.last_program.as_ref()
    }

    /// A plan-shape knob changed (filter, projection, opt mode): cached
    /// mapped tables may embed a stale early-placed filter, and cached
    /// clusters/results were computed under the old shape.
    fn invalidate_plan_shape(&mut self) {
        for i in 0..self.states.len() {
            self.working.invalidate(Artifact::MappedTable(i));
        }
        self.working.invalidate(Artifact::Clusters);
        self.cache = None;
        // Shape-keyed memos would miss anyway (the pass fingerprint covers
        // every shape knob); dropping them bounds memory to live content.
        self.incr.clear();
    }

    /// Enable/disable the incremental dataflow engine (default: on).
    /// Disabling drops every stage memo: the resulting session recomputes
    /// everything from scratch, making it the genuinely cold comparator the
    /// identity tests and the E18 timing baseline wrangle against.
    pub fn set_incr_enabled(&mut self, on: bool) {
        self.incr.set_enabled(on);
    }

    /// Is the incremental dataflow engine on?
    pub fn incr_enabled(&self) -> bool {
        self.incr.enabled()
    }

    /// Number of live incremental memos (union blocks + ER + fuse).
    pub fn incr_memo_count(&self) -> usize {
        self.incr.memo_count()
    }

    /// Deliver a fresh extraction of one source's payload — the
    /// pay-as-you-go update path. Diffs the content hash first: an
    /// identical payload is a no-op (nothing dirtied, every memo intact).
    /// A real change bumps the source's `last_updated` to the current tick
    /// and dirties exactly that source's derivation chain — the next wrangle
    /// re-derives its mapped table, whose new content hash misses that one
    /// union block, and reuses the rest.
    /// Returns true if the payload actually changed; errors on an unknown
    /// id or a schema that no longer matches the registered payload's.
    pub fn update_source(&mut self, id: SourceId, table: Table) -> wrangler_table::Result<bool> {
        let i = id.0 as usize;
        let Some(existing) = self.registry.get(id) else {
            return Err(TableError::Unavailable(format!("{id}: not registered")));
        };
        if existing.table.schema() != table.schema() {
            return Err(TableError::Invalid(format!(
                "{id}: update changes the source schema; register a new source instead"
            )));
        }
        let new_hash = wire::table_hash(&table);
        let prev_hash = self
            .registry
            .update_table(id, table)
            .unwrap_or(new_hash ^ 1);
        if prev_hash == new_hash {
            return Ok(false);
        }
        if let Some(src) = self.registry.get_mut(id) {
            src.meta.last_updated = self.now;
        }
        // Dirty exactly this source's chain. Clusters/fusion recompute is
        // driven by the content keys (the block list changes ⇒ ER and fuse
        // miss), not by a blanket invalidation — that is what lets the
        // other n−1 partitions replay.
        self.working.invalidate(Artifact::Mapping(i));
        self.working.invalidate(Artifact::MappedTable(i));
        self.working.work.extractions += 1;
        self.cache = None;
        Ok(true)
    }

    /// Replace the stage-level containment policy (default:
    /// [`ContainPolicy::contain`]). [`ContainPolicy::abort`] turns the first
    /// mid-pipeline fault into a structured error (the E15 baseline);
    /// [`ContainPolicy::off`] disables scanning entirely (the overhead
    /// baseline).
    pub fn with_contain_policy(mut self, policy: ContainPolicy) -> Wrangler {
        self.contain = policy;
        self
    }

    /// The containment report of the last full wrangle: which sources were
    /// quarantined mid-pipeline, where, and why.
    pub fn containment_report(&self) -> &ContainmentReport {
        &self.last_containment
    }

    /// Force a fusion strategy regardless of the plan (ablation harness).
    pub fn with_fusion_strategy(mut self, strategy: wrangler_fusion::Strategy) -> Wrangler {
        self.fusion_override = Some(strategy);
        self
    }

    /// Replace the matcher configuration (e.g. the names-only baseline).
    pub fn with_match_config(mut self, cfg: MatchConfig) -> Wrangler {
        self.match_cfg = cfg;
        self
    }

    /// Pin the ER decision pool to `workers` threads (default: hardware
    /// parallelism). Matches and clusters are byte-identical for any worker
    /// count — this knob trades wall-clock only (E14's sweep axis).
    pub fn with_er_workers(mut self, workers: usize) -> Wrangler {
        self.er_workers = Some(workers.max(1));
        self
    }

    /// Pin the fuse-slot pool to `workers` threads (default: hardware
    /// parallelism). Fused values are byte-identical for any worker count —
    /// this knob trades wall-clock only (E14's fuse sweep axis).
    pub fn with_fuse_workers(mut self, workers: usize) -> Wrangler {
        self.fuse_workers = Some(workers.max(1));
        self
    }

    /// Set the pre-flight static-analysis gate mode (default: `Deny`).
    pub fn with_lint_gate(mut self, mode: GateMode) -> Wrangler {
        self.lint_gate = mode;
        self
    }

    /// Set the telemetry mode (default: [`ObsMode::On`]). `Off` turns every
    /// record operation into a cheap branch — the E13 overhead baseline.
    pub fn with_obs_mode(mut self, mode: ObsMode) -> Wrangler {
        self.obs.set_mode(mode);
        self
    }

    /// Snapshot the session's metrics: stage timings (wall-clock,
    /// non-deterministic) segregated from counters and gauges
    /// (deterministic functions of the seeded data flow).
    pub fn metrics(&self) -> MetricsReport {
        self.obs.report()
    }

    /// The current pre-flight gate mode.
    pub fn lint_gate(&self) -> GateMode {
        self.lint_gate
    }

    /// The last wrangle's fusion inputs — claim set, source context and the
    /// planned strategy — for benchmarks and tests that drive the fuse
    /// kernel directly (E14's fuse scaling sweep). `None` before the first
    /// wrangle.
    pub fn fusion_inputs(
        &self,
    ) -> Option<(&ClaimSet, &SourceContext, wrangler_fusion::Strategy)> {
        let cache = self.cache.as_ref()?;
        Some((&cache.claims, &cache.source_ctx, self.plan().fusion))
    }

    /// Findings of the last pre-flight pass, labelled by origin (`"plan"` or
    /// `"src{i}"`).
    pub fn lint_findings(&self) -> &[(String, LintReport)] {
        &self.last_lint
    }

    /// The last pre-flight findings merged into a single canonical report.
    pub fn lint_report(&self) -> LintReport {
        let mut merged = LintReport::new();
        for (_, r) in &self.last_lint {
            merged.merge(r.clone());
        }
        merged.canonicalize();
        merged
    }

    /// Set the current tick (for timeliness computations).
    pub fn set_now(&mut self, tick: u64) {
        self.now = tick;
    }

    /// The current mapping for a source, if one has been generated or
    /// installed.
    pub fn mapping_of(&self, id: SourceId) -> Option<&Mapping> {
        self.states.get(id.0 as usize)?.mapping.as_ref()
    }

    /// Install a hand-authored (or corrected) mapping for a source,
    /// overriding the generated one. The mapping is treated as clean — the
    /// next wrangle will not regenerate it — but the mapped table is
    /// invalidated so execution (and the pre-flight gate) see the new
    /// artifact. Returns false if the source is unknown.
    pub fn override_mapping(&mut self, id: SourceId, mapping: Mapping) -> bool {
        let i = id.0 as usize;
        let Some(state) = self.states.get_mut(i) else {
            return false;
        };
        state.mapping = Some(mapping);
        state.mapped = None;
        self.working.mark_clean(Artifact::Mapping(i));
        self.working.invalidate(Artifact::MappedTable(i));
        self.working.invalidate(Artifact::Clusters);
        true
    }

    /// Switch the user context mid-session (§2.1: "a single application may
    /// have different user contexts"). The plan is re-derived on the next
    /// wrangle; cached claims and clusters survive, so switching contexts is
    /// a re-selection + re-fusion, not a from-scratch run — unless the new
    /// plan needs a different ER threshold, which invalidates clustering.
    pub fn set_user_context(&mut self, user: UserContext) {
        let old_plan = self.plan();
        self.user = user;
        let new_plan = self.plan();
        if (new_plan.er_threshold - old_plan.er_threshold).abs() > 1e-12 {
            self.er_cfg = build_er_config(&self.target, new_plan.er_threshold);
            self.working.invalidate(Artifact::Clusters);
        }
    }

    /// The derived plan for the current user context (with any ablation
    /// overrides applied).
    pub fn plan(&self) -> Plan {
        let mut plan = Plan::derive(&self.user);
        if let Some(s) = self.fusion_override {
            plan.fusion = s;
        }
        plan
    }

    /// The target schema.
    pub fn target(&self) -> &Schema {
        &self.target
    }

    /// Register a source (already extracted into a table).
    pub fn add_source(&mut self, meta: SourceMeta, table: Table) -> SourceId {
        let id = self.registry.register_with_meta(meta, table);
        self.states.push(SourceState {
            trust: Belief::from_prior(0.6),
            mapping: None,
            mapped: None,
            relevance: 1.0,
        });
        self.working.invalidate_source(id.0 as usize);
        self.working.work.extractions += 1;
        id
    }

    /// Number of registered sources.
    pub fn num_sources(&self) -> usize {
        self.registry.len()
    }

    /// Current trust in a source.
    pub fn source_trust(&self, source: SourceId) -> f64 {
        self.states[source.0 as usize].trust.probability()
    }

    /// Source by id, as a structured error instead of a panic when the id is
    /// stale (e.g. a cached selection referring to a re-built registry).
    fn source(&self, id: SourceId) -> wrangler_table::Result<&Source> {
        self.registry
            .get(id)
            .ok_or_else(|| TableError::Unavailable(format!("{id}: not registered")))
    }

    /// Attach a seeded fault layer to the fleet (robustness experiments).
    pub fn inject_faults(&mut self, cfg: &FaultConfig) {
        self.registry.inject_faults(cfg);
    }

    /// Override one source's fault profile.
    pub fn set_fault_profile(&mut self, id: SourceId, profile: FaultProfile) {
        self.registry.set_fault_profile(id, profile);
    }

    /// How the last wrangle's acquisition pass went: per-source
    /// dispositions, skips, degradations, and retry cost.
    pub fn acquisition_summary(&self) -> &AcquisitionSummary {
        &self.last_acquisition
    }

    /// Estimate every source's selection-relevant properties from profiling,
    /// master-data coverage and feedback-updated trust. Large sources are
    /// probed on a bounded sample rather than scanned (§4.3 scale
    /// independence: selection must not require touching all of every
    /// candidate source).
    pub fn estimates(&mut self) -> Vec<SourceEstimate> {
        let master_rows = self.target_sample.num_rows().max(1);
        let probe_cfg = wrangler_sources::ProbeConfig::default();
        let mut out = Vec::with_capacity(self.registry.len());
        for (i, src) in self.registry.iter().enumerate() {
            let relevance = if src.table.num_rows() > probe_cfg.sample_rows {
                wrangler_sources::probe_source(&src.table, &self.data_ctx, "product", &probe_cfg)
                    .ok()
                    .and_then(|p| p.relevance)
                    .unwrap_or(1.0)
            } else {
                wrangler_quality::profile::master_relevance(&src.table, &self.data_ctx, "product")
                    .unwrap_or(1.0)
            };
            self.states[i].relevance = relevance;
            let coverage =
                ((src.table.num_rows() as f64 / master_rows as f64) * relevance).min(1.0);
            out.push(SourceEstimate {
                id: src.meta.id,
                coverage,
                accuracy: self.states[i].trust.probability(),
                age: self.now.saturating_sub(src.meta.last_updated),
                cost: src.meta.access_cost,
                relevance,
                availability: self.acquisition.availability(i, self.now),
            });
        }
        out
    }

    /// Full wrangle: select → map → resolve → fuse → gate → report. Every
    /// stage past acquisition runs under the session's [`ContainPolicy`]:
    /// a source whose payload errors, panics, or blows a budget
    /// mid-pipeline is quarantined and the pass completes on survivors
    /// (mirroring acquisition degradation); the decisions land in
    /// [`WrangleOutcome::containment`] and the `contain.<stage>.*` counters.
    /// A failed pass still records its spans (the failing stage's and the
    /// root's close on every exit) and its containment report.
    pub fn wrangle(&mut self) -> wrangler_table::Result<WrangleOutcome> {
        // A pass that died by panic leaves spans open; start clean.
        self.obs.start_pass();
        self.obs.begin("wrangle");
        self.obs.inc("pass.wrangle");
        let mut pass = self.begin_pass();
        let mut out = self.run_pass(&mut pass);
        self.obs.end();
        pass.creport.emit(&mut self.obs);
        if let Ok(o) = &mut out {
            o.containment = pass.creport.clone();
            o.metrics = self.obs.report();
        }
        self.last_containment = pass.creport;
        out
    }

    /// The pass itself: a fixed sequence of stages over one [`Pass`]. With
    /// a checkpoint store attached, every seam stage is content-keyed: a hit
    /// restores the seam's session snapshot and installs its output (side
    /// effects replay from the snapshot, never re-derive); a miss computes
    /// live and persists. Keys chain, so a valid record implies the whole
    /// upstream prefix matched (see [`pass`]).
    fn run_pass(&mut self, pass: &mut Pass) -> wrangler_table::Result<WrangleOutcome> {
        self.select(pass)?;
        self.acquire(pass)?;
        self.map_generate(pass)?;
        self.compile_plan(pass)?;
        self.preflight(pass)?;
        self.map_apply(pass)?;
        self.union(pass)?;
        self.er(pass)?;
        self.fuse(pass)?;
        self.span("assemble", |w| {
            w.contained(pass, Stage::Assemble, |w, pass| w.assemble(&pass.plan))
        })
    }

    // --- Crash-resilient checkpointing -----------------------------------

    /// Attach a checkpoint store: every subsequent wrangle persists each
    /// stage seam (select, acquire, map_generate, map_apply, union, er,
    /// fuse) under a content key derived from the source payload hashes,
    /// the compiled plan fingerprint and the chained upstream seam keys.
    /// A fresh process pointed at the same store replays the deepest valid
    /// prefix byte-identically instead of recomputing it — including
    /// quarantine, trust and breaker state, which travel inside each seam
    /// record. One caveat: of the data context the keys cover the master
    /// catalog only, so sessions that change the ontology or a reference
    /// list between runs must use a fresh store directory.
    pub fn with_checkpoint_store(mut self, store: CheckpointStore) -> Wrangler {
        self.ckpt = Some(store);
        self
    }

    /// Arm deterministic crash injection: the next wrangle panics (or
    /// exits) at the configured stage seam, *after* that seam's checkpoint
    /// persisted. The E17 harness and the resume proptests use this to
    /// interrupt a pass at every boundary.
    pub fn with_crash_policy(mut self, policy: CrashPolicy) -> Wrangler {
        self.crash = Some(policy);
        self
    }

    /// Disarm crash injection (the resume half of an in-process test).
    pub fn clear_crash_policy(&mut self) {
        self.crash = None;
    }

    /// The attached checkpoint store, if any.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.ckpt.as_ref()
    }

    /// Resume an interrupted wrangle from the attached checkpoint store.
    /// Replay is just re-running the pass: every seam whose content key has
    /// a valid record restores its snapshot and skips its compute; the
    /// first seam without one (where the crash hit) computes live. The
    /// outcome is byte-identical to an uninterrupted run.
    pub fn resume(&mut self) -> wrangler_table::Result<WrangleOutcome> {
        if self.ckpt.is_none() {
            return Err(TableError::Invalid(
                "resume requires an attached checkpoint store".into(),
            ));
        }
        self.wrangle()
    }

    /// Incrementally re-wrangle after feedback: re-fuse only dirty slots with
    /// the updated trust. Falls back to a full wrangle when structural
    /// artifacts (mappings, clusters) are dirty or no cache exists.
    pub fn rewrangle(&mut self) -> wrangler_table::Result<WrangleOutcome> {
        let structural_dirty = self.cache.is_none()
            || self.working.is_dirty(Artifact::Clusters)
            || self.cache.as_ref().is_some_and(|c| {
                c.selected.iter().any(|id| {
                    let i = id.0 as usize;
                    self.working.is_dirty(Artifact::Mapping(i))
                        || self.working.is_dirty(Artifact::MappedTable(i))
                })
            });
        if structural_dirty {
            return self.wrangle();
        }
        let plan = self.plan();
        self.obs.start_pass();
        self.obs.begin("rewrangle");
        self.obs.inc("pass.rewrangle");
        // Refresh the trust vector from beliefs (feedback may have moved it).
        let mut cache = self.cache.take().expect("checked above"); // lint-allow: presence checked by the guard above
        for i in 0..self.registry.len() {
            let blended =
                0.5 * cache.source_ctx.trust[i].min(1.0) + 0.5 * self.states[i].trust.probability();
            cache.source_ctx.trust[i] = blended;
        }
        self.obs.begin("refuse");
        let kernel = FuseKernel::compile(&cache.claims, plan.fusion, &cache.source_ctx);
        // Where per-source dirtiness becomes slots: one pass over the claims.
        let dirty = self.working.dirty_slots(cache.claims.claims());
        for &(e, a) in &dirty {
            match self.fuse_slot(&kernel, e, a) {
                Some(f) => {
                    cache.fused.insert((e, a), f);
                }
                // All claims vetoed: the slot has no deliverable value left.
                None => {
                    cache.fused.remove(&(e, a));
                }
            }
        }
        self.working.work.slots_fused += dirty.len();
        self.working.clean_slots();
        self.obs.count("refuse.slots", dirty.len() as u64);
        self.obs.end();
        self.cache = Some(cache);
        let outcome = self.span("assemble", |w| w.assemble(&plan));
        self.obs.end(); // close the "rewrangle" root span
        let mut outcome = outcome?;
        outcome.metrics = self.obs.report();
        // An incremental pass re-fuses cached artifacts; the containment
        // picture is still the one from the last full wrangle.
        outcome.containment = self.last_containment.clone();
        Ok(outcome)
    }

    /// Fuse one slot, honouring confirmed and vetoed values from direct
    /// feedback: a confirmed value is pinned at full confidence; a vetoed
    /// value can never win again (its supporting claims are excluded).
    fn fuse_slot(&self, kernel: &FuseKernel, e: usize, a: usize) -> Option<FusedValue> {
        if let Some(v) = self.confirmations.get(&(e, a)) {
            return Some(FusedValue {
                value: v.clone(),
                weight: 1.0,
                total_weight: 1.0,
                supporters: Vec::new(),
                freshness: 1.0,
            });
        }
        match self.vetoes.get(&(e, a)) {
            None => kernel.fuse_slot(e, a),
            Some(vetoed) => kernel.fuse_slot_without(e, a, vetoed),
        }
    }

    /// Master-data anchors: for entities whose key is in the catalog, the
    /// catalog's values of shared attributes are known-true.
    fn master_anchors(&self, clusters: &[Vec<usize>], union: &Table) -> Vec<(usize, usize, Value)> {
        let Some(master) = self.data_ctx.master("product") else {
            return Vec::new();
        };
        let Ok(keys) = union.column_named(&master.key_column) else {
            return Vec::new();
        };
        let mut anchors = Vec::new();
        for (e, cluster) in clusters.iter().enumerate() {
            // The entity's key: first non-null key claim found in the master.
            let key = cluster.iter().find_map(|&r| {
                let v = &keys[r];
                if !v.is_null() && master.contains_key(v) {
                    Some(v.clone())
                } else {
                    None
                }
            });
            let Some(key) = key else { continue };
            for (a, field) in self.target.fields().iter().enumerate() {
                if field.name == master.key_column {
                    continue;
                }
                if let Some(truth) = master.lookup(&key, &field.name) {
                    if !truth.is_null() {
                        anchors.push((e, a, truth));
                    }
                }
            }
        }
        anchors
    }

    /// Assemble the wrangled table and its quality report from the cache
    /// (callers wrap it in the `assemble` span).
    fn assemble(&mut self, plan: &Plan) -> wrangler_table::Result<WrangleOutcome> {
        let cache = self.cache.as_ref().expect("assemble requires a cache"); // lint-allow: wrangle() populates the cache before assemble()
        // The delivered attributes are the plan's output projection (all
        // target columns when none was requested). Both execution modes
        // iterate the same projected set, so `_confidence` — the mean over
        // delivered projected values — is byte-identical across modes.
        let output_attrs: Vec<usize> = match self
            .last_program
            .as_ref()
            .and_then(|p| p.output_columns())
            .or_else(|| self.output_columns.clone())
        {
            Some(names) => names
                .iter()
                .map(|n| self.target.index_of(n))
                .collect::<wrangler_table::Result<_>>()?,
            None => (0..self.target.len()).collect(),
        };
        let mut fields: Vec<wrangler_table::Field> = output_attrs
            .iter()
            .map(|&a| self.target.fields()[a].clone())
            .collect();
        fields.push(wrangler_table::Field::new("_confidence", DataType::Float));
        let out_schema = Schema::new(fields)?;
        let mut table = Table::empty(out_schema);
        let mut conflict_free = 0usize;
        let mut slot_count = 0usize;
        let mut conf_sum = 0.0;
        let mut delivered = 0u64;
        let mut withheld = 0u64;
        for e in 0..cache.entities {
            let mut row = Vec::with_capacity(output_attrs.len() + 1);
            let mut row_conf = Vec::new();
            for &a in &output_attrs {
                match cache.fused.get(&(e, a)) {
                    Some(f) => {
                        let conf = f.confidence();
                        slot_count += 1;
                        conf_sum += conf;
                        if (conf - 1.0).abs() < 1e-12 {
                            conflict_free += 1;
                        }
                        // Confidence gating (Example 2's trade-off).
                        if conf >= plan.min_value_confidence {
                            row.push(f.value.clone());
                            row_conf.push(conf);
                            delivered += 1;
                        } else {
                            row.push(Value::Null);
                            withheld += 1;
                        }
                    }
                    None => row.push(Value::Null),
                }
            }
            let mean_conf = if row_conf.is_empty() {
                0.0
            } else {
                row_conf.iter().sum::<f64>() / row_conf.len() as f64
            };
            row.push(Value::Float(mean_conf));
            table.push_row(row)?;
        }
        table.reinfer_types();

        // Quality report.
        let profile = TableProfile::of(&table)?;
        let accuracy = if slot_count == 0 {
            0.0
        } else {
            conf_sum / slot_count as f64
        };
        let consistency = if slot_count == 0 {
            1.0
        } else {
            conflict_free as f64 / slot_count as f64
        };
        let mean_age = {
            let sel = &cache.selected;
            if sel.is_empty() {
                0
            } else {
                let mut total = 0u64;
                for id in sel {
                    total += self
                        .now
                        .saturating_sub(self.source(*id)?.meta.last_updated);
                }
                total / sel.len() as u64
            }
        };
        let relevance =
            wrangler_quality::profile::master_relevance(&table, &self.data_ctx, "product");
        let cost_spent = self.access_spent + self.feedback.total_cost();
        let cost_fraction = if self.user.budget.is_infinite() || self.user.budget <= 0.0 {
            0.0
        } else {
            (cost_spent / self.user.budget).min(1.0)
        };
        let mut quality = quality_vector(
            &profile,
            &self.user,
            &ExternalSignals {
                age: mean_age,
                violation_rate: 1.0 - consistency,
                accuracy: Some(accuracy),
                relevance,
                cost_fraction,
            },
        );
        // Completeness should be judged against the catalog: entities found /
        // entities wanted, blended with field completeness.
        if let Some(master) = self.data_ctx.master("product") {
            let entity_cov = (cache.entities as f64 / master.len().max(1) as f64).min(1.0);
            let field_com = quality.get(Criterion::Completeness);
            quality = quality.with(Criterion::Completeness, 0.5 * entity_cov + 0.5 * field_com);
        }
        let utility = self.user.utility(&quality);
        self.obs.count("out.rows", table.num_rows() as u64);
        self.obs.count("out.entities", cache.entities as u64);
        self.obs.count("out.values_delivered", delivered);
        self.obs.count("out.values_withheld", withheld);
        self.obs.gauge("out.accuracy", accuracy);
        self.obs.gauge("out.consistency", consistency);
        self.obs.gauge("out.utility", utility);
        Ok(WrangleOutcome {
            table,
            quality,
            utility,
            selected_sources: cache.selected.clone(),
            entities: cache.entities,
            cost_spent,
            skipped_sources: self.last_acquisition.skipped.clone(),
            degraded_sources: self.last_acquisition.degraded.clone(),
            acquisition_attempts: self.last_acquisition.attempts,
            acquisition_ticks: self.last_acquisition.ticks,
            lint: self.lint_report(),
            metrics: MetricsReport::default(),
            containment: ContainmentReport::default(),
        })
    }

    /// Receive one feedback item: record it, route it, apply the signals.
    /// Returns the number of component signals applied.
    pub fn give_feedback(&mut self, item: FeedbackItem) -> usize {
        // Provenance for value/tuple feedback from the cache.
        let provenance = match (&item.target, &self.cache) {
            (FeedbackTarget::Value { entity, attr, .. }, Some(cache)) => {
                match cache.fused.get(&(*entity, *attr)) {
                    Some(f) => {
                        let slot = cache.claims.slot(*entity, *attr);
                        let dissenters: Vec<usize> = slot
                            .iter()
                            .map(|c| c.source)
                            .filter(|s| !f.supporters.contains(s))
                            .collect();
                        ValueProvenance {
                            supporters: f.supporters.clone(),
                            dissenters,
                        }
                    }
                    None => ValueProvenance::default(),
                }
            }
            (FeedbackTarget::Tuple { entity }, Some(cache)) => {
                let mut supporters: Vec<usize> = cache
                    .claims
                    .claims()
                    .iter()
                    .filter(|c| c.entity == *entity)
                    .map(|c| c.source)
                    .collect();
                supporters.sort_unstable();
                supporters.dedup();
                ValueProvenance {
                    supporters,
                    dissenters: Vec::new(),
                }
            }
            _ => ValueProvenance::default(),
        };
        // Direct slot constraints from reliable value feedback (both routing
        // modes: this is the minimal effect even the siloed regime applies).
        if item.reliability >= 0.8 {
            if let FeedbackTarget::Value {
                entity,
                attr,
                value,
            } = &item.target
            {
                let judged = value.clone().or_else(|| {
                    self.cache
                        .as_ref()
                        .and_then(|c| c.fused.get(&(*entity, *attr)))
                        .map(|f| f.value.clone())
                });
                if let Some(v) = judged {
                    if item.verdict.is_positive() {
                        self.confirmations.insert((*entity, *attr), v);
                    } else {
                        self.confirmations.remove(&(*entity, *attr));
                        self.vetoes.entry((*entity, *attr)).or_default().push(v);
                    }
                }
            }
        }
        let signals = route(&item, &provenance, self.routing);
        self.feedback.add(item);
        let n = signals.len();
        for s in signals {
            self.apply_signal(s);
        }
        self.obs.inc("feedback.items");
        self.obs.count("feedback.signals", n as u64);
        n
    }

    fn apply_signal(&mut self, signal: RoutedSignal) {
        match signal {
            RoutedSignal::SourceTrust {
                source,
                positive,
                reliability,
            } => {
                if let Some(state) = self.states.get_mut(source) {
                    let kind = if reliability >= 1.0 {
                        EvidenceKind::UserFeedback
                    } else {
                        EvidenceKind::CrowdFeedback
                    };
                    state
                        .trust
                        .update(&Evidence::vote(kind, positive, 0.85).discounted(reliability));
                    // Trust moved: slots this source claims need re-fusion.
                    self.working.invalidate(Artifact::SourceSlots(source));
                }
            }
            RoutedSignal::MappingBelief {
                source,
                positive,
                reliability,
            } => {
                if let Some(state) = self.states.get_mut(source) {
                    if let Some(m) = &mut state.mapping {
                        wrangler_mapping::refine::record_feedback(m, positive, reliability);
                        // A collapsed mapping must be regenerated next time.
                        if m.belief.probability() < 0.15 {
                            self.working.invalidate(Artifact::Mapping(source));
                        }
                    }
                }
            }
            RoutedSignal::RefuseSlot { entity, attr } => {
                self.working.invalidate(Artifact::FusedSlot(entity, attr));
            }
            RoutedSignal::ErLabel { .. } => {
                // Labels accumulate in the feedback store (added by caller);
                // `refine_er` consumes them on demand.
            }
            RoutedSignal::RecheckWrapper { source } => {
                self.working.invalidate(Artifact::Mapping(source));
                self.working.invalidate(Artifact::MappedTable(source));
                self.working.invalidate(Artifact::Clusters);
            }
            RoutedSignal::TupleRelevance { .. } => {
                // Relevance feedback currently informs source trust via
                // routing; a per-entity relevance model is future work.
            }
        }
    }

    /// The current entity-resolution rule (learnable via [`Self::refine_er`]).
    pub fn er_config(&self) -> &ErConfig {
        &self.er_cfg
    }

    /// Explain a delivered slot: the winning value, its supporters and
    /// dissenters (with their names and current trust), confidence, and any
    /// feedback constraints in force. `None` before the first wrangle or for
    /// claim-less slots.
    pub fn explain(&self, entity: usize, attr: usize) -> Option<SlotExplanation> {
        let cache = self.cache.as_ref()?;
        let fused = cache.fused.get(&(entity, attr))?;
        let slot = cache.claims.slot(entity, attr);
        let describe = |s: usize| SourceClaim {
            source: SourceId(s as u32),
            name: self
                .registry
                .get(SourceId(s as u32))
                .map(|x| x.meta.name.clone())
                .unwrap_or_default(),
            trust: cache.source_ctx.trust.get(s).copied().unwrap_or(0.5),
            value: slot
                .iter()
                .find(|c| c.source == s)
                .map(|c| c.value.clone())
                .unwrap_or(Value::Null),
        };
        let supporters: Vec<SourceClaim> = fused.supporters.iter().map(|&s| describe(s)).collect();
        let dissenters: Vec<SourceClaim> = slot
            .iter()
            .map(|c| c.source)
            .filter(|s| !fused.supporters.contains(s))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(describe)
            .collect();
        Some(SlotExplanation {
            value: fused.value.clone(),
            confidence: fused.confidence(),
            freshness: fused.freshness,
            supporters,
            dissenters,
            confirmed: self.confirmations.contains_key(&(entity, attr)),
            vetoed_values: self
                .vetoes
                .get(&(entity, attr))
                .cloned()
                .unwrap_or_default(),
        })
    }

    /// Number of union rows in the last wrangle (duplicate-pair feedback is
    /// expressed in union-row indices).
    pub fn union_len(&self) -> usize {
        self.cache
            .as_ref()
            .map_or(0, |c| c.union.table().num_rows())
    }

    /// Entity id a union row was clustered into, if a wrangle has run.
    pub fn entity_of_union_row(&self, row: usize) -> Option<usize> {
        self.cache
            .as_ref()
            .and_then(|c| c.row_entity.get(row).copied())
    }

    /// Refine the ER rule from accumulated duplicate-pair labels (Corleone
    /// loop). Returns the achieved F1 on the labels, or `None` without a
    /// cache or labels.
    pub fn refine_er(&mut self) -> Option<f64> {
        let cache = self.cache.as_ref()?;
        let labels: Vec<LabeledPair> = self
            .feedback
            .duplicate_labels()
            .into_iter()
            .map(|(a, b, m, _)| LabeledPair {
                i: a,
                j: b,
                is_match: m,
            })
            .collect();
        if labels.is_empty() {
            return None;
        }
        let union_table = cache.union.table();
        let old_f1 = wrangler_resolve::learn::evaluate(union_table, &labels, &self.er_cfg)
            .ok()?
            .f1;
        let (cfg, f1) = refine_rule(union_table, &labels, &self.er_cfg, 3).ok()?;
        // Adopt only a strict improvement on the labels...
        if f1.f1 <= old_f1 + 1e-9 {
            return Some(old_f1);
        }
        // ...that also passes a system-level sanity check: a handful of noisy
        // labels must not collapse or shatter the entity space. Re-cluster
        // with the candidate rule and require the entity count to stay within
        // a factor of the current one.
        let (name_col, key_col) = self.blocking_columns();
        let blocks = UnionBlocks::build(union_table, name_col, key_col).ok()?;
        let matches = ErKernel::compile(union_table, &cfg)
            .ok()?
            .decide_union(&blocks, 1, |_, _| false)
            .ok()?
            .matches;
        let new_entities = cluster_pairs(union_table.num_rows(), matches).len();
        let old_entities = cache.entities.max(1);
        let ratio = new_entities as f64 / old_entities as f64;
        if !(0.6..=1.67).contains(&ratio) {
            return Some(old_f1);
        }
        self.er_cfg = cfg;
        self.working.invalidate(Artifact::Clusters);
        // The rule changed: the ER memo's matched pairs were decided under
        // the old one, and every memo keyed downstream of it goes with them.
        self.incr.clear();
        Some(f1.f1)
    }

    /// The union table of the last wrangle (the ER kernel's input), cloned
    /// from the cache. `None` before the first wrangle. Experiment harnesses
    /// use this to benchmark the measured hot path on the real workload.
    pub fn union_table(&self) -> Option<Table> {
        Some(self.cache.as_ref()?.union.table().clone())
    }

    /// The columns ER blocks a union on: the name-ish column (a name or
    /// title, else the key) AND the key column — rows whose name is null or
    /// typo-prefixed still meet their duplicates through the key.
    fn blocking_columns(&self) -> (&str, &str) {
        let mut names = self.target.fields().iter().map(|f| &f.name);
        let key_col = &self.target.fields()[0].name;
        let name_col = names
            .find(|n| {
                let l = n.to_lowercase();
                l.contains("name") || l.contains("title")
            })
            .unwrap_or(key_col);
        (name_col, key_col)
    }
}

/// One source's stance on an explained slot.
#[derive(Debug, Clone)]
pub struct SourceClaim {
    /// Source id.
    pub source: SourceId,
    /// Source name.
    pub name: String,
    /// Current (blended) trust in the source.
    pub trust: f64,
    /// The value it claimed for the slot.
    pub value: Value,
}

/// Why a delivered value is what it is (see [`Wrangler::explain`]).
#[derive(Debug, Clone)]
pub struct SlotExplanation {
    /// The winning value.
    pub value: Value,
    /// Delivered confidence.
    pub confidence: f64,
    /// Freshness factor of the winning evidence.
    pub freshness: f64,
    /// Sources supporting the winner.
    pub supporters: Vec<SourceClaim>,
    /// Sources claiming something else.
    pub dissenters: Vec<SourceClaim>,
    /// True if the user confirmed this value.
    pub confirmed: bool,
    /// Values the user refuted for this slot.
    pub vetoed_values: Vec<Value>,
}

/// ER configuration derived from the target schema: exact match on key-ish
/// columns, text similarity on strings (names weighted up), numerics
/// excluded (prices legitimately differ across sources).
fn build_er_config(target: &Schema, threshold: f64) -> ErConfig {
    let mut fields = Vec::new();
    for (i, f) in target.fields().iter().enumerate() {
        let lname = f.name.to_lowercase();
        let key_like = i == 0
            || lname == "sku"
            || lname == "id"
            || lname.ends_with("_id")
            || lname == "url"
            || lname == "code";
        if key_like {
            fields.push(FieldSim {
                column: f.name.clone(),
                weight: 2.0,
                kind: SimKind::Exact,
            });
        } else if f.dtype == DataType::Str || f.dtype == DataType::Null {
            let weight = if lname.contains("name") || lname.contains("title") {
                3.0
            } else {
                1.0
            };
            fields.push(FieldSim {
                column: f.name.clone(),
                weight,
                kind: SimKind::Text,
            });
        }
        // Numeric columns intentionally excluded.
    }
    ErConfig { fields, threshold }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_context::Ontology;
    use wrangler_feedback::Verdict;
    use wrangler_plan::FilterPlacement;
    use wrangler_sources::{FleetConfig, SyntheticFleet};

    fn small_fleet() -> SyntheticFleet {
        fleet_of(40)
    }

    /// Enough entities that the live slots (one per entity and target
    /// attribute) clear the fuse pool's fan-out floor of
    /// 2 × `MIN_SLOTS_PER_WORKER`, even with a third of the sources
    /// quarantined: on two cores or more, a multi-worker request really
    /// fans out.
    fn wide_fleet() -> SyntheticFleet {
        fleet_of(1800)
    }

    fn fleet_of(num_products: usize) -> SyntheticFleet {
        wrangler_sources::synthetic::generate_fleet(
            &FleetConfig {
                num_products,
                num_sources: 6,
                now: 10,
                coverage: (0.5, 0.9),
                error_rate: (0.02, 0.15),
                null_rate: (0.0, 0.05),
                staleness: (0, 4),
                ..FleetConfig::default()
            },
            42,
        )
    }

    fn session(fleet: &SyntheticFleet, user: UserContext) -> Wrangler {
        let mut ctx = DataContext::with_ontology(Ontology::ecommerce());
        ctx.add_master("product", fleet.truth.master_catalog(), "sku")
            .unwrap();
        // Target: catalog schema + price (what the company wants to learn).
        let mut sample = fleet.truth.master_catalog();
        sample = wrangler_table::ops::project_exprs(
            &sample,
            &[
                ("sku".into(), wrangler_table::Expr::col("sku")),
                ("name".into(), wrangler_table::Expr::col("name")),
                ("brand".into(), wrangler_table::Expr::col("brand")),
                ("category".into(), wrangler_table::Expr::col("category")),
                ("price".into(), wrangler_table::Expr::lit(Value::Null)),
            ],
        )
        .unwrap();
        // Give price a numeric type hint from a handful of plausible values.
        let mut w = Wrangler::new(user, ctx, retype_price(sample));
        w.set_now(fleet.truth.now);
        for s in fleet.registry.iter() {
            w.add_source(s.meta.clone(), s.table.clone());
        }
        w
    }

    /// The all-null price column types as Null; hint it as Float so mapping
    /// normalization and ER config treat it numerically.
    fn retype_price(sample: Table) -> Table {
        let mut fields = sample.schema().fields().to_vec();
        for f in &mut fields {
            if f.name == "price" {
                f.dtype = DataType::Float;
            }
        }
        let schema = Schema::new(fields).unwrap();
        let cols = (0..sample.num_columns())
            .map(|i| sample.column(i).unwrap().to_vec())
            .collect();
        Table::from_columns(schema, cols).unwrap()
    }

    #[test]
    fn end_to_end_wrangle_produces_entities_with_prices() {
        let fleet = small_fleet();
        let mut w = session(
            &fleet,
            UserContext::balanced("t").with_required_columns(&["sku", "price"]),
        );
        let out = w.wrangle().unwrap();
        assert!(out.entities >= 30, "entities {}", out.entities);
        assert!(
            out.entities <= 60,
            "over-merged or under-merged: {}",
            out.entities
        );
        assert!(!out.selected_sources.is_empty());
        // Most entities should carry a price.
        let priced = (0..out.table.num_rows())
            .filter(|&i| !out.table.get_named(i, "price").unwrap().is_null())
            .count();
        assert!(
            priced as f64 >= 0.6 * out.entities as f64,
            "{priced}/{}",
            out.entities
        );
        assert!(out.utility > 0.0);
    }

    #[test]
    fn accuracy_context_trades_completeness_for_accuracy() {
        let fleet = small_fleet();
        let mut acc = session(&fleet, UserContext::accuracy_first());
        let mut com = session(&fleet, UserContext::completeness_first());
        let out_acc = acc.wrangle().unwrap();
        let out_com = com.wrangle().unwrap();
        let nulls = |t: &Table| {
            let mut n = 0;
            for r in 0..t.num_rows() {
                for c in 0..t.num_columns() - 1 {
                    n += usize::from(t.get(r, c).unwrap().is_null());
                }
            }
            n as f64 / (t.num_rows() * (t.num_columns() - 1)) as f64
        };
        // The accuracy-first context withholds more uncertain values.
        assert!(
            nulls(&out_acc.table) >= nulls(&out_com.table),
            "acc nulls {} vs com nulls {}",
            nulls(&out_acc.table),
            nulls(&out_com.table)
        );
    }

    #[test]
    fn feedback_moves_source_trust_and_is_cheap_to_apply() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let full_work = w.working.work;
        let trust_before: Vec<f64> = out
            .selected_sources
            .iter()
            .map(|id| w.source_trust(*id))
            .collect();
        // Tuple feedback: moves the supporting sources' trust, no structural
        // invalidation.
        let signals = w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Tuple { entity: 0 },
            Verdict::Negative,
            1.0,
        ));
        assert!(signals >= 2, "shared routing reaches supporters");
        let moved = out
            .selected_sources
            .iter()
            .zip(&trust_before)
            .any(|(id, before)| w.source_trust(*id) < *before);
        assert!(moved, "some supporter's trust must drop");
        // Incremental rewrangle after the trust ripple: no remapping, no
        // re-ER (structural artifacts untouched).
        let before_work = w.working.work;
        let _ = w.rewrangle().unwrap();
        let delta = w.working.work - before_work;
        assert_eq!(delta.mappings_generated, 0);
        assert_eq!(delta.er_pairs, 0);
        assert!(delta.slots_fused <= full_work.slots_fused);

        // Siloed value feedback refuses exactly one slot: the strictly
        // bounded reprocessing Example 5 demands.
        let mut siloed = session(&fleet, UserContext::balanced("t"));
        siloed.routing = RoutingMode::Siloed;
        siloed.wrangle().unwrap();
        siloed.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Value {
                entity: 0,
                attr: 4,
                value: None,
            },
            Verdict::Negative,
            1.0,
        ));
        let before_work = siloed.working.work;
        let _ = siloed.rewrangle().unwrap();
        let delta = siloed.working.work - before_work;
        assert_eq!(delta.mappings_generated, 0);
        assert_eq!(delta.er_pairs, 0);
        assert_eq!(delta.slots_fused, 1, "exactly the judged slot is refused");
    }

    #[test]
    fn negative_source_feedback_triggers_structural_rework_when_shared() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let sid = out.selected_sources[0];
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Extraction {
                source: sid.0 as usize,
            },
            Verdict::Negative,
            1.0,
        ));
        assert!(w.working.is_dirty(Artifact::Mapping(sid.0 as usize)));
        // Rewrangle falls back to the full path. Structural rework shows up
        // either as a regenerated mapping for the judged source, or — when
        // the trust hit is severe enough — as that source being dropped from
        // the selection entirely.
        let before = w.working.work;
        let out2 = w.rewrangle().unwrap();
        let delta = w.working.work - before;
        assert!(delta.mappings_generated >= 1 || !out2.selected_sources.contains(&sid));
    }

    #[test]
    fn siloed_routing_produces_fewer_signals() {
        let fleet = small_fleet();
        let mut shared = session(&fleet, UserContext::balanced("t"));
        let mut siloed = session(&fleet, UserContext::balanced("t"));
        siloed.routing = RoutingMode::Siloed;
        shared.wrangle().unwrap();
        siloed.wrangle().unwrap();
        let item = |_: &Wrangler| {
            FeedbackItem::expert(
                FeedbackTarget::Value {
                    entity: 1,
                    attr: 4,
                    value: None,
                },
                Verdict::Negative,
                1.0,
            )
        };
        let n_shared = shared.give_feedback(item(&shared));
        let n_siloed = siloed.give_feedback(item(&siloed));
        assert!(n_shared >= n_siloed);
    }

    #[test]
    fn value_feedback_vetoes_and_confirms() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let price_attr = w.target().index_of("price").unwrap();
        // Find an entity with a delivered price.
        let entity = (0..out.table.num_rows())
            .find(|&r| !out.table.get_named(r, "price").unwrap().is_null())
            .expect("some delivered price");
        let old_value = out.table.get_named(entity, "price").unwrap().clone();
        // Refute it: the same value must never be delivered again.
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Value {
                entity,
                attr: price_attr,
                value: Some(old_value.clone()),
            },
            Verdict::Negative,
            1.0,
        ));
        let out2 = w.rewrangle().unwrap();
        let new_value = out2.table.get_named(entity, "price").unwrap().clone();
        assert_ne!(new_value, old_value, "vetoed value re-delivered");
        // If every claim agreed with the vetoed value, the slot is now empty
        // (Null) and unexplainable; otherwise the explanation records the veto.
        if let Some(exp) = w.explain(entity, price_attr) {
            assert!(exp.vetoed_values.contains(&old_value));
        } else {
            assert!(new_value.is_null());
        }
        // Confirm the new value: pinned at full confidence.
        if !new_value.is_null() {
            w.give_feedback(FeedbackItem::expert(
                FeedbackTarget::Value {
                    entity,
                    attr: price_attr,
                    value: Some(new_value.clone()),
                },
                Verdict::Positive,
                1.0,
            ));
            let out3 = w.rewrangle().unwrap();
            assert_eq!(out3.table.get_named(entity, "price").unwrap(), &new_value);
            let exp = w.explain(entity, price_attr).unwrap();
            assert!(exp.confirmed);
            assert_eq!(exp.confidence, 1.0);
        }
    }

    #[test]
    fn explain_names_supporters_and_dissenters() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.wrangle().unwrap();
        let price_attr = w.target().index_of("price").unwrap();
        let exp = (0..30)
            .find_map(|e| w.explain(e, price_attr))
            .expect("explainable slot");
        assert!(!exp.supporters.is_empty());
        for s in exp.supporters.iter().chain(&exp.dissenters) {
            assert!(
                s.name.starts_with("shop"),
                "source name propagated: {}",
                s.name
            );
            assert!((0.0..=1.0).contains(&s.trust));
        }
        assert!(w.explain(9999, price_attr).is_none());
    }

    #[test]
    fn er_refinement_consumes_duplicate_labels() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.wrangle().unwrap();
        assert_eq!(w.refine_er(), None, "no labels yet");
        // Label two union rows as duplicates (indices are union rows).
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::DuplicatePair { row_a: 0, row_b: 1 },
            Verdict::Negative,
            0.5,
        ));
        let f1 = w.refine_er();
        assert!(f1.is_some());
    }

    #[test]
    fn wrangle_completes_on_surviving_subset() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        // Half the fleet hard-down: the resilient default must still deliver.
        for i in [0u32, 2, 4] {
            w.set_fault_profile(SourceId(i), FaultProfile::HardDown);
        }
        let out = w.wrangle().expect("graceful degradation, not an error");
        assert!(out.entities > 0);
        assert!(!out.skipped_sources.is_empty(), "the downed sources skipped");
        assert!(out
            .skipped_sources
            .iter()
            .all(|(id, _)| [0, 2, 4].contains(&id.0)));
        assert!(out
            .selected_sources
            .iter()
            .all(|id| ![0u32, 2, 4].contains(&id.0)));
        assert!(out.acquisition_attempts > out.selected_sources.len() as u64);
    }

    /// Uniform error exits: after a pass that failed in `stage`, that
    /// stage's span and the root span were each recorded once per pass run
    /// (`passes`), no later stage ran, and no span was left open.
    fn assert_failed_pass_closed_its_spans(w: &mut Wrangler, stage: &str, next: &str, passes: u64) {
        let m = w.metrics();
        assert_eq!(m.timings[&format!("wrangle/{stage}")].calls, passes);
        assert_eq!(m.timings["wrangle"].calls, passes);
        let after = m.timings.get(&format!("wrangle/{next}"));
        assert_eq!(after.map_or(0, |t| t.calls), passes - 1, "{next} ran");
        w.obs.begin("probe");
        w.obs.end();
        assert!(
            w.metrics().timings.contains_key("probe"),
            "a span was left open: the probe nested under it"
        );
    }

    #[test]
    fn all_sources_down_is_a_clean_structured_error() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        for i in 0..w.num_sources() {
            w.set_fault_profile(SourceId(i as u32), FaultProfile::HardDown);
        }
        match w.wrangle() {
            Err(wrangler_table::TableError::Unavailable(msg)) => {
                assert!(msg.contains("no sources could be acquired"), "{msg}");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert_failed_pass_closed_its_spans(&mut w, "acquire", "map_generate", 1);
    }

    #[test]
    fn degraded_payloads_are_integrated_and_reported() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let healthy = w.wrangle().unwrap();
        let victim = healthy.selected_sources[0];
        w.set_fault_profile(victim, FaultProfile::Truncated { keep_fraction: 0.5 });
        // Force re-selection + re-acquisition.
        w.cache = None;
        let out = w.wrangle().unwrap();
        if out.selected_sources.contains(&victim) {
            assert!(out
                .degraded_sources
                .iter()
                .any(|(id, _)| *id == victim));
        }
        assert!(out.entities > 0);
    }

    #[test]
    fn abort_mode_turns_any_failure_into_an_error() {
        use crate::acquire::AcquisitionMode;
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.acquisition.mode = AcquisitionMode::AbortOnFailure;
        w.set_fault_profile(SourceId(1), FaultProfile::HardDown);
        // src1 has decent quality in this fleet, so it gets selected; the
        // naive mode then aborts the whole wrangle.
        match w.wrangle() {
            Err(wrangler_table::TableError::Unavailable(msg)) => {
                assert!(msg.contains("aborted"), "{msg}");
            }
            Ok(out) => {
                // Only acceptable if the downed source was never selected.
                assert!(!out.selected_sources.contains(&SourceId(1)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn breaker_quarantine_feeds_selection_availability() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.set_fault_profile(SourceId(0), FaultProfile::HardDown);
        let first = w.wrangle().unwrap();
        let src0_was_tried = first
            .skipped_sources
            .iter()
            .any(|(id, _)| *id == SourceId(0));
        if src0_was_tried {
            // Its breaker is now open: selection sees availability 0 and the
            // next wrangle doesn't waste attempts on it.
            let est = w.estimates();
            assert_eq!(est[0].availability, 0.0);
            w.cache = None;
            let second = w.wrangle().unwrap();
            assert!(!second.selected_sources.contains(&SourceId(0)));
            assert!(second
                .skipped_sources
                .iter()
                .all(|(id, _)| *id != SourceId(0)));
        }
    }

    #[test]
    fn acquisition_failures_discount_source_trust() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let before = w.source_trust(SourceId(0));
        w.set_fault_profile(SourceId(0), FaultProfile::HardDown);
        let out = w.wrangle().unwrap();
        if out.skipped_sources.iter().any(|(id, _)| *id == SourceId(0)) {
            assert!(w.source_trust(SourceId(0)) < before);
        }
    }

    #[test]
    fn faultless_fleet_reports_clean_acquisition() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        assert!(out.skipped_sources.is_empty());
        assert!(out.degraded_sources.is_empty());
        assert_eq!(
            out.acquisition_attempts,
            out.selected_sources.len() as u64,
            "one attempt per source, no retries"
        );
    }

    #[test]
    fn clean_pipeline_passes_deny_gate() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        assert_eq!(w.lint_gate(), wrangler_lint::GateMode::Deny);
        let out = w.wrangle().unwrap();
        // Generated mappings may carry advisory warnings (lossy messy-number
        // normalization is real), but never error-grade findings: the gate
        // must not block the seed pipeline.
        assert!(out.lint.is_clean(), "{:?}", out.lint);
    }

    #[test]
    fn deny_gate_blocks_corrupted_mapping_before_execution() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let victim = out.selected_sources[0];
        let mut bad = w.mapping_of(victim).expect("mapping generated").clone();
        *bad
            .bindings
            .iter_mut()
            .find(|b| b.is_some())
            .expect("some binding") = Some(999);
        assert!(w.override_mapping(victim, bad));
        let err = w.wrangle().unwrap_err();
        assert!(err.to_string().contains("pre-flight lint"), "{err}");
        // Findings survive the refusal, so callers can inspect why.
        assert!(!w.lint_report().is_clean());
        assert!(w
            .lint_findings()
            .iter()
            .any(|(origin, _)| origin == &format!("src{}", victim.0)));
        assert_failed_pass_closed_its_spans(&mut w, "preflight", "map_apply", 2);
    }

    #[test]
    fn warn_gate_records_findings_and_containment_quarantines_the_bad_source() {
        let fleet = small_fleet();
        let mut w =
            session(&fleet, UserContext::balanced("t")).with_lint_gate(wrangler_lint::GateMode::Warn);
        let out = w.wrangle().unwrap();
        let victim = out.selected_sources[0];
        let mut bad = w.mapping_of(victim).expect("mapping generated").clone();
        *bad
            .bindings
            .iter_mut()
            .find(|b| b.is_some())
            .expect("some binding") = Some(999);
        assert!(w.override_mapping(victim, bad));
        // Under the default Contain policy the defect no longer kills the
        // pass: the source erroring at map_apply is quarantined and the run
        // completes on survivors.
        let out = w.wrangle().unwrap();
        let q: Vec<_> = out
            .containment
            .quarantines
            .iter()
            .filter(|e| e.source == victim && e.stage == Stage::MapApply)
            .collect();
        assert_eq!(q.len(), 1, "victim quarantined exactly once: {out:?}");
        assert!(q[0].reason.contains("out of bounds"), "{}", q[0].reason);
        assert!(!out.selected_sources.contains(&victim));
        assert!(!w.lint_report().is_clean(), "findings still recorded");
    }

    #[test]
    fn warn_gate_abort_policy_restores_runtime_error() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_lint_gate(wrangler_lint::GateMode::Warn)
            .with_contain_policy(ContainPolicy::abort());
        let out = w.wrangle().unwrap();
        let victim = out.selected_sources[0];
        let mut bad = w.mapping_of(victim).expect("mapping generated").clone();
        *bad
            .bindings
            .iter_mut()
            .find(|b| b.is_some())
            .expect("some binding") = Some(999);
        assert!(w.override_mapping(victim, bad));
        // Abort mode reproduces the legacy behavior: the same defect
        // surfaces as a runtime table error mid-run, not a lint block.
        let err = w.wrangle().unwrap_err();
        assert!(!err.to_string().contains("pre-flight lint"), "{err}");
        assert!(!w.lint_report().is_clean(), "findings still recorded");
    }

    /// Regression for the opaque "schema-matching worker panicked" failure:
    /// a panic inside one source's mapping generation must identify and
    /// quarantine that source, and the pass must complete on survivors.
    #[test]
    fn map_generate_panic_quarantines_the_source_and_pass_completes() {
        use crate::contain::ChaosPolicy;
        let fleet = small_fleet();
        // seed=2 rate=0.3 deterministically hits sources 3 and 5 at
        // map_generate and no others.
        let chaos = ChaosPolicy::new(0.3, 2).at_stage(Stage::MapGenerate);
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::contain().with_chaos(chaos));
        let out = w.wrangle().unwrap();
        let quarantined = out.containment.quarantined_sources();
        assert_eq!(quarantined, vec![SourceId(3), SourceId(5)], "{out:?}");
        for e in &out.containment.quarantines {
            assert_eq!(e.stage, Stage::MapGenerate);
            assert!(e.reason.contains("panicked"), "{}", e.reason);
        }
        let t = out.containment.tallies(Stage::MapGenerate);
        assert_eq!(t.quarantined, 2);
        assert_eq!(t.panics_caught, 2);
        // Survivors complete the pass.
        assert!(!out.selected_sources.is_empty());
        assert!(!out.selected_sources.contains(&SourceId(3)));
        assert!(!out.selected_sources.contains(&SourceId(5)));
        assert!(out.entities > 0);
        // Identical session, identical report — containment is deterministic.
        let chaos2 = ChaosPolicy::new(0.3, 2).at_stage(Stage::MapGenerate);
        let mut w2 = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::contain().with_chaos(chaos2));
        let out2 = w2.wrangle().unwrap();
        assert_eq!(out.containment.render(), out2.containment.render());
    }

    #[test]
    fn map_generate_panic_in_abort_mode_names_the_source() {
        use crate::contain::ChaosPolicy;
        let fleet = small_fleet();
        let chaos = ChaosPolicy::new(0.3, 2).at_stage(Stage::MapGenerate);
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::abort().with_chaos(chaos));
        let err = w.wrangle().unwrap_err();
        let msg = err.to_string();
        // Not the old opaque message: the failing source is identified.
        assert!(msg.contains("src"), "{msg}");
        assert!(msg.contains("map_generate"), "{msg}");
    }

    /// A type-poisoned source is caught at the union firewall: its poison
    /// rows are dropped, and past the threshold the whole source is ejected.
    #[test]
    fn type_poisoned_source_is_quarantined_at_union() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.set_fault_profile(SourceId(0), FaultProfile::TypePoison { cell_rate: 0.6 });
        let out = w.wrangle().unwrap();
        let q: Vec<_> = out
            .containment
            .quarantines
            .iter()
            .filter(|e| e.source == SourceId(0))
            .collect();
        assert_eq!(q.len(), 1, "{out:?}");
        assert_eq!(q[0].stage, Stage::Union);
        assert!(q[0].reason.contains("poison rows"), "{}", q[0].reason);
        assert!(out.containment.tallies(Stage::Union).dropped_rows > 0);
        assert!(!out.selected_sources.contains(&SourceId(0)));
        assert!(out.entities > 0, "survivors still produce output");
    }

    /// Quarantine feeds the acquisition breaker: a source poisonous
    /// mid-pipeline is discounted at the next acquisition, and recovers
    /// through half-open once healed and past the cooldown.
    #[test]
    fn quarantine_trips_breaker_then_half_open_recovery_after_heal() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.set_fault_profile(SourceId(0), FaultProfile::NonFinite { cell_rate: 0.9 });
        let out = w.wrangle().unwrap();
        assert!(
            out.containment.quarantined_sources().contains(&SourceId(0)),
            "{out:?}"
        );
        // The pipeline failure tripped src0's breaker immediately.
        assert_eq!(w.estimates()[0].availability, 0.0);
        assert!(matches!(
            w.acquisition.breaker_state(0),
            Some(crate::acquire::BreakerState::Open { .. })
        ));
        // Heal the source and move well past the cooldown (the acquisition
        // clock advanced during the first pass, so leave a margin): the
        // breaker becomes half-open eligible.
        w.set_fault_profile(SourceId(0), FaultProfile::Healthy);
        let cooldown = w.acquisition.breaker_cfg.cooldown;
        w.set_now(fleet.truth.now + 2 * cooldown);
        assert_eq!(w.estimates()[0].availability, 0.5);
        // A fresh pass completes; if selection re-admits the healed source
        // (its trust was discounted by the quarantine, so it may not make
        // the marginal-gain cut), it comes back clean.
        w.cache = None;
        let second = w.wrangle().unwrap();
        assert!(second.entities > 0);
        assert!(!second
            .containment
            .quarantined_sources()
            .contains(&SourceId(0)));
        if second.selected_sources.contains(&SourceId(0)) {
            // The probe succeeded: the breaker is half-open or closed, never
            // re-opened.
            assert!(w.estimates()[0].availability >= 0.5);
        }
    }

    #[test]
    fn off_gate_skips_analysis() {
        let fleet = small_fleet();
        let mut w =
            session(&fleet, UserContext::balanced("t")).with_lint_gate(wrangler_lint::GateMode::Off);
        let out = w.wrangle().unwrap();
        assert!(out.lint.is_empty());
        assert!(w.lint_findings().is_empty());
    }

    #[test]
    fn metrics_cover_every_stage_and_every_worker() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let m = &out.metrics;
        // Every pipeline stage shows up as a direct child span of the root.
        for stage in [
            "select",
            "acquire",
            "map_generate",
            "preflight",
            "map_apply",
            "union",
            "er",
            "fuse",
            "assemble",
        ] {
            let path = format!("wrangle/{stage}");
            assert!(m.timings.contains_key(&path), "missing span {path}");
        }
        // Per-worker item counts from the strided fan-out sum to the total,
        // and with >= 2 inputs no recorded worker sat idle.
        let worker_items: Vec<u64> = m
            .counts
            .iter()
            .filter(|(k, _)| k.starts_with("map.worker") && k.ends_with(".items"))
            .map(|(_, v)| *v)
            .collect();
        assert!(!worker_items.is_empty());
        assert_eq!(
            worker_items.iter().sum::<u64>(),
            m.counts["map.generated"],
            "per-worker items must sum to map.generated"
        );
        assert!(
            worker_items.iter().all(|&n| n > 0),
            "no worker may be idle: {worker_items:?}"
        );
        // Output counters agree with the outcome.
        assert_eq!(m.counts["out.entities"], out.entities as u64);
        assert_eq!(m.counts["out.rows"], out.table.num_rows() as u64);
        assert_eq!(m.counts["pass.wrangle"], 1);
        // Stage spans attribute (nearly) all of the root's wall clock.
        let cov = m.stage_coverage("wrangle");
        assert!(cov > 0.9, "stage coverage {cov}");
        // An incremental rewrangle records its own pass + refuse stage.
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Tuple { entity: 0 },
            Verdict::Negative,
            1.0,
        ));
        let out2 = w.rewrangle().unwrap();
        let m2 = &out2.metrics;
        assert_eq!(m2.counts["pass.rewrangle"], 1);
        assert_eq!(m2.counts["feedback.items"], 1);
        assert!(m2.counts["refuse.slots"] > 0);
        assert!(m2.timings.contains_key("rewrangle/refuse"));
        assert!(m2.timings.contains_key("rewrangle/assemble"));
    }

    #[test]
    fn er_worker_counters_cover_candidates_and_a_forced_structural_pass_rescores_them() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t")).with_er_workers(3);
        let out = w.wrangle().unwrap();
        let m = &out.metrics;
        // Per-worker ER items sum to the candidate count: a first pass has
        // no memo, so every candidate is scored live and no worker sits idle.
        let worker_items: Vec<u64> = m
            .counts
            .iter()
            .filter(|(k, _)| k.starts_with("er.worker") && k.ends_with(".items"))
            .map(|(_, v)| *v)
            .collect();
        assert!(!worker_items.is_empty());
        assert_eq!(worker_items.iter().sum::<u64>(), m.counts["er.candidates"]);
        assert!(
            worker_items.iter().all(|&n| n > 0),
            "no worker may be idle: {worker_items:?}"
        );
        assert_eq!(m.counts["er.cache.misses"], m.counts["er.candidates"]);
        // Force the structural path with unchanged rows: a dirtied
        // clustering stands the ER memo down, so every candidate is scored
        // again, and the output must be identical to the first pass.
        // Counters are cumulative across passes.
        w.working.invalidate(Artifact::Clusters);
        let out2 = w.rewrangle().unwrap();
        let m2 = &out2.metrics;
        let per_pass = m.counts["er.candidates"];
        assert_eq!(m2.counts["er.candidates"], 2 * per_pass);
        assert_eq!(m2.counts["er.cache.misses"], 2 * per_pass);
        assert!(!m2.counts.contains_key("er.cache.hits"));
        assert_eq!(out2.entities, out.entities);
        assert_eq!(out2.table, out.table);
    }

    #[test]
    fn er_output_is_identical_for_any_worker_count() {
        let fleet = small_fleet();
        let mut one = session(&fleet, UserContext::balanced("t")).with_er_workers(1);
        let mut five = session(&fleet, UserContext::balanced("t")).with_er_workers(5);
        let a = one.wrangle().unwrap();
        let b = five.wrangle().unwrap();
        assert_eq!(a.entities, b.entities);
        assert_eq!(a.table, b.table);
        assert_eq!(
            a.metrics.counts["er.match_pairs"],
            b.metrics.counts["er.match_pairs"]
        );
    }

    /// The last pass's ER record against the reference spelling of the
    /// stage: write the candidates down, score each with the uncompiled
    /// `match_pairs`, filter, cluster. Returns the candidate list.
    fn assert_er_equals_listed_scored_and_clustered(w: &Wrangler) -> Vec<(usize, usize)> {
        let cache = w.cache.as_ref().unwrap();
        let union = cache.union.table();
        let (name_col, key_col) = w.blocking_columns();
        let listed = wrangler_resolve::candidates_union(union, name_col, key_col).unwrap();
        let scored = wrangler_resolve::match_pairs(union, &listed, w.er_config()).unwrap();
        let want: Vec<(usize, usize)> = scored.iter().map(|p| (p.i, p.j)).collect();
        let memo = w.incr.er.as_ref().unwrap();
        assert_eq!(memo.matches, want);
        let clusters = cluster_pairs(union.num_rows(), want);
        for (e, cluster) in clusters.iter().enumerate() {
            assert!(cluster.iter().all(|&r| memo.out.row_entity[r] == e));
        }
        assert_eq!(memo.out.clusters, clusters);
        assert_eq!(cache.row_entity, memo.out.row_entity);
        listed
    }

    #[test]
    fn live_er_equals_listing_scoring_filtering_and_clustering() {
        let null_heavy = wrangler_sources::synthetic::generate_fleet(
            &FleetConfig {
                num_products: 60,
                num_sources: 8,
                now: 10,
                null_rate: (0.3, 0.6),
                ..FleetConfig::default()
            },
            7,
        );
        // A wide fleet: few sources, many products, few copies of each.
        for (fleet, label) in [
            (small_fleet(), "small"),
            (fleet_of(500), "wide"),
            (null_heavy, "null-heavy"),
        ] {
            let mut w = session(&fleet, UserContext::completeness_first()).with_er_workers(3);
            let out = w.wrangle().unwrap();
            let listed = assert_er_equals_listed_scored_and_clustered(&w);
            let m = &out.metrics.counts;
            assert!(m["er.match_pairs"] > 0, "{label}");
            assert_eq!(m["er.candidates"], listed.len() as u64, "{label}");
            assert_eq!(m["er.cache.misses"], listed.len() as u64, "{label}");
            assert!(m["er.decide.from_ids"] <= m["er.candidates"], "{label}");
            // Nothing is opened for a pair the ids settle, something for
            // every other one.
            let opened_pairs = m["er.candidates"] - m["er.decide.from_ids"];
            let opened = m.get("er.decide.text_fields").copied().unwrap_or(0);
            assert!(opened >= opened_pairs, "{label}");
        }
    }

    /// The `fuse.workerN.items` counters of one pass, in worker order.
    fn fuse_worker_items(m: &MetricsReport) -> Vec<u64> {
        m.counts
            .iter()
            .filter(|(k, _)| k.starts_with("fuse.worker") && k.ends_with(".items"))
            .map(|(_, v)| *v)
            .collect()
    }

    /// Whether a pass asked for several fuse workers really ran them: it
    /// must have, wherever there is a second core, exactly when its slots
    /// clear the fan-out floor.
    fn fuse_fanned_out(m: &MetricsReport) -> bool {
        let fanned_out = m.counts.contains_key("fuse.worker1.items");
        let over_floor =
            m.counts["fuse.slots"] >= 2 * wrangler_fusion::MIN_SLOTS_PER_WORKER as u64;
        assert_eq!(
            fanned_out,
            over_floor && wrangler_table::par::available_parallelism() >= 2,
            "{} slots",
            m.counts["fuse.slots"]
        );
        over_floor
    }

    #[test]
    fn fuse_output_is_identical_for_any_worker_count() {
        // The small fleet stays under the slot pool's fan-out floor: the
        // serial case, whatever is asked for. The wide one clears it, so the
        // comparison is serial against a real fan-out wherever there is a
        // second core.
        for (fleet, fans_out) in [(small_fleet(), false), (wide_fleet(), true)] {
            let mut one = session(&fleet, UserContext::balanced("t")).with_fuse_workers(1);
            let mut five = session(&fleet, UserContext::balanced("t")).with_fuse_workers(5);
            let a = one.wrangle().unwrap();
            let b = five.wrangle().unwrap();
            assert_eq!(a.entities, b.entities);
            assert_eq!(a.table, b.table);
            assert_eq!(a.metrics.counts["fuse.slots"], b.metrics.counts["fuse.slots"]);
            // Per-worker fuse counters sum to the slots the kernel fused (no
            // confirmations/vetoes here, so every live slot is a kernel slot).
            for m in [&a.metrics, &b.metrics] {
                let worker_items = fuse_worker_items(m);
                assert!(!worker_items.is_empty());
                assert_eq!(worker_items.iter().sum::<u64>(), m.counts["fuse.slots"]);
                assert!(
                    worker_items.iter().all(|&n| n > 0),
                    "no worker may be idle: {worker_items:?}"
                );
            }
            assert_eq!(fuse_worker_items(&a.metrics).len(), 1);
            assert_eq!(fuse_fanned_out(&b.metrics), fans_out);
        }
    }

    /// PR 5 semantics survive the parallel fuse kernel: a fuse-stage chaos
    /// panic quarantines the rolled source *by name* before its claims enter
    /// the claim set, and the pass completes on survivors — serially on the
    /// small fleet, with the slot pool really running multi-worker on the
    /// wide one.
    #[test]
    fn fuse_chaos_panic_is_contained_and_names_the_source_with_parallel_kernel() {
        use crate::contain::ChaosPolicy;
        for (fleet, fans_out) in [(small_fleet(), false), (wide_fleet(), true)] {
            let chaos = ChaosPolicy::new(0.3, 2).at_stage(Stage::Fuse);
            let mut w = session(&fleet, UserContext::balanced("t"))
                .with_fuse_workers(5)
                .with_contain_policy(ContainPolicy::contain().with_chaos(chaos));
            let out = w.wrangle().unwrap();
            let quarantined = out.containment.quarantined_sources();
            assert!(!quarantined.is_empty(), "chaos must hit at this seed/rate");
            for e in &out.containment.quarantines {
                assert_eq!(e.stage, Stage::Fuse);
                assert!(e.reason.contains("panicked"), "{}", e.reason);
            }
            assert!(out.containment.tallies(Stage::Fuse).panics_caught > 0);
            // Survivors complete the pass; the quarantined sources are named
            // and excluded.
            assert!(!out.selected_sources.is_empty());
            for id in &quarantined {
                assert!(!out.selected_sources.contains(id), "{id:?} still selected");
            }
            assert!(out.entities > 0);
            assert_eq!(fuse_fanned_out(&out.metrics), fans_out);
            // A clean run with the same worker count delivers identical
            // output minus the quarantined sources' claims — and a chaos-free
            // session is byte-deterministic.
            let chaos2 = ChaosPolicy::new(0.3, 2).at_stage(Stage::Fuse);
            let mut w2 = session(&fleet, UserContext::balanced("t"))
                .with_fuse_workers(5)
                .with_contain_policy(ContainPolicy::contain().with_chaos(chaos2));
            let out2 = w2.wrangle().unwrap();
            assert_eq!(out.containment.render(), out2.containment.render());
            assert_eq!(out.table, out2.table);
        }
    }

    #[test]
    fn obs_off_records_nothing_and_changes_no_output() {
        let fleet = small_fleet();
        let mut on = session(&fleet, UserContext::balanced("t"));
        let mut off =
            session(&fleet, UserContext::balanced("t")).with_obs_mode(wrangler_obs::ObsMode::Off);
        let a = on.wrangle().unwrap();
        let b = off.wrangle().unwrap();
        assert!(b.metrics.counts.is_empty());
        assert!(b.metrics.timings.is_empty());
        // Telemetry is observation only: the wrangled data is unchanged.
        assert_eq!(a.entities, b.entities);
        assert_eq!(a.table.num_rows(), b.table.num_rows());
        assert!((a.utility - b.utility).abs() < 1e-12);
    }

    /// Bit-exact table fingerprint: floats via `to_bits`, everything else
    /// via its debug rendering.
    fn table_fingerprint(t: &Table) -> String {
        let mut s = String::new();
        for r in 0..t.num_rows() {
            for c in 0..t.num_columns() {
                match t.get(r, c).unwrap() {
                    Value::Float(f) => s.push_str(&format!("f{:016x};", f.to_bits())),
                    v => s.push_str(&format!("{v:?};")),
                }
            }
            s.push('\n');
        }
        s
    }

    fn category_filter() -> Expr {
        Expr::col("category")
            .eq(Expr::lit("electronics"))
            .or(Expr::col("category").eq(Expr::lit("home")))
    }

    fn projection() -> Vec<String> {
        vec!["sku".into(), "name".into(), "price".into()]
    }

    #[test]
    fn optimized_and_naive_are_byte_identical_with_barrier_up() {
        // Default containment: the scan barrier is up, so the filter stays
        // fused in the union loop; CSE and dead-fusion still apply.
        let fleet = small_fleet();
        let mut opt = session(&fleet, UserContext::balanced("t"))
            .with_row_filter(category_filter())
            .with_output_columns(projection());
        let mut naive = session(&fleet, UserContext::balanced("t"))
            .with_row_filter(category_filter())
            .with_output_columns(projection())
            .with_opt_mode(OptMode::Naive);
        let a = opt.wrangle().unwrap();
        let b = naive.wrangle().unwrap();
        assert_eq!(table_fingerprint(&a.table), table_fingerprint(&b.table));
        assert_eq!(a.entities, b.entities);
        let program = opt.plan_program().expect("optimized program");
        let kinds: Vec<&str> = program.rewrites.iter().map(|r| r.kind.name()).collect();
        assert!(kinds.contains(&"fuse-filter-into-union"), "{kinds:?}");
        assert!(kinds.contains(&"skip-dead-fusion"), "{kinds:?}");
        assert!(naive.plan_program().unwrap().rewrites.is_empty());
    }

    #[test]
    fn optimized_and_naive_are_byte_identical_with_pushdown() {
        // Containment off drops the scan barrier: cell-exact sources get
        // the filter pushed all the way into acquisition, and the result
        // must still match the naive materialize-then-filter pass bit for
        // bit.
        let fleet = small_fleet();
        let mut opt = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::off())
            .with_row_filter(category_filter())
            .with_output_columns(projection());
        let mut naive = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::off())
            .with_row_filter(category_filter())
            .with_output_columns(projection())
            .with_opt_mode(OptMode::Naive);
        let a = opt.wrangle().unwrap();
        let b = naive.wrangle().unwrap();
        assert_eq!(table_fingerprint(&a.table), table_fingerprint(&b.table));
        let program = opt.plan_program().expect("optimized program");
        // At least one source's filter left the union loop.
        let early = (0..opt.num_sources())
            .any(|i| program.placement_for(i) != wrangler_plan::FilterPlacement::Union);
        assert!(early, "no early placement despite barrier down");
        // And the optimized pass scanned strictly fewer bytes.
        assert!(
            a.metrics.counts["scan.bytes"] < b.metrics.counts["scan.bytes"],
            "opt {} vs naive {}",
            a.metrics.counts["scan.bytes"],
            b.metrics.counts["scan.bytes"]
        );
    }

    #[test]
    fn projection_delivers_only_requested_columns() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_output_columns(projection());
        let out = w.wrangle().unwrap();
        assert_eq!(
            out.table.schema().names(),
            vec!["sku", "name", "price", "_confidence"]
        );
        // brand/category are dead at fuse and their slots were skipped.
        assert!(out.metrics.counts["fuse.slots_skipped"] > 0);
    }

    // -----------------------------------------------------------------
    // The incremental dataflow engine: partition-scoped reuse must be
    // byte-identical to cold recomputation, stale reuse must be
    // structurally impossible, and every reuse must surface in telemetry.
    // -----------------------------------------------------------------

    /// Deterministically perturb a source payload: bump the first numeric
    /// cell (or rewrite the first string) so the content hash moves while
    /// the schema stays put.
    fn perturbed(table: &Table) -> Table {
        let schema = table.schema().clone();
        let mut cols: Vec<Vec<Value>> = (0..table.num_columns())
            .map(|i| table.column(i).unwrap().to_vec())
            .collect();
        let mut done = false;
        'outer: for col in cols.iter_mut() {
            for v in col.iter_mut() {
                match v {
                    Value::Float(f) => {
                        *f += 1.0;
                        done = true;
                        break 'outer;
                    }
                    Value::Int(n) => {
                        *n += 1;
                        done = true;
                        break 'outer;
                    }
                    Value::Str(s) => {
                        s.push_str(" v2");
                        done = true;
                        break 'outer;
                    }
                    _ => {}
                }
            }
        }
        assert!(done, "no perturbable cell");
        Table::from_columns(schema, cols).unwrap()
    }

    /// Fingerprint of a full outcome: bit-exact table plus the shape facts
    /// a reader would notice.
    fn outcome_fingerprint(out: &WrangleOutcome) -> String {
        format!(
            "{}|e{}|sel{:?}|skip{:?}",
            table_fingerprint(&out.table),
            out.entities,
            out.selected_sources,
            out.skipped_sources
        )
    }

    /// Run the warm (incremental) session and a cold comparator cloned from
    /// the *same* state with the engine disabled; both must deliver
    /// byte-identical outcomes. Returns the warm outcome for further
    /// assertions.
    fn assert_incremental_matches_cold(w: &mut Wrangler) -> WrangleOutcome {
        let mut cold = w.clone();
        cold.set_incr_enabled(false);
        assert_eq!(cold.incr_memo_count(), 0, "cold comparator starts bare");
        let warm_out = w.wrangle().unwrap();
        let cold_out = cold.wrangle().unwrap();
        assert_eq!(
            outcome_fingerprint(&warm_out),
            outcome_fingerprint(&cold_out),
            "incremental reuse must be byte-identical to cold recompute"
        );
        warm_out
    }

    #[test]
    fn one_source_update_reuses_every_clean_partition_byte_identically() {
        let fleet = small_fleet();
        // Completeness-dominant context: AllRelevant selection, so the
        // freshness bump of the updated source cannot reshuffle the
        // selected set out from under the partition comparison. (With
        // marginal-gain selection a fresher source legitimately changes the
        // chosen subset — and then the plan, and then every partition.)
        let mut w = session(&fleet, UserContext::completeness_first());
        let first = w.wrangle().unwrap();
        let victim = first.selected_sources[0];
        let n_selected = first.selected_sources.len() as u64;
        assert!(n_selected >= 4, "fixture needs a fleet-wide selection");
        let new_payload = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, new_payload).unwrap());
        let out = assert_incremental_matches_cold(&mut w);
        let m = out.metrics;
        // Exactly the dirty partition recomputed (counters are cumulative:
        // the cold first pass computed every block once); every other
        // selected source's union block replayed.
        assert_eq!(m.counts["incr.union.recomputed"], n_selected + 1, "{m:?}");
        assert_eq!(
            m.counts["incr.union.reused"],
            n_selected - 1,
            "clean partitions must replay: {m:?}"
        );
        // The union changed, so ER ran — but clean-clean pairs are carried
        // from the memo's matched pairs, not rescored: a 1-source update
        // must carry most of the pass's candidates.
        let candidates = m.counts["er.candidates"] - first.metrics.counts["er.candidates"];
        assert!(
            2 * m.counts["incr.er.pairs_remapped"] >= candidates,
            "clean-clean pairs must carry: {m:?}"
        );
    }

    #[test]
    fn identical_update_is_a_no_op_that_keeps_every_memo() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        let memos = w.incr_memo_count();
        assert!(memos > 0);
        let victim = first.selected_sources[0];
        let same = fleet.registry.get(victim).unwrap().table.clone();
        assert!(!w.update_source(victim, same).unwrap());
        assert_eq!(w.incr_memo_count(), memos, "no-op update must not evict");
        // Unknown source and schema drift are structured errors.
        assert!(w.update_source(SourceId(999), first.table.clone()).is_err());
        // Dropping a column from the source's own schema is a schema drift.
        let src = &fleet.registry.get(victim).unwrap().table;
        let keep = src.schema().field(0).unwrap().name.clone();
        let dropped =
            wrangler_table::ops::project_exprs(src, &[(keep.clone(), Expr::col(&keep))]).unwrap();
        assert!(w.update_source(victim, dropped).is_err());
    }

    #[test]
    fn pure_replay_reuses_er_and_fuse_without_fake_spans() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        let er_passes = first.metrics.timings["wrangle/er"].calls;
        let fuse_passes = first.metrics.timings["wrangle/fuse"].calls;
        // Nothing changed: the second pass replays union blocks, ER and
        // fuse wholesale, byte-identically.
        w.cache = None;
        let out = assert_incremental_matches_cold(&mut w);
        let m = out.metrics;
        // Counters are cumulative across passes: compare against the first
        // (cold) pass's snapshot to isolate what the replay pass did.
        let delta = |key: &str| {
            m.counts.get(key).copied().unwrap_or(0)
                - first.metrics.counts.get(key).copied().unwrap_or(0)
        };
        assert_eq!(delta("incr.er.reused"), 1, "{m:?}");
        assert_eq!(delta("incr.fuse.reused"), 1, "{m:?}");
        assert_eq!(delta("incr.union.recomputed"), 0, "{m:?}");
        assert!(delta("incr.union.reused") > 0);
        // Metrics attribution: a reused stage records NO span at all (a
        // zero-duration span would skew stage_shares); the replay cost is
        // attributed to its own explicitly-named span instead.
        assert_eq!(m.timings["wrangle/er"].calls, er_passes);
        assert_eq!(m.timings["wrangle/fuse"].calls, fuse_passes);
        assert!(m.timings.contains_key("wrangle/er_replay"));
        assert!(m.timings.contains_key("wrangle/fuse_replay"));
    }

    #[test]
    fn all_sources_dirty_is_equivalent_to_cold() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        for id in &first.selected_sources {
            let t = perturbed(&fleet.registry.get(*id).unwrap().table);
            assert!(w.update_source(*id, t).unwrap());
        }
        let out = assert_incremental_matches_cold(&mut w);
        assert_eq!(
            out.metrics.counts.get("incr.union.rows_reused").copied().unwrap_or(0),
            0,
            "nothing clean to reuse"
        );
    }

    /// What the pass that produced `out` added to a cumulative counter,
    /// given the outcome of the pass before it.
    fn counter_delta(out: &WrangleOutcome, before: &WrangleOutcome, key: &str) -> u64 {
        let of = |o: &WrangleOutcome| o.metrics.counts.get(key).copied().unwrap_or(0);
        of(out) - of(before)
    }

    /// Candidates of the last pass's union that the ER carry cannot decide,
    /// counted from the cached union's source tags alone — not from the
    /// block layout the engine itself uses: a pair with a row of `dirty`,
    /// or one whose two (clean) sources swapped places since `before`.
    fn pairs_to_score(w: &Wrangler, dirty: SourceId, before: &[SourceId]) -> u64 {
        let union = &w.cache.as_ref().unwrap().union;
        let source_of: Vec<usize> = union.sources().collect();
        let rank = |row: usize| before.iter().position(|s| s.0 as usize == source_of[row]);
        let touches = |row: usize| source_of[row] == dirty.0 as usize;
        let (name_col, key_col) = w.blocking_columns();
        wrangler_resolve::candidates_union(union.table(), name_col, key_col)
            .unwrap()
            .iter()
            .filter(|&&(i, j)| touches(i) || touches(j) || rank(i) > rank(j))
            .count() as u64
    }

    /// The fleet of `tests/ckpt_resume.rs` at seed 23.
    fn seed23_fleet() -> SyntheticFleet {
        wrangler_sources::synthetic::generate_fleet(
            &FleetConfig {
                num_products: 60,
                num_sources: 8,
                now: 20,
                coverage: (0.3, 0.8),
                error_rate: (0.02, 0.25),
                null_rate: (0.0, 0.1),
                staleness: (0, 10),
                ..FleetConfig::default()
            },
            23,
        )
    }

    #[test]
    fn block_memos_hold_kept_row_indices_that_cover_the_union_and_no_cells() {
        use crate::incr::BlockMemo;
        let fleet = seed23_fleet();
        let mut w = session(&fleet, UserContext::completeness_first());
        let first = w.wrangle().unwrap();
        assert_eq!(w.incr.blocks.len(), first.selected_sources.len());
        let mut kept_rows = 0;
        for (i, memo) in &w.incr.blocks {
            // Exhaustive on purpose: a new field has to be named here, and
            // none of these types can hold a `Value`.
            let BlockMemo {
                key,
                kept,
                filtered,
                scan_cells,
                scan_bytes,
            } = memo;
            let _: (&u64, &Vec<usize>, &u64, &u64, &u64) =
                (key, kept, filtered, scan_cells, scan_bytes);
            let mapped = w.states[*i].mapped.as_ref().unwrap().table();
            assert!(kept.windows(2).all(|p| p[0] < p[1]), "ascending");
            assert!(kept.last().is_none_or(|&r| r < mapped.num_rows()));
            kept_rows += kept.len();
        }
        assert!(kept_rows > 0);
        assert_eq!(kept_rows, w.union_len());
        let union = &w.cache.as_ref().unwrap().union;
        assert_eq!(union.runs().len(), first.selected_sources.len());
        assert_eq!(w.union_table().as_ref(), Some(union.table()));
    }

    #[test]
    fn update_scores_only_pairs_touching_the_dirty_block_and_remembers_only_matches() {
        let fleet = seed23_fleet();
        let mut w = session(&fleet, UserContext::completeness_first());
        let first = w.wrangle().unwrap();
        let victim = first.selected_sources[0];
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, t).unwrap());
        let out = assert_incremental_matches_cold(&mut w);
        let delta = |key: &str| counter_delta(&out, &first, key);
        assert_eq!(delta("incr.union.recomputed"), 1, "one dirty block");
        // Work guard: no clean–clean pair is scored.
        let live = pairs_to_score(&w, victim, &out.selected_sources);
        assert_eq!(delta("er.cache.misses"), live);
        let candidates = delta("er.candidates");
        assert_eq!(delta("incr.er.pairs_remapped"), candidates - live);
        assert!(live > 0 && 2 * live < candidates);
        // Size guard: the memo holds the pass's matched pairs and nothing
        // that grows with the candidate count.
        let memo = w.incr.er.as_ref().unwrap();
        assert_eq!(memo.matches.len() as u64, delta("er.match_pairs"));
        assert!(memo.matches.windows(2).all(|p| p[0] < p[1]), "sorted");
    }

    #[test]
    fn a_carried_update_decides_exactly_the_pairs_the_carry_does_not_cover() {
        let fleet = seed23_fleet();
        let mut w = session(&fleet, UserContext::completeness_first());
        let first = w.wrangle().unwrap();
        let before = w.incr.er.clone().unwrap();
        let victim = first.selected_sources[0];
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, t).unwrap());
        let out = w.wrangle().unwrap();
        // Carried and decided pairs together are the whole reference list's
        // matches...
        let listed = assert_er_equals_listed_scored_and_clustered(&w);
        // ...and the decided ones are those the old memo's carry, rebuilt
        // here over the new layout, does not cover.
        let after = w.incr.er.as_ref().unwrap();
        let carry = before
            .carry(after.pass_fp, &after.layout, w.union_len())
            .expect("unchanged blocks carry");
        let live = listed.iter().filter(|&&p| !carry.covers(p)).count() as u64;
        let delta = |key: &str| counter_delta(&out, &first, key);
        assert!(live > 0 && live < listed.len() as u64);
        assert_eq!(delta("er.candidates"), listed.len() as u64);
        assert_eq!(delta("er.cache.misses"), live);
        assert_eq!(delta("incr.er.pairs_remapped"), listed.len() as u64 - live);
        assert!(delta("er.decide.from_ids") <= live);
        // The session's work counter is fed from the same walk.
        let work = w.working.work;
        assert_eq!(work.er_pairs as u64, out.metrics.counts["er.candidates"]);
    }

    #[test]
    fn clean_sources_that_swap_places_across_an_update_are_rescored_in_the_new_order() {
        // A pair is scored as (earlier row, later row), and the kernel makes
        // no promise that a score survives swapping its arguments. With a
        // freshness horizon, letting the clock run past it reorders the
        // stale sources by coverage alone: their union blocks replay, but
        // pairs across two blocks that swapped places must be scored live.
        let fleet = small_fleet();
        let user = UserContext::completeness_first().with_freshness_horizon(6);
        let mut w = session(&fleet, user);
        let first = w.wrangle().unwrap();
        let victim = first.selected_sources[0];
        w.set_now(fleet.truth.now + 8);
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, t).unwrap());
        let out = assert_incremental_matches_cold(&mut w);
        let clean = |sel: &[SourceId]| -> Vec<SourceId> {
            sel.iter().copied().filter(|s| *s != victim).collect()
        };
        let (before, after) = (clean(&first.selected_sources), clean(&out.selected_sources));
        assert_ne!(before, after, "fixture: clean sources must swap places");
        let delta = |key: &str| counter_delta(&out, &first, key);
        assert_eq!(delta("incr.union.reused"), before.len() as u64);
        let live = pairs_to_score(&w, victim, &first.selected_sources);
        assert!(live > pairs_to_score(&w, victim, &out.selected_sources));
        assert_eq!(delta("er.cache.misses"), live, "swapped pairs are live");
        assert!(delta("incr.er.pairs_remapped") > 0, "the rest still carry");
    }

    #[test]
    fn dirty_source_quarantined_mid_pass_matches_cold() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        let victim = first.selected_sources[0];
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, t).unwrap());
        // The updated source now also delivers poison: it gets quarantined
        // mid-pass, and the warm session must agree with cold about both
        // the survivors' output and the containment record.
        w.set_fault_profile(victim, FaultProfile::TypePoison { cell_rate: 0.6 });
        let mut cold = w.clone();
        cold.set_incr_enabled(false);
        let warm_out = w.wrangle().unwrap();
        let cold_out = cold.wrangle().unwrap();
        assert_eq!(outcome_fingerprint(&warm_out), outcome_fingerprint(&cold_out));
        assert_eq!(
            warm_out.containment.render(),
            cold_out.containment.render()
        );
        // The freshness bump can legitimately drop the victim from the
        // marginal-gain selection; if it was selected, the poison must have
        // quarantined it.
        assert!(
            warm_out.containment.quarantined_sources().contains(&victim)
                || !warm_out.selected_sources.contains(&victim),
            "a selected poison source must be quarantined"
        );
    }

    #[test]
    fn dirty_update_heals_a_tripped_breaker_and_matches_cold() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.set_fault_profile(SourceId(0), FaultProfile::HardDown);
        let first = w.wrangle().unwrap();
        if !first.skipped_sources.iter().any(|(id, _)| *id == SourceId(0)) {
            return; // src0 never selected at this seed; nothing to heal
        }
        assert_eq!(w.estimates()[0].availability, 0.0, "breaker open");
        // The provider ships a fixed payload: heal the fault, deliver the
        // update, and move past the cooldown.
        w.set_fault_profile(SourceId(0), FaultProfile::Healthy);
        let t = perturbed(&fleet.registry.get(SourceId(0)).unwrap().table);
        assert!(w.update_source(SourceId(0), t).unwrap());
        let cooldown = w.acquisition.breaker_cfg.cooldown;
        w.set_now(fleet.truth.now + 2 * cooldown);
        let out = assert_incremental_matches_cold(&mut w);
        assert!(out.entities > 0);
        assert!(!out
            .containment
            .quarantined_sources()
            .contains(&SourceId(0)));
    }

    /// The fingerprint audit, input by input: every knob that changes a
    /// stage's output must flow into the content keys, so a warm session
    /// that mutates the knob mid-flight must land byte-identical to a cold
    /// session that never memoized anything. A stale reuse would diverge.
    #[test]
    fn no_stale_reuse_after_any_covered_input_changes() {
        let fleet = small_fleet();
        type Mutation = (
            &'static str,
            fn(&mut Wrangler, &SyntheticFleet, &WrangleOutcome),
        );
        let mutations: &[Mutation] = &[
            ("trust ripple via tuple feedback", |w, _, _| {
                w.give_feedback(FeedbackItem::expert(
                    FeedbackTarget::Tuple { entity: 0 },
                    Verdict::Negative,
                    1.0,
                ));
            }),
            ("value veto", |w, _, first| {
                let price_attr = w.target().index_of("price").unwrap();
                let entity = (0..first.table.num_rows())
                    .find(|&r| !first.table.get_named(r, "price").unwrap().is_null())
                    .unwrap();
                let old = first.table.get_named(entity, "price").unwrap().clone();
                w.give_feedback(FeedbackItem::expert(
                    FeedbackTarget::Value {
                        entity,
                        attr: price_attr,
                        value: Some(old),
                    },
                    Verdict::Negative,
                    1.0,
                ));
            }),
            ("source ages via clock advance", |w, fleet, _| {
                w.set_now(fleet.truth.now + 3);
                w.cache = None;
            }),
            ("master data update", |w, fleet, _| {
                let catalog = perturbed(&fleet.truth.master_catalog());
                w.data_ctx.add_master("product", catalog, "sku").unwrap();
                w.cache = None;
            }),
            ("fault profile degrades a payload", |w, _, _| {
                use wrangler_sources::FaultProfile;
                w.set_fault_profile(
                    SourceId(1),
                    FaultProfile::Truncated { keep_fraction: 0.5 },
                );
                w.cache = None;
            }),
            ("mapping override unbinds a column", |w, _, first| {
                let id = first.selected_sources[0];
                let mut m = w.mapping_of(id).unwrap().clone();
                m.bindings[w.target().index_of("price").unwrap()] = None;
                assert!(w.override_mapping(id, m));
            }),
            ("row budget shrinks", |w, _, _| {
                w.contain.max_rows_per_source = 7;
                for i in 0..w.num_sources() {
                    w.working.invalidate(Artifact::MappedTable(i));
                }
            }),
        ];
        for (name, mutate) in mutations {
            let mut w = session(&fleet, UserContext::balanced("t"));
            let first = w.wrangle().unwrap();
            assert!(w.incr_memo_count() > 0, "{name}: warm session memoized");
            mutate(&mut w, &fleet, &first);
            let mut cold = w.clone();
            cold.set_incr_enabled(false);
            let warm_out = w.rewrangle().unwrap();
            let cold_out = cold.rewrangle().unwrap();
            assert_eq!(
                outcome_fingerprint(&warm_out),
                outcome_fingerprint(&cold_out),
                "stale reuse after: {name}"
            );
        }
        // Filter placement: with the scan barrier taken down the filter moves
        // out of the union loop into an early placement, so every held
        // mapped table (tagged for the old placement) is re-derived.
        let mut w = session(&fleet, UserContext::balanced("t")).with_row_filter(category_filter());
        let first = w.wrangle().unwrap();
        let src = first.selected_sources[0].0 as usize;
        let placed = |w: &Wrangler| w.plan_program().unwrap().placement_for(src);
        assert_eq!(placed(&w), FilterPlacement::Union);
        w.contain = ContainPolicy::off();
        assert_incremental_matches_cold(&mut w);
        assert_ne!(placed(&w), FilterPlacement::Union, "fixture: it flips");
        // Plan-shape knobs clear the memos outright — the builder setters
        // call invalidate_plan_shape.
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.wrangle().unwrap();
        assert!(w.incr_memo_count() > 0);
        let mut w = w.with_row_filter(category_filter());
        assert_eq!(w.incr_memo_count(), 0, "plan shape change drops memos");
        w.wrangle().unwrap();
        assert!(w.incr_memo_count() > 0);
        let w = w.with_output_columns(projection());
        assert_eq!(w.incr_memo_count(), 0, "projection change drops memos");
        // ER refinement: when the refined rule is adopted, memos and pair
        // scores are dropped outright; when it is rejected the config is
        // unchanged. Either way the next warm pass must match cold (the ER
        // config is itself fingerprint-covered).
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.wrangle().unwrap();
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::DuplicatePair { row_a: 0, row_b: 1 },
            Verdict::Negative,
            0.5,
        ));
        let _ = w.refine_er();
        w.cache = None;
        assert_incremental_matches_cold(&mut w);
    }

    /// The converse of the audit above: a block's key covers its one data
    /// input, the mapped table, and nothing that merely describes how the
    /// table was derived. Re-deriving an equal table keeps the block.
    #[test]
    fn rederiving_an_identical_mapped_table_keeps_its_block() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::completeness_first());
        let first = w.wrangle().unwrap();
        let victim = first.selected_sources[0];
        // Same bindings, another belief: a different mapping as `Debug`
        // prints it, the same mapped cells.
        let mut m = w.mapping_of(victim).unwrap().clone();
        m.belief
            .update(&Evidence::vote(EvidenceKind::UserFeedback, true, 0.85));
        assert!(w.override_mapping(victim, m));
        let mapped_before = w.working.work.tables_mapped;
        let out = assert_incremental_matches_cold(&mut w);
        assert_eq!(w.working.work.tables_mapped, mapped_before + 1);
        let delta = |key: &str| counter_delta(&out, &first, key);
        assert_eq!(
            delta("incr.union.reused"),
            first.selected_sources.len() as u64
        );
        assert_eq!(delta("incr.union.recomputed"), 0);
    }

    #[test]
    fn same_blocks_in_another_order_carry_but_do_not_replay_er() {
        // As in the swap test above, minus the update: every block replays,
        // but the block list — the union's identity — is another one.
        let fleet = small_fleet();
        let user = UserContext::completeness_first().with_freshness_horizon(6);
        let mut w = session(&fleet, user);
        let first = w.wrangle().unwrap();
        w.set_now(fleet.truth.now + 8);
        w.cache = None;
        let out = assert_incremental_matches_cold(&mut w);
        assert_ne!(first.selected_sources, out.selected_sources, "fixture");
        let delta = |key: &str| counter_delta(&out, &first, key);
        let blocks = out.selected_sources.len() as u64;
        assert_eq!(delta("incr.union.reused"), blocks);
        assert_eq!(delta("incr.er.reused"), 0, "another block list: no replay");
        assert!(delta("incr.er.pairs_remapped") > 0, "ordered pairs carry");
        assert!(delta("er.cache.misses") > 0, "swapped pairs are live");
    }

    #[test]
    fn a_union_filtered_after_its_blocks_were_laid_keeps_no_er_or_fuse_memo() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_row_filter(category_filter())
            .with_opt_mode(OptMode::Naive);
        let first = w.wrangle().unwrap();
        assert!(w.incr.er.is_none() && w.incr.fuse.is_none(), "not captured");
        // Nothing changed, and still nothing to replay: the post-union
        // filter left a union no block list attests.
        w.cache = None;
        let out = assert_incremental_matches_cold(&mut w);
        assert_eq!(outcome_fingerprint(&out), outcome_fingerprint(&first));
        assert!(!out.metrics.counts.contains_key("incr.er.reused"));
        assert!(!out.metrics.counts.contains_key("incr.fuse.reused"));
        assert!(w.incr.er.is_none() && w.incr.fuse.is_none());
        // The optimized twin filters inside the blocks and replays both.
        let user = UserContext::balanced("t");
        let mut opt = session(&fleet, user).with_row_filter(category_filter());
        let opt_first = opt.wrangle().unwrap();
        assert_eq!(outcome_fingerprint(&opt_first), outcome_fingerprint(&first));
        opt.cache = None;
        let m = opt.wrangle().unwrap().metrics;
        assert_eq!(m.counts["incr.er.reused"], 1);
        assert_eq!(m.counts["incr.fuse.reused"], 1);
    }

    #[test]
    fn a_mapped_table_is_hashed_once_and_keeps_its_hash_through_seam_and_clone() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::completeness_first());
        let first = w.wrangle().unwrap();
        let held = |w: &Wrangler, id: &SourceId| w.states[id.0 as usize].mapped.clone().unwrap();
        for id in &first.selected_sources {
            let m = held(&w, id);
            assert!(m.is_hashed(), "the block key demanded it");
            assert_eq!(m.hash(), wire::table_hash(m.table()));
        }
        // A pass with the engine off demands no hash: whatever is hashed
        // after it was carried — through `Wrangler::clone`, and through the
        // map-apply seam's move-out/move-in.
        let mut off = w.clone();
        off.set_incr_enabled(false);
        let victim = first.selected_sources[0];
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(off.update_source(victim, t).unwrap());
        off.wrangle().unwrap();
        for id in &first.selected_sources {
            assert_eq!(held(&off, id).is_hashed(), *id != victim, "{id}");
        }
    }

    /// Sixteen refuted prices under `Shared` routing move the trust of most
    /// selected sources; the slots to re-fuse are recorded as one mark per
    /// source and expanded by `rewrangle`. Golden: what the eager per-claim
    /// expansion this replaced dirtied, and delivered, on this fixture.
    #[test]
    fn source_marks_refuse_exactly_the_slots_the_eager_expansion_dirtied() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        let price = w.target().index_of("price").unwrap();
        let prices = first.table.column_named("price").unwrap();
        let delivered: Vec<usize> = (0..prices.len())
            .filter(|&e| !prices[e].is_null())
            .collect();
        let refute = |w: &mut Wrangler| {
            for i in 0..16 {
                let entity = delivered[(2 * i + 1) * delivered.len() / 32];
                w.give_feedback(FeedbackItem::expert(
                    FeedbackTarget::Value {
                        entity,
                        attr: price,
                        value: None,
                    },
                    Verdict::Negative,
                    1.0,
                ));
            }
        };
        refute(&mut w);
        assert!(w.working.dirty_count() < 40, "marks, not a slot per claim");
        let mut golden = w.cache.as_ref().unwrap().claims.slots();
        assert_eq!(golden.len(), 200);
        golden.retain(|&slot| slot != (36, 1));
        let claims = w.cache.as_ref().unwrap().claims.claims();
        assert_eq!(w.working.dirty_slots(claims), golden);
        let mut twin = w.clone();
        let before = w.working.work;
        let out = w.rewrangle().unwrap();
        assert_eq!((w.working.work - before).slots_fused, 199);
        assert_eq!(
            wire::hash64(outcome_fingerprint(&out).as_bytes()),
            272181886091841057
        );
        assert!(w.working.dirty_slots(&[]).is_empty());
        // A full pass fuses every slot: it clears the marks, and a later
        // judgement re-fuses only what it dirties itself.
        twin.wrangle().unwrap();
        assert_eq!(twin.working.dirty_count(), 0);
        twin.routing = RoutingMode::Siloed;
        refute(&mut twin);
        let before = twin.working.work;
        twin.rewrangle().unwrap();
        assert_eq!((twin.working.work - before).slots_fused, 16);
    }

    #[test]
    fn chaos_mode_stands_the_engine_down() {
        use crate::contain::ChaosPolicy;
        let fleet = small_fleet();
        let chaos = ChaosPolicy::new(0.0, 7); // rate 0: rolls never fire,
                                              // but the RNG is still stateful
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_contain_policy(ContainPolicy::contain().with_chaos(chaos));
        let out = w.wrangle().unwrap();
        assert_eq!(w.incr_memo_count(), 0, "chaos passes must not memoize");
        assert!(!out
            .metrics
            .counts
            .keys()
            .any(|k| k.starts_with("incr.union")));
    }

    #[test]
    fn plan_program_carries_verified_justifications() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_row_filter(category_filter())
            .with_output_columns(projection());
        let out = w.wrangle().unwrap();
        let program = w.plan_program().expect("program recorded");
        assert!(program.verification.is_clean());
        assert!(!program.rewrites.is_empty());
        for rw in &program.rewrites {
            assert!(!rw.justification.is_empty(), "{:?}", rw.kind);
        }
        // Every rewrite is attributed in telemetry and the plan counters ran.
        assert!(out.metrics.counts["plan.nodes"] > 0);
        assert!(out.metrics.counts["plan.facts"] > 0);
        assert_eq!(
            out.metrics.counts["opt.rewrites"],
            program.rewrites.len() as u64
        );
        let attributed: u64 = out
            .metrics
            .counts
            .iter()
            .filter(|(k, _)| k.starts_with("opt.rewrite."))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(attributed, program.rewrites.len() as u64);
    }
}
