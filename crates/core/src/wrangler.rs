//! The end-to-end wrangling session.

use std::collections::BTreeMap;

use wrangler_context::reference::MasterData;
use wrangler_context::{Criterion, DataContext, QualityVector, UserContext};
use wrangler_feedback::router::ValueProvenance;
use wrangler_feedback::{
    route, FeedbackItem, FeedbackStore, FeedbackTarget, RoutedSignal, RoutingMode,
};
use wrangler_fusion::strategies::{FusedValue, SourceContext};
use wrangler_fusion::truthfinder::Anchors;
use wrangler_fusion::{ClaimSet, FuseKernel};
use wrangler_lint::{GateMode, Report as LintReport};
use wrangler_mapping::Mapping;
use wrangler_match::MatchConfig;
use wrangler_obs::{MetricsReport, ObsMode, Telemetry};
use wrangler_quality::profile::{completeness, quality_vector, ExternalSignals};
use wrangler_resolve::learn::{refine_rule, LabeledPair};
use wrangler_resolve::{ErConfig, ErKernel, FieldSim, SimKind, UnionBlocks};
use wrangler_sources::faults::{Degradation, FaultConfig, FaultProfile};
use wrangler_sources::{Source, SourceEstimate, SourceId, SourceMeta, SourceRegistry};
use wrangler_plan::{OptMode, PlanProgram};
use wrangler_table::{DataType, Expr, Schema, Table, TableError, Value};
use wrangler_uncertainty::{Belief, Evidence, EvidenceKind};

use wrangler_ckpt::{CheckpointStore, CrashPolicy};
use wrangler_table::wire;

use crate::acquire::{Acquisition, AcquisitionSummary};
use crate::contain::{ContainPolicy, ContainmentReport, Stage};
use crate::incr::{ErMemo, Mapped};
use crate::planner::Plan;
use crate::union::Union;
use crate::working::WorkingData;

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
    /// The last delivery was degraded, so `mapping` and `mapped` were
    /// derived from a payload the next healthy delivery replaces.
    from_degraded: bool,
    /// The source's relevance to the product master data, as
    /// [`Wrangler::estimates`] computed it under master data of that
    /// fingerprint (`None`: no master data) — a function of the source's
    /// table, dropped with its other derivations.
    relevance: Option<(Option<u64>, f64)>,
}

/// Direct value feedback on one slot. A confirmation wins; a veto withdraws
/// it and is kept; a later confirmation keeps the earlier vetoes.
#[derive(Debug, Clone, Default)]
struct Judgement {
    /// The value the user confirmed: pinned at full confidence.
    confirmed: Option<Value>,
    /// The values the user refuted: never delivered again.
    vetoed: Vec<Value>,
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
    /// Truth discovery's per-source trust, before the blend with belief:
    /// what `rewrangle` blends again with the beliefs feedback moved.
    discovered_trust: Vec<f64>,
    /// Source trust/age context used at fusion time.
    source_ctx: SourceContext,
    /// Fused values indexed like the claim index's `slots()`; `None` where
    /// a slot has no deliverable value or was never fused (a dead column).
    fused: Vec<Option<FusedValue>>,
    /// Selected sources.
    selected: Vec<SourceId>,
    /// The pass fingerprint the cache was built under: it covers the user
    /// context and plan, the ER rule and every registered source, so a
    /// [`Wrangler::rewrangle`] under another one falls back to a wrangle.
    pass_fp: u64,
    /// What the claim set was built under, when incremental reuse took part
    /// ([`Pass::claims_key`]); the next pass under the same takes it.
    claims_key: Option<ClaimsKey>,
}

/// A claim set's pass fingerprint, union layout and sources quarantined at
/// fuse: the same three make the same union, clustering and claims.
type ClaimsKey = (u64, Vec<crate::incr::Block>, Vec<usize>);

impl WrangleCache {
    /// The fused value of slot `(entity, attr)`, if it has one.
    fn fused_at(&self, entity: usize, attr: usize) -> Option<&FusedValue> {
        self.fused[self.claims.index().slot_no(entity, attr)?].as_ref()
    }
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
    /// The data context (ontology and master data).
    pub data_ctx: DataContext,
    /// The feedback ledger.
    pub feedback: FeedbackStore,
    /// Working-data bookkeeping (the refuse set + work counters).
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
    /// degrades the pass instead of killing it. An assignment between passes
    /// reaches the next one: a held mapped table records the row budget and
    /// filter placement it was cut to and is re-derived under another, and
    /// the pass fingerprint keys everything downstream.
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
    /// Worker-count override for the fuse-slot pool (`None` = hardware
    /// parallelism). Output is identical for any value; experiments pin it.
    fuse_workers: Option<usize>,
    match_cfg: MatchConfig,
    now: u64,
    cache: Option<WrangleCache>,
    last_acquisition: AcquisitionSummary,
    access_spent: f64,
    fusion_override: Option<wrangler_fusion::Strategy>,
    /// Slot-level constraints from direct value feedback, by slot.
    judgements: BTreeMap<(usize, usize), Judgement>,
    /// Pre-flight gate mode: `Deny` (default) refuses to execute artifacts
    /// with error-grade findings, `Warn` records and proceeds, `Off` skips
    /// analysis entirely.
    lint_gate: GateMode,
    /// Findings of the last pre-flight pass, labelled by origin (`"plan-ir"`
    /// or `"src{i}"`), kept for provenance export.
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
    /// Incremental reuse is on (the default): each held mapped table keeps
    /// the union block last cut from it, and `er_memo` is carried across
    /// the next pass (see [`crate::incr`]). Chaos-mode passes bypass it.
    incr_enabled: bool,
    /// The ER memo the next pass carries (one per session — ER has no
    /// per-source partition).
    er_memo: Option<ErMemo>,
}

/// The compiled program of the current pass. Every stage decision the
/// program makes is read from it; a stage that runs without one is a
/// structured error, never a default.
fn compiled(program: &Option<PlanProgram>) -> wrangler_table::Result<&PlanProgram> {
    program
        .as_ref()
        .ok_or_else(|| TableError::Invalid("no compiled plan program for this pass".into()))
}

/// Master-data anchors: for entities whose key is in the catalog, the
/// catalog's values of shared attributes are known-true. An entity's key is
/// the first non-null key claim found in the catalog, and its catalog row
/// the key's first occurrence; null catalog cells anchor nothing. Each
/// target attribute's catalog column is resolved once, and the values are
/// borrowed from the catalog.
fn master_anchors<'m>(
    master: &'m MasterData,
    target: &Schema,
    clusters: &[Vec<usize>],
    union: &Table,
) -> Anchors<'m> {
    let Ok(keys) = union.column_named(&master.key_column) else {
        return Vec::new();
    };
    let columns: Vec<(usize, &[Value])> = target
        .fields()
        .iter()
        .enumerate()
        .filter(|(_, field)| field.name != master.key_column)
        .filter_map(|(a, field)| Some((a, master.table.column_named(&field.name).ok()?)))
        .collect();
    let mut anchors = Vec::new();
    for (e, cluster) in clusters.iter().enumerate() {
        let Some(row) = cluster.iter().find_map(|&r| master.row_of(&keys[r])) else {
            continue;
        };
        for &(a, column) in &columns {
            if !column[row].is_null() {
                anchors.push((e, a, &column[row]));
            }
        }
    }
    anchors
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
            fuse_workers: None,
            match_cfg: MatchConfig::default(),
            now: 0,
            cache: None,
            last_acquisition: AcquisitionSummary::default(),
            access_spent: 0.0,
            fusion_override: None,
            judgements: BTreeMap::new(),
            lint_gate: GateMode::default(),
            last_lint: Vec::new(),
            last_containment: ContainmentReport::default(),
            row_filter: None,
            output_columns: None,
            opt_mode: OptMode::default(),
            last_program: None,
            ckpt: None,
            crash: None,
            incr_enabled: true,
            er_memo: None,
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

    /// A plan-shape knob changed (filter, projection, opt mode): held
    /// mapped tables may embed a stale early-placed filter, and the cached
    /// result was computed under the old shape. Both are dropped, each
    /// table with its union block.
    fn invalidate_plan_shape(&mut self) {
        for state in &mut self.states {
            state.mapped = None;
        }
        self.cache = None;
        // The ER memo would miss anyway (the pass fingerprint covers every
        // shape knob); dropping it bounds memory to live content.
        self.er_memo = None;
    }

    /// Enable/disable incremental reuse (default: on). Disabling drops
    /// every memo — each held table's union block and the ER memo — so the
    /// resulting session recomputes the union and ER from scratch, making it
    /// the genuinely cold comparator the identity tests and the E18 timing
    /// baseline wrangle against.
    pub fn set_incr_enabled(&mut self, on: bool) {
        self.incr_enabled = on;
        if !on {
            self.er_memo = None;
            for mapped in self.states.iter_mut().filter_map(|s| s.mapped.as_mut()) {
                mapped.block = None;
            }
        }
    }

    /// Deliver a fresh extraction of one source's payload — the
    /// pay-as-you-go update path. Diffs the content hash first: an
    /// identical payload is a no-op (nothing dropped, every memo intact).
    /// A real change bumps the source's `last_updated` to the current tick
    /// and drops exactly that source's mapping and mapped table, and with
    /// the table its union block — the next wrangle re-derives them and
    /// rescans that one block, and the rest is reused.
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
        // Drop exactly this source's derivations. What ER and fusion redo
        // follows from the one union block that goes with its table, which
        // is what lets the other n−1 partitions replay.
        self.drop_derived(i);
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

    /// Findings of the last pre-flight pass, labelled by origin (`"plan-ir"`
    /// or `"src{i}"`).
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
    /// overriding the generated one. The next wrangle keeps the mapping —
    /// it does not regenerate it — and drops the mapped table, so execution
    /// (and the pre-flight gate) see the new artifact. Returns false if the
    /// source is unknown.
    pub fn override_mapping(&mut self, id: SourceId, mapping: Mapping) -> bool {
        let Some(state) = self.states.get_mut(id.0 as usize) else {
            return false;
        };
        state.mapping = Some(mapping);
        state.mapped = None;
        state.from_degraded = false;
        true
    }

    /// Source `i`'s mapping and mapped table no longer describe what it
    /// delivers: drop both, so the next pass derives them afresh.
    fn drop_derived(&mut self, i: usize) {
        if let Some(state) = self.states.get_mut(i) {
            state.mapping = None;
            state.mapped = None;
            state.from_degraded = false;
            state.relevance = None;
        }
    }

    /// Switch the user context mid-session (§2.1: "a single application may
    /// have different user contexts"). The plan is re-derived on the next
    /// pass, and a plan that needs another ER threshold installs a new rule.
    /// The pass fingerprint covers the context, so the next pass — a
    /// `rewrangle` too, which falls back to a wrangle — re-selects and
    /// re-runs every stage under it; no memo or cache of the old context
    /// is reused.
    pub fn set_user_context(&mut self, user: UserContext) {
        let old_plan = self.plan();
        self.user = user;
        let new_plan = self.plan();
        if (new_plan.er_threshold - old_plan.er_threshold).abs() > 1e-12 {
            self.er_cfg = build_er_config(&self.target, new_plan.er_threshold);
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
            from_degraded: false,
            relevance: None,
        });
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
        let master = self.data_ctx.master("product").map(|m| m.fingerprint());
        let mut out = Vec::with_capacity(self.registry.len());
        for (i, src) in self.registry.iter().enumerate() {
            // Every key of the source looked up in the master data: kept
            // until the source or the master data changes.
            let relevance = match self.states[i].relevance {
                Some((fp, r)) if fp == master => r,
                _ => {
                    let r = if src.table.num_rows() > probe_cfg.sample_rows {
                        wrangler_sources::probe_source(
                            &src.table,
                            &self.data_ctx,
                            "product",
                            &probe_cfg,
                        )
                        .ok()
                        .and_then(|p| p.relevance)
                        .unwrap_or(1.0)
                    } else {
                        wrangler_quality::profile::master_relevance(
                            &src.table,
                            &self.data_ctx,
                            "product",
                        )
                        .unwrap_or(1.0)
                    };
                    self.states[i].relevance = Some((master, r));
                    r
                }
            };
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
    /// stage seam (select, acquire, map_generate, union, er) under a
    /// content key derived from the pass fingerprint, the source payload
    /// hashes, the held mappings, the data context and the chained
    /// upstream seam keys.
    /// A fresh process pointed at the same store replays the deepest valid
    /// prefix byte-identically instead of recomputing it — including
    /// quarantine, trust and breaker state, which travel inside each seam
    /// record — and runs the stages after it live: `map_apply` behind a
    /// map-generate hit, fuse and assembly always.
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

    /// Incrementally re-wrangle after feedback: re-fuse only marked slots
    /// with the updated trust. Falls back to a full wrangle when there is no
    /// cache, when the cache was built under another pass fingerprint
    /// (user context, plan, ER rule, sources, configuration), or when a
    /// selected source's mapping or mapped table was dropped.
    ///
    /// The contract: the marked slots are re-fused under the last full
    /// pass's selection, clustering and truth discovery. Only the belief
    /// half of each source's fusion-time trust moves — it is blended again,
    /// as the fuse stage blends it, with the trust that pass's truth
    /// discovery found — so a source whose belief did not move keeps its
    /// trust bit for bit, however many re-fuses follow. A fresh `wrangle`
    /// may deliver otherwise: it selects, clusters and runs truth discovery
    /// again under the feedback.
    pub fn rewrangle(&mut self) -> wrangler_table::Result<WrangleOutcome> {
        let plan = self.plan();
        let pass_fp = self.pass_fingerprint(&plan);
        let stale = self.cache.as_ref().is_none_or(|c| {
            c.pass_fp != pass_fp
                || c.selected.iter().any(|id| {
                    let s = &self.states[id.0 as usize];
                    s.mapping.is_none() || s.mapped.is_none()
                })
        });
        if stale {
            return self.wrangle();
        }
        self.obs.start_pass();
        self.obs.begin("rewrangle");
        self.obs.inc("pass.rewrangle");
        // Blend the pass's discovered trust with the beliefs again
        // (feedback may have moved them).
        let mut cache = self.cache.take().expect("checked above"); // lint-allow: presence checked by the guard above
        cache.source_ctx.trust = self.blended_trust(&cache.discovered_trust);
        self.obs.begin("refuse");
        let kernel = FuseKernel::compile(&cache.claims, plan.fusion, &cache.source_ctx);
        // Where per-source dirtiness becomes slots: one pass over the index.
        self.obs.begin("dirty");
        let (dirty, unclaimed) = self.working.dirty_slot_nos(cache.claims.index());
        self.obs.end();
        // A slot the loop catches panicking joins the last full wrangle's
        // containment picture, which an incremental pass reports.
        let mut creport = self.last_containment.clone();
        let refused = self
            .fuse_slot_loop(&kernel, &dirty, &mut cache.fused, &mut creport, "refuse")
            .map(|done| {
                // Slot marks without a claim count as refused, as they
                // always have: there was nothing to fuse.
                let slots = done + unclaimed;
                self.working.clean_slots();
                self.working.work.slots_fused += slots;
                self.obs.count("refuse.slots", slots as u64);
            });
        self.obs.end();
        self.cache = Some(cache);
        let outcome = refused.and_then(|()| self.span("assemble", |w| w.assemble(&plan)));
        self.obs.end(); // close the "rewrangle" root span
        let mut outcome = outcome?;
        outcome.metrics = self.obs.report();
        outcome.containment = creport;
        Ok(outcome)
    }

    /// Fuse one slot, honouring confirmed and vetoed values from direct
    /// feedback: a confirmed value is pinned at full confidence; a vetoed
    /// value can never win again (its supporting claims are excluded).
    fn fuse_slot(&self, kernel: &FuseKernel, e: usize, a: usize) -> Option<FusedValue> {
        let Some(judgement) = self.judgements.get(&(e, a)) else {
            return kernel.fuse_slot(e, a);
        };
        match &judgement.confirmed {
            Some(v) => Some(FusedValue {
                value: v.clone(),
                weight: 1.0,
                total_weight: 1.0,
                supporters: Vec::new(),
                freshness: 1.0,
            }),
            None => kernel.fuse_slot_without(e, a, &judgement.vetoed),
        }
    }

    /// Assemble the wrangled table and its quality report from the cache
    /// (callers wrap it in the `assemble` span).
    fn assemble(&mut self, plan: &Plan) -> wrangler_table::Result<WrangleOutcome> {
        let cache = self.cache.as_ref().expect("assemble requires a cache"); // lint-allow: wrangle() populates the cache before assemble()
        // The delivered attributes are the plan's output projection (all
        // target columns when none was requested). Both execution modes
        // iterate the same projected set, so `_confidence` — the mean over
        // delivered projected values — is byte-identical across modes.
        let output_attrs: Vec<usize> = match compiled(&self.last_program)?.output_columns() {
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
        self.obs.begin("rows");
        // Column by column, walking each entity's run of the claim index's
        // slots; nulls are counted on the way for the completeness score.
        let slots = cache.claims.index().slots();
        let mut columns: Vec<Vec<Value>> = (0..=output_attrs.len())
            .map(|_| Vec::with_capacity(cache.entities))
            .collect();
        let mut nulls = vec![0usize; columns.len()];
        let mut next = 0;
        let mut conflict_free = 0usize;
        let mut slot_count = 0usize;
        let mut conf_sum = 0.0;
        let mut delivered = 0u64;
        let mut row_conf = Vec::new();
        for e in 0..cache.entities {
            let run = next;
            while slots.get(next).is_some_and(|s| s.0 == e) {
                next += 1;
            }
            row_conf.clear();
            for (col, &a) in output_attrs.iter().enumerate() {
                let no = (run..next).find(|&no| slots[no].1 == a);
                let value = match no.and_then(|no| cache.fused[no].as_ref()) {
                    Some(f) => {
                        let conf = f.confidence();
                        slot_count += 1;
                        conf_sum += conf;
                        conflict_free += usize::from((conf - 1.0).abs() < 1e-12);
                        // Confidence gating (Example 2's trade-off).
                        if conf >= plan.min_value_confidence {
                            row_conf.push(conf);
                            f.value.clone()
                        } else {
                            Value::Null
                        }
                    }
                    None => Value::Null,
                };
                nulls[col] += usize::from(value.is_null());
                columns[col].push(value);
            }
            delivered += row_conf.len() as u64;
            let mean_conf = if row_conf.is_empty() {
                0.0
            } else {
                row_conf.iter().sum::<f64>() / row_conf.len() as f64
            };
            columns[output_attrs.len()].push(Value::Float(mean_conf));
        }
        let table = Table::from_columns(out_schema, columns).map(|mut table| {
            table.reinfer_types();
            table
        });
        self.obs.end();
        let table = table?;

        // Quality report.
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
        self.obs.begin("quality");
        let relevance =
            wrangler_quality::profile::master_relevance(&table, &self.data_ctx, "product");
        let cost_spent = self.access_spent + self.feedback.total_cost();
        let cost_fraction = if self.user.budget.is_infinite() || self.user.budget <= 0.0 {
            0.0
        } else {
            (cost_spent / self.user.budget).min(1.0)
        };
        let names = table.schema().names();
        let mut quality = quality_vector(
            completeness(&names, &nulls, cache.entities, &self.user.required_columns),
            &self.user,
            &ExternalSignals {
                age: mean_age,
                violation_rate: 1.0 - consistency,
                accuracy,
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
        self.obs.end();
        self.obs.count("out.rows", table.num_rows() as u64);
        self.obs.count("out.entities", cache.entities as u64);
        self.obs.count("out.values_delivered", delivered);
        self.obs
            .count("out.values_withheld", slot_count as u64 - delivered);
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
                match cache.fused_at(*entity, *attr) {
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
                        .and_then(|c| c.fused_at(*entity, *attr))
                        .map(|f| f.value.clone())
                });
                if let Some(v) = judged {
                    let judgement = self.judgements.entry((*entity, *attr)).or_default();
                    if item.verdict.is_positive() {
                        judgement.confirmed = Some(v);
                    } else {
                        judgement.confirmed = None;
                        judgement.vetoed.push(v);
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
                    self.working.mark_source(source);
                }
            }
            RoutedSignal::MappingBelief {
                source,
                positive,
                reliability,
            } => {
                let collapsed = self
                    .states
                    .get_mut(source)
                    .and_then(|state| state.mapping.as_mut())
                    .is_some_and(|m| {
                        wrangler_mapping::refine::record_feedback(m, positive, reliability);
                        m.belief.probability() < 0.15
                    });
                // A collapsed mapping is dropped: the next pass regenerates it.
                if collapsed {
                    self.drop_derived(source);
                }
            }
            RoutedSignal::RefuseSlot { entity, attr } => {
                self.working.mark_slot(entity, attr);
            }
            RoutedSignal::ErLabel { .. } => {
                // Labels accumulate in the feedback store (added by caller);
                // `refine_er` consumes them on demand.
            }
            RoutedSignal::RecheckWrapper { source } => self.drop_derived(source),
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
        let fused = cache.fused_at(entity, attr)?;
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
        let judgement = self.judgements.get(&(entity, attr));
        Some(SlotExplanation {
            value: fused.value.clone(),
            confidence: fused.confidence(),
            freshness: fused.freshness,
            supporters,
            dissenters,
            confirmed: judgement.is_some_and(|j| j.confirmed.is_some()),
            vetoed_values: judgement.map(|j| j.vetoed.clone()).unwrap_or_default(),
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
        let (name_col, key_col) = blocking_columns(&self.target);
        let blocks = UnionBlocks::build(union_table, name_col, key_col).ok()?;
        let new_entities = ErKernel::compile(union_table, &cfg)
            .ok()?
            .decide_union(&blocks, None)
            .ok()?
            .clusters()
            .len();
        let old_entities = cache.entities.max(1);
        let ratio = new_entities as f64 / old_entities as f64;
        if !(0.6..=1.67).contains(&ratio) {
            return Some(old_f1);
        }
        self.er_cfg = cfg;
        // The rule changed: the ER memo's matched pairs were decided under
        // the old one. (The union blocks were cut under the old pass
        // fingerprint, which covers the rule, so none replays.)
        self.er_memo = None;
        Some(f1.f1)
    }

    /// The union table of the last wrangle (the ER kernel's input), cloned
    /// from the cache. `None` before the first wrangle. Experiment harnesses
    /// use this to benchmark the measured hot path on the real workload.
    pub fn union_table(&self) -> Option<Table> {
        Some(self.cache.as_ref()?.union.table().clone())
    }
}

/// The columns ER blocks a union over `target` on: the name-ish column (a
/// name or title, else the key) AND the key column — rows whose name is null
/// or typo-prefixed still meet their duplicates through the key.
fn blocking_columns(target: &Schema) -> (&str, &str) {
    let mut names = target.fields().iter().map(|f| &f.name);
    let key_col = &target.fields()[0].name;
    let name_col = names
        .find(|n| {
            let l = n.to_lowercase();
            l.contains("name") || l.contains("title")
        })
        .unwrap_or(key_col);
    (name_col, key_col)
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
    use wrangler_resolve::cluster_pairs;
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
    fn a_string_cell_is_one_allocation_from_mapped_table_to_claims() {
        use wrangler_table::Text;
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        w.wrangle().unwrap();
        let cache = w.cache.as_ref().unwrap();
        let union = cache.union.table();
        let (r, a, cell) = (0..union.num_rows())
            .flat_map(|r| (0..union.num_columns()).map(move |a| (r, a)))
            .find_map(|(r, a)| match union.get(r, a).unwrap() {
                Value::Str(t) => Some((r, a, t)),
                _ => None,
            })
            .expect("the union holds a string cell");
        let src = cache.union.sources().nth(r).unwrap();
        let mapped = w.states[src].mapped.as_ref().unwrap().table();
        let shares = |v: &Value| matches!(v, Value::Str(t) if Text::ptr_eq(t, cell));
        assert!(
            mapped.column(a).unwrap().iter().any(shares),
            "the union's cell is the mapped table's"
        );
        let (claims, _, _) = w.fusion_inputs().unwrap();
        assert!(
            claims.claims().iter().any(|c| c.source == src
                && c.entity == cache.row_entity[r]
                && c.attr == a
                && shares(&c.value)),
            "the claim's value is the union's cell"
        );
        let copy = w.clone();
        let copied = copy.cache.as_ref().unwrap().union.table();
        assert!(
            shares(copied.get(r, a).unwrap()),
            "a cloned session shares the cell"
        );
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
        assert!(w.mapping_of(sid).is_none(), "the judged mapping is dropped");
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
            let kept = exp.vetoed_values;
            assert!(
                kept.len() == 1 && kept[0] == old_value,
                "the confirmation keeps the veto"
            );
            // Veto the confirmed value: the pin is withdrawn, both vetoes
            // stand, and neither value is delivered again.
            w.give_feedback(FeedbackItem::expert(
                FeedbackTarget::Value {
                    entity,
                    attr: price_attr,
                    value: Some(new_value.clone()),
                },
                Verdict::Negative,
                1.0,
            ));
            let out4 = w.rewrangle().unwrap();
            let last = out4.table.get_named(entity, "price").unwrap();
            assert!(last != &old_value && last != &new_value, "{last:?}");
            match w.explain(entity, price_attr) {
                Some(exp) => {
                    assert!(!exp.confirmed);
                    assert_eq!(exp.vetoed_values, [old_value, new_value]);
                }
                None => assert!(last.is_null()),
            }
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
    fn relevance_is_kept_until_the_source_or_the_master_data_changes() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let relevance =
            |w: &mut Wrangler| -> Vec<f64> { w.estimates().iter().map(|e| e.relevance).collect() };
        // What a session that kept nothing computes.
        let recomputed = |w: &Wrangler| {
            let mut cold = w.clone();
            cold.states.iter_mut().for_each(|s| s.relevance = None);
            relevance(&mut cold)
        };
        let first = relevance(&mut w);
        assert!(w.states.iter().all(|s| s.relevance.is_some()));
        assert_eq!(relevance(&mut w), first);
        // A catalog of half the products: every source is looked up again.
        let catalog = fleet.truth.master_catalog();
        let half: Vec<usize> = (0..catalog.num_rows() / 2).collect();
        w.data_ctx
            .add_master("product", catalog.take(&half).unwrap(), "sku")
            .unwrap();
        let against_half = relevance(&mut w);
        assert_eq!(against_half, recomputed(&w));
        assert!(against_half.iter().zip(&first).any(|(a, b)| a != b));
        // A source whose keys change is looked up again; the others keep
        // theirs.
        let src = &fleet.registry.get(SourceId(0)).unwrap().table;
        let unknown = |v: &Value| match v {
            Value::Str(_) => Value::from("no-such-key"),
            v => v.clone(),
        };
        let cols = src.columns().map(|c| c.iter().map(unknown).collect()).collect();
        let table = Table::from_columns(src.schema().clone(), cols).unwrap();
        assert!(w.update_source(SourceId(0), table).unwrap());
        assert!(w.states[0].relevance.is_none() && w.states[1].relevance.is_some());
        let updated = relevance(&mut w);
        assert_eq!(updated, recomputed(&w));
        assert_ne!(updated[0], against_half[0]);
        assert_eq!(updated[1..], against_half[1..]);
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

    /// The anchors equal the per-entity path they replaced: a membership
    /// test per key claim, then a first-occurrence lookup per attribute, on
    /// a catalog with a null key, a duplicate key and null cells.
    #[test]
    fn master_anchors_equal_the_per_entity_lookup() {
        let f = |v: f64| Value::Float(v);
        let catalog = Table::literal(
            &["sku", "name", "price"],
            vec![
                vec![Value::Null, "Nameless".into(), f(1.0)],
                vec!["a1".into(), "First".into(), f(2.0)],
                vec!["a1".into(), "Second".into(), f(3.0)],
                vec!["a2".into(), Value::Null, f(4.0)],
                vec!["a3".into(), "Third".into(), Value::Null],
            ],
        )
        .unwrap();
        let master = MasterData::new(catalog, "sku").unwrap();
        let target = Schema::new(vec![
            wrangler_table::Field::new("name", DataType::Str),
            wrangler_table::Field::new("sku", DataType::Str),
            wrangler_table::Field::new("colour", DataType::Str),
            wrangler_table::Field::new("price", DataType::Float),
        ])
        .unwrap();
        let keys: Vec<Value> = vec![Value::Null, "zz".into(), "a1".into(), "a2".into(), Value::Null, "a3".into(), "a1".into()];
        let union = Table::literal(&["sku"], keys.iter().map(|k| vec![k.clone()]).collect()).unwrap();
        let clusters = vec![vec![0, 1, 2], vec![3], vec![4], vec![5, 6], vec![1]];

        let mut old: Vec<(usize, usize, Value)> = Vec::new();
        let key_column = master.table.column_named("sku").unwrap();
        for (e, cluster) in clusters.iter().enumerate() {
            let key = cluster
                .iter()
                .map(|&r| &keys[r])
                .find(|v| !v.is_null() && master.contains_key(v));
            let Some(key) = key else { continue };
            let row = key_column.iter().position(|k| k == key).unwrap();
            for (a, field) in target.fields().iter().enumerate() {
                if field.name == "sku" {
                    continue;
                }
                if let Ok(truth) = master.table.get_named(row, &field.name) {
                    if !truth.is_null() {
                        old.push((e, a, truth.clone()));
                    }
                }
            }
        }
        let new: Vec<(usize, usize, Value)> = master_anchors(&master, &target, &clusters, &union)
            .into_iter()
            .map(|(e, a, v)| (e, a, v.clone()))
            .collect();
        assert_eq!(new, old);
        assert_eq!(
            new,
            vec![
                (0, 0, "First".into()),
                (0, 3, f(2.0)),
                (1, 3, f(4.0)),
                (3, 0, "Third".into()),
            ]
        );
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
        for span in ["fuse/kernel", "assemble/rows", "assemble/quality"] {
            let path = format!("wrangle/{span}");
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
        for span in [
            "refuse",
            "refuse/dirty",
            "refuse/kernel",
            "assemble",
            "assemble/rows",
            "assemble/quality",
        ] {
            let path = format!("rewrangle/{span}");
            assert!(m2.timings.contains_key(&path), "missing span {path}");
        }
        // The re-fuse's pool reports its workers like the fuse stage's.
        let refuse_items: u64 = m2
            .counts
            .iter()
            .filter(|(k, _)| k.starts_with("refuse.worker") && k.ends_with(".items"))
            .map(|(_, v)| *v)
            .sum();
        assert!(refuse_items > 0 && refuse_items <= m2.counts["refuse.slots"]);
        // With a store attached, each seam's record I/O has its own spans:
        // a cold pass saves at every seam, a second pass loads every one.
        // map_apply and fuse are no seams: they run live, and read or write
        // nothing.
        let dir = crate::scratch_dir("metrics-seam-io");
        let _ = std::fs::remove_dir_all(&dir); // lint-allow: test scratch cleanup
        let seams = ["select", "acquire", "map_generate", "union", "er"];
        for warm in [false, true] {
            let store = CheckpointStore::open(&dir).unwrap();
            let mut w = session(&fleet, UserContext::balanced("t")).with_checkpoint_store(store);
            let m = w.wrangle().unwrap().metrics;
            for seam in seams {
                let load = format!("wrangle/{seam}/ckpt_load");
                let save = format!("wrangle/{seam}/ckpt_save");
                assert!(m.timings.contains_key(&load), "missing span {load}");
                assert_eq!(m.timings.contains_key(&save), !warm, "span {save}");
            }
            for stage in ["map_apply", "fuse"] {
                assert!(m.timings.contains_key(&format!("wrangle/{stage}")));
                for io in ["ckpt_load", "ckpt_save"] {
                    let path = format!("wrangle/{stage}/{io}");
                    assert!(!m.timings.contains_key(&path), "span {path}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir); // lint-allow: test scratch cleanup
    }

    #[test]
    fn er_walk_counts_its_decisions_and_a_forced_structural_pass_rescores_them() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let out = w.wrangle().unwrap();
        let m = &out.metrics;
        // The walk counts the class pairs it decided: a first pass has no
        // memo, so every candidate is decided live, once per pair of record
        // classes.
        let decided = &w.er_memo.as_ref().unwrap().decided;
        assert!(decided.decided > 0);
        assert_eq!(m.counts["er.walk.visited"], decided.decided);
        assert!(m.counts["er.walk.visited"] < m.counts["er.candidates"]);
        assert_eq!(m.counts["er.cache.misses"], m.counts["er.candidates"]);
        // Force a cold ER with unchanged rows: with the engine off there is
        // no ER memo to carry, so every candidate is scored again, and the
        // output must be identical to the first pass. Counters are
        // cumulative across passes.
        w.set_incr_enabled(false);
        let out2 = w.wrangle().unwrap();
        let m2 = &out2.metrics;
        let per_pass = m.counts["er.candidates"];
        assert_eq!(m2.counts["er.candidates"], 2 * per_pass);
        assert_eq!(m2.counts["er.cache.misses"], 2 * per_pass);
        assert!(!m2.counts.contains_key("er.cache.hits"));
        assert_eq!(out2.entities, out.entities);
        assert_eq!(out2.table, out.table);
    }

    /// The last pass's ER record against the reference spelling of the
    /// stage: write the candidates down, score each with the uncompiled
    /// `match_pairs`, filter, cluster. Returns the candidate list.
    fn assert_er_equals_listed_scored_and_clustered(w: &Wrangler) -> Vec<(usize, usize)> {
        let cache = w.cache.as_ref().unwrap();
        let union = cache.union.table();
        let (name_col, key_col) = blocking_columns(w.target());
        let listed = wrangler_resolve::candidates_union(union, name_col, key_col).unwrap();
        let scored = wrangler_resolve::match_pairs(union, &listed, w.er_config()).unwrap();
        let want: Vec<(usize, usize)> = scored.iter().map(|p| (p.i, p.j)).collect();
        assert_eq!(w.er_memo.as_ref().unwrap().decided.matches(), want);
        let clusters = cluster_pairs(union.num_rows(), want);
        for (e, cluster) in clusters.iter().enumerate() {
            assert!(cluster.iter().all(|&r| cache.row_entity[r] == e));
        }
        assert_eq!(cache.entities, clusters.len());
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
            let mut w = session(&fleet, UserContext::completeness_first());
            let out = w.wrangle().unwrap();
            let listed = assert_er_equals_listed_scored_and_clustered(&w);
            let m = &out.metrics.counts;
            assert!(m["er.match_pairs"] > 0, "{label}");
            assert_eq!(m["er.candidates"], listed.len() as u64, "{label}");
            assert_eq!(m["er.cache.misses"], listed.len() as u64, "{label}");
            assert!(m["er.decide.from_ids"] <= m["er.walk.visited"], "{label}");
            // Nothing is opened for a class pair the ids settle, something
            // for every other one.
            let opened_pairs = m["er.walk.visited"] - m["er.decide.from_ids"];
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

    #[test]
    fn refuse_skips_the_columns_the_live_pass_skipped_as_dead() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t")).with_output_columns(projection());
        let first = w.wrangle().unwrap();
        let brand = w.target().index_of("brand").unwrap();
        let price = w.target().index_of("price").unwrap();
        let explained = |w: &Wrangler| {
            (0..first.entities)
                .filter(|&e| w.explain(e, brand).is_some())
                .count()
        };
        assert_eq!(explained(&w), 0);
        let prices = first.table.column_named("price").unwrap();
        let entity = (0..prices.len()).find(|&e| !prices[e].is_null()).unwrap();
        w.give_feedback(FeedbackItem::expert(
            FeedbackTarget::Value {
                entity,
                attr: price,
                value: None,
            },
            Verdict::Negative,
            1.0,
        ));
        let out = w.rewrangle().unwrap();
        assert_eq!(explained(&w), 0, "the re-fuse fused a dead column");
        assert!(out.metrics.counts["refuse.slots_skipped"] > 0);
        // What was re-fused is live: as many slots as the marks dirty in
        // the delivered columns.
        let index = w.cache.as_ref().unwrap().claims.index();
        let live = index
            .slots()
            .iter()
            .filter(|&&(_, a)| a != brand && a != w.target().index_of("category").unwrap())
            .count() as u64;
        assert!(out.metrics.counts["refuse.slots"] <= live);
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

    /// Number of live incremental memos: the held tables' union blocks plus
    /// the ER memo.
    fn incr_memo_count(w: &Wrangler) -> usize {
        let blocks = w
            .states
            .iter()
            .filter_map(|s| s.mapped.as_ref()?.block.as_ref());
        blocks.count() + usize::from(w.er_memo.is_some())
    }

    /// Run the warm (incremental) session and a cold comparator cloned from
    /// the *same* state with the engine disabled; both must deliver
    /// byte-identical outcomes. Returns the warm outcome for further
    /// assertions.
    fn assert_incremental_matches_cold(w: &mut Wrangler) -> WrangleOutcome {
        let mut cold = w.clone();
        cold.set_incr_enabled(false);
        assert_eq!(incr_memo_count(&cold), 0, "cold comparator starts bare");
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
        let memos = incr_memo_count(&w);
        assert!(memos > 0);
        let victim = first.selected_sources[0];
        let same = fleet.registry.get(victim).unwrap().table.clone();
        assert!(!w.update_source(victim, same).unwrap());
        assert_eq!(incr_memo_count(&w), memos, "no-op update must not evict");
        // Unknown source and schema drift are structured errors.
        assert!(w.update_source(SourceId(999), first.table.clone()).is_err());
        // Dropping a column from the source's own schema is a schema drift.
        let src = &fleet.registry.get(victim).unwrap().table;
        let keep = src.schema().field(0).unwrap().name.clone();
        let dropped =
            wrangler_table::ops::project_exprs(src, &[(keep.clone(), Expr::col(&keep))]).unwrap();
        assert!(w.update_source(victim, dropped).is_err());
    }

    /// What a pass after no change shows against the pass `before` it: no
    /// union block recomputes, and the ER carry maps every row, so the walk
    /// steps over no pair, decides none live and carries every candidate.
    fn assert_no_change_pass_decides_nothing(out: &WrangleOutcome, before: &WrangleOutcome) {
        let delta = |key: &str| counter_delta(out, before, key);
        let m = &out.metrics;
        assert_eq!(delta("incr.union.recomputed"), 0, "{m:?}");
        assert_eq!(delta("er.walk.visited"), 0, "{m:?}");
        assert_eq!(delta("er.cache.misses"), 0, "{m:?}");
        assert!(delta("er.candidates") > 0, "{m:?}");
        assert_eq!(delta("incr.er.pairs_remapped"), delta("er.candidates"));
    }

    #[test]
    fn a_no_change_pass_carries_every_er_pair_and_decides_none() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        // Nothing changed: union blocks replay and the ER carry covers the
        // whole union, byte-identically; fuse runs live.
        w.cache = None;
        let out = assert_incremental_matches_cold(&mut w);
        assert_no_change_pass_decides_nothing(&out, &first);
        assert!(counter_delta(&out, &first, "incr.union.reused") > 0);
        // Every stage opens its own span on every pass: there is no second
        // path with a span of its own.
        let m = &out.metrics;
        for stage in ["wrangle/er", "wrangle/fuse"] {
            assert_eq!(m.timings[stage].calls, 2 * first.metrics.timings[stage].calls);
        }
        assert!(!m.timings.keys().any(|k| k.ends_with("_replay")), "{m:?}");
    }

    #[test]
    fn a_no_change_pass_takes_the_claim_set_it_holds_and_delivers_what_cold_does() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        // Each no-change pass takes the claims the pass before it built or
        // took; the incr-off comparator builds its own, to the same bits.
        let mut before = first.clone();
        for _ in 0..2 {
            let mut cold = w.clone();
            cold.set_incr_enabled(false);
            let warm_out = w.wrangle().unwrap();
            let cold_out = cold.wrangle().unwrap();
            let warm_bits = outcome_fingerprint(&warm_out);
            assert_eq!(warm_bits, outcome_fingerprint(&cold_out));
            assert_eq!(counter_delta(&warm_out, &before, "incr.claims.reused"), 1);
            assert_eq!(counter_delta(&cold_out, &before, "incr.claims.reused"), 0);
            let (warm, cold_cache) = (w.cache.as_ref().unwrap(), cold.cache.as_ref().unwrap());
            assert_eq!(warm.claims.claims(), cold_cache.claims.claims());
            assert!(cold_cache.claims_key.is_none());
            // Feedback re-fuses over the claims taken as over those built.
            let (warm_re, cold_re) = (w.rewrangle().unwrap(), cold.rewrangle().unwrap());
            assert_eq!(outcome_fingerprint(&warm_re), outcome_fingerprint(&cold_re));
            before = warm_re;
        }
        // After an update the cache is gone and the claims are built again.
        let victim = first.selected_sources[0];
        let before = w.wrangle().unwrap();
        let payload = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, payload).unwrap());
        let out = assert_incremental_matches_cold(&mut w);
        assert_eq!(counter_delta(&out, &before, "incr.claims.reused"), 0);
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

    /// Candidates of the last pass's union with a row of source `dirty`:
    /// the pairs the ER carry cannot map, so the most an update of that one
    /// source may decide.
    fn pairs_touching(w: &Wrangler, dirty: SourceId) -> u64 {
        let union = &w.cache.as_ref().unwrap().union;
        let source_of: Vec<usize> = union.sources().collect();
        let live = |row: usize| source_of[row] == dirty.0 as usize;
        let (name_col, key_col) = blocking_columns(w.target());
        wrangler_resolve::candidates_union(union.table(), name_col, key_col)
            .unwrap()
            .iter()
            .filter(|&&(i, j)| live(i) || live(j))
            .count() as u64
    }

    /// Row `r`'s ER record: what the kernel's dictionaries see of each ER
    /// field — a text field's lowercased rendering, an exact one's
    /// ASCII-folded one, a numeric cell's class or bits — and both blocking
    /// keys. Rows with one record form one record class.
    fn er_record(w: &Wrangler, t: &Table, r: usize) -> Vec<String> {
        let cell = |col: &str| t.get(r, t.schema().index_of(col).unwrap()).unwrap();
        let mut out: Vec<String> = (w.er_config().fields.iter())
            .map(|f| {
                let v = cell(&f.column);
                match f.kind {
                    _ if v.is_null() => "-".to_string(),
                    SimKind::Text => format!("t{}", v.text().to_lowercase()),
                    SimKind::Exact => format!("e{}", v.text().to_ascii_lowercase()),
                    SimKind::Numeric { .. } => match v.as_f64() {
                        Some(x) if x.is_finite() => format!("n{:x}", x.to_bits()),
                        Some(_) => "nf".into(),
                        None => "nn".into(),
                    },
                }
            })
            .collect();
        let (name_col, key_col) = blocking_columns(w.target());
        out.push(format!(
            "{:?}",
            wrangler_resolve::blocking::block_key(cell(name_col))
        ));
        let key = cell(key_col);
        if key_col != name_col && !key.is_null() {
            out.push(key.text().trim().to_lowercase());
        }
        out
    }

    /// Candidates of the last pass's union with a row whose ER record no
    /// row of `before` held: the pairs an update must decide, whatever the
    /// carry maps.
    fn pairs_with_new_records(w: &Wrangler, before: &Table) -> u64 {
        let union = w.cache.as_ref().unwrap().union.table();
        let held: std::collections::BTreeSet<Vec<String>> = (0..before.num_rows())
            .map(|r| er_record(w, before, r))
            .collect();
        let new: Vec<bool> = (0..union.num_rows())
            .map(|r| !held.contains(&er_record(w, union, r)))
            .collect();
        let (name_col, key_col) = blocking_columns(w.target());
        wrangler_resolve::candidates_union(union, name_col, key_col)
            .unwrap()
            .iter()
            .filter(|&&(i, j)| new[i] || new[j])
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
        let held: Vec<&Mapped> = w.states.iter().filter_map(|s| s.mapped.as_ref()).collect();
        let blocks: Vec<(&Mapped, &BlockMemo)> = held
            .iter()
            .filter_map(|m| Some((*m, m.block.as_ref()?)))
            .collect();
        assert_eq!(blocks.len(), first.selected_sources.len());
        let mut kept_rows = 0;
        for (held, memo) in blocks {
            // Exhaustive on purpose: a new field has to be named here, and
            // none of these types can hold a `Value`.
            let BlockMemo {
                pass_fp,
                kept,
                filtered,
                scan_cells,
                scan_bytes,
            } = memo;
            let _: (&u64, &Vec<usize>, &u64, &u64, &u64) =
                (pass_fp, kept, filtered, scan_cells, scan_bytes);
            let mapped = held.table();
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
    fn update_decides_only_pairs_touching_the_dirty_block_and_remembers_only_class_pairs() {
        let fleet = seed23_fleet();
        let mut w = session(&fleet, UserContext::completeness_first());
        let first = w.wrangle().unwrap();
        let before = w.union_table().unwrap();
        let victim = first.selected_sources[0];
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, t).unwrap());
        let out = assert_incremental_matches_cold(&mut w);
        let delta = |key: &str| counter_delta(&out, &first, key);
        assert_eq!(delta("incr.union.recomputed"), 1, "one dirty block");
        // Work guard: no pair between two clean rows is decided, and every
        // pair with a record new to the union is.
        let live = delta("er.cache.misses");
        let touching = pairs_touching(&w, victim);
        let must = pairs_with_new_records(&w, &before);
        assert!(
            0 < must && must <= live && live <= touching,
            "{must} / {live} / {touching}"
        );
        let candidates = delta("er.candidates");
        assert_eq!(delta("incr.er.pairs_remapped"), candidates - live);
        assert!(2 * touching < candidates);
        // Size guard: the memo holds the pass's record classes and the class
        // pairs that match, nothing that grows with the candidate count.
        let memo = w.er_memo.as_ref().unwrap();
        assert_eq!(memo.decided.match_pairs, delta("er.match_pairs"));
        assert_eq!(memo.decided.matches().len() as u64, delta("er.match_pairs"));
        assert_eq!(memo.decided.num_classes() as u64, delta("er.classes"));
        assert!(memo.decided.num_classes() < w.union_len());
    }

    #[test]
    fn a_carried_update_decides_the_class_pairs_of_records_new_to_the_union() {
        let fleet = seed23_fleet();
        let mut w = session(&fleet, UserContext::completeness_first());
        let first = w.wrangle().unwrap();
        let before = w.union_table().unwrap();
        let victim = first.selected_sources[0];
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, t).unwrap());
        let out = w.wrangle().unwrap();
        // Carried and decided class pairs together are the whole reference
        // list's matches...
        let listed = assert_er_equals_listed_scored_and_clustered(&w);
        // ...and what was decided covers every pair with a record the old
        // union did not hold, and leaves most candidates carried.
        let must = pairs_with_new_records(&w, &before);
        let delta = |key: &str| counter_delta(&out, &first, key);
        let live = delta("er.cache.misses");
        assert!(0 < must && must <= live && live < listed.len() as u64);
        assert_eq!(delta("er.candidates"), listed.len() as u64);
        assert_eq!(delta("incr.er.pairs_remapped"), listed.len() as u64 - live);
        assert!(delta("er.decide.from_ids") <= delta("er.walk.visited"));
        assert!(delta("er.walk.visited") < live);
        // The session's work counter is fed from the same walk.
        let work = w.working.work;
        assert_eq!(work.er_pairs as u64, out.metrics.counts["er.candidates"]);
    }

    #[test]
    fn clean_sources_that_swap_places_across_an_update_keep_their_classes() {
        // A pair is scored as (earlier row, later row), and the kernel makes
        // no promise that a score survives swapping its arguments. With a
        // freshness horizon, letting the clock run past it reorders the
        // stale sources by coverage alone: their union blocks replay and
        // their rows keep their record classes, and a class pair is decided
        // in whichever orientation the new order meets first.
        let fleet = small_fleet();
        let user = UserContext::completeness_first().with_freshness_horizon(6);
        let mut w = session(&fleet, user);
        let first = w.wrangle().unwrap();
        let before = w.union_table().unwrap();
        let victim = first.selected_sources[0];
        w.set_now(fleet.truth.now + 8);
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, t).unwrap());
        let out = assert_incremental_matches_cold(&mut w);
        let clean = |sel: &[SourceId]| -> Vec<SourceId> {
            sel.iter().copied().filter(|s| *s != victim).collect()
        };
        let (swapped, after) = (clean(&first.selected_sources), clean(&out.selected_sources));
        assert_ne!(swapped, after, "fixture: clean sources must swap places");
        let delta = |key: &str| counter_delta(&out, &first, key);
        assert_eq!(delta("incr.union.reused"), swapped.len() as u64);
        let live = delta("er.cache.misses");
        assert!(pairs_with_new_records(&w, &before) <= live);
        assert!(
            live < pairs_touching(&w, victim),
            "the swapped sources' pairs carry"
        );
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
    /// stage's output must flow into the pass fingerprint or re-derive the
    /// held tables it reaches, so a warm session
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
                w.cache = None;
            }),
        ];
        for (name, mutate) in mutations {
            let mut w = session(&fleet, UserContext::balanced("t"));
            let first = w.wrangle().unwrap();
            assert!(incr_memo_count(&w) > 0, "{name}: warm session memoized");
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
        assert!(incr_memo_count(&w) > 0);
        let mut w = w.with_row_filter(category_filter());
        assert_eq!(incr_memo_count(&w), 0, "plan shape change drops memos");
        w.wrangle().unwrap();
        assert!(incr_memo_count(&w) > 0);
        let w = w.with_output_columns(projection());
        assert_eq!(incr_memo_count(&w), 0, "projection change drops memos");
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

    /// The delivered table, entity count and containment report of two
    /// sessions' next passes agree; returns the first session's outcome.
    fn same_as_fresh(warm: &mut Wrangler, fresh: &mut Wrangler, what: &str) -> WrangleOutcome {
        let (a, b) = (warm.wrangle().unwrap(), fresh.wrangle().unwrap());
        assert_eq!(
            table_fingerprint(&a.table),
            table_fingerprint(&b.table),
            "{what}"
        );
        assert_eq!(a.entities, b.entities, "{what}");
        assert_eq!(a.containment, b.containment, "{what}");
        a
    }

    /// A policy field assigned between passes — no mutator sees it — reaches
    /// the next wrangle exactly as it reaches a fresh session built with it:
    /// each held mapped table was cut to another shape, so none is reused.
    /// (The audit above compares against a clone with the engine off, which
    /// holds the same mapped tables.)
    #[test]
    fn a_policy_assigned_between_passes_delivers_what_a_fresh_session_does() {
        let fleet = small_fleet();
        // The row budget shrinks under scans: 7 rows per source.
        let mut tight = ContainPolicy::contain();
        tight.max_rows_per_source = 7;
        let mut warm = session(&fleet, UserContext::balanced("t"));
        let first = warm.wrangle().unwrap();
        warm.contain.max_rows_per_source = 7;
        let mut fresh = session(&fleet, UserContext::balanced("t")).with_contain_policy(tight);
        let out = same_as_fresh(&mut warm, &mut fresh, "row budget");
        let hits = out.containment.tallies(Stage::MapApply).deadline_hits;
        assert_eq!(
            hits,
            out.selected_sources.len() as u64,
            "fixture: every source is cut"
        );
        assert!(out.entities < first.entities, "fixture: the cut shows");
        // Scans off under a row filter: the filter leaves the union loop for
        // an early placement.
        let mut warm =
            session(&fleet, UserContext::balanced("t")).with_row_filter(category_filter());
        warm.wrangle().unwrap();
        warm.contain = ContainPolicy::off();
        let mut fresh = session(&fleet, UserContext::balanced("t"))
            .with_row_filter(category_filter())
            .with_contain_policy(ContainPolicy::off());
        let out = same_as_fresh(&mut warm, &mut fresh, "placement flip");
        let placed = warm
            .plan_program()
            .unwrap()
            .placement_for(out.selected_sources[0].0 as usize);
        assert_ne!(placed, FilterPlacement::Union, "fixture: it flips");
    }

    /// A session under a row budget from the start, after a one-source
    /// update, delivers what a fresh session over the updated fleet does: a
    /// held table the budget cut is mapped again, so the pass records the
    /// deadline hit and the rows it drops.
    #[test]
    fn a_budget_cut_table_after_an_update_delivers_what_a_fresh_session_does() {
        let fleet = small_fleet();
        let mut tight = ContainPolicy::contain();
        tight.max_rows_per_source = 7;
        let build =
            || session(&fleet, UserContext::balanced("t")).with_contain_policy(tight.clone());
        let mut warm = build();
        let first = warm.wrangle().unwrap();
        let victim = first.selected_sources[0];
        let payload = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(warm.update_source(victim, payload.clone()).unwrap());
        let mut fresh = build();
        assert!(fresh.update_source(victim, payload).unwrap());
        let out = same_as_fresh(&mut warm, &mut fresh, "budget after update");
        let tally = out.containment.tallies(Stage::MapApply);
        assert!(
            tally.deadline_hits > 1,
            "fixture: more than the victim is cut"
        );
    }

    /// A source that healed after one degraded delivery delivers what a
    /// fresh session does, in the same process and after `resume()` from a
    /// store the degraded pass wrote: what was derived from the degraded
    /// payload is dropped on the first healthy delivery.
    #[test]
    fn a_healed_source_delivers_what_a_fresh_session_does() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let build = || session(&fleet, UserContext::balanced("t"));
        let victim = build().wrangle().unwrap().selected_sources[0];
        let truncated = FaultProfile::Truncated { keep_fraction: 0.3 };
        let mut warm = build();
        warm.set_fault_profile(victim, truncated);
        let degraded = warm.wrangle().unwrap();
        let degraded_ids: Vec<SourceId> = degraded.degraded_sources.iter().map(|d| d.0).collect();
        assert_eq!(degraded_ids, vec![victim], "fixture");
        let degraded_rows = warm.union_len();
        warm.set_fault_profile(victim, FaultProfile::Healthy);
        same_as_fresh(&mut warm, &mut build(), "healed");
        assert!(
            warm.union_len() > degraded_rows,
            "fixture: the truncation shows"
        );
        // The degraded pass replayed from a store, then healed.
        let dir = crate::scratch_dir("healed-after-resume");
        let _ = std::fs::remove_dir_all(&dir); // lint-allow: test scratch cleanup
        let store = || CheckpointStore::open(&dir).unwrap();
        let mut writer = build().with_checkpoint_store(store());
        writer.set_fault_profile(victim, truncated);
        writer.wrangle().unwrap();
        let mut resumed = build().with_checkpoint_store(store());
        resumed.set_fault_profile(victim, truncated);
        resumed.resume().unwrap();
        resumed.set_fault_profile(victim, FaultProfile::Healthy);
        same_as_fresh(&mut resumed, &mut build(), "healed after resume");
        let _ = std::fs::remove_dir_all(&dir); // lint-allow: test scratch cleanup
    }

    /// A mapping overridden after a degraded delivery is what the healed
    /// pass keeps: the override replaced what the degraded payload derived,
    /// so the first healthy delivery has nothing of it to drop.
    #[test]
    fn an_override_after_a_degraded_pass_survives_the_heal() {
        use wrangler_sources::FaultProfile;
        let fleet = small_fleet();
        let build = || session(&fleet, UserContext::balanced("t"));
        let mut healthy = build();
        let victim = healthy.wrangle().unwrap().selected_sources[0];
        let mut m = healthy.mapping_of(victim).unwrap().clone();
        m.bindings[healthy.target().index_of("price").unwrap()] = None;
        let mut warm = build();
        warm.set_fault_profile(victim, FaultProfile::Truncated { keep_fraction: 0.3 });
        assert_eq!(warm.wrangle().unwrap().degraded_sources.len(), 1, "fixture");
        assert!(warm.override_mapping(victim, m.clone()));
        warm.set_fault_profile(victim, FaultProfile::Healthy);
        let mut fresh = build();
        assert!(fresh.override_mapping(victim, m.clone()));
        same_as_fresh(&mut warm, &mut fresh, "override after degraded pass");
        assert_eq!(
            format!("{:?}", warm.mapping_of(victim).unwrap()),
            format!("{m:?}")
        );
    }

    /// An overridden mapping re-derives one mapped table; the ER carry keeps
    /// every pair of the other sources' blocks.
    #[test]
    fn a_mapping_override_carries_the_other_sources_pairs() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        let victim = first.selected_sources[0];
        let mut m = w.mapping_of(victim).unwrap().clone();
        m.bindings[w.target().index_of("price").unwrap()] = None;
        assert!(w.override_mapping(victim, m));
        let out = assert_incremental_matches_cold(&mut w);
        let delta = |key: &str| counter_delta(&out, &first, key);
        assert_eq!(delta("incr.union.recomputed"), 1, "{:?}", out.metrics);
        assert!(delta("incr.er.pairs_remapped") > 0, "{:?}", out.metrics);
        assert!(delta("er.walk.visited") < delta("er.candidates"));
    }

    /// A union block belongs to the table it was cut from, not to the
    /// table's cells: re-deriving an equal table rescans its one block. Its
    /// rows repeat records the ER memo holds, so they rejoin their classes
    /// by dictionary id and the walk decides nothing.
    #[test]
    fn rederiving_an_identical_mapped_table_rescans_one_block_and_decides_nothing() {
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
        let n = first.selected_sources.len() as u64;
        assert_eq!(delta("incr.union.recomputed"), 1);
        assert_eq!(delta("incr.union.reused"), n - 1);
        assert_eq!(delta("er.walk.visited"), 0, "{:?}", out.metrics);
    }

    /// A block replays only under the pass fingerprint it was cut under:
    /// a tighter cell limit makes 28-byte names poison, and the held tables
    /// (same shape, so kept) must be scanned again, not replayed clean.
    #[test]
    fn a_block_kept_under_one_containment_policy_is_not_replayed_under_another() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"));
        let first = w.wrangle().unwrap();
        w.contain.max_cell_bytes = 24;
        let out = assert_incremental_matches_cold(&mut w);
        assert_eq!(counter_delta(&out, &first, "incr.union.reused"), 0);
        assert_ne!(
            out.containment.totals(),
            crate::contain::StageTallies::default(),
            "fixture: the tighter limit bites"
        );
    }

    /// A union replayed from a checkpoint store names no table: that pass
    /// captures no ER memo and leaves no block. A union cut live after the
    /// store replayed its upstream leaves every memo a storeless pass does.
    #[test]
    fn a_union_replayed_from_a_store_leaves_no_memo() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use wrangler_ckpt::{CrashPolicy, CrashSite};
        let fleet = small_fleet();
        let build = || session(&fleet, UserContext::balanced("t"));
        let mut plain = build();
        let cold = plain.wrangle().unwrap();
        assert_eq!(incr_memo_count(&plain), cold.selected_sources.len() + 1);
        let dir = crate::scratch_dir("memos-after-resume");
        let _ = std::fs::remove_dir_all(&dir); // lint-allow: test scratch cleanup
        let store = || CheckpointStore::open(&dir).unwrap();
        let mut crashed = build()
            .with_checkpoint_store(store())
            .with_crash_policy(CrashPolicy::panic_at(CrashSite::AfterMapGenerate));
        assert!(catch_unwind(AssertUnwindSafe(|| crashed.wrangle())).is_err());
        let mut live = build().with_checkpoint_store(store());
        let out = live.resume().unwrap();
        assert!(out.metrics.counts.contains_key("ckpt.map_generate.hits"));
        assert!(!out.metrics.counts.contains_key("ckpt.union.hits"));
        assert_eq!(incr_memo_count(&live), incr_memo_count(&plain));
        let mut replayed = build().with_checkpoint_store(store());
        let out = replayed.resume().unwrap();
        assert!(out.metrics.counts.contains_key("ckpt.union.hits"));
        assert_eq!(incr_memo_count(&replayed), 0);
        let _ = std::fs::remove_dir_all(&dir); // lint-allow: test scratch cleanup
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
        assert!(delta("incr.er.pairs_remapped") > 0, "every class carries");
        // No record is new: a decision is an orientation the new order meets
        // first, of a class pair that opened a text field before — so each
        // one opens one again.
        assert!(delta("er.walk.visited") <= delta("er.decide.text_fields"));
    }

    #[test]
    fn a_naive_pass_filters_inside_its_blocks_and_carries_every_pair() {
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::balanced("t"))
            .with_row_filter(category_filter())
            .with_opt_mode(OptMode::Naive);
        let first = w.wrangle().unwrap();
        assert!(
            first.metrics.counts["union.filtered"] > 0,
            "fixture: the filter drops rows"
        );
        assert!(w.er_memo.is_some(), "the ER memo is captured");
        // Nothing changed: every block replays past its filter, and the ER
        // carry covers the whole union.
        w.cache = None;
        let out = assert_incremental_matches_cold(&mut w);
        assert_no_change_pass_decides_nothing(&out, &first);
        assert_eq!(outcome_fingerprint(&out), outcome_fingerprint(&first));
        // The optimized twin fuses the filter into the poison scan,
        // delivers the same outcome and carries the same way.
        let mut opt =
            session(&fleet, UserContext::balanced("t")).with_row_filter(category_filter());
        let opt_first = opt.wrangle().unwrap();
        assert_eq!(outcome_fingerprint(&opt_first), outcome_fingerprint(&first));
        opt.cache = None;
        let again = assert_incremental_matches_cold(&mut opt);
        assert_no_change_pass_decides_nothing(&again, &opt_first);
    }

    #[test]
    fn a_naive_one_source_update_carries_pairs_and_equals_a_fresh_naive_session() {
        let fleet = small_fleet();
        let naive = || {
            session(&fleet, UserContext::completeness_first())
                .with_row_filter(category_filter())
                .with_opt_mode(OptMode::Naive)
        };
        let mut w = naive();
        // The comparator never holds a memo: the engine is off from the start.
        let mut fresh = naive();
        fresh.set_incr_enabled(false);
        let first = w.wrangle().unwrap();
        assert_eq!(
            outcome_fingerprint(&fresh.wrangle().unwrap()),
            outcome_fingerprint(&first)
        );
        let victim = first.selected_sources[0];
        let payload = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, payload.clone()).unwrap());
        assert!(fresh.update_source(victim, payload).unwrap());
        let out = w.wrangle().unwrap();
        assert_eq!(
            outcome_fingerprint(&fresh.wrangle().unwrap()),
            outcome_fingerprint(&out)
        );
        let delta = |key: &str| counter_delta(&out, &first, key);
        assert!(delta("incr.er.pairs_remapped") > 0, "{:?}", out.metrics);
        assert!(delta("incr.union.reused") > 0, "{:?}", out.metrics);
    }

    /// Sixteen refuted prices under `Shared` routing move the trust of most
    /// selected sources; the slots to re-fuse are recorded as one mark per
    /// source and expanded by `rewrangle`. Golden: what the eager per-claim
    /// expansion this replaced dirtied on this fixture, and what the re-fuse
    /// delivers (re-pinned when `rewrangle` stopped blending trust from its
    /// own previous blend; the dirtied slots did not move).
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
        let index = w.cache.as_ref().unwrap().claims.index();
        assert_eq!(index.slots().len(), 200);
        let golden: Vec<usize> = (0..200).filter(|&no| index.slots()[no] != (36, 1)).collect();
        assert_eq!(w.working.dirty_slot_nos(index), (golden, 0));
        let mut twin = w.clone();
        let before = w.working.work;
        let out = w.rewrangle().unwrap();
        assert_eq!((w.working.work - before).slots_fused, 199);
        assert_eq!(
            wire::hash64(outcome_fingerprint(&out).as_bytes()),
            12447043635745971694
        );
        assert_eq!(w.working.dirty_count(), 0);
        // A full pass fuses every slot: it clears the marks, and a later
        // judgement re-fuses only what it dirties itself. Routing is pass
        // configuration, so it is switched before that pass: the re-fuse
        // runs under the fingerprint the cache was built under.
        twin.routing = RoutingMode::Siloed;
        twin.wrangle().unwrap();
        assert_eq!(twin.working.dirty_count(), 0);
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
        assert_eq!(incr_memo_count(&w), 0, "chaos passes must not memoize");
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
        // Only a compile that returned `Ok` (every citation verified) is
        // recorded.
        let program = w.plan_program().expect("program recorded");
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

    /// An expert veto of the delivered price of the first entity that has one.
    fn price_veto(w: &Wrangler, out: &WrangleOutcome) -> FeedbackItem {
        let entity = (0..out.table.num_rows())
            .find(|&r| !out.table.get_named(r, "price").unwrap().is_null())
            .unwrap();
        FeedbackItem::expert(
            FeedbackTarget::Value {
                entity,
                attr: w.target().index_of("price").unwrap(),
                value: None,
            },
            Verdict::Negative,
            1.0,
        )
    }

    #[test]
    fn a_value_veto_keys_fuse_alone_and_leaves_every_upstream_memo_valid() {
        // Only fuse reads vetoes and confirmations. A veto, then a 1-source
        // update: the other n−1 union blocks replay and the ER carry holds,
        // and the outcome is still the incr-off twin's, bit for bit. Siloed
        // routing sends a veto to its slot alone (no trust moves), so the
        // veto is all that changes.
        let fleet = small_fleet();
        let mut w = session(&fleet, UserContext::completeness_first());
        w.routing = RoutingMode::Siloed;
        let first = w.wrangle().unwrap();
        let n = first.selected_sources.len() as u64;
        w.give_feedback(price_veto(&w, &first));
        let victim = first.selected_sources[0];
        let t = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(w.update_source(victim, t).unwrap());
        let out = assert_incremental_matches_cold(&mut w);
        let delta = |key: &str| counter_delta(&out, &first, key);
        assert_eq!(delta("incr.union.reused"), n - 1, "{:?}", out.metrics);
        assert!(delta("incr.er.pairs_remapped") > 0, "{:?}", out.metrics);
        // A second veto and nothing else: every union block replays and the
        // ER carry decides no pair, while fuse runs live and drops the
        // vetoed value.
        w.give_feedback(price_veto(&w, &out));
        w.cache = None;
        let again = assert_incremental_matches_cold(&mut w);
        assert_no_change_pass_decides_nothing(&again, &out);
        assert_eq!(counter_delta(&again, &out, "incr.union.reused"), n);
        assert_ne!(outcome_fingerprint(&again), outcome_fingerprint(&out));
    }

    /// A session under `completeness_first` and `routing` that wrangled,
    /// then took `mutate`; its `rewrangle` must deliver what a fresh session
    /// brought to the same state by `prepare` delivers from `wrangle`, bit
    /// for bit. The fleet's coverage leaves every source relevant, so the
    /// context switches move the selection and the fusion.
    fn rewrangle_equals_a_fresh_wrangle(
        label: &str,
        routing: RoutingMode,
        mutate: impl Fn(&mut Wrangler, &WrangleOutcome),
        prepare: impl Fn(&mut Wrangler, &WrangleOutcome),
    ) -> WrangleOutcome {
        let fleet = wrangler_sources::synthetic::generate_fleet(
            &FleetConfig {
                num_products: 60,
                num_sources: 12,
                now: 10,
                coverage: (0.55, 0.55),
                staleness: (0, 8),
                ..FleetConfig::default()
            },
            11,
        );
        let mut w = session(&fleet, UserContext::completeness_first());
        w.routing = routing;
        let first = w.wrangle().unwrap();
        mutate(&mut w, &first);
        let out = w.rewrangle().unwrap();
        let mut fresh = session(&fleet, UserContext::completeness_first());
        fresh.routing = routing;
        prepare(&mut fresh, &first);
        let want = fresh.wrangle().unwrap();
        assert_eq!(
            outcome_fingerprint(&out),
            outcome_fingerprint(&want),
            "{label}"
        );
        assert_eq!(out.utility.to_bits(), want.utility.to_bits(), "{label}");
        out
    }

    #[test]
    fn rewrangle_after_a_context_switch_equals_a_fresh_session() {
        // Both contexts keep `completeness_first`'s ER threshold: the rule
        // stays, and only the pass fingerprint tells the cache is stale.
        for (label, user) in [
            (
                "max sources",
                UserContext::completeness_first().with_max_sources(4),
            ),
            (
                "freshness",
                UserContext::completeness_first().with_freshness_horizon(3),
            ),
        ] {
            let switch = |w: &mut Wrangler, _: &WrangleOutcome| w.set_user_context(user.clone());
            let out = rewrangle_equals_a_fresh_wrangle(label, RoutingMode::Shared, switch, switch);
            assert_eq!(out.metrics.counts.get("pass.rewrangle"), None, "{label}");
            let most = user.max_sources.unwrap_or(usize::MAX);
            assert!(out.selected_sources.len() <= most, "{label}");
        }
    }

    #[test]
    fn rewrangle_after_a_clock_mapping_or_source_change_equals_a_fresh_session() {
        let tick = |w: &mut Wrangler, _: &WrangleOutcome| w.set_now(15);
        rewrangle_equals_a_fresh_wrangle("set_now", RoutingMode::Shared, tick, tick);
        // The mapping the first pass generated for source 0, handed back as
        // an override: the mapped table is dropped, so the pass re-runs.
        let keep_mapping = |w: &mut Wrangler, first: &WrangleOutcome| {
            let id = first.selected_sources[0];
            let mapping = w.mapping_of(id).unwrap().clone();
            assert!(w.override_mapping(id, mapping));
        };
        let fresh_mapping = |w: &mut Wrangler, first: &WrangleOutcome| {
            w.wrangle().unwrap();
            keep_mapping(w, first);
        };
        rewrangle_equals_a_fresh_wrangle(
            "override_mapping",
            RoutingMode::Shared,
            keep_mapping,
            fresh_mapping,
        );
        let update = |w: &mut Wrangler, first: &WrangleOutcome| {
            let id = first.selected_sources[0];
            let t = perturbed(&w.registry.get(id).unwrap().table);
            assert!(w.update_source(id, t).unwrap());
        };
        rewrangle_equals_a_fresh_wrangle("update_source", RoutingMode::Shared, update, update);
        let confirm = |w: &mut Wrangler, first: &WrangleOutcome| {
            let mut item = price_veto(w, first);
            item.verdict = Verdict::Positive;
            w.give_feedback(item);
        };
        let fresh_confirm = |w: &mut Wrangler, first: &WrangleOutcome| {
            w.wrangle().unwrap();
            confirm(w, first);
        };
        // A confirmation under siloed routing pins its slot and moves no
        // trust: the fingerprint holds, and the re-fuse is what a full pass
        // delivers.
        let out = rewrangle_equals_a_fresh_wrangle(
            "give_feedback",
            RoutingMode::Siloed,
            confirm,
            fresh_confirm,
        );
        assert_eq!(out.metrics.counts.get("pass.rewrangle"), Some(&1));
        assert!(out.metrics.counts["refuse.slots"] >= 1);
    }
}
