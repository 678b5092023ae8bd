//! The stages of a wrangle pass, in execution order: `select → acquire →
//! map_generate → compile_plan → preflight → map_apply → union → er → fuse`
//! (assembly lives with the driver in the parent module). Each is a plain
//! method over the session and the [`Pass`]; the five that end in a
//! checkpoint seam hand [`Wrangler::seam`] a live function that computes the
//! stage's record and an install function that moves a record — computed
//! or replayed from the store — into the session.

use std::collections::BTreeMap;

use wrangler_ckpt::CrashSite;
use wrangler_context::UserContext;
use wrangler_fusion::strategies::{FusedValue, SourceContext};
use wrangler_fusion::truthfinder::{truthfinder, TruthFinderConfig};
use wrangler_fusion::{FuseKernel, MIN_SLOTS_PER_WORKER};
use wrangler_lint::{GateMode, Report as LintReport};
use wrangler_mapping::{generate_mapping, generate_mapping_with_profiles, Mapping};
use wrangler_match::profile_table;
use wrangler_plan::{Fact, FilterPlacement, PlanProgram, UnionFilter};
use wrangler_resolve::{ErKernel, PriorWalk, UnionBlocks};
use wrangler_sources::{select_greedy_utility, select_marginal_gain, SourceId};
use wrangler_table::{ops, par, Table, TableError};
use wrangler_uncertainty::{Evidence, EvidenceKind};

use super::pass::{Pass, ACQUIRE, ER, MAP_GENERATE, SELECT, UNION};
use super::{blocking_columns, compiled, master_anchors, WrangleCache, Wrangler};
use crate::acquire::AcquisitionSummary;
use crate::ckpt_io::{AcquireOut, ErOut, MapGenOut, SelectOut, UnionOut};
use crate::contain::{
    catch_quiet, isolate, poison_reason, ContainMode, ContainmentReport, Guarded, Stage, StageGuard,
};
use crate::incr::{BlockMemo, ErMemo, Mapped, Shape};
use crate::lower::{self, LowerInput};
use crate::planner::SelectionStrategy;
use crate::union::Union;

type Result<T> = wrangler_table::Result<T>;

impl Wrangler {
    /// A pool's per-worker stats, under the open span: items in the count
    /// half (`{stage}.worker{n}.items`), busy wall-clock in the timing half.
    fn record_workers(&mut self, stage: &str, stats: &[par::WorkerStat]) {
        for (n, st) in stats.iter().enumerate() {
            self.obs.count(&format!("{stage}.worker{n}.items"), st.items);
            self.obs.record_nanos(&format!("worker{n}"), st.busy_nanos, 1);
        }
    }

    /// Stage 1 — source selection under the user context.
    pub(super) fn select(&mut self, pass: &mut Pass) -> Result<()> {
        self.seam(
            pass,
            &SELECT,
            |w, pass| {
                let estimates = w.estimates();
                let selected = match pass.plan.selection {
                    SelectionStrategy::MarginalGain => select_marginal_gain(&estimates, &w.user).0,
                    SelectionStrategy::AllRelevant => {
                        let mut all = UserContext::balanced("all");
                        all.budget = w.user.budget;
                        all.max_sources = w.user.max_sources;
                        all.freshness_horizon = w.user.freshness_horizon;
                        select_greedy_utility(&estimates, &all)
                    }
                };
                w.obs.count("select.candidates", estimates.len() as u64);
                w.obs.count("select.selected", selected.len() as u64);
                Ok(SelectOut { selected })
            },
            |_, pass, rec: SelectOut| {
                pass.selected = rec.selected;
                Ok(())
            },
        )
    }

    /// Stage 2 — acquisition: fallibly fetch every selected source through the
    /// registry's (optional) fault layer under the session's resilience
    /// policy. The pipeline then continues on the surviving subset: skipped
    /// sources are recorded in the outcome and their trust discounted,
    /// degraded payloads are integrated as delivered.
    pub(super) fn acquire(&mut self, pass: &mut Pass) -> Result<()> {
        self.seam(
            pass,
            &ACQUIRE,
            Self::acquire_live,
            |w, pass, rec: AcquireOut| {
                pass.selected = rec.selected;
                pass.degraded_tables = rec.degraded_tables.into_iter().collect();
                // Degraded payloads are transient: a degraded delivery, and
                // the first delivery after one, drop the held mapping and
                // mapped table so that they are mapped afresh.
                for i in 0..w.states.len() {
                    let degraded = pass.degraded_tables.contains_key(&i);
                    if degraded || w.states[i].from_degraded {
                        w.drop_derived(i);
                    }
                    w.states[i].from_degraded = degraded;
                }
                Ok(())
            },
        )
    }

    fn acquire_live(&mut self, pass: &mut Pass) -> Result<AcquireOut> {
        let mut report =
            self.acquisition
                .acquire_selected(&self.registry, &pass.selected, self.now);
        let skipped = report.skipped();
        let degraded = report.degraded();
        let survivors = report.survivors();
        let degraded_payloads = std::mem::take(&mut report.degraded_tables);
        self.obs.absorb("acquire", &report.events);
        self.obs.count("acquire.attempts", report.attempts);
        self.obs.count("acquire.virtual_ticks", report.ticks);
        self.obs.count("acquire.skipped", skipped.len() as u64);
        self.obs.count("acquire.degraded", degraded.len() as u64);
        self.last_acquisition = AcquisitionSummary {
            outcomes: report.outcomes,
            skipped: skipped.clone(),
            degraded,
            attempts: report.attempts,
            ticks: report.ticks,
        };
        if let Some(err) = report.aborted {
            return Err(TableError::Unavailable(format!(
                "acquisition aborted after {} attempts: {err}",
                report.attempts
            )));
        }
        for (id, _) in &skipped {
            // An operational failure is (soft) evidence against the source;
            // the discount keeps selection from re-picking serial offenders
            // even after their breaker half-opens.
            self.states[id.0 as usize]
                .trust
                .update(&Evidence::vote(EvidenceKind::Component, false, 0.8).discounted(0.9));
        }
        if survivors.is_empty() {
            // `why` already names the source (AcquireError's Display does).
            let reasons: Vec<String> = skipped.iter().map(|(_, why)| why.clone()).collect();
            return Err(TableError::Unavailable(format!(
                "no sources could be acquired ({} selected, all failed: {})",
                pass.selected.len(),
                reasons.join("; ")
            )));
        }
        self.access_spent = {
            let mut total = 0.0;
            for id in &survivors {
                total += self.source(*id)?.meta.access_cost;
            }
            total
        };
        let by_index: BTreeMap<usize, Table> = degraded_payloads
            .into_iter()
            .map(|(id, t)| (id.0 as usize, t))
            .collect();
        Ok(AcquireOut {
            selected: survivors,
            degraded_tables: by_index.into_iter().collect(),
        })
    }

    /// Stage 3 — mapping generation per acquired source.
    pub(super) fn map_generate(&mut self, pass: &mut Pass) -> Result<()> {
        self.seam(
            pass,
            &MAP_GENERATE,
            |w, pass| {
                w.map_generate_live(pass)?;
                // The record owns the stage's output: every survivor's
                // mapping (regenerated or carried over) moves out of the
                // session here, and install moves it — or its replayed
                // twin — back in.
                let mappings = pass
                    .selected
                    .iter()
                    .filter_map(|id| {
                        let i = id.0 as usize;
                        w.states[i].mapping.take().map(|m| (i, m))
                    })
                    .collect();
                Ok(MapGenOut {
                    selected: std::mem::take(&mut pass.selected),
                    mappings,
                })
            },
            |w, pass, rec: MapGenOut| {
                pass.selected = rec.selected;
                for (i, mapping) in rec.mappings {
                    if let Some(state) = w.states.get_mut(i) {
                        state.mapping = Some(mapping);
                    }
                }
                Ok(())
            },
        )
    }

    /// The live map-generate stage: alignment budgets, chaos rolls, the
    /// blocked schema-matching fan-out (the CPU-heavy step), and per-source
    /// quarantine of panicking inputs.
    fn map_generate_live(&mut self, pass: &mut Pass) -> Result<()> {
        let need_mapping: Vec<usize> = pass
            .selected
            .iter()
            .map(|id| id.0 as usize)
            .filter(|&i| self.states[i].mapping.is_none())
            .collect();
        let mut gen_removed: Vec<usize> = Vec::new();
        if !need_mapping.is_empty() {
            let target = &self.target;
            let sample = &self.target_sample;
            let ontology = &self.data_ctx.ontology;
            let match_cfg = &self.match_cfg;
            // Resolve every input table before fanning out: workers then hold
            // plain references, and a stale id surfaces as a structured error
            // here instead of a panic inside a worker thread.
            let resolved: Vec<(usize, &Table)> = need_mapping
                .iter()
                .map(|&i| Ok((i, self.payload(&pass.degraded_tables, i)?)))
                .collect::<Result<_>>()?;
            // Alignment budget: schema matching is quadratic-ish in cells,
            // so a pathologically oversized payload is ejected *before* it
            // can monopolize the pool — the logical-clock deadline for the
            // most expensive stage. Chaos rolls happen here too, on the
            // main thread, so worker count never changes which sources are
            // hit.
            let policy = &pass.policy;
            let mut guard = StageGuard::new(Stage::MapGenerate, policy, &mut pass.creport);
            let mut inputs: Vec<(usize, &Table, bool)> = Vec::with_capacity(resolved.len());
            for (i, table) in resolved {
                let id = SourceId(i as u32);
                let cells = table.num_rows().saturating_mul(table.num_columns());
                if policy.scans_enabled() && cells > policy.max_align_cells {
                    if let Some(err) = guard.deadline_excess(id, "alignment budget", 0) {
                        return Err(err);
                    }
                    guard.flag(
                        id,
                        &format!(
                            "alignment budget exceeded ({cells} cells > {})",
                            policy.max_align_cells
                        ),
                    );
                    gen_removed.push(i);
                    continue;
                }
                let chaos_hit = !policy.is_off()
                    && policy
                        .chaos
                        .as_ref()
                        .is_some_and(|c| c.should_panic(Stage::MapGenerate, id));
                inputs.push((i, table, chaos_hit));
            }
            // Cross-source CSE: the target-sample column profiles are the
            // same for every source, so they are computed once here and
            // shared across workers when the `share-target-profile` rule
            // holds (the program that records the rewrite, with its
            // justifying fact, is compiled after this stage). Otherwise the
            // target is re-profiled per source: the E16 wall-clock
            // baseline. Profiling is deterministic, so the generated
            // mappings are identical either way.
            let shared_profiles = self
                .opt_mode
                .shares_target_profile(inputs.len())
                .then(|| profile_table(sample));
            let shared_profiles = shared_profiles.as_deref();
            type GenItem = (usize, std::result::Result<Mapping, String>);
            // Blocked fan-out (wrangler_table::par): contiguous chunks keep
            // each worker on adjacent sources and reassembly in chunk order
            // keeps the per-worker metrics and output deterministic. One
            // mapping generation is milliseconds of work, so the threshold
            // is 1 item per worker, and the pool as wide as the cores.
            let workers = par::effective_workers(usize::MAX, inputs.len(), 1);
            let (chunks, worker_stats) = par::run_blocked(&inputs, workers, |_, chunk| {
                // Each item runs under its own catch: one poisonous source
                // quarantines itself, not its whole worker's chunk.
                chunk
                    .iter()
                    .map(|&(i, table, chaos_hit)| {
                        let res = catch_quiet(|| {
                            if chaos_hit {
                                panic!("chaos: injected map_generate panic"); // lint-allow: deterministic chaos injection, caught one line up
                            }
                            match shared_profiles {
                                Some(profiles) => generate_mapping_with_profiles(
                                    table,
                                    target,
                                    sample,
                                    profiles,
                                    Some(ontology),
                                    match_cfg,
                                ),
                                None => generate_mapping(
                                    table,
                                    target,
                                    sample,
                                    Some(ontology),
                                    match_cfg,
                                ),
                            }
                        });
                        (i, res)
                    })
                    .collect::<Vec<GenItem>>()
            })
            // Backstop: the per-item catch above means a worker thread can no
            // longer die mid-chunk, but if it somehow does, fail structured.
            .map_err(|msg| {
                TableError::Unavailable(format!("schema-matching worker panicked: {msg}"))
            })?;
            let generated: Vec<GenItem> = chunks.into_iter().flatten().collect();
            self.record_workers("map", &worker_stats);
            let mut generated_ok = 0u64;
            for (i, res) in generated {
                match res {
                    Ok(mapping) => {
                        generated_ok += 1;
                        self.states[i].mapping = Some(mapping);
                        self.states[i].mapped = None;
                        self.working.work.mappings_generated += 1;
                    }
                    Err(msg) => {
                        // The panicking source is *identified* and
                        // quarantined; survivors proceed.
                        pass.creport.caught_panic(Stage::MapGenerate);
                        match pass.policy.mode {
                            ContainMode::Contain => {
                                pass.creport.record_quarantine(
                                    SourceId(i as u32),
                                    Stage::MapGenerate,
                                    format!("panicked: {msg}"),
                                );
                                gen_removed.push(i);
                            }
                            ContainMode::Abort | ContainMode::Off => {
                                return Err(TableError::Unavailable(format!(
                                    "src{i}: schema-matching worker panicked at map_generate: {msg}"
                                )));
                            }
                        }
                    }
                }
            }
            self.obs.count("map.generated", generated_ok);
        }
        self.eject(pass, Stage::MapGenerate, &gen_removed)
    }

    /// Stage 3b — lower the pass into the typed plan IR and compile it: the
    /// analyzer establishes the fact base, emits whole-plan findings
    /// (L301+), and the optimizer's rewrite ledger is re-verified against
    /// the facts. A forged or insufficient justification is rejected
    /// *here*, with a typed L304 diagnostic, before anything executes.
    pub(super) fn compile_plan(&mut self, pass: &mut Pass) -> Result<()> {
        self.span("plan", |w| {
            w.last_lint.clear();
            let compiled = {
                let mut inputs: Vec<LowerInput<'_>> = Vec::with_capacity(pass.selected.len());
                for id in &pass.selected {
                    let i = id.0 as usize;
                    inputs.push(LowerInput {
                        source: i,
                        name: format!("src{i}"),
                        table: w.payload(&pass.degraded_tables, i)?,
                        mapping: w.mapping_for(*id)?,
                    });
                }
                let ir = lower::lower(
                    &inputs,
                    &w.target,
                    &pass.plan,
                    &pass.policy,
                    w.row_filter.as_ref(),
                    w.output_columns.as_deref(),
                    &w.er_cfg,
                );
                PlanProgram::compile(ir, w.opt_mode)
            };
            let program = match compiled {
                Ok(p) => p,
                Err(report) => {
                    w.obs.inc("plan.rejected");
                    let first = report
                        .errors()
                        .next()
                        .map(|d| d.to_string())
                        .unwrap_or_default();
                    let summary = report.summary();
                    w.last_lint.push(("plan-ir".to_string(), report));
                    return Err(TableError::Invalid(format!(
                        "plan compilation rejected the wrangle ({summary}): {first}"
                    )));
                }
            };
            w.obs.count("plan.nodes", program.ir.nodes.len() as u64);
            w.obs.count("plan.facts", program.facts.len() as u64);
            w.obs
                .count("plan.findings", program.report.diagnostics().len() as u64);
            w.obs.count("opt.rewrites", program.rewrites.len() as u64);
            for rw in &program.rewrites {
                w.obs.inc(&format!("opt.rewrite.{}", rw.kind.name()));
            }
            if w.lint_gate != GateMode::Off && !program.report.is_empty() {
                w.last_lint
                    .push(("plan-ir".to_string(), program.report.clone()));
            }
            w.last_program = Some(program);
            Ok(())
        })
    }

    /// Stage 3c — pre-flight static analysis: lint every (mapping, source schema)
    /// pair *before* any mapping executes. Under `Deny`, error-grade
    /// findings abort here with a structured error instead of surfacing
    /// mid-run (or never). The whole-plan findings from 3b — the
    /// determinism audit of every IR node's effects among them — take part
    /// in the same gate decision.
    pub(super) fn preflight(&mut self, pass: &mut Pass) -> Result<()> {
        self.span("preflight", |w| {
            if w.lint_gate == GateMode::Off {
                return Ok(());
            }
            for id in &pass.selected {
                let i = id.0 as usize;
                let table = w.payload(&pass.degraded_tables, i)?;
                let report = wrangler_lint::check_mapping(w.mapping_for(*id)?, table.schema());
                if !report.is_empty() {
                    w.last_lint.push((format!("src{i}"), report));
                }
            }
            // The gate decision covers the plan plus every selected source.
            let mut merged = LintReport::new();
            for (_, r) in &w.last_lint {
                merged.merge(r.clone());
            }
            merged.canonicalize();
            w.obs
                .count("lint.findings", merged.diagnostics().len() as u64);
            if merged.blocks(w.lint_gate) {
                w.obs.inc("lint.gate_denials");
                let first = merged
                    .errors()
                    .next()
                    .map(|d| d.to_string())
                    .unwrap_or_default();
                return Err(TableError::Invalid(format!(
                    "pre-flight lint rejected the wrangle ({}): {first}",
                    merged.summary()
                )));
            }
            Ok(())
        })
    }

    /// Stage 3d — mapping execution per surviving source: each survivor's
    /// mapped table goes straight into the session. No seam: the stage is a
    /// function of what the select, acquire and map-generate records and
    /// the compiled program pin, and running it costs less than reading a
    /// record of it would, so a resume runs it live too.
    pub(super) fn map_apply(&mut self, pass: &mut Pass) -> Result<()> {
        self.span("map_apply", |w| w.map_apply_live(pass))
    }

    fn map_apply_live(&mut self, pass: &mut Pass) -> Result<()> {
        let track_scans = self.obs.is_on();
        let mut apply_removed: Vec<usize> = Vec::new();
        let mut scan_map_cells = 0u64;
        let program = compiled(&self.last_program)?;
        let predicate = program.predicate();
        let policy = &pass.policy;
        let mut guard = StageGuard::new(Stage::MapApply, policy, &mut pass.creport);
        for id in &pass.selected {
            let i = id.0 as usize;
            let placement = program.placement_for(i);
            let shape = Shape {
                filter: placement,
                budget: policy.scans_enabled().then_some(policy.max_rows_per_source),
            };
            // A held table at exactly the budget may have been cut to it,
            // and a reuse would record neither the deadline hit nor the
            // dropped rows: map it again.
            if self.states[i]
                .mapped
                .as_ref()
                .is_some_and(|m| m.shape() == shape && shape.budget != Some(m.table().num_rows()))
            {
                continue;
            }
            let table = self.payload(&pass.degraded_tables, i)?;
            let mapping = self.mapping_for(*id)?;
            // Pushdown to acquisition: the verified ledger proved the
            // predicate pure and every referenced binding cell-exact for
            // this source, so filtering the *raw* payload (under the bound
            // raw column names) keeps the union byte-identical while only
            // surviving rows get mapped.
            let filtered_raw: Option<Table> = match (placement, predicate) {
                (FilterPlacement::Acquire, Some(pred)) => {
                    let pushed =
                        lower::pushdown_predicate(pred, table.schema(), &self.target, mapping);
                    if track_scans {
                        let cols = wrangler_plan::predicate_columns(&pushed);
                        pass.scan_filter_cells += (table.num_rows() as u64) * cols.len() as u64;
                        pass.scan_bytes += lower::columns_scan_bytes(table, &cols, None);
                    }
                    Some(ops::filter(table, &pushed)?)
                }
                _ => None,
            };
            let input = filtered_raw.as_ref().unwrap_or(table);
            if track_scans {
                scan_map_cells += (input.num_rows() as u64) * self.target.len() as u64;
                pass.scan_bytes += lower::table_scan_bytes(input);
            }
            // A mapping that errors against its own payload (e.g. an
            // out-of-range binding, or a schema that drifted after the
            // mapping was generated) condemns this source only.
            let mut mapped = match guard.run(*id, || mapping.apply(input)) {
                Guarded::Ok(m) => m,
                Guarded::Quarantined => {
                    apply_removed.push(i);
                    continue;
                }
                Guarded::Fatal(e) => return Err(e),
            };
            // Post-map placement: the barrier is down but this source's
            // bindings are not cell-exact, so filter the *mapped* rows
            // before they reach the union.
            if let (FilterPlacement::PostMap, Some(pred)) = (placement, predicate) {
                if track_scans {
                    let cols = wrangler_plan::predicate_columns(pred);
                    pass.scan_filter_cells += (mapped.num_rows() as u64) * cols.len() as u64;
                    pass.scan_bytes += lower::columns_scan_bytes(&mapped, &cols, None);
                }
                mapped = ops::filter(&mapped, pred)?;
            }
            // Row budget: the logical deadline for an unbounded feed.
            // Deterministic prefix keep. (Early filter placements require
            // the barrier down, i.e. scans off, so the budget and the
            // filter never both apply.)
            if policy.scans_enabled() && mapped.num_rows() > policy.max_rows_per_source {
                let excess = (mapped.num_rows() - policy.max_rows_per_source) as u64;
                if let Some(err) = guard.deadline_excess(*id, "row budget", excess) {
                    return Err(err);
                }
                let keep = policy.max_rows_per_source;
                mapped = mapped.retain_rows(|r| r < keep);
            }
            self.states[i].mapped = Some(Mapped::new(mapped, shape));
            self.working.work.tables_mapped += 1;
        }
        self.eject(pass, Stage::MapApply, &apply_removed)?;
        self.obs.count("map.applied", pass.selected.len() as u64);
        self.obs.count("scan.map.cells", scan_map_cells);
        Ok(())
    }

    /// Stage 4 — union with provenance, and the poison firewall: every row is
    /// scanned here, the last point where damage is still attributable to
    /// one source, before rows from different sources interleave in ER and
    /// fusion. Sources whose filter placement stayed `Union` run the
    /// program's `Filter` node in their block: inside the poison scan, row
    /// by row after the poison check, when the program applied
    /// `fuse-filter-into-union`; otherwise as a second scan over the rows
    /// the block kept, once the poison threshold let it survive. A poison
    /// row is poison whether or not it matches the filter, so containment
    /// decisions are placement-independent, and either way the block —
    /// memo and layout entry — is the rows past the filter. A clean block
    /// is kept on the held mapped table it was cut from, with the pass
    /// fingerprint it was cut under; it replays while both stand.
    pub(super) fn union(&mut self, pass: &mut Pass) -> Result<()> {
        self.seam(
            pass,
            &UNION,
            Self::union_live,
            |w, pass, rec: UnionOut| {
                // Each block is rows of its source's held mapped table, on
                // either arm: the cells are copied here, once.
                let mut union = Union::empty(w.target.clone());
                for (i, runs) in &rec.blocks {
                    let kept: Vec<usize> = runs.iter().flat_map(|&(r, n)| r..r + n).collect();
                    union.append(*i, w.held(*i)?.table(), &kept)?;
                }
                pass.selected = rec.blocks.iter().map(|&(i, _)| SourceId(i as u32)).collect();
                w.obs.count("union.rows", union.table().num_rows() as u64);
                w.obs.count("union.filtered", rec.union_filtered);
                pass.union = union;
                // No block list (a union replayed from a checkpoint), no
                // identity to carry the ER memo across.
                pass.incr_on &= !pass.union_layout.is_empty();
                Ok(())
            },
        )
    }

    /// Source `i`'s held mapped table; a structured error if none is held.
    fn held(&self, i: usize) -> Result<&Mapped> {
        let held = self.states.get(i).and_then(|s| s.mapped.as_ref());
        held.ok_or_else(|| TableError::Invalid(format!("src{i}: not mapped")))
    }

    fn union_live(&mut self, pass: &mut Pass) -> Result<UnionOut> {
        let program = compiled(&self.last_program)?;
        // The program's `Filter` node, bound once, for the sources whose
        // filter runs here.
        let filter = match program.union_filter() {
            Some((predicate, how)) => Some((
                predicate.bind(&self.target)?,
                how,
                wrangler_plan::predicate_columns(predicate),
            )),
            None => None,
        };
        let track_scans = self.obs.is_on();
        let mut scan_union_cells = 0u64;
        let mut union_filtered = 0u64;
        let mut blocks: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut union_removed: Vec<usize> = Vec::new();
        let mut blocks_reused = 0u64;
        let mut blocks_recomputed = 0u64;
        let mut rows_reused = 0u64;
        let mut cells_skipped = 0u64;
        let mut bytes_skipped = 0u64;
        let policy = &pass.policy;
        let mut guard = StageGuard::new(Stage::Union, policy, &mut pass.creport);
        for id in &pass.selected {
            let i = id.0 as usize;
            let held = self.held(i)?;
            let (mapped, table_id) = (held.table(), held.id());
            // Early-placed sources arrive pre-filtered; only `Union`-placed
            // ones filter here.
            let place = program.placement_for(i);
            let filter_here = filter.as_ref().filter(|_| place == FilterPlacement::Union);
            let fused = filter_here.filter(|(_, how, _)| *how == UnionFilter::Fused);
            // Proof-carrying reuse: replay the block the held table keeps
            // only when it was cut under this pass's fingerprint AND the
            // analyzer verified that the block is isolated to this source.
            // The table is the block's one data input, and its shape fixes
            // where the filter runs: a re-derived table has no block.
            let partition_isolated = program.holds(&Fact::PartitionIsolated { source: i });
            let replay =
                |m: &&BlockMemo| pass.incr_on && partition_isolated && m.pass_fp == pass.pass_fp;
            if let Some(memo) = held.block.as_ref().filter(replay) {
                union_filtered += memo.filtered;
                blocks_reused += 1;
                rows_reused += memo.kept.len() as u64;
                cells_skipped += memo.scan_cells;
                bytes_skipped += memo.scan_bytes;
                pass.union_layout.push((i, table_id, memo.kept.len()));
                blocks.push((i, memo.kept.clone()));
                continue;
            }
            let mut this_cells = 0u64;
            let mut this_bytes = 0u64;
            if track_scans {
                this_cells = (mapped.num_rows() as u64) * mapped.num_columns() as u64;
                this_bytes = lower::table_scan_bytes(mapped);
                scan_union_cells += this_cells;
                pass.scan_bytes += this_bytes;
            }
            let mut poison = 0u64;
            let mut filtered_out = 0u64;
            let abort_scan = policy.mode != ContainMode::Contain;
            // The scan decides which rows of `mapped` the block keeps; the
            // seam's install copies their cells.
            let kept = guard.run(*id, || {
                let mut kept: Vec<usize> = Vec::with_capacity(mapped.num_rows());
                for (r, row) in mapped.iter_rows().enumerate() {
                    if policy.scans_enabled() {
                        if let Some(reason) = poison_reason(&row, policy) {
                            if abort_scan {
                                return Err(TableError::Unavailable(format!("src{i}: {reason}")));
                            }
                            poison += 1;
                            continue;
                        }
                    }
                    if let Some((bound, ..)) = fused {
                        if !bound.eval_predicate(&row)? {
                            filtered_out += 1;
                            continue;
                        }
                    }
                    kept.push(r);
                }
                Ok(kept)
            });
            if let (true, Some((_, _, cols))) = (track_scans, fused) {
                pass.scan_filter_cells += (mapped.num_rows() as u64) * cols.len() as u64;
            }
            union_filtered += filtered_out;
            match kept {
                Guarded::Ok(mut kept) => {
                    if poison > 0 {
                        guard.report_mut().drop_rows(Stage::Union, poison);
                        if poison as usize >= policy.poison_row_threshold {
                            // Repeated poison is a condemned feed, not line
                            // noise: eject the source entirely.
                            guard.flag(
                                *id,
                                &format!(
                                    "{poison} poison rows (threshold {})",
                                    policy.poison_row_threshold
                                ),
                            );
                            union_removed.push(i);
                            continue;
                        }
                    }
                    // The unfused filter: its own scan, over the kept rows
                    // of a block that survived.
                    if let Some((bound, UnionFilter::Separate, cols)) = filter_here {
                        if track_scans {
                            let bytes = lower::columns_scan_bytes(mapped, cols, Some(&kept));
                            pass.scan_filter_cells += (kept.len() as u64) * cols.len() as u64;
                            pass.scan_bytes += bytes;
                            this_bytes += bytes;
                        }
                        let scanned = kept.len();
                        let mut rows = Vec::with_capacity(scanned);
                        for r in kept {
                            if bound.eval_predicate(&mapped.row(r))? {
                                rows.push(r);
                            }
                        }
                        kept = rows;
                        let dropped = (scanned - kept.len()) as u64;
                        filtered_out += dropped;
                        union_filtered += dropped;
                    }
                    blocks_recomputed += 1;
                    blocks.push((i, kept.clone()));
                    if pass.incr_on {
                        pass.union_layout.push((i, table_id, kept.len()));
                        // Memoize only clean blocks: a poisoned one must
                        // recompute live so its row-drop side effects land
                        // in every pass's containment report. Store only
                        // under the isolation fact — an unprovable block
                        // would never be eligible for replay anyway.
                        if partition_isolated && poison == 0 {
                            let block = BlockMemo {
                                pass_fp: pass.pass_fp,
                                kept,
                                filtered: filtered_out,
                                scan_cells: this_cells,
                                scan_bytes: this_bytes,
                            };
                            if let Some(held) = self.states[i].mapped.as_mut() {
                                held.block = Some(block);
                            }
                        }
                    }
                }
                Guarded::Quarantined => union_removed.push(i),
                Guarded::Fatal(e) => return Err(e),
            }
        }
        self.eject(pass, Stage::Union, &union_removed)?;
        self.obs.count("scan.union.cells", scan_union_cells);
        self.obs.count("scan.filter.cells", pass.scan_filter_cells);
        self.obs.count("scan.bytes", pass.scan_bytes);
        if pass.incr_on {
            self.obs.count("incr.union.reused", blocks_reused);
            self.obs.count("incr.union.recomputed", blocks_recomputed);
            self.obs.count("incr.union.rows_reused", rows_reused);
            self.obs.count("incr.union.cells_skipped", cells_skipped);
            self.obs.count("incr.union.bytes_skipped", bytes_skipped);
        }
        Ok(UnionOut {
            blocks: blocks.iter().map(|(i, kept)| (*i, UnionOut::row_runs(kept))).collect(),
            union_filtered,
        })
    }

    /// Stage 5 — entity resolution over the union: a stored record, or the
    /// live stage, which carries the ER memo across whatever changed. After
    /// no change that is every row: no class pair is decided, and the memo's
    /// own class pairs cluster into the clustering it recorded.
    pub(super) fn er(&mut self, pass: &mut Pass) -> Result<()> {
        self.seam(
            pass,
            &ER,
            |w, pass| w.contained(pass, Stage::Er, |w, pass| w.er_live(pass)),
            |w, pass, rec: ErOut| {
                w.obs.count("er.entities", rec.clusters.len() as u64);
                pass.row_entity = rec.row_entity(pass.union.table().num_rows());
                pass.er = rec;
                Ok(())
            },
        )
    }

    /// The live ER stage, in five spans: map the ER memo onto the new
    /// layout (`carry`), block the union on name + key (`blocks`), compile
    /// the rule against it (`compile`), class the rows by record and decide
    /// the class pairs with a record new to the union (`decide`), and
    /// cluster the classes (`cluster`). Blocks and kernel are built from the
    /// memo's: a clean row takes its keys and dictionary ids from there, and
    /// only dirty rows render, fold and intern. No candidate is written
    /// down and no score kept. The carry runs whenever incremental reuse
    /// takes part in the pass: the memo's pass fingerprint and its layout's
    /// blocks — each a source, the id of the held table it was cut from and
    /// a length — decide what it covers. The memo is only read here, and
    /// replaced once the stage completes: a pass that fails or panics in
    /// between leaves it usable.
    fn er_live(&mut self, pass: &Pass) -> Result<ErOut> {
        let union_table = pass.union.table();
        let rows = union_table.num_rows();
        // The carry: candidacy, score and threshold read only a pair's two
        // rows, so a class pair of two records the memoized union held
        // matches now iff it matched then. The rest are decided (on a cold
        // pass or after a refined rule, all of them).
        self.obs.begin("carry");
        let memo = self.er_memo.as_ref().filter(|_| pass.incr_on);
        let old_of = memo.and_then(|m| m.carry(pass.pass_fp, &pass.union_layout, rows));
        let prior = memo.zip(old_of.as_deref());
        self.obs.end();
        let (name_col, key_col) = blocking_columns(&self.target);
        let (blocks, block_ids) = self.obs.time("blocks", || {
            let prior = prior.map(|(m, old_of)| (&m.blocks, old_of));
            UnionBlocks::carry(union_table, name_col, key_col, prior)
        })?;
        // Mid-stage crash site: after blocking, before any pair is decided.
        // No seam has persisted for this stage yet, so resume replays up to
        // the union and re-runs ER.
        self.crash_fire(CrashSite::MidEr);
        // Compiled against the union schema (an unknown column errors before
        // any pair is decided) into a dictionary per text/key column.
        let (kernel, kernel_ids) = self.obs.time("compile", || {
            let prior = prior.map(|(m, old_of)| (&m.kernel, old_of));
            ErKernel::carry(union_table, &self.er_cfg, prior)
        })?;
        for (column, values) in kernel.dict_sizes() {
            self.obs
                .count(&format!("er.dict.{column}.values"), values as u64);
        }
        self.obs.begin("decide");
        let prior = prior.map(|(m, old_of)| PriorWalk {
            blocks: &m.blocks,
            kernel: &m.kernel,
            decided: &m.decided,
            old_of,
            block_ids: &block_ids,
            kernel_ids: &kernel_ids,
        });
        let decided = kernel.decide_union(&blocks, prior);
        self.obs.end();
        let decided = decided?;
        self.working.work.er_pairs += decided.candidates as usize;
        let out = self.obs.time("cluster", || ErOut {
            clusters: decided.clusters(),
        });
        // Candidates under the class pairs decided live. The benchmark reads
        // the counter under this name.
        self.obs
            .count("er.cache.misses", decided.candidates - decided.covered);
        self.obs.count("incr.er.pairs_remapped", decided.covered);
        self.obs.count("er.candidates", decided.candidates);
        self.obs.count("er.classes", decided.num_classes() as u64);
        self.obs.count("er.walk.visited", decided.decided);
        self.obs.count("er.walk.pruned", decided.pruned);
        self.obs.count("er.decide.from_ids", decided.from_ids);
        self.obs.count("er.decide.text_fields", decided.text_fields);
        self.obs.count("er.match_pairs", decided.match_pairs);
        if pass.incr_on {
            self.er_memo = Some(ErMemo {
                pass_fp: pass.pass_fp,
                layout: pass.union_layout.clone(),
                blocks,
                kernel,
                decided,
            });
        }
        Ok(out)
    }

    /// Stages 6–7 — claims, trust and fusion, live on every pass: the pass's
    /// union, clustering and claims become the session cache, beside the
    /// fused value of every slot. No seam: every checkpointed pass would
    /// write its record, and only a resume after a crash inside assembly, or
    /// a fresh process re-running a finished pass, would read it (DESIGN
    /// §15).
    pub(super) fn fuse(&mut self, pass: &mut Pass) -> Result<()> {
        self.span("fuse", |w| w.fuse_live(pass))
    }

    fn fuse_live(&mut self, pass: &mut Pass) -> Result<()> {
        // Fuse-stage chaos rolls first: a source whose partition "panics"
        // here is quarantined before its claims enter the claim set, so its
        // values cannot influence fusion.
        let mut fuse_removed: Vec<usize> = Vec::new();
        {
            let mut guard = StageGuard::new(Stage::Fuse, &pass.policy, &mut pass.creport);
            for id in &pass.selected {
                match guard.run(*id, || Ok(())) {
                    Guarded::Ok(()) => {}
                    Guarded::Quarantined => fuse_removed.push(id.0 as usize),
                    Guarded::Fatal(e) => return Err(e),
                }
            }
        }
        self.eject(pass, Stage::Fuse, &fuse_removed)?;
        self.obs.begin("claims");
        let claims = match self.held_claims(pass, &fuse_removed) {
            Some(claims) => claims,
            None => self.claim_set(pass, &fuse_removed),
        };
        claims.index(); // grouped here, so that this span keeps covering it
        self.obs.end();
        // Master-data anchors for the attributes the catalog knows.
        self.obs.begin("anchors");
        let anchors = match self.data_ctx.master("product") {
            Some(master) => {
                master_anchors(master, &self.target, &pass.er.clusters, pass.union.table())
            }
            None => Vec::new(),
        };
        self.obs.end();
        self.obs.begin("truthfinder");
        let tf = truthfinder(&claims, &TruthFinderConfig::default(), &anchors);
        self.obs.end();
        self.obs
            .count("fuse.truthfinder.iterations", tf.iterations as u64);
        self.obs
            .count("fuse.classes", claims.index().num_classes() as u64);
        let age: Vec<u64> = self
            .registry
            .iter()
            .map(|s| self.now.saturating_sub(s.meta.last_updated))
            .collect();
        let source_ctx = SourceContext {
            trust: self.blended_trust(&tf.trust),
            age,
        };
        self.obs.count("fuse.claims", claims.claims().len() as u64);
        self.obs.count("fuse.anchors", anchors.len() as u64);

        // Fuse every slot. Per-source weights/decays are compiled once per
        // pass and serve every kind of slot.
        let fuse_kernel = FuseKernel::compile(&claims, pass.plan.fusion, &source_ctx);
        let slots = claims.index().slots().len();
        let all: Vec<usize> = (0..slots).collect();
        let mut fused = vec![None; slots];
        let done =
            self.fuse_slot_loop(&fuse_kernel, &all, &mut fused, &mut pass.creport, "fuse")?;
        self.working.work.slots_fused += done;
        self.obs.count("fuse.slots", done as u64);
        self.cache = Some(WrangleCache {
            union: std::mem::replace(&mut pass.union, Union::empty(self.target.clone())),
            row_entity: std::mem::take(&mut pass.row_entity),
            entities: pass.er.clusters.len(),
            claims,
            discovered_trust: tf.trust,
            source_ctx,
            fused,
            selected: pass.selected.clone(),
            pass_fp: pass.pass_fp,
            claims_key: pass.claims_key(&fuse_removed),
        });
        Ok(())
    }

    /// Fusion-time trust: truth discovery's per-source trust (`discovered`)
    /// blended half and half with the feedback-driven belief in the source.
    /// The fuse stage and `rewrangle`'s re-fuse both blend through here.
    pub(super) fn blended_trust(&self, discovered: &[f64]) -> Vec<f64> {
        (0..self.registry.len())
            .map(|i| 0.5 * discovered[i] + 0.5 * self.states[i].trust.probability())
            .collect()
    }

    /// The slot loop of a pass's fuse stage and of `rewrangle`'s re-fuse:
    /// fuse the slots numbered `nos` (ascending, of `kernel`'s claim index),
    /// write each one's value to `fused[no]` and return how many were
    /// fused. Columns the projection never reads are dead at fuse (the
    /// `skip-dead-fusion` rewrites, each citing its `DeadAtFuse` fact) and
    /// skipped, their entries left as they are; their claims stay in the
    /// claim set, so trust — and every live fused value — is unchanged. A
    /// confirmed or vetoed slot takes the feedback-aware serial path, the
    /// plain majority the blocked pool. A slot that panics under a policy
    /// that makes that fatal ends the loop with the values before it
    /// written.
    pub(super) fn fuse_slot_loop(
        &mut self,
        kernel: &FuseKernel,
        nos: &[usize],
        fused: &mut [Option<FusedValue>],
        creport: &mut ContainmentReport,
        stage: &str,
    ) -> Result<usize> {
        let live_mask = compiled(&self.last_program)?.live_mask();
        let slots = kernel.claims().index().slots();
        // The slots feedback judged, ascending, to merge with `nos`.
        let mut judged = self.judgements.keys().peekable();
        let mut special_slots: Vec<usize> = Vec::new();
        let mut plain_slots: Vec<usize> = Vec::with_capacity(nos.len());
        for &no in nos {
            let slot = slots[no];
            while judged.next_if(|&&j| j < slot).is_some() {}
            if live_mask.is_some_and(|m| !m[slot.1]) {
                continue;
            } else if judged.peek() == Some(&&slot) {
                special_slots.push(no);
            } else {
                plain_slots.push(no);
            }
        }
        let skipped = nos.len() - special_slots.len() - plain_slots.len();
        self.obs
            .count(&format!("{stage}.slots_skipped"), skipped as u64);
        // Per-slot isolation: a fusion strategy that panics on one
        // pathological slot costs that slot (delivered as Null), not the
        // pass — unless the policy says a caught panic is fatal.
        let contained = !self.contain.is_off();
        let fatal = self.contain.mode != ContainMode::Contain;
        let mut slot_done =
            |no: usize, res: std::result::Result<Option<FusedValue>, String>| -> Result<()> {
                fused[no] = match res {
                    Ok(f) => f,
                    Err(msg) => {
                        creport.caught_panic(Stage::Fuse);
                        if fatal {
                            let (e, a) = slots[no];
                            return Err(TableError::Unavailable(format!(
                                "fuse slot ({e},{a}) panicked: {msg}"
                            )));
                        }
                        None
                    }
                };
                Ok(())
            };
        let worker_stats = self.span("kernel", |w| {
            for &no in &special_slots {
                let (e, a) = slots[no];
                slot_done(no, isolate(contained, || w.fuse_slot(kernel, e, a)))?;
            }
            // Plain slots fuse in contiguous blocked chunks — bit-identical
            // to the serial fuse_attribute path for any worker count. Worker
            // panics surface per slot (catch inside the chunk) so one
            // pathological slot cannot take down its chunk; a panic escaping
            // the pool itself is the structured-error backstop, as in the ER
            // kernel.
            // The cores are read only when the slots would fan out.
            let requested = w.fuse_workers.unwrap_or(usize::MAX);
            let workers =
                par::effective_workers(requested, plain_slots.len(), MIN_SLOTS_PER_WORKER);
            let (chunks, worker_stats) = par::run_blocked(&plain_slots, workers, |_, chunk| {
                chunk
                    .iter()
                    .map(|&no| isolate(contained, || kernel.fuse_slot_no(no)))
                    .collect::<Vec<_>>()
            })
            .map_err(|msg| TableError::Unavailable(format!("fuse worker panicked: {msg}")))?;
            for (&no, res) in plain_slots.iter().zip(chunks.into_iter().flatten()) {
                slot_done(no, res)?;
            }
            Ok(worker_stats)
        })?;
        self.record_workers(stage, &worker_stats);
        Ok(special_slots.len() + plain_slots.len())
    }
}
