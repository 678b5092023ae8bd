//! The stages of a wrangle pass, in execution order: `select → acquire →
//! map_generate → compile_plan → preflight → map_apply → union → er → fuse`
//! (assembly lives with the driver in the parent module). Each is a plain
//! method over the session and the [`Pass`]; the seven that end in a
//! checkpoint seam hand [`Wrangler::seam`] a live function that computes the
//! stage's record and an install function that moves a record — computed,
//! replayed or memoized — into the session.

use std::collections::BTreeMap;

use wrangler_ckpt::{ContentKey, CrashSite};
use wrangler_context::UserContext;
use wrangler_fusion::strategies::{FusedValue, SourceContext};
use wrangler_fusion::truthfinder::{truthfinder, TruthFinderConfig};
use wrangler_fusion::{FuseKernel, MIN_SLOTS_PER_WORKER};
use wrangler_lint::{GateMode, Report as LintReport};
use wrangler_mapping::{generate_mapping, generate_mapping_with_profiles, Mapping};
use wrangler_match::profile_table;
use wrangler_plan::{FilterPlacement, OptMode, PlanProgram};
use wrangler_resolve::{cluster_pairs, ErKernel, UnionBlocks};
use wrangler_sources::{select_greedy_utility, select_marginal_gain, SourceId};
use wrangler_table::{ops, par, wire, Table, TableError};
use wrangler_uncertainty::{Evidence, EvidenceKind};

use super::pass::{Pass, ACQUIRE, ER, FUSE, MAP_APPLY, MAP_GENERATE, SELECT, UNION};
use super::{WrangleCache, Wrangler};
use crate::acquire::AcquisitionSummary;
use crate::ckpt_io::{AcquireOut, ErOut, FuseOut, MapApplyOut, MapGenOut, SelectOut, UnionOut};
use crate::contain::{
    catch_quiet, isolate, poison_reason, ContainMode, Guarded, Stage, StageGuard,
};
use crate::incr::{BlockMemo, ErMemo, FuseMemo, Mapped};
use crate::lower::{self, LowerInput};
use crate::planner::SelectionStrategy;
use crate::union::Union;
use crate::working::Artifact;

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
            None,
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
            |_, pass, rec: SelectOut, _| {
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
            None,
            Self::acquire_live,
            |w, pass, rec: AcquireOut, _| {
                pass.selected = rec.selected;
                pass.degraded_tables = rec.degraded_tables.into_iter().collect();
                // Degraded payloads are transient: remap them from this
                // delivery and invalidate the cached artifacts so a later
                // (possibly clean) acquisition remaps again instead of
                // reusing stale noise.
                for &i in pass.degraded_tables.keys() {
                    w.working.invalidate(Artifact::Mapping(i));
                    w.working.invalidate(Artifact::MappedTable(i));
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
            None,
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
            |w, pass, rec: MapGenOut, _| {
                pass.selected = rec.selected;
                for (i, mapping) in rec.mappings {
                    if let Some(state) = w.states.get_mut(i) {
                        state.mapping = Some(mapping);
                        w.working.mark_clean(Artifact::Mapping(i));
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
            .filter(|&i| {
                self.states[i].mapping.is_none() || self.working.is_dirty(Artifact::Mapping(i))
            })
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
            // same for every source, so the optimized mode computes them
            // once here and shares them across workers (the
            // `share-target-profile` rewrite — recorded with its justifying
            // fact in the compiled program's ledger below). Naive mode
            // re-profiles the target per source: the E16 wall-clock
            // baseline. Profiling is deterministic, so the generated
            // mappings are identical either way.
            let shared_profiles = (self.opt_mode == OptMode::Optimized && inputs.len() >= 2)
                .then(|| profile_table(sample));
            let shared_profiles = shared_profiles.as_deref();
            type GenItem = (usize, std::result::Result<Mapping, String>);
            // Blocked fan-out (wrangler_table::par): contiguous chunks keep
            // each worker on adjacent sources and reassembly in chunk order
            // keeps the per-worker metrics and output deterministic. One
            // mapping generation is milliseconds of work, so the threshold
            // is 1 item per worker.
            let workers = par::effective_workers(par::available_parallelism(), inputs.len(), 1);
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
            if w.ckpt.is_some() {
                pass.prog_fp = program.fingerprint();
            }
            w.last_program = Some(program);
            Ok(())
        })
    }

    /// Stage 3c — pre-flight static analysis: lint every (mapping, source schema)
    /// pair plus the plan's determinism description *before* any mapping
    /// executes. Under `Deny`, error-grade findings abort here with a
    /// structured error instead of surfacing mid-run (or never). The
    /// whole-plan findings from 3b participate in the same gate decision.
    pub(super) fn preflight(&mut self, pass: &mut Pass) -> Result<()> {
        self.span("preflight", |w| {
            if w.lint_gate == GateMode::Off {
                return Ok(());
            }
            let audit = wrangler_lint::audit_steps(&pass.plan.describe());
            if !audit.is_empty() {
                w.last_lint.push(("plan".to_string(), audit));
            }
            let mut pf_removed: Vec<usize> = Vec::new();
            for id in &pass.selected {
                let i = id.0 as usize;
                let table = w.payload(&pass.degraded_tables, i)?;
                let report = wrangler_lint::check_mapping(w.mapping_for(*id)?, table.schema());
                if !report.is_empty() {
                    // Opt-in containment at the gate: quarantine the one
                    // source whose artifact would be denied instead of
                    // refusing the whole wrangle. Findings stay recorded.
                    if pass.policy.quarantine_preflight
                        && pass.policy.mode == ContainMode::Contain
                        && report.blocks(w.lint_gate)
                    {
                        pass.creport.record_quarantine(
                            *id,
                            Stage::Preflight,
                            "pre-flight lint blocked this source's mapping",
                        );
                        pf_removed.push(i);
                    }
                    w.last_lint.push((format!("src{i}"), report));
                }
            }
            // The gate decision covers the plan plus *surviving* sources;
            // quarantined sources keep their findings in `lint_findings`
            // but no longer block the pass.
            let mut merged = LintReport::new();
            for (origin, r) in &w.last_lint {
                let quarantined = origin
                    .strip_prefix("src")
                    .and_then(|s| s.parse::<usize>().ok())
                    .is_some_and(|i| pf_removed.contains(&i));
                if !quarantined {
                    merged.merge(r.clone());
                }
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
            w.eject(pass, Stage::Preflight, &pf_removed)
        })
    }

    /// Stage 3d — mapping execution per surviving source.
    pub(super) fn map_apply(&mut self, pass: &mut Pass) -> Result<()> {
        self.seam(
            pass,
            &MAP_APPLY,
            None,
            Self::map_apply_live,
            |w, pass, rec: MapApplyOut, _| {
                pass.selected = rec.selected;
                for (i, mapped) in rec.mapped {
                    if let Some(state) = w.states.get_mut(i) {
                        state.mapped = Some(mapped);
                        w.working.mark_clean(Artifact::MappedTable(i));
                    }
                }
                Ok(())
            },
        )
    }

    fn map_apply_live(&mut self, pass: &mut Pass) -> Result<MapApplyOut> {
        let track_scans = self.obs.is_on();
        let mut apply_removed: Vec<usize> = Vec::new();
        let mut scan_map_cells = 0u64;
        let program = self.last_program.as_ref();
        let policy = &pass.policy;
        let mut guard = StageGuard::new(Stage::MapApply, policy, &mut pass.creport);
        for id in &pass.selected {
            let i = id.0 as usize;
            let placement = program.map_or(FilterPlacement::Union, |p| p.placement_for(i));
            let predicate = program.and_then(|p| p.predicate());
            let desired_tag = match (placement, predicate) {
                (FilterPlacement::Union, _) | (_, None) => None,
                (p, Some(e)) => Some(format!("{}|{e:?}", p.name())),
            };
            let held = self.states[i].mapped.as_ref();
            if held.is_some_and(|m| m.tag() == desired_tag.as_deref())
                && !self.working.is_dirty(Artifact::MappedTable(i))
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
                        pass.scan_bytes += lower::columns_scan_bytes(table, &cols);
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
                    pass.scan_bytes += lower::columns_scan_bytes(&mapped, &cols);
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
            self.states[i].mapped = Some(Mapped::new(mapped, desired_tag));
            self.working.work.tables_mapped += 1;
        }
        self.eject(pass, Stage::MapApply, &apply_removed)?;
        self.obs.count("map.applied", pass.selected.len() as u64);
        self.obs.count("scan.map.cells", scan_map_cells);
        // As in map_generate: the survivors' mapped tables move into the
        // record — hash and all — and install moves them back.
        let mapped = pass
            .selected
            .iter()
            .filter_map(|id| {
                let i = id.0 as usize;
                self.states[i].mapped.take().map(|m| (i, m))
            })
            .collect();
        Ok(MapApplyOut {
            selected: std::mem::take(&mut pass.selected),
            mapped,
        })
    }

    /// Stage 4 — union with provenance, and the poison firewall: every row is
    /// scanned here, the last point where damage is still attributable to
    /// one source, before rows from different sources interleave in ER and
    /// fusion. Sources whose filter placement stayed `Union` have the
    /// predicate fused into this loop, *after* the poison scan (the
    /// `fuse-filter-into-union` rewrite) — a poison row is poison whether
    /// or not it matches the filter, so containment decisions are
    /// placement-independent.
    pub(super) fn union(&mut self, pass: &mut Pass) -> Result<()> {
        self.seam(
            pass,
            &UNION,
            None,
            Self::union_live,
            |w, pass, rec: UnionOut, _| {
                pass.selected = rec.selected;
                w.obs.count("union.rows", rec.union.table().num_rows() as u64);
                w.obs.count("union.filtered", rec.union_filtered);
                pass.union = rec.union;
                // No block list, no identity to key the ER and fuse memos by.
                pass.incr_on &= !pass.union_layout.is_empty();
                Ok(())
            },
        )
    }

    /// Content key of source `i`'s union block: the pass fingerprint (it
    /// covers the predicate and the containment policy), the source, where
    /// its filter runs, and its mapped table by content hash — payload,
    /// mapping and filter tag reach the block only through that table.
    /// Equal key ⇒ the live loop would reproduce the block byte-for-byte.
    fn union_block_key(pass_fp: u64, i: usize, place: FilterPlacement, mapped: &Mapped) -> u64 {
        ContentKey::stage("union-block", pass_fp)
            .labelled("place", place as u64)
            .labelled("src", i as u64)
            .input(mapped.hash())
            .finish()
    }

    fn union_live(&mut self, pass: &mut Pass) -> Result<UnionOut> {
        let inline_filter = match (&self.last_program, self.opt_mode) {
            (Some(p), OptMode::Optimized) => match p.predicate() {
                Some(e) => Some(e.bind(&self.target)?),
                None => None,
            },
            _ => None,
        };
        let track_scans = self.obs.is_on();
        let mut scan_union_cells = 0u64;
        let mut union_filtered = 0u64;
        let mut union = Union::empty(self.target.clone());
        let mut union_removed: Vec<usize> = Vec::new();
        let mut blocks_reused = 0u64;
        let mut blocks_recomputed = 0u64;
        let mut rows_reused = 0u64;
        let mut cells_skipped = 0u64;
        let mut bytes_skipped = 0u64;
        let program = self.last_program.as_ref();
        let policy = &pass.policy;
        let mut guard = StageGuard::new(Stage::Union, policy, &mut pass.creport);
        for id in &pass.selected {
            let i = id.0 as usize;
            let held = self.states[i]
                .mapped
                .as_ref()
                .ok_or_else(|| TableError::Invalid(format!("{id}: not mapped")))?;
            let mapped = held.table();
            // Early-placed sources arrive pre-filtered; only `Union`-placed
            // ones filter here.
            let place = program.map_or(FilterPlacement::Union, |p| p.placement_for(i));
            let filter_here = inline_filter
                .as_ref()
                .filter(|_| place == FilterPlacement::Union);
            // Proof-carrying reuse: replay this source's memoized block
            // only under a matching content key AND the analyzer's verified
            // fact that the block is isolated to this source.
            let block_key = pass
                .incr_on
                .then(|| Self::union_block_key(pass.pass_fp, i, place, held));
            let partition_isolated = program
                .map(|p| p.holds(&wrangler_plan::Fact::PartitionIsolated { source: i }))
                .unwrap_or(false);
            let memo = self.incr.blocks.get(&i);
            if let Some(memo) = memo.filter(|m| partition_isolated && Some(m.key) == block_key) {
                union_filtered += memo.filtered;
                blocks_reused += 1;
                rows_reused += memo.kept.len() as u64;
                cells_skipped += memo.scan_cells;
                bytes_skipped += memo.scan_bytes;
                pass.union_layout.push((i, memo.key, memo.kept.len()));
                union.append(i, mapped, &memo.kept)?;
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
            // The scan decides which rows of `mapped` the block keeps; cells
            // are copied once, below, after the source is known to survive.
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
                    if let Some(bound) = filter_here {
                        if !bound.eval_predicate(&row)? {
                            filtered_out += 1;
                            continue;
                        }
                    }
                    kept.push(r);
                }
                Ok(kept)
            });
            if track_scans && filter_here.is_some() {
                let cols = program
                    .and_then(|p| p.predicate())
                    .map(|e| wrangler_plan::predicate_columns(e).len() as u64)
                    .unwrap_or(0);
                pass.scan_filter_cells += (mapped.num_rows() as u64) * cols;
            }
            union_filtered += filtered_out;
            match kept {
                Guarded::Ok(kept) => {
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
                    blocks_recomputed += 1;
                    union.append(i, mapped, &kept)?;
                    if let Some(key) = block_key {
                        pass.union_layout.push((i, key, kept.len()));
                        // Memoize only clean blocks: a poisoned one must
                        // recompute live so its row-drop side effects land
                        // in every pass's containment report. Store only
                        // under the isolation fact — an unprovable block
                        // would never be eligible for replay anyway.
                        if partition_isolated && poison == 0 {
                            self.incr.blocks.insert(
                                i,
                                BlockMemo {
                                    key,
                                    kept,
                                    filtered: filtered_out,
                                    scan_cells: this_cells,
                                    scan_bytes: this_bytes,
                                },
                            );
                        }
                    }
                }
                Guarded::Quarantined => union_removed.push(i),
                Guarded::Fatal(e) => return Err(e),
            }
        }
        self.eject(pass, Stage::Union, &union_removed)?;
        if self.opt_mode == OptMode::Naive {
            union = self.naive_union_filter(pass, union, &mut union_filtered)?;
        }
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
            selected: std::mem::take(&mut pass.selected),
            union,
            union_filtered,
        })
    }

    /// Naive execution runs the filter as its own pass over the
    /// materialized union — the extra full scan the optimizer's placements
    /// avoid. Both modes feed ER the identical filtered union: poison/budget
    /// decisions happened before either filter site.
    fn naive_union_filter(
        &self,
        pass: &mut Pass,
        union: Union,
        union_filtered: &mut u64,
    ) -> Result<Union> {
        let Some(pred) = &self.row_filter else {
            return Ok(union);
        };
        let bound = pred.bind(&self.target)?;
        let table = union.table();
        if self.obs.is_on() {
            let cols = wrangler_plan::predicate_columns(pred);
            pass.scan_filter_cells += (table.num_rows() as u64) * cols.len() as u64;
            pass.scan_bytes += lower::columns_scan_bytes(table, &cols);
        }
        let mut kept = Union::empty(self.target.clone());
        let mut start = 0;
        for &(source, n) in union.runs() {
            let mut rows = Vec::with_capacity(n);
            for r in start..start + n {
                if bound.eval_predicate(&table.row(r))? {
                    rows.push(r);
                } else {
                    *union_filtered += 1;
                }
            }
            kept.append(source, table, &rows)?;
            start += n;
        }
        // The post-union filter shifts row indices out from under the block
        // layout: this union has no attested identity any more.
        pass.union_layout.clear();
        Ok(kept)
    }

    /// Stage 5 — entity resolution over the union. Three arms, one install: a
    /// whole-stage memo hit (same pass fingerprint, same block list — an
    /// exact compare — so the memoized clustering is byte-identical to a
    /// recompute), a stored record, or the live stage.
    pub(super) fn er(&mut self, pass: &mut Pass) -> Result<()> {
        // An explicitly dirtied clustering (ER rule refined, plan shape
        // changed, a test forcing recompute) must run live — both the
        // whole-stage replay and the carry stand down.
        let reusable = pass.incr_on && !self.working.is_dirty(Artifact::Clusters);
        let memo = self
            .incr
            .er
            .as_ref()
            .filter(|m| reusable && m.pass_fp == pass.pass_fp && m.layout == pass.union_layout)
            .map(|m| m.out.clone());
        if memo.is_some() {
            self.obs.inc("incr.er.reused");
        }
        self.seam(
            pass,
            &ER,
            memo,
            |w, pass| w.contained(pass, Stage::Er, |w, pass| w.er_live(pass, reusable)),
            |w, pass, rec: ErOut, replayed| {
                w.working.mark_clean(Artifact::Clusters);
                if replayed {
                    w.obs.count("er.entities", rec.clusters.len() as u64);
                }
                pass.er = rec;
                Ok(())
            },
        )
    }

    /// The live ER stage, in five spans: block the union on name + key
    /// (`blocks`), compile the rule against it (`compile`), map the ER memo
    /// onto the new layout (`carry`), walk the blocks deciding every pair the
    /// carry does not cover (`decide`), and cluster (`cluster`). No candidate
    /// is written down and no score kept. `reusable` licenses the carry.
    fn er_live(&mut self, pass: &Pass, reusable: bool) -> Result<ErOut> {
        let union_table = pass.union.table();
        let rows = union_table.num_rows();
        let blocks = self.span("blocks", |w| {
            let (name_col, key_col) = w.blocking_columns();
            UnionBlocks::build(union_table, name_col, key_col)
        })?;
        // Mid-stage crash site: after blocking, before any pair is decided.
        // No seam has persisted for this stage yet, so resume replays up to
        // the union and re-runs ER.
        self.crash_fire(CrashSite::MidEr);
        // Compiled once against the union schema (an unknown column errors
        // before any pair is decided) into a dictionary per text/key column.
        let kernel = self.span("compile", |w| ErKernel::compile(union_table, &w.er_cfg))?;
        for (column, values) in kernel.dict_sizes() {
            self.obs
                .count(&format!("er.dict.{column}.values"), values as u64);
        }
        // The carry: candidacy, score and threshold read only a pair's two
        // rows, so a candidate with both rows in unchanged union blocks, in
        // the same order, matches iff it did in the memoized pass. The rest
        // are decided (on a cold pass or after a refined rule, all of them).
        self.obs.begin("carry");
        let memo = self.incr.er.as_ref().filter(|_| reusable);
        let carry = memo.and_then(|m| m.carry(pass.pass_fp, &pass.union_layout, rows));
        self.obs.end();
        // The kernel's pool-sizing policy (cores cap + MIN_PAIRS_PER_WORKER
        // pairs walked per thread) applies on top of the requested width.
        let workers = self.er_workers.unwrap_or_else(par::available_parallelism);
        let decided = self.span("decide", |w| {
            let covered = |i, j| carry.as_ref().is_some_and(|c| c.covers((i, j)));
            let decided = kernel.decide_union(&blocks, workers, covered)?;
            w.record_workers("er", &decided.workers);
            Ok(decided)
        })?;
        self.working.work.er_pairs += decided.candidates as usize;
        self.obs.begin("cluster");
        // Two disjoint lists in (i, j) order (the carried one unless blocks
        // were reordered); the stable sort merges presorted runs in linear
        // time. The result is every candidate at or above the threshold.
        let mut matches = carry.map(|c| c.matches).unwrap_or_default();
        matches.extend(decided.matches);
        matches.sort();
        let clusters = cluster_pairs(rows, matches.iter().copied());
        let mut row_entity = vec![0usize; rows];
        for (e, cluster) in clusters.iter().enumerate() {
            for &r in cluster {
                row_entity[r] = e;
            }
        }
        let out = ErOut {
            clusters,
            row_entity,
        };
        self.obs.end();
        // Candidates the ER memo did not decide, decided live. The benchmark
        // reads the counter under this name.
        let live = decided.candidates - decided.covered;
        self.obs.count("er.cache.misses", live);
        self.obs.count("incr.er.pairs_remapped", decided.covered);
        self.obs.count("er.candidates", decided.candidates);
        self.obs.count("er.decide.from_ids", decided.from_ids);
        self.obs.count("er.decide.text_fields", decided.text_fields);
        self.obs.count("er.match_pairs", matches.len() as u64);
        self.obs.count("er.entities", out.clusters.len() as u64);
        if pass.incr_on {
            self.incr.er = Some(ErMemo {
                pass_fp: pass.pass_fp,
                out: out.clone(),
                layout: pass.union_layout.clone(),
                matches,
            });
        }
        Ok(out)
    }

    /// Stages 6–7 — claims, trust and fusion. Three arms, one install, as in ER.
    pub(super) fn fuse(&mut self, pass: &mut Pass) -> Result<()> {
        let fuse_key = if pass.incr_on { self.fuse_key(pass) } else { 0 };
        // The memo only ever stores passes where no source was quarantined
        // at fuse, so no exclusions apply; the selection is this pass's.
        let memo = self
            .incr
            .fuse
            .as_ref()
            .filter(|m| pass.incr_on && m.key == fuse_key)
            .map(|m| FuseOut {
                selected: pass.selected.clone(),
                ..m.out.clone()
            });
        if memo.is_some() {
            self.obs.inc("incr.fuse.reused");
        }
        self.seam(
            pass,
            &FUSE,
            memo,
            |w, pass| w.fuse_live(pass, fuse_key),
            |w, pass, rec: FuseOut, _| {
                pass.selected = rec.selected;
                // A replayed stage rebuilds the claims from the (already
                // restored) union and clustering — cheap, and it keeps the
                // heavy claim set out of the wire format. Sources
                // quarantined at fuse are excluded exactly as the live run
                // excluded them; their trust/breaker discounts replayed
                // from the snapshot.
                let claims = match pass.claims.take() {
                    Some(claims) => claims,
                    None => w.claim_set(pass, &rec.fuse_removed),
                };
                let er = std::mem::take(&mut pass.er);
                w.cache = Some(WrangleCache {
                    union: std::mem::replace(&mut pass.union, Union::empty(w.target.clone())),
                    row_entity: er.row_entity,
                    entities: er.clusters.len(),
                    claims,
                    source_ctx: SourceContext {
                        trust: rec.trust,
                        age: rec.age,
                    },
                    fused: rec.fused.into_iter().map(|(e, a, f)| ((e, a), f)).collect(),
                    selected: pass.selected.clone(),
                });
                Ok(())
            },
        )
    }

    /// The fuse content key covers every input that can ripple into a fused
    /// value beyond the pass fingerprint (which fixes what fusion reads of
    /// the program, the live-column mask): the union by its block list, the
    /// clustering, every source's belief trust (feedback moves it) and age
    /// (fusion decays stale claims), and the master catalog (anchors steer
    /// truthfinder). A 1-source data update legitimately misses here — its
    /// claims shift everyone's estimated trust; pure replays hit.
    fn fuse_key(&self, pass: &Pass) -> u64 {
        let mut h = wire::Hasher64::new();
        h.write_u64(pass.pass_fp)
            .write_u64(pass.union_layout.len() as u64);
        // A block's key covers its source and fixes its rows.
        for &(_, key, _) in &pass.union_layout {
            h.write_u64(key);
        }
        for &e in &pass.er.row_entity {
            h.write_u64(e as u64);
        }
        for s in &self.states {
            h.write_u64(s.trust.probability().to_bits());
        }
        for s in self.registry.iter() {
            h.write_u64(self.now.saturating_sub(s.meta.last_updated));
        }
        h.write_u64(pass.master_fp);
        h.write_u64(self.registry.len() as u64);
        h.finish()
    }

    fn fuse_live(&mut self, pass: &mut Pass, fuse_key: u64) -> Result<FuseOut> {
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
        let claims = self.claim_set(pass, &fuse_removed);
        claims.index(); // grouped here, so that this span keeps covering it
        self.obs.end();
        // Master-data anchors for the attributes the catalog knows.
        self.obs.begin("anchors");
        let anchors = self.master_anchors(&pass.er.clusters, pass.union.table());
        self.obs.end();
        self.obs.begin("truthfinder");
        let tf = truthfinder(&claims, &TruthFinderConfig::default(), &anchors);
        self.obs.end();
        self.obs
            .count("fuse.truthfinder.iterations", tf.iterations as u64);
        self.obs
            .count("fuse.classes", claims.index().num_classes() as u64);
        // Blend data-driven trust with feedback-driven belief trust.
        let trust: Vec<f64> = (0..self.registry.len())
            .map(|i| 0.5 * tf.trust[i] + 0.5 * self.states[i].trust.probability())
            .collect();
        let age: Vec<u64> = self
            .registry
            .iter()
            .map(|s| self.now.saturating_sub(s.meta.last_updated))
            .collect();
        let source_ctx = SourceContext { trust, age };
        self.obs.count("fuse.claims", claims.claims().len() as u64);
        self.obs.count("fuse.anchors", anchors.len() as u64);

        // Fuse every slot (honouring value-level feedback constraints).
        // Columns the projection never reads are dead at fuse: the
        // `skip-dead-fusion` rewrites (each citing its `DeadAtFuse` fact)
        // license skipping their fusion work entirely. Their claims stayed
        // in the claim set above, so trust estimation — and therefore every
        // *live* fused value — is unchanged.
        let live_mask: Option<Vec<bool>> = self
            .last_program
            .as_ref()
            .and_then(|p| p.live_mask().map(|m| m.to_vec()));
        let mut fused: Vec<(usize, usize, FusedValue)> = Vec::new();
        let mut slots_skipped = 0u64;
        // Partition the slots: dead columns are skipped outright, slots
        // pinned by a confirmation or constrained by vetoes take the
        // feedback-aware serial path, and the plain majority go through the
        // precompiled FuseKernel over the blocked worker pool — by slot
        // number, which this walk knows and the kernel would otherwise
        // search for again, key by key.
        let slots = claims.index().slots();
        let mut special_slots: Vec<(usize, usize)> = Vec::new();
        let mut plain_slots: Vec<usize> = Vec::new();
        for (no, &(e, a)) in slots.iter().enumerate() {
            if live_mask.as_ref().is_some_and(|m| !m[a]) {
                slots_skipped += 1;
            } else if self.confirmations.contains_key(&(e, a)) || self.vetoes.contains_key(&(e, a))
            {
                special_slots.push((e, a));
            } else {
                plain_slots.push(no);
            }
        }
        // Per-slot isolation: a fusion strategy that panics on one
        // pathological slot costs that slot (delivered as Null), not the
        // pass — unless the policy says a caught panic is fatal.
        let contained = !pass.policy.is_off();
        let worker_stats = self.span("kernel", |w| {
            let mut slot_done = |pass: &mut Pass,
                                 (e, a): (usize, usize),
                                 res: std::result::Result<Option<FusedValue>, String>|
             -> Result<()> {
                match res {
                    Ok(Some(f)) => fused.push((e, a, f)),
                    Ok(None) => {}
                    Err(msg) => {
                        pass.creport.caught_panic(Stage::Fuse);
                        if pass.policy.mode != ContainMode::Contain {
                            return Err(TableError::Unavailable(format!(
                                "fuse slot ({e},{a}) panicked: {msg}"
                            )));
                        }
                    }
                }
                Ok(())
            };
            // Per-source weights/decays are compiled once per pass and serve
            // both kinds of slot.
            let fuse_kernel = FuseKernel::compile(&claims, pass.plan.fusion, &source_ctx);
            for &(e, a) in &special_slots {
                let res = isolate(contained, || w.fuse_slot(&fuse_kernel, e, a));
                slot_done(pass, (e, a), res)?;
            }
            // Plain slots fuse in contiguous blocked chunks — bit-identical
            // to the serial fuse_attribute path for any worker count. Worker
            // panics surface per slot (catch inside the chunk) so one
            // pathological slot cannot take down its chunk; a panic escaping
            // the pool itself is the structured-error backstop, as in the ER
            // kernel.
            let requested = w.fuse_workers.unwrap_or_else(par::available_parallelism);
            let workers =
                par::effective_workers(requested, plain_slots.len(), MIN_SLOTS_PER_WORKER);
            let (chunks, worker_stats) = par::run_blocked(&plain_slots, workers, |_, chunk| {
                chunk
                    .iter()
                    .map(|&no| isolate(contained, || fuse_kernel.fuse_slot_no(no)))
                    .collect::<Vec<_>>()
            })
            .map_err(|msg| TableError::Unavailable(format!("fuse worker panicked: {msg}")))?;
            for (&no, res) in plain_slots.iter().zip(chunks.into_iter().flatten()) {
                slot_done(pass, slots[no], res)?;
            }
            Ok(worker_stats)
        })?;
        let slots_fused = special_slots.len() + plain_slots.len();
        self.working.work.slots_fused += slots_fused;
        self.record_workers("fuse", &worker_stats);
        self.obs.count("fuse.slots", slots_fused as u64);
        self.obs.count("fuse.slots_skipped", slots_skipped);
        fused.sort_unstable_by_key(|&(e, a, _)| (e, a));
        let out = FuseOut {
            selected: std::mem::take(&mut pass.selected),
            fuse_removed,
            trust: source_ctx.trust,
            age: source_ctx.age,
            fused,
        };
        // Memoize the stage for the next pass — only a pass with no
        // fuse-stage quarantine (chaos is off whenever `incr_on` holds, and
        // chaos rolls are the only quarantine source here, but be explicit).
        if pass.incr_on && out.fuse_removed.is_empty() {
            self.incr.fuse = Some(FuseMemo {
                key: fuse_key,
                out: out.clone(),
            });
        }
        pass.claims = Some(claims);
        Ok(out)
    }
}
