//! The seam protocol: what happens at a stage boundary of a wrangle pass.
//!
//! A pass is a fixed sequence of stages over one [`Pass`] (the state that
//! lives exactly as long as the pass). Seven of the stages end in a *seam*:
//! a boundary whose output is a [`SeamRecord`], persisted under a chained
//! content key when a checkpoint store is attached and replayed from it on
//! resume. [`Wrangler::seam`] is the only place that knows what a seam does,
//! in order:
//!
//! 1. open the stage span (`<name>`, or `<name>_replay` for a memo hit);
//! 2. derive the key — the select key for the first seam, afterwards
//!    `seam_key(name, pass_fp, chain, extra)`; 0 without a store;
//! 3. obtain the record: the whole-stage memo the caller found, else a
//!    stored record (decode the stage payload *first*, restore the session
//!    snapshot only if it decodes and fits this session's fleet shape and
//!    target schema), else the stage's live function;
//! 4. persist it (snapshot + encoded record) unless it came from the store
//!    — only when a store is attached, so a store-less pass encodes nothing;
//! 5. `install` it — the one place a stage's output enters the session,
//!    whichever of the three arms produced it;
//! 6. close the span on every exit (`Ok`, `Err`, `?`);
//! 7. fire the seam's crash site and advance the key chain.
//!
//! Adding a seam is one [`Seam`] constant, one record type, one live
//! function and one install function. `scripts/lint.sh` rule 7 keeps the
//! protocol's primitives out of every other module.

use std::collections::BTreeMap;

use wrangler_ckpt::{ContentKey, CrashSite};
use wrangler_fusion::ClaimSet;
use wrangler_mapping::Mapping;
use wrangler_sources::SourceId;
use wrangler_table::{wire, Table, TableError, Value};
use wrangler_uncertainty::{Evidence, EvidenceKind};

use super::Wrangler;
use crate::ckpt_io::{self, ErOut, SeamRecord, SessionState};
use crate::contain::{isolate, ContainPolicy, ContainmentReport, Stage};
use crate::planner::Plan;
use crate::union::Union;
use crate::working::Artifact;

type Result<T> = wrangler_table::Result<T>;

/// Everything one wrangle pass carries from stage to stage.
pub(super) struct Pass {
    pub(super) plan: Plan,
    pub(super) policy: ContainPolicy,
    /// What containment did so far; survives a failed pass (the caller
    /// emits it either way).
    pub(super) creport: ContainmentReport,
    /// The incremental engine takes part in this pass. It stands down for
    /// chaos passes wholesale: fault rolls are stateful (each guarded region
    /// advances the chaos RNG), so skipping a memoized region would change
    /// which sources later rolls hit. Cleared by a union without a layout.
    pub(super) incr_on: bool,
    /// Pass fingerprint (0 when neither a store nor the engine needs it).
    pub(super) pass_fp: u64,
    /// The master catalog's content hash and key column, hashed once for
    /// the first seam's key and the fuse key (0 likewise, or with no catalog).
    pub(super) master_fp: u64,
    /// Compiled-program fingerprint for the seam keys (0 without a store).
    pub(super) prog_fp: u64,
    /// Key of the last seam passed; `None` before the first.
    chain: Option<u64>,
    pub(super) selected: Vec<SourceId>,
    /// Degraded deliveries of this pass, by source index.
    pub(super) degraded_tables: BTreeMap<usize, Table>,
    /// Scan tallies accumulated by map_apply and union (telemetry on only).
    pub(super) scan_filter_cells: u64,
    pub(super) scan_bytes: u64,
    /// The union: the table ER reads plus its source runs. Installed by the
    /// union seam, moved into the session cache by the fuse seam.
    pub(super) union: Union,
    /// Union block layout of this pass, in union order: the union's
    /// identity for the ER and fuse memos, and the ER carry's coordinate
    /// system. Empty when nothing attests the blocks: the engine is off, the
    /// union replayed from a checkpoint, or `OptMode::Naive` re-filtered it.
    pub(super) union_layout: Vec<crate::incr::Block>,
    pub(super) er: ErOut,
    /// The claim set, when the live fuse stage already built it (a replayed
    /// fuse rebuilds it at install).
    pub(super) claims: Option<ClaimSet>,
}

/// One checkpoint seam: its name (span, counter prefix and key label) and
/// the crash site that follows it.
pub(super) struct Seam {
    name: &'static str,
    site: CrashSite,
    /// The key also covers the compiled program's fingerprint.
    keyed_by_program: bool,
}

impl Seam {
    const fn new(name: &'static str, site: CrashSite, keyed_by_program: bool) -> Seam {
        Seam {
            name,
            site,
            keyed_by_program,
        }
    }
}

pub(super) const SELECT: Seam = Seam::new("select", CrashSite::AfterSelect, false);
pub(super) const ACQUIRE: Seam = Seam::new("acquire", CrashSite::AfterAcquire, false);
pub(super) const MAP_GENERATE: Seam = Seam::new("map_generate", CrashSite::AfterMapGenerate, false);
pub(super) const MAP_APPLY: Seam = Seam::new("map_apply", CrashSite::AfterMapApply, true);
pub(super) const UNION: Seam = Seam::new("union", CrashSite::AfterUnion, true);
pub(super) const ER: Seam = Seam::new("er", CrashSite::AfterEr, true);
pub(super) const FUSE: Seam = Seam::new("fuse", CrashSite::AfterFuse, true);

impl Wrangler {
    /// The state a pass starts from.
    pub(super) fn begin_pass(&self) -> Pass {
        let plan = self.plan();
        let incr_on = self.incr.enabled() && self.contain.chaos.is_none();
        let keyed = self.ckpt.is_some() || incr_on;
        let pass_fp = if keyed { self.pass_fingerprint(&plan) } else { 0 };
        let master_fp = match self.data_ctx.master("product") {
            Some(m) if keyed => wire::Hasher64::new()
                .write_u64(wire::table_hash(&m.table))
                .write_str(&m.key_column)
                .finish(),
            _ => 0,
        };
        Pass {
            plan,
            policy: self.contain.clone(),
            creport: ContainmentReport::default(),
            incr_on,
            pass_fp,
            master_fp,
            prog_fp: 0,
            chain: None,
            selected: Vec::new(),
            degraded_tables: BTreeMap::new(),
            scan_filter_cells: 0,
            scan_bytes: 0,
            union: Union::empty(self.target.clone()),
            union_layout: Vec::new(),
            er: ErOut::default(),
            claims: None,
        }
    }

    /// Run `f` inside span `name`, closing it on every return.
    pub(super) fn span<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        self.obs.begin(name);
        let out = f(self);
        self.obs.end();
        out
    }

    /// Cross one seam (see the module docs for the protocol). `memo` is a
    /// whole-stage memo hit the caller already validated; `live` computes
    /// the record; `install` moves it into the session and the pass, and is
    /// told whether the record was replayed from the store.
    pub(super) fn seam<R: SeamRecord>(
        &mut self,
        pass: &mut Pass,
        seam: &Seam,
        memo: Option<R>,
        live: impl FnOnce(&mut Self, &mut Pass) -> Result<R>,
        install: impl FnOnce(&mut Self, &mut Pass, R, bool) -> Result<()>,
    ) -> Result<()> {
        let key = match (&self.ckpt, pass.chain) {
            (None, _) => 0,
            (Some(_), None) => self.seam_key_select(pass.pass_fp, pass.master_fp),
            (Some(_), Some(chain)) => {
                let extra = if seam.keyed_by_program {
                    pass.prog_fp
                } else {
                    0
                };
                Self::seam_key(seam.name, pass.pass_fp, chain, extra)
            }
        };
        // A memo hit opens no `<name>` span — a near-zero one would deflate
        // the stage's share in `stage_shares` — the replay's own cost gets
        // its own honestly-named span.
        let span = match memo {
            Some(_) => format!("{}_replay", seam.name),
            None => seam.name.to_string(),
        };
        self.span(&span, |w| {
            let (record, replayed) = match memo {
                Some(record) => (record, false),
                None => match w.ckpt_load(seam.name, key, &mut pass.creport) {
                    Some(record) => (record, true),
                    None => (live(w, pass)?, false),
                },
            };
            if !replayed {
                w.ckpt_save(seam.name, key, &pass.creport, &record);
            }
            install(w, pass, record, replayed)
        })?;
        self.crash_fire(seam.site);
        pass.chain = Some(key);
        Ok(())
    }

    pub(super) fn crash_fire(&self, site: CrashSite) {
        if let Some(p) = &self.crash {
            p.fire(site);
        }
    }

    /// Snapshot everything this pass has mutated so far (see
    /// [`SessionState`]); stored inside every seam record.
    fn snapshot_state(&self, creport: &ContainmentReport) -> SessionState {
        SessionState {
            now: self.now,
            access_spent: self.access_spent,
            trust: self.states.iter().map(|s| s.trust.clone()).collect(),
            relevance: self.states.iter().map(|s| s.relevance).collect(),
            acq_clock: self.acquisition.clock(),
            acq_total_attempts: self.acquisition.total_attempts,
            acq_total_backoff: self.acquisition.total_backoff_ticks,
            breakers: self.acquisition.breakers().to_vec(),
            work: self.working.work,
            creport: creport.clone(),
            last_acquisition: self.last_acquisition.clone(),
        }
    }

    /// Apply a seam snapshot: the session (and the in-progress containment
    /// report) now look exactly as they did when the record was written, so
    /// side effects (trust discounts, breaker trips, quarantines) are never
    /// re-applied on replay.
    fn restore_state(&mut self, st: SessionState, creport: &mut ContainmentReport) {
        self.now = st.now;
        self.access_spent = st.access_spent;
        for (i, b) in st.trust.into_iter().enumerate() {
            if let Some(s) = self.states.get_mut(i) {
                s.trust = b;
            }
        }
        for (i, r) in st.relevance.into_iter().enumerate() {
            if let Some(s) = self.states.get_mut(i) {
                s.relevance = r;
            }
        }
        self.acquisition.total_attempts = st.acq_total_attempts;
        self.acquisition.total_backoff_ticks = st.acq_total_backoff;
        self.acquisition.restore_state(st.acq_clock, st.breakers);
        self.working.work = st.work;
        *creport = st.creport;
        self.last_acquisition = st.last_acquisition;
    }

    /// Fingerprint of everything that shapes this pass besides the source
    /// payloads and runtime state: target schema + sample, user context,
    /// derived plan, ER/match/containment/acquisition configuration, filter
    /// and projection, and the value-feedback constraints (in sorted key
    /// order — their maps are lookup-only). Worker-count knobs are
    /// excluded: outputs are byte-identical for any pool width. Of the data
    /// context only the master catalog is keyed, and beside this fingerprint
    /// ([`Pass::master_fp`]; see [`Self::with_checkpoint_store`]).
    fn pass_fingerprint(&self, plan: &Plan) -> u64 {
        let mut h = wire::Hasher64::new();
        let mut e = wire::Enc::new();
        wire::encode_schema(&mut e, &self.target);
        h.write(&e.into_bytes());
        h.write_u64(self.target_sample_hash);
        h.write_str(&format!("{:?}", self.user));
        h.write_str(&format!("{plan:?}"));
        h.write_str(&format!("{:?}", self.er_cfg));
        h.write_str(&format!("{:?}", self.match_cfg));
        h.write_str(&format!("{:?}", self.contain));
        h.write_str(&format!("{:?}", self.row_filter));
        h.write_str(&format!("{:?}", self.output_columns));
        h.write_str(&format!("{:?}", self.opt_mode));
        h.write_str(&format!("{:?}", self.lint_gate));
        h.write_str(&format!("{:?}", self.routing));
        h.write_str(&format!("{:?}", self.acquisition.mode));
        h.write_str(&format!("{:?}", self.acquisition.policy));
        h.write_str(&format!("{:?}", self.acquisition.breaker_cfg));
        for i in 0..self.registry.len() {
            h.write_str(&format!(
                "{:?}",
                self.registry.fault_profile(SourceId(i as u32))
            ));
        }
        let mut vetoes: Vec<_> = self.vetoes.iter().collect();
        vetoes.sort_by_key(|(k, _)| **k);
        for ((ent, attr), vals) in vetoes {
            h.write_u64(*ent as u64)
                .write_u64(*attr as u64)
                .write_str(&format!("{vals:?}"));
        }
        let mut confirms: Vec<_> = self.confirmations.iter().collect();
        confirms.sort_by_key(|(k, _)| **k);
        for ((ent, attr), v) in confirms {
            h.write_u64(*ent as u64)
                .write_u64(*attr as u64)
                .write_str(&format!("{v:?}"));
        }
        h.finish()
    }

    /// The first seam's key: the pass fingerprint plus everything the
    /// select stage reads — the session tick, every source's payload hash
    /// and pre-pass trust, and the acquisition engine's full state (clock,
    /// counters, breaker fleet) — and the master catalog, which the chain
    /// carries to the fuse seam that reads it. Two passes with any divergent
    /// history key differently, so a checkpoint can never replay across
    /// histories.
    fn seam_key_select(&self, pass_fp: u64, master_fp: u64) -> u64 {
        let mut k = ContentKey::stage(SELECT.name, pass_fp)
            .labelled("now", self.now)
            .labelled("master", master_fp);
        for i in 0..self.registry.len() {
            let id = SourceId(i as u32);
            k = k
                .input(self.registry.payload_hash(id).unwrap_or(0))
                .input(self.states[i].trust.to_parts().0.to_bits());
        }
        let acq = wire::hash64(format!("{:?}", self.acquisition).as_bytes());
        k.labelled("acq", acq).finish()
    }

    /// A downstream seam's key: chained through the previous seam's key, so
    /// a valid record implies every upstream seam matched — replaying the
    /// deepest valid prefix falls out of re-running the same sequence.
    fn seam_key(stage: &str, pass_fp: u64, chain: u64, extra: u64) -> u64 {
        ContentKey::stage(stage, pass_fp)
            .labelled("chain", chain)
            .input(extra)
            .finish()
    }

    /// Try to replay a seam. The stage payload is decoded *before* anything
    /// is restored: only a record that is valid end to end touches the
    /// session. A miss, a torn record (checksum/framing failure — counted,
    /// unlinked, never loaded), a record from a different fleet shape, one
    /// that does not fit the target schema ([`SeamRecord::fits`]) or an
    /// undecodable payload returns `None` and the stage computes live.
    fn ckpt_load<R: SeamRecord>(
        &mut self,
        stage: &str,
        key: u64,
        creport: &mut ContainmentReport,
    ) -> Option<R> {
        let (raw, torn) = {
            let store = self.ckpt.as_ref()?;
            let before = store.stats().torn_detected;
            let raw = store.get(key);
            (raw, store.stats().torn_detected - before)
        };
        if torn > 0 {
            self.obs.count(&format!("ckpt.{stage}.torn_detected"), torn);
        }
        let decoded = raw.and_then(|raw| {
            let (state, out) = ckpt_io::decode_record(&raw).ok()?;
            let record = R::decode(&out).ok()?;
            (state.trust.len() == self.states.len() && record.fits(&self.target))
                .then_some((state, record))
        });
        match decoded {
            Some((state, record)) => {
                self.restore_state(state, creport);
                self.obs.inc(&format!("ckpt.{stage}.hits"));
                Some(record)
            }
            None => {
                self.obs.inc(&format!("ckpt.{stage}.misses"));
                None
            }
        }
    }

    /// Persist a seam record (session snapshot + stage output), when a
    /// store is attached. Atomic temp-file + rename inside the store; a
    /// failed write degrades to "no checkpoint at this seam", never to a
    /// torn record.
    fn ckpt_save(
        &mut self,
        stage: &str,
        key: u64,
        creport: &ContainmentReport,
        record: &impl SeamRecord,
    ) {
        let Some(store) = self.ckpt.as_ref() else {
            return;
        };
        let rec = ckpt_io::encode_record(&self.snapshot_state(creport), &record.encode());
        if store.put(key, &rec).is_ok() {
            self.obs
                .count(&format!("ckpt.{stage}.bytes_written"), rec.len() as u64);
        } else {
            self.obs.inc(&format!("ckpt.{stage}.write_failed"));
        }
    }

    // --- Helpers every stage shares ----------------------------------------

    /// The payload source `i` contributes to this pass: its degraded
    /// delivery when there was one, the registry content otherwise.
    pub(super) fn payload<'a>(
        &'a self,
        degraded: &'a BTreeMap<usize, Table>,
        i: usize,
    ) -> Result<&'a Table> {
        match degraded.get(&i) {
            Some(t) => Ok(t),
            None => Ok(&self.source(SourceId(i as u32))?.table),
        }
    }

    /// Source `id`'s current mapping; a structured error if none was
    /// generated or installed.
    pub(super) fn mapping_for(&self, id: SourceId) -> Result<&Mapping> {
        self.mapping_of(id)
            .ok_or_else(|| TableError::Invalid(format!("{id}: no mapping available")))
    }

    /// Drop the sources quarantined at `stage` from the selection and
    /// discount each; a pass left without survivors is a structured error.
    pub(super) fn eject(&mut self, pass: &mut Pass, stage: Stage, removed: &[usize]) -> Result<()> {
        if removed.is_empty() {
            return Ok(());
        }
        pass.selected
            .retain(|id| !removed.contains(&(id.0 as usize)));
        for &i in removed {
            self.discount_quarantined(i);
        }
        if pass.selected.is_empty() {
            return Err(TableError::Unavailable(format!(
                "all sources quarantined at {stage}; no survivors"
            )));
        }
        Ok(())
    }

    /// Mark source `i` quarantined mid-pipeline: discount its trust (same
    /// soft evidence as an acquisition skip), trip its breaker so the next
    /// acquisition pass sees it unavailable until the cooldown probes it,
    /// and invalidate its cached artifacts so a later (possibly clean)
    /// delivery is remapped from scratch.
    fn discount_quarantined(&mut self, i: usize) {
        if let Some(state) = self.states.get_mut(i) {
            state
                .trust
                .update(&Evidence::vote(EvidenceKind::Component, false, 0.8).discounted(0.9));
        }
        self.acquisition.record_pipeline_failure(i);
        self.working.invalidate(Artifact::Mapping(i));
        self.working.invalidate(Artifact::MappedTable(i));
    }

    /// The claim set of this pass's union and clustering, minus the sources
    /// in `excluded` (quarantined at fuse), with all slot dirtiness cleared.
    pub(super) fn claim_set(&mut self, pass: &Pass, excluded: &[usize]) -> ClaimSet {
        let mut claims = ClaimSet::new(self.registry.len());
        claims.set_rel_tol(pass.plan.fusion_tolerance);
        let columns: Vec<&[Value]> = pass.union.table().columns().collect();
        for (r, src) in pass.union.sources().enumerate() {
            if excluded.contains(&src) {
                continue;
            }
            for (a, column) in columns.iter().enumerate() {
                claims.add(pass.er.row_entity[r], a, column[r].clone(), src);
            }
        }
        self.working.clean_slots();
        claims
    }

    /// Run a stage body that has no per-source partition to quarantine (ER,
    /// assembly — rows from every source interleave) under panic isolation:
    /// a panic is tallied and becomes a structured error instead of
    /// unwinding through the session.
    pub(super) fn contained<T>(
        &mut self,
        pass: &mut Pass,
        stage: Stage,
        f: impl FnOnce(&mut Self, &mut Pass) -> Result<T>,
    ) -> Result<T> {
        let on = !pass.policy.is_off();
        match isolate(on, || f(self, pass)) {
            Ok(out) => out,
            Err(msg) => {
                pass.creport.caught_panic(stage);
                Err(TableError::Unavailable(format!(
                    "{stage} stage panicked: {msg}"
                )))
            }
        }
    }
}
