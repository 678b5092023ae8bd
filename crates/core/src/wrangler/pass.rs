//! The seam protocol: what happens at a stage boundary of a wrangle pass.
//!
//! A pass is a fixed sequence of stages over one [`Pass`] (the state that
//! lives exactly as long as the pass). Five of the stages end in a *seam*
//! (select, acquire, map_generate, union, er): a boundary whose output is a
//! [`SeamRecord`], persisted under a chained content key when a checkpoint
//! store is attached and replayed from it on resume. The other stages
//! (plan, preflight, map_apply, fuse, assemble) run live on every pass,
//! resumed or not: a seam is kept only while what the resumes that read
//! its record save outweighs what writing it costs every checkpointed pass
//! (DESIGN §15). [`Wrangler::seam`] is the only place that knows what a
//! seam does, in order:
//!
//! 1. open the stage span `<name>`;
//! 2. derive the key — for the first seam the select key (the pass
//!    fingerprint plus the session's own inputs: tick, data context, and
//!    per source its payload, trust and held mapping), afterwards
//!    `seam_key(name, pass_fp, chain)`; 0 without a store. The
//!    compiled program is in no key: it is lowered from what the chain
//!    already covers;
//! 3. obtain the record: a stored record (decode the stage payload *first*,
//!    restore the session snapshot only if it decodes, fits this session's
//!    fleet shape and passes [`SeamRecord::fits`]), else the stage's live
//!    function;
//! 4. persist it (snapshot + encoded record) unless it came from the store
//!    — only when a store is attached, so a store-less pass encodes nothing;
//! 5. `install` it — the one place a stage's output enters the session,
//!    whichever of the two arms produced it;
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
use crate::ckpt_io::{self, ErOut, Fit, SeamRecord, SessionState};
use crate::contain::{isolate, ContainPolicy, ContainmentReport, Stage};
use crate::planner::Plan;
use crate::union::Union;

type Result<T> = wrangler_table::Result<T>;

/// Everything one wrangle pass carries from stage to stage. Of the seam keys
/// it holds only the input taken once per pass (`pass_fp`) and the chain;
/// the first seam reads the rest off the session.
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
    /// Pass fingerprint: keys the seams, the incremental memos and the
    /// cache `rewrangle` re-fuses.
    pub(super) pass_fp: u64,
    /// Key of the last seam passed; `None` before the first.
    chain: Option<u64>,
    pub(super) selected: Vec<SourceId>,
    /// Degraded deliveries of this pass, by source index.
    pub(super) degraded_tables: BTreeMap<usize, Table>,
    /// Scan tallies accumulated by map_apply and union (telemetry on only).
    pub(super) scan_filter_cells: u64,
    pub(super) scan_bytes: u64,
    /// The union: the table ER reads plus its source runs. Installed by the
    /// union seam, moved into the session cache by the fuse stage.
    pub(super) union: Union,
    /// Union block layout of this pass, in union order: the union's
    /// identity, and the ER carry's coordinate system. Empty when nothing
    /// attests the blocks: reuse is off, or the union replayed from a
    /// checkpoint (kept rows, no held table named).
    pub(super) union_layout: Vec<crate::incr::Block>,
    pub(super) er: ErOut,
    /// The entity of each union row, derived from `er` at its install.
    pub(super) row_entity: Vec<usize>,
}

/// One checkpoint seam: its name (span, counter prefix and key label) and
/// the crash site that follows it.
pub(super) struct Seam {
    name: &'static str,
    site: CrashSite,
}

impl Seam {
    const fn new(name: &'static str, site: CrashSite) -> Seam {
        Seam { name, site }
    }
}

pub(super) const SELECT: Seam = Seam::new("select", CrashSite::AfterSelect);
pub(super) const ACQUIRE: Seam = Seam::new("acquire", CrashSite::AfterAcquire);
pub(super) const MAP_GENERATE: Seam = Seam::new("map_generate", CrashSite::AfterMapGenerate);
pub(super) const UNION: Seam = Seam::new("union", CrashSite::AfterUnion);
pub(super) const ER: Seam = Seam::new("er", CrashSite::AfterEr);

impl Pass {
    /// What a claim set built in this pass, without the sources in
    /// `fuse_removed`, is kept under for the next pass to take: `None`
    /// unless incremental reuse takes part and a layout attests the union.
    pub(super) fn claims_key(&self, fuse_removed: &[usize]) -> Option<super::ClaimsKey> {
        let layout = self.union_layout.clone();
        let key = (self.pass_fp, layout, fuse_removed.to_vec());
        (self.incr_on && !self.union_layout.is_empty()).then_some(key)
    }
}

impl Wrangler {
    /// The state a pass starts from.
    pub(super) fn begin_pass(&self) -> Pass {
        let plan = self.plan();
        let incr_on = self.incr_enabled && self.contain.chaos.is_none();
        let pass_fp = self.pass_fingerprint(&plan);
        Pass {
            plan,
            policy: self.contain.clone(),
            creport: ContainmentReport::default(),
            incr_on,
            pass_fp,
            chain: None,
            selected: Vec::new(),
            degraded_tables: BTreeMap::new(),
            scan_filter_cells: 0,
            scan_bytes: 0,
            union: Union::empty(self.target.clone()),
            union_layout: Vec::new(),
            er: ErOut::default(),
            row_entity: Vec::new(),
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

    /// Cross one seam (see the module docs for the protocol). `live`
    /// computes the record when the store has none; `install` moves it into
    /// the session and the pass, whichever arm produced it.
    pub(super) fn seam<R: SeamRecord>(
        &mut self,
        pass: &mut Pass,
        seam: &Seam,
        live: impl FnOnce(&mut Self, &mut Pass) -> Result<R>,
        install: impl FnOnce(&mut Self, &mut Pass, R) -> Result<()>,
    ) -> Result<()> {
        let key = match (&self.ckpt, pass.chain) {
            (None, _) => 0,
            (Some(_), None) => self.seam_key_select(pass.pass_fp),
            (Some(_), Some(chain)) => Self::seam_key(seam.name, pass.pass_fp, chain),
        };
        self.span(seam.name, |w| {
            let record = match w.ckpt_load(seam.name, key, pass) {
                Some(record) => record,
                None => {
                    let record = live(w, pass)?;
                    w.ckpt_save(seam.name, key, &pass.creport, &record);
                    record
                }
            };
            install(w, pass, record)
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
            acquisition: self.acquisition.state().clone(),
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
        self.acquisition.restore(st.acquisition);
        self.working.work = st.work;
        *creport = st.creport;
        self.last_acquisition = st.last_acquisition;
    }

    /// Fingerprint of everything that shapes this pass besides the source
    /// payloads and runtime state: target schema + sample, user context,
    /// derived plan, ER/match/containment/acquisition configuration, filter
    /// and projection. Value-level feedback is excluded: only fuse reads
    /// it, and fuse keeps no record and no memo, so a veto leaves every
    /// memo and seam valid. The data context and
    /// the held mappings are keyed beside it, by the first seam's key
    /// ([`Self::seam_key_select`]).
    pub(super) fn pass_fingerprint(&self, plan: &Plan) -> u64 {
        let mut h = wire::Hasher64::new();
        h.write(&wire::to_bytes(&self.target));
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
        h.finish()
    }

    /// The first seam's key: the pass fingerprint plus every input of the
    /// pass that no configuration covers, for the chain to carry to the
    /// seams that read it:
    /// - the session tick;
    /// - the master catalog ([`MasterData::fingerprint`]), which select and
    ///   fuse read, and the ontology ([`Ontology::fingerprint`]), which
    ///   map_generate reads;
    /// - per source, its payload hash, its pre-pass trust and the mapping it
    ///   holds (the hash of its wire encoding; 0 when it holds none), which
    ///   map_generate keeps instead of generating one;
    /// - the acquisition engine's state (clock, lifetime totals, breaker
    ///   fleet, in the encoding the session snapshot stores; mode, retry
    ///   policy and breaker config are in the pass fingerprint).
    ///
    /// The compiled program is not keyed: it is lowered from these inputs,
    /// the upstream seams' records and the pass fingerprint's
    /// configuration. Two passes with any divergent history key
    /// differently, so a checkpoint can never replay across histories.
    ///
    /// [`MasterData::fingerprint`]: wrangler_context::reference::MasterData::fingerprint
    /// [`Ontology::fingerprint`]: wrangler_context::Ontology::fingerprint
    fn seam_key_select(&self, pass_fp: u64) -> u64 {
        let master = self.data_ctx.master("product").map_or(0, |m| m.fingerprint());
        let mut k = ContentKey::stage(SELECT.name, pass_fp)
            .labelled("now", self.now)
            .labelled("master", master)
            .labelled("ontology", self.data_ctx.ontology.fingerprint());
        for (i, state) in self.states.iter().enumerate() {
            let mapping = state
                .mapping
                .as_ref()
                .map_or(0, |m| wire::hash64(&wire::to_bytes(m)));
            k = k
                .input(self.registry.payload_hash(SourceId(i as u32)).unwrap_or(0))
                .input(state.trust.log_odds().to_bits())
                .input(mapping);
        }
        let engine = wire::to_bytes(self.acquisition.state());
        k.labelled("acq", wire::hash64(&engine)).finish()
    }

    /// A downstream seam's key: chained through the previous seam's key, so
    /// a valid record implies every upstream seam matched — replaying the
    /// deepest valid prefix falls out of re-running the same sequence.
    fn seam_key(stage: &str, pass_fp: u64, chain: u64) -> u64 {
        ContentKey::stage(stage, pass_fp).labelled("chain", chain).finish()
    }

    /// Try to replay a seam. The stage payload is decoded *before* anything
    /// is restored: only a record that is valid end to end touches the
    /// session. A miss, a torn record (checksum/framing failure — counted,
    /// unlinked, never loaded), a record from a different fleet shape, one
    /// that does not fit the session ([`SeamRecord::fits`]) or an
    /// undecodable payload returns `None` and the stage computes live.
    fn ckpt_load<R: SeamRecord>(&mut self, stage: &str, key: u64, pass: &mut Pass) -> Option<R> {
        let store = self.ckpt.as_ref()?;
        self.obs.begin("ckpt_load");
        let before = store.stats().torn_detected;
        let raw = store.get(key);
        let torn = store.stats().torn_detected - before;
        if torn > 0 {
            self.obs.count(&format!("ckpt.{stage}.torn_detected"), torn);
        }
        let decoded = raw.and_then(|raw| {
            let (state, out) = ckpt_io::decode_record(&raw).ok()?;
            let record: R = wire::from_bytes(&out).ok()?;
            let mapped = self.states.iter().map(|s| s.mapped.as_ref().map(|m| m.table()));
            let union_rows = pass.union.table().num_rows();
            let fit = Fit { mapped: mapped.collect(), union_rows };
            (state.trust.len() == self.states.len() && record.fits(&fit))
                .then_some((state, record))
        });
        let record = match decoded {
            Some((state, record)) => {
                self.restore_state(state, &mut pass.creport);
                self.obs.inc(&format!("ckpt.{stage}.hits"));
                Some(record)
            }
            None => {
                self.obs.inc(&format!("ckpt.{stage}.misses"));
                None
            }
        };
        self.obs.end();
        record
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
        self.obs.begin("ckpt_save");
        let rec = ckpt_io::encode_record(&self.snapshot_state(creport), &wire::to_bytes(record));
        if store.put(key, &rec).is_ok() {
            self.obs
                .count(&format!("ckpt.{stage}.bytes_written"), rec.len() as u64);
        } else {
            self.obs.inc(&format!("ckpt.{stage}.write_failed"));
        }
        self.obs.end();
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
    /// and drop its mapping and mapped table so a later (possibly clean)
    /// delivery is remapped from scratch.
    fn discount_quarantined(&mut self, i: usize) {
        if let Some(state) = self.states.get_mut(i) {
            state
                .trust
                .update(&Evidence::vote(EvidenceKind::Component, false, 0.8).discounted(0.9));
        }
        self.acquisition.record_pipeline_failure(i);
        self.drop_derived(i);
    }

    /// The claim set the session cache holds, when it was built under this
    /// pass's key ([`Pass::claims_key`]), with all slot dirtiness cleared.
    /// The rest of the cache goes with it: a pass that fails after this
    /// leaves none, as an update does.
    pub(super) fn held_claims(&mut self, pass: &Pass, excluded: &[usize]) -> Option<ClaimSet> {
        let key = pass.claims_key(excluded)?;
        if self.cache.as_ref()?.claims_key.as_ref() != Some(&key) {
            return None;
        }
        let cache = self.cache.take()?;
        self.working.clean_slots();
        self.obs.inc("incr.claims.reused");
        Some(cache.claims)
    }

    /// The claim set of this pass's union and clustering, minus the sources
    /// in `excluded` (quarantined at fuse), with all slot dirtiness cleared.
    pub(super) fn claim_set(&mut self, pass: &Pass, excluded: &[usize]) -> ClaimSet {
        let mut claims = ClaimSet::new(self.registry.len());
        claims.set_rel_tol(pass.plan.fusion_tolerance);
        let columns: Vec<&[Value]> = pass.union.table().columns().collect();
        let mut is_excluded = vec![false; self.registry.len()];
        for &src in excluded {
            is_excluded[src] = true;
        }
        for (r, src) in pass.union.sources().enumerate() {
            if is_excluded[src] {
                continue;
            }
            for (a, column) in columns.iter().enumerate() {
                claims.add(pass.row_entity[r], a, column[r].clone(), src);
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
