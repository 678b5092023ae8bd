//! Checkpoint serialization for the wrangling session.
//!
//! The checkpoint store ([`wrangler_ckpt`]) moves opaque byte payloads; this
//! module defines what those payloads *are* for a wrangle pass. Every seam
//! record has two parts:
//!
//! * a [`SessionState`] — the complete snapshot of everything the pass has
//!   mutated up to that seam: per-source trust beliefs and relevances, the
//!   acquisition engine (virtual clock, breaker fleet, retry totals), work
//!   counters, the containment report, and the acquisition summary — its
//!   size follows the number of sources, never rows or pairs. Restoring it
//!   puts a *fresh process* into exactly the state the crashed process had
//!   at the seam — quarantine discounts and breaker trips included, applied
//!   once, never re-derived;
//! * a stage output — the data the rest of the pipeline consumes (selected
//!   ids, degraded payloads, mappings, mapped tables, the union table and
//!   its source runs, clusters, fused slots).
//!
//! All encodings ride on the canonical wire codec
//! ([`wrangler_table::wire`]): fixed-width little-endian integers,
//! length-prefixed UTF-8, and `f64::to_bits` for floats, so a round-trip is
//! bit-exact (including -0.0, subnormals and NaN payloads) and a resumed
//! pass can reproduce an uninterrupted run byte-for-byte. Decoders are
//! bounds-checked and return structured errors — a truncated or bit-flipped
//! payload that somehow passed the store's checksum still cannot panic the
//! session (the store treats a decode failure as a miss).
//!
//! Enum tags in this module are part of the durable format: append variants,
//! never renumber.

use wrangler_fusion::strategies::FusedValue;
use wrangler_mapping::Mapping;
use wrangler_sources::faults::{AcquireError, Degradation};
use wrangler_sources::SourceId;
use wrangler_table::wire::{self, Dec, Enc};
use wrangler_table::{Schema, Table, TableError};
use wrangler_uncertainty::{Belief, EvidenceKind};

use crate::acquire::{
    AcquireOutcome, AcquisitionSummary, BreakerConfig, BreakerState, CircuitBreaker, Disposition,
};
use crate::contain::{ContainmentReport, Stage, StageTallies};
use crate::incr::Mapped;
use crate::union::Union;
use crate::working::WorkCounters;

type Result<T> = std::result::Result<T, TableError>;

fn bad(what: &str) -> TableError {
    TableError::Invalid(format!("checkpoint payload: {what}"))
}

// ---------------------------------------------------------------------------
// Primitive helpers
// ---------------------------------------------------------------------------

// Smallest encodings, in bytes: what `Dec::cap` divides the unread input by
// before a decoder reserves room for a claimed element count. Decoding is
// correct for any value; a bound below the true minimum reserves more than
// the input can fill, one above it leaves the `Vec` to grow as it fills.
/// A belief with an empty ledger: two `f64`s and a length.
const BELIEF_MIN: usize = 24;
/// A table with no fields: a field count and a row count.
const TABLE_MIN: usize = 16;

/// Decode a length-prefixed list, one `item` at a time. The one place a
/// claimed element count turns into a reservation: [`Dec::cap`] bounds it by
/// the unread input (`min` is an element's smallest encoding), so a forged
/// count cannot allocate more than the payload could hold.
fn dec_list<'a, T>(
    d: &mut Dec<'a>,
    min: usize,
    mut item: impl FnMut(&mut Dec<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    let n = d.usize()?;
    let mut out = Vec::with_capacity(d.cap(n, min));
    for _ in 0..n {
        out.push(item(d)?);
    }
    Ok(out)
}

fn enc_belief(e: &mut Enc, b: &Belief) {
    let (lo, prior, ledger) = b.to_parts();
    e.f64(lo).f64(prior).usize(ledger.len());
    for (kind, n) in ledger {
        e.u8(kind.tag()).u32(*n);
    }
}

fn dec_belief(d: &mut Dec) -> Result<Belief> {
    let lo = d.f64()?;
    let prior = d.f64()?;
    let ledger = dec_list(d, 5, |d| {
        let kind = EvidenceKind::from_tag(d.u8()?).ok_or_else(|| bad("unknown evidence kind"))?;
        Ok((kind, d.u32()?))
    })?;
    Ok(Belief::from_parts(lo, prior, ledger))
}

fn stage_tag(s: Stage) -> u8 {
    match s {
        Stage::MapGenerate => 0,
        Stage::Preflight => 1,
        Stage::MapApply => 2,
        Stage::Union => 3,
        Stage::Er => 4,
        Stage::Fuse => 5,
        Stage::Assemble => 6,
    }
}

fn stage_from_tag(tag: u8) -> Result<Stage> {
    Ok(match tag {
        0 => Stage::MapGenerate,
        1 => Stage::Preflight,
        2 => Stage::MapApply,
        3 => Stage::Union,
        4 => Stage::Er,
        5 => Stage::Fuse,
        6 => Stage::Assemble,
        _ => return Err(bad("unknown stage tag")),
    })
}

fn enc_breaker(e: &mut Enc, b: &CircuitBreaker) {
    let (cfg, state, fails, probes) = b.to_parts();
    e.u32(cfg.failure_threshold)
        .u64(cfg.cooldown)
        .u32(cfg.half_open_successes);
    match state {
        BreakerState::Closed => {
            e.u8(0);
        }
        BreakerState::Open { until } => {
            e.u8(1).u64(until);
        }
        BreakerState::HalfOpen => {
            e.u8(2);
        }
    }
    e.u32(fails).u32(probes);
}

fn dec_breaker(d: &mut Dec) -> Result<CircuitBreaker> {
    let cfg = BreakerConfig {
        failure_threshold: d.u32()?,
        cooldown: d.u64()?,
        half_open_successes: d.u32()?,
    };
    let state = match d.u8()? {
        0 => BreakerState::Closed,
        1 => BreakerState::Open { until: d.u64()? },
        2 => BreakerState::HalfOpen,
        _ => return Err(bad("unknown breaker state")),
    };
    Ok(CircuitBreaker::from_parts(cfg, state, d.u32()?, d.u32()?))
}

fn enc_degradation(e: &mut Enc, deg: &Degradation) {
    match *deg {
        Degradation::Truncated { kept, total } => {
            e.u8(0).usize(kept).usize(total);
        }
        Degradation::CorruptCells { cells } => {
            e.u8(1).usize(cells);
        }
        Degradation::SchemaDrifted { dropped } => {
            e.u8(2).usize(dropped);
        }
        Degradation::TypePoisoned { cells } => {
            e.u8(3).usize(cells);
        }
        Degradation::Pathological { cells } => {
            e.u8(4).usize(cells);
        }
        Degradation::NonFinite { cells } => {
            e.u8(5).usize(cells);
        }
        Degradation::Oversized { rows } => {
            e.u8(6).usize(rows);
        }
    }
}

fn dec_degradation(d: &mut Dec) -> Result<Degradation> {
    Ok(match d.u8()? {
        0 => Degradation::Truncated {
            kept: d.usize()?,
            total: d.usize()?,
        },
        1 => Degradation::CorruptCells { cells: d.usize()? },
        2 => Degradation::SchemaDrifted { dropped: d.usize()? },
        3 => Degradation::TypePoisoned { cells: d.usize()? },
        4 => Degradation::Pathological { cells: d.usize()? },
        5 => Degradation::NonFinite { cells: d.usize()? },
        6 => Degradation::Oversized { rows: d.usize()? },
        _ => return Err(bad("unknown degradation tag")),
    })
}

fn enc_acquire_error(e: &mut Enc, err: &AcquireError) {
    match *err {
        AcquireError::UnknownSource(id) => {
            e.u8(0).u32(id.0);
        }
        AcquireError::Unavailable { source } => {
            e.u8(1).u32(source.0);
        }
        AcquireError::DeadlineExceeded {
            source,
            latency,
            deadline,
        } => {
            e.u8(2).u32(source.0).u64(latency).u64(deadline);
        }
        AcquireError::RateLimited {
            source,
            retry_after,
        } => {
            e.u8(3).u32(source.0).u64(retry_after);
        }
    }
}

fn dec_acquire_error(d: &mut Dec) -> Result<AcquireError> {
    Ok(match d.u8()? {
        0 => AcquireError::UnknownSource(SourceId(d.u32()?)),
        1 => AcquireError::Unavailable {
            source: SourceId(d.u32()?),
        },
        2 => AcquireError::DeadlineExceeded {
            source: SourceId(d.u32()?),
            latency: d.u64()?,
            deadline: d.u64()?,
        },
        3 => AcquireError::RateLimited {
            source: SourceId(d.u32()?),
            retry_after: d.u64()?,
        },
        _ => return Err(bad("unknown acquire-error tag")),
    })
}

fn enc_summary(e: &mut Enc, s: &AcquisitionSummary) {
    e.usize(s.outcomes.len());
    for o in &s.outcomes {
        e.u32(o.id.0).u32(o.attempts).u64(o.ticks);
        match &o.disposition {
            Disposition::Fresh => {
                e.u8(0);
            }
            Disposition::Degraded(deg) => {
                e.u8(1);
                enc_degradation(e, deg);
            }
            Disposition::Skipped(err) => {
                e.u8(2);
                enc_acquire_error(e, err);
            }
            Disposition::Quarantined => {
                e.u8(3);
            }
        }
    }
    e.usize(s.skipped.len());
    for (id, why) in &s.skipped {
        e.u32(id.0).str(why);
    }
    e.usize(s.degraded.len());
    for (id, deg) in &s.degraded {
        e.u32(id.0);
        enc_degradation(e, deg);
    }
    e.u64(s.attempts).u64(s.ticks);
}

fn dec_summary(d: &mut Dec) -> Result<AcquisitionSummary> {
    let outcomes = dec_list(d, 17, |d| {
        let id = SourceId(d.u32()?);
        let attempts = d.u32()?;
        let ticks = d.u64()?;
        let disposition = match d.u8()? {
            0 => Disposition::Fresh,
            1 => Disposition::Degraded(dec_degradation(d)?),
            2 => Disposition::Skipped(dec_acquire_error(d)?),
            3 => Disposition::Quarantined,
            _ => return Err(bad("unknown disposition tag")),
        };
        Ok(AcquireOutcome {
            id,
            attempts,
            ticks,
            disposition,
        })
    })?;
    let skipped = dec_list(d, 12, |d| Ok((SourceId(d.u32()?), d.str()?)))?;
    let degraded = dec_list(d, 13, |d| Ok((SourceId(d.u32()?), dec_degradation(d)?)))?;
    Ok(AcquisitionSummary {
        outcomes,
        skipped,
        degraded,
        attempts: d.u64()?,
        ticks: d.u64()?,
    })
}

fn enc_creport(e: &mut Enc, r: &ContainmentReport) {
    e.usize(r.quarantines.len());
    for q in &r.quarantines {
        e.u32(q.source.0).u8(stage_tag(q.stage)).str(&q.reason);
    }
    for stage in Stage::all() {
        let t = r.tallies(stage);
        e.u64(t.quarantined)
            .u64(t.dropped_rows)
            .u64(t.deadline_hits)
            .u64(t.panics_caught);
    }
}

fn dec_creport(d: &mut Dec) -> Result<ContainmentReport> {
    let mut r = ContainmentReport::default();
    let n = d.usize()?;
    for _ in 0..n {
        let source = SourceId(d.u32()?);
        let stage = stage_from_tag(d.u8()?)?;
        let reason = d.str()?;
        r.quarantines.push(crate::contain::QuarantineEvent {
            source,
            stage,
            reason,
        });
    }
    for stage in Stage::all() {
        let t = StageTallies {
            quarantined: d.u64()?,
            dropped_rows: d.u64()?,
            deadline_hits: d.u64()?,
            panics_caught: d.u64()?,
        };
        r.set_tallies(stage, t);
    }
    Ok(r)
}

fn enc_mapping(e: &mut Enc, m: &Mapping) {
    wire::encode_schema(e, &m.target);
    e.usize(m.bindings.len());
    for b in &m.bindings {
        match b {
            None => {
                e.u8(0);
            }
            Some(i) => {
                e.u8(1).usize(*i);
            }
        }
    }
    e.usize(m.binding_beliefs.len());
    for b in &m.binding_beliefs {
        enc_belief(e, b);
    }
    enc_belief(e, &m.belief);
}

fn dec_mapping(d: &mut Dec) -> Result<Mapping> {
    let target = wire::decode_schema(d)?;
    let bindings = dec_list(d, 1, |d| match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.usize()?)),
        _ => Err(bad("unknown binding tag")),
    })?;
    let binding_beliefs = dec_list(d, BELIEF_MIN, dec_belief)?;
    let belief = dec_belief(d)?;
    Ok(Mapping {
        target,
        bindings,
        binding_beliefs,
        belief,
    })
}

fn enc_fused(e: &mut Enc, f: &FusedValue) {
    wire::encode_value(e, &f.value);
    e.f64(f.weight).f64(f.total_weight).usize(f.supporters.len());
    for &s in &f.supporters {
        e.usize(s);
    }
    e.f64(f.freshness);
}

fn dec_fused(d: &mut Dec) -> Result<FusedValue> {
    let value = wire::decode_value(d)?;
    let weight = d.f64()?;
    let total_weight = d.f64()?;
    let supporters = dec_list(d, 8, Dec::usize)?;
    Ok(FusedValue {
        value,
        weight,
        total_weight,
        supporters,
        freshness: d.f64()?,
    })
}

fn enc_ids(e: &mut Enc, ids: &[SourceId]) {
    e.usize(ids.len());
    for id in ids {
        e.u32(id.0);
    }
}

fn dec_ids(d: &mut Dec) -> Result<Vec<SourceId>> {
    dec_list(d, 4, |d| Ok(SourceId(d.u32()?)))
}

// ---------------------------------------------------------------------------
// Session state snapshot
// ---------------------------------------------------------------------------

/// Everything a wrangle pass has mutated up to a seam, in plain data form.
/// The session builds one of these at each seam (and applies one on a
/// checkpoint hit); the struct exists so serialization lives here while the
/// private `Wrangler` fields stay private.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// Session tick at pass start.
    pub now: u64,
    /// Source-access budget spent.
    pub access_spent: f64,
    /// Per-source trust beliefs, in registry order.
    pub trust: Vec<Belief>,
    /// Per-source data-context relevance, in registry order.
    pub relevance: Vec<f64>,
    /// Acquisition engine: virtual clock.
    pub acq_clock: u64,
    /// Acquisition engine: total attempts across the session.
    pub acq_total_attempts: u64,
    /// Acquisition engine: total backoff ticks across the session.
    pub acq_total_backoff: u64,
    /// Acquisition engine: the per-source breaker fleet.
    pub breakers: Vec<CircuitBreaker>,
    /// Work counters.
    pub work: WorkCounters,
    /// The containment report of the pass so far.
    pub creport: ContainmentReport,
    /// The acquisition summary of the pass (empty before the acquire seam).
    pub last_acquisition: AcquisitionSummary,
}

impl SessionState {
    /// Serialize to the canonical checkpoint payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.now).f64(self.access_spent);
        e.usize(self.trust.len());
        for b in &self.trust {
            enc_belief(&mut e, b);
        }
        e.usize(self.relevance.len());
        for &r in &self.relevance {
            e.f64(r);
        }
        e.u64(self.acq_clock)
            .u64(self.acq_total_attempts)
            .u64(self.acq_total_backoff);
        e.usize(self.breakers.len());
        for b in &self.breakers {
            enc_breaker(&mut e, b);
        }
        e.usize(self.work.extractions)
            .usize(self.work.mappings_generated)
            .usize(self.work.tables_mapped)
            .usize(self.work.er_pairs)
            .usize(self.work.slots_fused);
        enc_creport(&mut e, &self.creport);
        enc_summary(&mut e, &self.last_acquisition);
        e.into_bytes()
    }

    /// Decode a payload produced by [`encode`](Self::encode).
    pub fn decode(bytes: &[u8]) -> Result<SessionState> {
        let mut d = Dec::new(bytes);
        let now = d.u64()?;
        let access_spent = d.f64()?;
        let trust = dec_list(&mut d, BELIEF_MIN, dec_belief)?;
        let relevance = dec_list(&mut d, 8, Dec::f64)?;
        let acq_clock = d.u64()?;
        let acq_total_attempts = d.u64()?;
        let acq_total_backoff = d.u64()?;
        let breakers = dec_list(&mut d, 25, dec_breaker)?;
        let work = WorkCounters {
            extractions: d.usize()?,
            mappings_generated: d.usize()?,
            tables_mapped: d.usize()?,
            er_pairs: d.usize()?,
            slots_fused: d.usize()?,
        };
        let creport = dec_creport(&mut d)?;
        let last_acquisition = dec_summary(&mut d)?;
        Ok(SessionState {
            now,
            access_spent,
            trust,
            relevance,
            acq_clock,
            acq_total_attempts,
            acq_total_backoff,
            breakers,
            work,
            creport,
            last_acquisition,
        })
    }
}

// ---------------------------------------------------------------------------
// Stage output records
// ---------------------------------------------------------------------------

/// A full seam record: the session snapshot plus the stage's output bytes,
/// each length-prefixed.
pub fn encode_record(state: &SessionState, output: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.bytes(&state.encode()).bytes(output);
    e.into_bytes()
}

/// Split a seam record back into `(state, output bytes)`.
pub fn decode_record(bytes: &[u8]) -> Result<(SessionState, Vec<u8>)> {
    let mut d = Dec::new(bytes);
    let state_bytes = d.bytes()?;
    let state = SessionState::decode(state_bytes)?;
    let output = d.bytes()?.to_vec();
    Ok((state, output))
}

/// A stage's seam output: the part of a checkpoint record the rest of the
/// pipeline consumes. The seam protocol (`wrangler::pass`) persists and
/// replays any stage's output through this one interface.
pub trait SeamRecord: Sized {
    /// Serialize.
    fn encode(&self) -> Vec<u8>;

    /// Decode.
    fn decode(bytes: &[u8]) -> Result<Self>;

    /// Does the record fit the session it is about to enter — the part of
    /// validity the bytes alone cannot show? Asked before anything is
    /// restored; a record that does not fit is a miss.
    fn fits(&self, _target: &Schema) -> bool {
        true
    }
}

/// Select-seam output: the chosen sources.
pub struct SelectOut {
    /// Selected source ids, in selection order.
    pub selected: Vec<SourceId>,
}

impl SeamRecord for SelectOut {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<SelectOut> {
        let mut d = Dec::new(bytes);
        Ok(SelectOut {
            selected: dec_ids(&mut d)?,
        })
    }
}

/// Acquire-seam output: the surviving sources and any degraded payloads
/// (delivered tables that differ from the registry's).
pub struct AcquireOut {
    /// Survivors, in selection order.
    pub selected: Vec<SourceId>,
    /// `(source index, delivered table)` for degraded deliveries.
    pub degraded_tables: Vec<(usize, Table)>,
}

impl SeamRecord for AcquireOut {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.usize(self.degraded_tables.len());
        for (i, t) in &self.degraded_tables {
            e.usize(*i);
            wire::encode_table(&mut e, t);
        }
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<AcquireOut> {
        let mut d = Dec::new(bytes);
        let selected = dec_ids(&mut d)?;
        let degraded_tables = dec_list(&mut d, 8 + TABLE_MIN, |d| {
            Ok((d.usize()?, wire::decode_table(d)?))
        })?;
        Ok(AcquireOut {
            selected,
            degraded_tables,
        })
    }
}

/// Map-generate-seam output: every survivor's mapping (regenerated or
/// carried over) plus the surviving selection.
pub struct MapGenOut {
    /// Survivors after generation quarantines.
    pub selected: Vec<SourceId>,
    /// `(source index, mapping)` for every survivor.
    pub mappings: Vec<(usize, Mapping)>,
}

impl SeamRecord for MapGenOut {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.usize(self.mappings.len());
        for (i, m) in &self.mappings {
            e.usize(*i);
            enc_mapping(&mut e, m);
        }
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<MapGenOut> {
        let mut d = Dec::new(bytes);
        let selected = dec_ids(&mut d)?;
        let mappings = dec_list(&mut d, 8 + BELIEF_MIN, |d| Ok((d.usize()?, dec_mapping(d)?)))?;
        Ok(MapGenOut { selected, mappings })
    }
}

/// Map-apply-seam output: every survivor's mapped table and filter tag.
pub struct MapApplyOut {
    /// Survivors after apply quarantines.
    pub selected: Vec<SourceId>,
    /// `(source index, mapped table with its filter tag)` for every survivor.
    pub mapped: Vec<(usize, Mapped)>,
}

impl SeamRecord for MapApplyOut {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.usize(self.mapped.len());
        for (i, m) in &self.mapped {
            e.usize(*i);
            wire::encode_table(&mut e, m.table());
            match m.tag() {
                None => {
                    e.u8(0);
                }
                Some(s) => {
                    e.u8(1).str(s);
                }
            }
        }
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<MapApplyOut> {
        let mut d = Dec::new(bytes);
        let selected = dec_ids(&mut d)?;
        let mapped = dec_list(&mut d, 8 + TABLE_MIN + 1, |d| {
            let i = d.usize()?;
            let t = wire::decode_table(d)?;
            let tag = match d.u8()? {
                0 => None,
                1 => Some(d.str()?),
                _ => return Err(bad("unknown filter-tag marker")),
            };
            Ok((i, Mapped::new(t, tag)))
        })?;
        Ok(MapApplyOut { selected, mapped })
    }
}

/// Union-seam output: the union as the pass holds it.
pub struct UnionOut {
    /// Survivors after union quarantines.
    pub selected: Vec<SourceId>,
    /// The union table and its source runs.
    pub union: Union,
    /// Rows removed by the row filter (an obs counter the outcome reports).
    pub union_filtered: u64,
}

impl SeamRecord for UnionOut {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.u64(self.union_filtered);
        wire::encode_table(&mut e, self.union.table());
        e.usize(self.union.runs().len());
        for &(source, rows) in self.union.runs() {
            e.usize(source).usize(rows);
        }
        e.into_bytes()
    }

    /// Rejects what the bytes alone show: ragged columns, and runs that do
    /// not cover the table.
    fn decode(bytes: &[u8]) -> Result<UnionOut> {
        let mut d = Dec::new(bytes);
        let selected = dec_ids(&mut d)?;
        let union_filtered = d.u64()?;
        let table = wire::decode_table(&mut d)?;
        let runs = dec_list(&mut d, 16, |d| Ok((d.usize()?, d.usize()?)))?;
        Ok(UnionOut {
            selected,
            union: Union::from_parts(table, runs)?,
            union_filtered,
        })
    }

    fn fits(&self, target: &Schema) -> bool {
        self.union.table().schema() == target
    }
}

/// ER-seam output: the clustering.
#[derive(Debug, Clone, Default)]
pub struct ErOut {
    /// Entity clusters (row indices into the union).
    pub clusters: Vec<Vec<usize>>,
    /// Entity id per union row.
    pub row_entity: Vec<usize>,
}

impl SeamRecord for ErOut {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.usize(self.clusters.len());
        for c in &self.clusters {
            e.usize(c.len());
            for &r in c {
                e.usize(r);
            }
        }
        e.usize(self.row_entity.len());
        for &r in &self.row_entity {
            e.usize(r);
        }
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<ErOut> {
        let mut d = Dec::new(bytes);
        let clusters = dec_list(&mut d, 8, |d| dec_list(d, 8, Dec::usize))?;
        let row_entity = dec_list(&mut d, 8, Dec::usize)?;
        Ok(ErOut {
            clusters,
            row_entity,
        })
    }
}

/// Fuse-seam output: the fused slots and the fusion-time source context.
/// Claims are *not* serialized — a hit rebuilds the claim set from the
/// (already restored) union, row→entity map and the removed-source list,
/// which is cheap and keeps the heavy `ClaimSet` out of the wire format.
#[derive(Debug, Clone)]
pub struct FuseOut {
    /// Survivors after fuse-stage quarantines.
    pub selected: Vec<SourceId>,
    /// Source indices quarantined at the fuse seam (their claims are
    /// excluded from the rebuilt claim set).
    pub fuse_removed: Vec<usize>,
    /// Fusion-time per-source trust (truthfinder blend).
    pub trust: Vec<f64>,
    /// Fusion-time per-source age.
    pub age: Vec<u64>,
    /// Fused slots: `(entity, attr, value)`.
    pub fused: Vec<(usize, usize, FusedValue)>,
}

impl SeamRecord for FuseOut {
    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        enc_ids(&mut e, &self.selected);
        e.usize(self.fuse_removed.len());
        for &i in &self.fuse_removed {
            e.usize(i);
        }
        e.usize(self.trust.len());
        for &t in &self.trust {
            e.f64(t);
        }
        e.usize(self.age.len());
        for &a in &self.age {
            e.u64(a);
        }
        e.usize(self.fused.len());
        for (ent, attr, f) in &self.fused {
            e.usize(*ent).usize(*attr);
            enc_fused(&mut e, f);
        }
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<FuseOut> {
        let mut d = Dec::new(bytes);
        let selected = dec_ids(&mut d)?;
        let fuse_removed = dec_list(&mut d, 8, Dec::usize)?;
        let trust = dec_list(&mut d, 8, Dec::f64)?;
        let age = dec_list(&mut d, 8, Dec::u64)?;
        let fused = dec_list(&mut d, 49, |d| Ok((d.usize()?, d.usize()?, dec_fused(d)?)))?;
        Ok(FuseOut {
            selected,
            fuse_removed,
            trust,
            age,
            fused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::Value;
    use wrangler_uncertainty::Evidence;

    fn sample_state() -> SessionState {
        let mut trust = Belief::from_prior(0.6);
        trust.update(&Evidence::vote(EvidenceKind::Component, false, 0.8).discounted(0.9));
        let mut creport = ContainmentReport::default();
        creport.record_quarantine(SourceId(3), Stage::Union, "poison");
        creport.drop_rows(Stage::Union, 12);
        creport.caught_panic(Stage::MapGenerate);
        SessionState {
            now: 42,
            access_spent: 7.25,
            trust: vec![Belief::from_prior(0.6), trust],
            relevance: vec![1.0, 0.5],
            acq_clock: 99,
            acq_total_attempts: 17,
            acq_total_backoff: 31,
            breakers: vec![
                CircuitBreaker::new(BreakerConfig::default()),
                CircuitBreaker::from_parts(
                    BreakerConfig::default(),
                    BreakerState::Open { until: 123 },
                    3,
                    0,
                ),
                CircuitBreaker::from_parts(BreakerConfig::default(), BreakerState::HalfOpen, 0, 1),
            ],
            work: WorkCounters {
                extractions: 1,
                mappings_generated: 2,
                tables_mapped: 3,
                er_pairs: 4,
                slots_fused: 5,
            },
            creport,
            last_acquisition: AcquisitionSummary {
                outcomes: vec![
                    AcquireOutcome {
                        id: SourceId(0),
                        attempts: 1,
                        ticks: 2,
                        disposition: Disposition::Fresh,
                    },
                    AcquireOutcome {
                        id: SourceId(1),
                        attempts: 3,
                        ticks: 9,
                        disposition: Disposition::Skipped(AcquireError::DeadlineExceeded {
                            source: SourceId(1),
                            latency: 30,
                            deadline: 8,
                        }),
                    },
                    AcquireOutcome {
                        id: SourceId(2),
                        attempts: 1,
                        ticks: 1,
                        disposition: Disposition::Degraded(Degradation::Truncated {
                            kept: 5,
                            total: 10,
                        }),
                    },
                    AcquireOutcome {
                        id: SourceId(3),
                        attempts: 0,
                        ticks: 0,
                        disposition: Disposition::Quarantined,
                    },
                ],
                skipped: vec![(SourceId(1), "deadline".into())],
                degraded: vec![(SourceId(2), Degradation::Truncated { kept: 5, total: 10 })],
                attempts: 5,
                ticks: 12,
            },
        }
    }

    #[test]
    fn session_state_roundtrips_bit_exact() {
        let s = sample_state();
        let bytes = s.encode();
        let back = SessionState::decode(&bytes).unwrap();
        assert_eq!(back, s);
        // Bit-exactness of the floats, not just PartialEq.
        assert_eq!(
            back.access_spent.to_bits(),
            s.access_spent.to_bits()
        );
        assert_eq!(back.encode(), bytes, "canonical: re-encode is identical");
    }

    #[test]
    fn record_framing_roundtrips() {
        let s = sample_state();
        let out = SelectOut {
            selected: vec![SourceId(0), SourceId(2)],
        }
        .encode();
        let rec = encode_record(&s, &out);
        let (s2, out2) = decode_record(&rec).unwrap();
        assert_eq!(s2, s);
        assert_eq!(out2, out);
        let sel = SelectOut::decode(&out2).unwrap();
        assert_eq!(sel.selected, vec![SourceId(0), SourceId(2)]);
    }

    type Decode = fn(&[u8]) -> Result<()>;

    /// One valid payload per decoder this module exports: the session
    /// snapshot, a framed record, and the seven stage records.
    fn payloads() -> Vec<(&'static str, Vec<u8>, Decode)> {
        fn rec<R: SeamRecord>(bytes: &[u8]) -> Result<()> {
            R::decode(bytes).map(drop)
        }
        let select = SelectOut {
            selected: vec![SourceId(0), SourceId(2)],
        };
        let map_apply = MapApplyOut {
            selected: vec![SourceId(1)],
            mapped: vec![(1, Mapped::new(sample_table(), Some("price > 0".into())))],
        };
        vec![
            ("SessionState", sample_state().encode(), |b| {
                SessionState::decode(b).map(drop)
            }),
            (
                "record",
                encode_record(&sample_state(), &select.encode()),
                |b| decode_record(b).map(drop),
            ),
            ("SelectOut", select.encode(), rec::<SelectOut>),
            ("AcquireOut", sample_acquire().encode(), rec::<AcquireOut>),
            ("MapGenOut", sample_map_gen().encode(), rec::<MapGenOut>),
            ("MapApplyOut", map_apply.encode(), rec::<MapApplyOut>),
            ("UnionOut", sample_union().encode(), rec::<UnionOut>),
            ("ErOut", sample_er().encode(), rec::<ErOut>),
            ("FuseOut", sample_fuse().encode(), rec::<FuseOut>),
        ]
    }

    fn sample_table() -> Table {
        let mut t = Table::empty(Schema::of_strs(&["name", "price"]));
        t.push_row(vec![Value::Str("a".into()), Value::Float(-0.0)])
            .unwrap();
        t
    }

    fn sample_acquire() -> AcquireOut {
        AcquireOut {
            selected: vec![SourceId(1)],
            degraded_tables: vec![(1, sample_table())],
        }
    }

    fn sample_union() -> UnionOut {
        let rows = vec![
            vec![Value::Str("x".into()), Value::Float(f64::NAN)],
            vec![Value::Null, Value::Int(-3)],
        ];
        let mapped = Table::from_rows(Schema::of_strs(&["name", "price"]), rows).unwrap();
        let mut union = Union::empty(mapped.schema().clone());
        union.append(0, &mapped, &[0]).unwrap();
        union.append(1, &mapped, &[1]).unwrap();
        UnionOut {
            selected: vec![SourceId(0)],
            union,
            union_filtered: 2,
        }
    }

    fn sample_er() -> ErOut {
        ErOut {
            clusters: vec![vec![0, 2], vec![1]],
            row_entity: vec![0, 1, 0],
        }
    }

    fn sample_fuse() -> FuseOut {
        FuseOut {
            selected: vec![SourceId(0), SourceId(1)],
            fuse_removed: vec![2],
            trust: vec![0.75, 0.5],
            age: vec![0, 9],
            fused: vec![(
                0,
                1,
                FusedValue {
                    value: Value::Float(1.5),
                    weight: 0.9,
                    total_weight: 1.2,
                    supporters: vec![0, 1],
                    freshness: 0.8,
                },
            )],
        }
    }

    fn sample_map_gen() -> MapGenOut {
        MapGenOut {
            selected: vec![SourceId(0)],
            mappings: vec![(
                0,
                Mapping {
                    target: Schema::of_strs(&["name", "price"]),
                    bindings: vec![Some(1), None],
                    binding_beliefs: vec![Belief::from_prior(0.8), Belief::uninformed()],
                    belief: Belief::from_prior(0.7),
                },
            )],
        }
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        for (name, bytes, decode) in payloads() {
            decode(&bytes).unwrap_or_else(|e| panic!("{name}: fixture must decode: {e}"));
            for cut in 0..bytes.len() {
                assert!(
                    decode(&bytes[..cut]).is_err(),
                    "{name}: cut at {cut} of {} must error",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn stage_outputs_roundtrip() {
        let acq = sample_acquire();
        let back = AcquireOut::decode(&acq.encode()).unwrap();
        assert_eq!(back.selected, acq.selected);
        assert_eq!(
            wire::table_hash(&back.degraded_tables[0].1),
            wire::table_hash(&sample_table())
        );

        let union = sample_union();
        let back = UnionOut::decode(&union.encode()).unwrap();
        assert_eq!(back.union_filtered, 2);
        assert_eq!(back.union.runs(), &[(0, 1), (1, 1)]);
        // Bit-exact cells (the NaN included), by the canonical encoding.
        assert_eq!(
            wire::table_bytes(back.union.table()),
            wire::table_bytes(union.union.table())
        );
        assert!(back.fits(union.union.table().schema()));
        assert!(!back.fits(&Schema::of_strs(&["name"])));

        let er = sample_er();
        let back = ErOut::decode(&er.encode()).unwrap();
        assert_eq!(back.clusters, er.clusters);
        assert_eq!(back.row_entity, er.row_entity);

        let fuse = sample_fuse();
        let back = FuseOut::decode(&fuse.encode()).unwrap();
        assert_eq!(back.fuse_removed, fuse.fuse_removed);
        assert_eq!(back.fused.len(), 1);
        assert_eq!(back.fused[0].2.supporters, vec![0, 1]);
    }

    #[test]
    fn union_runs_that_do_not_cover_the_table_do_not_decode() {
        // The payload's last 8 bytes are the last run's row count (1).
        let mut bytes = sample_union().encode();
        let at = bytes.len() - 8;
        for forged in [0u64, 2, u64::MAX >> 1] {
            bytes[at..].copy_from_slice(&forged.to_le_bytes());
            assert!(UnionOut::decode(&bytes).is_err(), "last run of {forged}");
        }
    }

    #[test]
    fn mapping_roundtrips() {
        let gen = sample_map_gen();
        let m = &gen.mappings[0].1;
        let back = MapGenOut::decode(&gen.encode()).unwrap();
        assert_eq!(back.mappings[0].1.bindings, m.bindings);
        assert_eq!(
            back.mappings[0].1.belief.log_odds().to_bits(),
            m.belief.log_odds().to_bits()
        );
    }

    #[test]
    fn every_single_byte_flip_errors_or_decodes_never_panics() {
        // Errors are fine, and a lucky flip may even decode to different
        // valid data — the store's checksum is what rejects those.
        for (_, mut bytes, decode) in payloads() {
            for i in 0..bytes.len() {
                bytes[i] ^= 0xff;
                let _ = decode(&bytes);
                bytes[i] ^= 0xff;
            }
        }
    }

    #[test]
    fn a_forged_element_count_reserves_no_more_than_the_input_holds() {
        // 16 bytes whose every length field claims 2^40 elements.
        let mut forged = Enc::new();
        forged.u64(1 << 40).u64(1 << 40);
        let forged = forged.into_bytes();
        let mut d = Dec::new(&forged);
        let claimed = d.usize().unwrap();
        assert!(d.cap(claimed, 1) <= 16);
        assert_eq!(d.cap(claimed, 8), 1);
        for (name, _, decode) in payloads() {
            assert!(decode(&forged).is_err(), "{name}: forged count must error");
        }
    }
}
