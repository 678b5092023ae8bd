//! Source identity, metadata and the registry.

use std::fmt;

use wrangler_table::wire::{Dec, Enc, Wire};
use wrangler_table::Table;

use crate::faults::{AcquireError, FaultConfig, FaultLayer, FaultProfile, SourceSnapshot};

/// Stable identifier of a data source within a wrangling session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

/// The id as a `u32`.
impl Wire for SourceId {
    const MIN: usize = 4;
    fn enc(&self, e: &mut Enc) {
        e.u32(self.0);
    }
    fn dec(d: &mut Dec<'_>) -> wrangler_table::Result<SourceId> {
        Ok(SourceId(d.u32()?))
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

/// Metadata the wrangler knows about a source before/besides its data.
#[derive(Debug, Clone)]
pub struct SourceMeta {
    /// Identifier.
    pub id: SourceId,
    /// Human-readable name (site/file name).
    pub name: String,
    /// Cost of one access in abstract budget units.
    pub access_cost: f64,
    /// Tick at which the source's content was last refreshed.
    pub last_updated: u64,
}

impl SourceMeta {
    /// Minimal metadata.
    pub fn new(id: SourceId, name: impl Into<String>) -> SourceMeta {
        SourceMeta {
            id,
            name: name.into(),
            access_cost: 1.0,
            last_updated: 0,
        }
    }
}

/// A source: metadata plus its (extracted) table.
#[derive(Debug, Clone)]
pub struct Source {
    /// Metadata.
    pub meta: SourceMeta,
    /// The source's data as delivered by extraction.
    pub table: Table,
}

/// The set of sources available to a wrangling session.
///
/// Reads go through either [`get`](SourceRegistry::get) (infallible, used by
/// stages that already hold an acquired payload) or the fallible
/// [`acquire`](SourceRegistry::acquire) access path, which consults the
/// optional fault layer and is what a resilient acquisition loop drives.
#[derive(Debug, Clone, Default)]
pub struct SourceRegistry {
    sources: Vec<Source>,
    faults: Option<FaultLayer>,
}

impl SourceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        SourceRegistry::default()
    }

    /// Register a source, assigning the next id. Returns the id.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> SourceId {
        let id = SourceId(self.sources.len() as u32);
        self.sources.push(Source {
            meta: SourceMeta::new(id, name),
            table,
        });
        id
    }

    /// Register with full metadata (id field is overwritten to keep ids dense).
    pub fn register_with_meta(&mut self, mut meta: SourceMeta, table: Table) -> SourceId {
        let id = SourceId(self.sources.len() as u32);
        meta.id = id;
        self.sources.push(Source { meta, table });
        id
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// True if no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Source by id.
    pub fn get(&self, id: SourceId) -> Option<&Source> {
        self.sources.get(id.0 as usize)
    }

    /// Mutable source by id.
    pub fn get_mut(&mut self, id: SourceId) -> Option<&mut Source> {
        self.sources.get_mut(id.0 as usize)
    }

    /// Iterate all sources in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Source> {
        self.sources.iter()
    }

    /// All ids in order.
    pub fn ids(&self) -> Vec<SourceId> {
        self.sources.iter().map(|s| s.meta.id).collect()
    }

    /// Attach a fault layer, assigning seeded profiles across the current
    /// fleet. Replaces any previous layer.
    pub fn inject_faults(&mut self, cfg: &FaultConfig) {
        self.faults = Some(FaultLayer::new(self.sources.len(), cfg));
    }

    /// Attach a fault layer with explicit per-source profiles.
    pub fn inject_fault_profiles(&mut self, profiles: Vec<FaultProfile>, seed: u64) {
        self.faults = Some(FaultLayer::from_profiles(profiles, seed, 1));
    }

    /// Override a single source's fault profile (installing a fault layer of
    /// healthy sources first if none exists).
    pub fn set_fault_profile(&mut self, id: SourceId, profile: FaultProfile) {
        let layer = self.faults.get_or_insert_with(|| {
            FaultLayer::from_profiles(vec![FaultProfile::Healthy; self.sources.len()], 0, 1)
        });
        layer.set_profile(id, profile);
    }

    /// The fault profile of a source (`Healthy` when no layer is attached).
    pub fn fault_profile(&self, id: SourceId) -> FaultProfile {
        self.faults
            .as_ref()
            .map(|l| l.profile(id))
            .unwrap_or(FaultProfile::Healthy)
    }

    /// Stable content hash of a source's registered payload (the table as
    /// delivered by extraction, before any fault-layer degradation). Equal
    /// hashes across runs/processes mean byte-identical payloads under the
    /// canonical wire encoding; the checkpoint store keys stage records on
    /// these, so a re-registered-but-unchanged source replays from disk.
    pub fn payload_hash(&self, id: SourceId) -> Option<u64> {
        self.get(id).map(|s| wrangler_table::wire::table_hash(&s.table))
    }

    /// Replace a source's payload in place (a new extraction delivered).
    /// Returns the *previous* payload hash, or `None` for an unknown id —
    /// callers diff it against [`Self::payload_hash`] of the replacement to
    /// decide whether anything actually changed.
    pub fn update_table(&mut self, id: SourceId, table: Table) -> Option<u64> {
        let src = self.sources.get_mut(id.0 as usize)?;
        let prev = wrangler_table::wire::table_hash(&src.table);
        src.table = table;
        Some(prev)
    }

    /// Fallible acquisition of a source's payload at virtual tick `now`,
    /// tolerating at most `deadline` ticks of latency for this attempt.
    ///
    /// Without a fault layer this always succeeds with the registry table
    /// intact at unit latency; with one, the source's [`FaultProfile`]
    /// decides. The returned snapshot borrows nothing: a degraded payload is
    /// materialized, an intact one is signalled by `degraded: None` so the
    /// caller keeps using the registry's table without a copy.
    pub fn acquire(
        &self,
        id: SourceId,
        now: u64,
        deadline: u64,
    ) -> Result<SourceSnapshot, AcquireError> {
        let src = self.get(id).ok_or(AcquireError::UnknownSource(id))?;
        match &self.faults {
            None => Ok(SourceSnapshot {
                id,
                latency: 1,
                degraded: None,
            }),
            Some(layer) => layer.attempt(id, &src.table, now, deadline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::Schema;

    #[test]
    fn register_and_lookup() {
        let mut reg = SourceRegistry::new();
        let a = reg.register("siteA", Table::empty(Schema::of_strs(&["x"])));
        let b = reg.register("siteB", Table::empty(Schema::of_strs(&["y"])));
        assert_eq!(a, SourceId(0));
        assert_eq!(b, SourceId(1));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(a).unwrap().meta.name, "siteA");
        assert!(reg.get(SourceId(9)).is_none());
        assert_eq!(reg.ids(), vec![a, b]);
    }

    #[test]
    fn register_with_meta_keeps_ids_dense() {
        let mut reg = SourceRegistry::new();
        let meta = SourceMeta {
            id: SourceId(99),
            name: "x".into(),
            access_cost: 2.0,
            last_updated: 7,
        };
        let id = reg.register_with_meta(meta, Table::empty(Schema::of_strs(&["x"])));
        assert_eq!(id, SourceId(0));
        assert_eq!(reg.get(id).unwrap().meta.access_cost, 2.0);
        assert_eq!(reg.get(id).unwrap().meta.last_updated, 7);
    }

    #[test]
    fn payload_hash_is_stable_and_content_sensitive() {
        use wrangler_table::Value;
        let mut t = Table::empty(Schema::of_strs(&["x"]));
        t.push_row(vec![Value::Str("a".into())]).unwrap();
        let mut reg = SourceRegistry::new();
        let a = reg.register("siteA", t.clone());
        let b = reg.register("siteB", t.clone());
        assert_eq!(reg.payload_hash(a), reg.payload_hash(b));
        let mut t2 = t.clone();
        t2.push_row(vec![Value::Str("b".into())]).unwrap();
        let c = reg.register("siteC", t2);
        assert_ne!(reg.payload_hash(a), reg.payload_hash(c));
        assert_eq!(reg.payload_hash(SourceId(9)), None);
    }

    #[test]
    fn update_table_swaps_payload_and_reports_previous_hash() {
        use wrangler_table::Value;
        let mut t = Table::empty(Schema::of_strs(&["x"]));
        t.push_row(vec![Value::Str("a".into())]).unwrap();
        let mut reg = SourceRegistry::new();
        let a = reg.register("siteA", t.clone());
        let before = reg.payload_hash(a).unwrap();
        let mut t2 = t.clone();
        t2.push_row(vec![Value::Str("b".into())]).unwrap();
        let prev = reg.update_table(a, t2.clone()).unwrap();
        assert_eq!(prev, before);
        assert_ne!(reg.payload_hash(a).unwrap(), before);
        assert_eq!(reg.get(a).unwrap().table.num_rows(), 2);
        assert_eq!(reg.update_table(SourceId(9), t), None);
    }

    #[test]
    fn display_of_source_id() {
        assert_eq!(SourceId(3).to_string(), "src3");
    }

    #[test]
    fn acquire_without_faults_always_succeeds() {
        let mut reg = SourceRegistry::new();
        let a = reg.register("siteA", Table::empty(Schema::of_strs(&["x"])));
        let s = reg.acquire(a, 0, 8).unwrap();
        assert!(!s.is_degraded());
        assert!(matches!(
            reg.acquire(SourceId(9), 0, 8),
            Err(crate::faults::AcquireError::UnknownSource(_))
        ));
    }

    #[test]
    fn acquire_respects_injected_profile() {
        let mut reg = SourceRegistry::new();
        let a = reg.register("siteA", Table::empty(Schema::of_strs(&["x"])));
        let b = reg.register("siteB", Table::empty(Schema::of_strs(&["x"])));
        reg.set_fault_profile(a, crate::faults::FaultProfile::HardDown);
        assert!(reg.acquire(a, 0, 8).is_err());
        assert!(reg.acquire(b, 0, 8).is_ok());
        reg.set_fault_profile(a, crate::faults::FaultProfile::Healthy);
        assert!(reg.acquire(a, 0, 8).is_ok());
    }
}
