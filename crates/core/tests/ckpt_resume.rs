//! Crash → resume integration: kill a wrangle at every stage seam, rebuild
//! the session from scratch (simulating process restart), point it at the
//! same checkpoint store, and demand the resumed outcome be *byte-identical*
//! (`f64::to_bits` via the canonical table hash) to an uninterrupted run —
//! with quarantine, trust and breaker state preserved. Torn or bit-flipped
//! checkpoints must be detected and recomputed, never loaded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use wrangler_context::{DataContext, Ontology, UserContext};
use wrangler_core::ckpt_io::{SeamRecord, UnionOut};
use wrangler_core::union::Union;
use wrangler_core::{
    ckpt_io, scratch_dir, CheckpointStore, CrashPolicy, CrashSite, Stage, WrangleOutcome, Wrangler,
};
use wrangler_sources::faults::FaultConfig;
use wrangler_sources::{FleetConfig, SourceId, SyntheticFleet};
use wrangler_table::{par, wire, DataType, Schema, Table, Value};

fn make_fleet(seed: u64) -> SyntheticFleet {
    fleet_of(60, seed)
}

fn fleet_of(num_products: usize, seed: u64) -> SyntheticFleet {
    let cfg = FleetConfig {
        num_products,
        num_sources: 8,
        now: 20,
        coverage: (0.3, 0.8),
        error_rate: (0.02, 0.25),
        null_rate: (0.0, 0.1),
        staleness: (0, 10),
        ..FleetConfig::default()
    };
    wrangler_sources::synthetic::generate_fleet(&cfg, seed)
}

fn target_sample(fleet: &SyntheticFleet) -> Table {
    let catalog = fleet.truth.master_catalog();
    let mut fields = catalog.schema().fields().to_vec();
    fields.push(wrangler_table::Field::new("price", DataType::Float));
    let schema = Schema::new(fields).unwrap();
    let mut columns: Vec<Vec<Value>> = (0..catalog.num_columns())
        .map(|i| catalog.column(i).unwrap().to_vec())
        .collect();
    columns.push(vec![Value::Null; catalog.num_rows()]);
    Table::from_columns(schema, columns).unwrap()
}

/// Build the session exactly the same way every time — the restart
/// discipline resume depends on: same fleet seed, same config, same
/// (optional) fault injection.
fn build(fleet: &SyntheticFleet, faults: Option<&FaultConfig>) -> Wrangler {
    build_over(fleet, fleet.truth.master_catalog(), faults)
}

/// [`build`] over a master catalog of the caller's; the target sample stays
/// the fleet's.
fn build_over(fleet: &SyntheticFleet, catalog: Table, faults: Option<&FaultConfig>) -> Wrangler {
    let mut ctx = DataContext::with_ontology(Ontology::ecommerce());
    ctx.add_master("product", catalog, "sku").unwrap();
    let mut w = Wrangler::new(
        UserContext::balanced("resume-test"),
        ctx,
        target_sample(fleet),
    );
    w.set_now(fleet.truth.now);
    for s in fleet.registry.iter() {
        w.add_source(s.meta.clone(), s.table.clone());
    }
    w = w.with_er_workers(2).with_fuse_workers(2);
    if let Some(cfg) = faults {
        w.inject_faults(cfg);
    }
    w
}

/// Everything byte-identity covers: the delivered table (canonical wire
/// hash, `f64::to_bits` exact), the selection, the acquisition story, and
/// the session's post-pass trust/breaker/containment state.
fn fingerprint(w: &Wrangler, out: &WrangleOutcome) -> (u64, String) {
    let table = wire::table_hash(&out.table);
    let state = format!(
        "sel={:?} skip={:?} deg={:?} att={} ticks={} cost={} ent={} util={} trust={:?} breakers={:?} contain={}",
        out.selected_sources,
        out.skipped_sources,
        out.degraded_sources,
        out.acquisition_attempts,
        out.acquisition_ticks,
        out.cost_spent.to_bits(),
        out.entities,
        out.utility.to_bits(),
        (0..w.num_sources())
            .map(|i| w.source_trust(SourceId(i as u32)).to_bits())
            .collect::<Vec<_>>(),
        (0..w.num_sources())
            .map(|i| w.acquisition.breaker_state(i))
            .collect::<Vec<_>>(),
        out.containment.render(),
    );
    (table, state)
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir); // lint-allow: test scratch cleanup
}

/// The record keys in a store directory.
fn record_keys(dir: &Path) -> std::collections::BTreeSet<u64> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            u64::from_str_radix(path.file_stem().unwrap().to_str().unwrap(), 16).unwrap()
        })
        .collect()
}

/// Run the crash half: a fresh session with the store attached and a panic
/// armed at `site`. Returns true if the pass was actually interrupted
/// (panicked at the seam, or surfaced as a structured error when the panic
/// was caught by a containment wrapper).
fn crash_at(fleet: &SyntheticFleet, faults: Option<&FaultConfig>, dir: &Path, site: CrashSite) -> bool {
    let store = CheckpointStore::open(dir).unwrap();
    let mut w = build(fleet, faults)
        .with_checkpoint_store(store)
        .with_crash_policy(CrashPolicy::panic_at(site));
    match catch_unwind(AssertUnwindSafe(|| w.wrangle())) {
        Err(_) => true,       // panicked at the seam
        Ok(Err(_)) => true,   // caught by a containment wrapper, surfaced as Err
        Ok(Ok(_)) => false,   // completed — the site was never reached
    }
}

#[test]
fn resume_is_byte_identical_at_every_crash_site() {
    resume_matches_cold("resume", &make_fleet(42), &CrashSite::all());
}

/// The resume the fuse stage pays for in full — ER replayed, fusion live —
/// on a fleet whose slots clear the fuse pool's fan-out floor
/// (2 × `MIN_SLOTS_PER_WORKER`): wherever there is a second core, the cold
/// pass and the resumed one fuse on two workers.
#[test]
fn resume_after_er_is_byte_identical_with_a_fanned_out_fuse() {
    let fleet = fleet_of(1800, 42);
    let cold_out = resume_matches_cold("resume-wide", &fleet, &[CrashSite::AfterEr]);
    assert_eq!(
        cold_out.metrics.counts.contains_key("fuse.worker1.items"),
        par::available_parallelism() >= 2,
        "{} slots",
        cold_out.metrics.counts["fuse.slots"]
    );
}

/// Crash at each of `sites`, resume, and demand the cold pass's fingerprint;
/// returns the cold outcome. `label` names the scratch stores, which
/// concurrent tests must not share.
fn resume_matches_cold(label: &str, fleet: &SyntheticFleet, sites: &[CrashSite]) -> WrangleOutcome {
    // Cold reference: no store, no crash.
    let mut cold = build(fleet, None);
    let cold_out = cold.wrangle().unwrap();
    let cold_fp = fingerprint(&cold, &cold_out);

    for &site in sites {
        let dir = scratch_dir(&format!("{label}-{}", site.name()));
        cleanup(&dir);
        let interrupted = crash_at(fleet, None, &dir, site);
        assert!(interrupted, "{site:?}: crash policy did not fire");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(
            store.num_records() > 0,
            "{site:?}: no checkpoints persisted before the crash"
        );
        // Restart: a fresh session (new process) pointed at the same store.
        let mut resumed = build(fleet, None).with_checkpoint_store(store);
        let out = resumed.resume().unwrap();
        assert_eq!(
            fingerprint(&resumed, &out),
            cold_fp,
            "{site:?}: resumed outcome diverged from the uninterrupted run"
        );
        // The prefix replayed from checkpoints rather than recomputing.
        let hits: u64 = ["select", "acquire", "map_generate", "map_apply", "union", "er", "fuse"]
            .iter()
            .map(|s| {
                out.metrics
                    .counts
                    .get(&format!("ckpt.{s}.hits"))
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        assert!(hits > 0, "{site:?}: resume replayed nothing");
        // A union replayed from the store carries runs but no block keys:
        // nothing attests its identity, so that pass captures neither the ER
        // nor the fuse memo (and laid no block). A union computed live
        // leaves every memo the uninterrupted run left.
        let memos = match out.metrics.counts.get("ckpt.union.hits") {
            Some(_) => 0,
            None => cold.incr_memo_count(),
        };
        assert_eq!(resumed.incr_memo_count(), memos, "{site:?}");
        cleanup(&dir);
    }
    assert!(cold.incr_memo_count() > 2, "blocks, ER and fuse memoized");
    cold_out
}

#[test]
fn resume_preserves_quarantine_and_breaker_state_under_faults() {
    let fleet = make_fleet(7);
    let faults = FaultConfig::with_rate(0.5, 99);
    let mut cold = build(&fleet, Some(&faults));
    let cold_out = cold.wrangle().unwrap();
    let cold_fp = fingerprint(&cold, &cold_out);
    assert!(
        !cold_out.skipped_sources.is_empty() || !cold_out.degraded_sources.is_empty(),
        "fixture should actually exercise faults"
    );

    for site in [CrashSite::AfterAcquire, CrashSite::MidEr, CrashSite::AfterFuse] {
        let dir = scratch_dir(&format!("resume-faults-{}", site.name()));
        cleanup(&dir);
        let interrupted = crash_at(&fleet, Some(&faults), &dir, site);
        assert!(interrupted, "{site:?}: crash policy did not fire");
        let store = CheckpointStore::open(&dir).unwrap();
        let mut resumed = build(&fleet, Some(&faults)).with_checkpoint_store(store);
        let out = resumed.resume().unwrap();
        assert_eq!(
            fingerprint(&resumed, &out),
            cold_fp,
            "{site:?}: trust/breaker/containment state diverged after resume"
        );
        cleanup(&dir);
    }
}

#[test]
fn torn_and_bitflipped_checkpoints_are_never_loaded() {
    let fleet = make_fleet(11);
    let mut cold = build(&fleet, None);
    let cold_out = cold.wrangle().unwrap();
    let cold_fp = fingerprint(&cold, &cold_out);

    for truncate in [Some(0.5), None] {
        let label = if truncate.is_some() { "torn" } else { "bitflip" };
        let dir = scratch_dir(&format!("resume-{label}"));
        cleanup(&dir);
        // Populate the store with a full run, then corrupt every record.
        {
            let store = CheckpointStore::open(&dir).unwrap();
            let mut w = build(&fleet, None).with_checkpoint_store(store);
            w.wrangle().unwrap();
        }
        let store = CheckpointStore::open(&dir).unwrap();
        let corrupted = store.corrupt_all_records(truncate);
        assert!(corrupted > 0);
        let mut resumed = build(&fleet, None).with_checkpoint_store(store);
        let out = resumed.resume().unwrap();
        // Corruption detected, nothing loaded, everything recomputed — and
        // the recomputed outcome is still byte-identical.
        assert_eq!(
            fingerprint(&resumed, &out),
            cold_fp,
            "{label}: output diverged after recomputing corrupt checkpoints"
        );
        let stats = resumed.checkpoint_store().unwrap().stats();
        assert_eq!(
            stats.torn_detected, corrupted as u64,
            "{label}: every corrupt record must be flagged"
        );
        assert_eq!(stats.hits, 0, "{label}: a corrupt snapshot was loaded");
        cleanup(&dir);
    }
}

/// Every seam's record was rejected: one counted miss each, no hit.
fn assert_every_seam_missed(out: &WrangleOutcome) {
    for stage in [
        "select",
        "acquire",
        "map_generate",
        "map_apply",
        "union",
        "er",
        "fuse",
    ] {
        assert_eq!(
            out.metrics.counts.get(&format!("ckpt.{stage}.misses")),
            Some(&1),
            "{stage}: rejected record must count as a miss"
        );
        assert_eq!(out.metrics.counts.get(&format!("ckpt.{stage}.hits")), None);
    }
}

#[test]
fn undecodable_stage_payload_is_a_miss_and_leaves_the_session_untouched() {
    let fleet = make_fleet(5);
    let mut cold = build(&fleet, None);
    let cold_out = cold.wrangle().unwrap();
    let cold_fp = fingerprint(&cold, &cold_out);

    let dir = scratch_dir("resume-garbage-payload");
    cleanup(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    build(&fleet, None)
        .with_checkpoint_store(store.clone())
        .wrangle()
        .unwrap();
    // Re-put every record with a valid frame, checksum and session state but
    // half a stage payload — and forge the state, so a restore that ran
    // before the payload was rejected would show in the fingerprint.
    let mut rewritten = 0;
    for key in record_keys(&dir) {
        let (mut state, out) = ckpt_io::decode_record(&store.get(key).unwrap()).unwrap();
        state.access_spent = 1e9;
        state
            .creport
            .record_quarantine(SourceId(0), Stage::Union, "forged");
        let garbled = ckpt_io::encode_record(&state, &out[..out.len() / 2]);
        store.put(key, &garbled).unwrap();
        rewritten += 1;
    }
    assert_eq!(rewritten, 7, "one record per seam");

    let mut resumed = build(&fleet, None).with_checkpoint_store(CheckpointStore::open(&dir).unwrap());
    let out = resumed
        .resume()
        .expect("an undecodable stage payload must fall back to live compute");
    assert_eq!(fingerprint(&resumed, &out), cold_fp);
    assert_every_seam_missed(&out);
    cleanup(&dir);
}

#[test]
fn a_union_record_of_another_arity_is_a_miss_and_leaves_the_session_untouched() {
    let fleet = make_fleet(5);
    let mut cold = build(&fleet, None);
    let cold_out = cold.wrangle().unwrap();
    let cold_fp = fingerprint(&cold, &cold_out);

    // Two interrupted runs over one store: the record the second one adds
    // is the union's, under its live key.
    let dir = scratch_dir("resume-union-arity");
    cleanup(&dir);
    assert!(crash_at(&fleet, None, &dir, CrashSite::AfterMapApply));
    let upstream = record_keys(&dir);
    assert!(crash_at(&fleet, None, &dir, CrashSite::AfterUnion));
    let added: Vec<u64> = record_keys(&dir).difference(&upstream).copied().collect();
    let &[union_key] = added.as_slice() else {
        panic!("expected exactly the union record, got {added:?}");
    };

    // Re-put it with a union that decodes and is self-consistent (runs cover
    // the table) but has one column, and forge the state, so a restore that
    // ran before the record was rejected would show in the fingerprint.
    let store = CheckpointStore::open(&dir).unwrap();
    let (mut state, out) = ckpt_io::decode_record(&store.get(union_key).unwrap()).unwrap();
    let live = UnionOut::decode(&out).unwrap();
    assert!(!live.union.table().is_empty() && live.union.table().num_columns() > 1);
    let narrow = Table::from_rows(
        Schema::of_strs(&["only"]),
        vec![vec![Value::Int(1)], vec![Value::Int(2)]],
    )
    .unwrap();
    let mut union = Union::empty(narrow.schema().clone());
    union.append(0, &narrow, &[0, 1]).unwrap();
    let forged = UnionOut {
        selected: live.selected,
        union,
        union_filtered: live.union_filtered,
    };
    UnionOut::decode(&forged.encode()).expect("the forged record decodes");
    state.access_spent = 1e9;
    state
        .creport
        .record_quarantine(SourceId(0), Stage::Union, "forged");
    store
        .put(union_key, &ckpt_io::encode_record(&state, &forged.encode()))
        .unwrap();

    let mut resumed = build(&fleet, None).with_checkpoint_store(store);
    let out = resumed
        .resume()
        .expect("a union record that does not fit the target must fall back to live compute");
    assert_eq!(fingerprint(&resumed, &out), cold_fp);
    let count = |key: &str| out.metrics.counts.get(key).copied().unwrap_or(0);
    assert_eq!(count("ckpt.map_apply.hits"), 1, "the prefix still replays");
    assert_eq!((count("ckpt.union.misses"), count("ckpt.union.hits")), (1, 0));
    cleanup(&dir);
}

/// Bump the first float cell: the content hash moves, the schema stays.
fn perturbed(table: &Table) -> Table {
    let mut t = table.clone();
    for c in 0..t.num_columns() {
        for r in 0..t.num_rows() {
            if let Value::Float(f) = *t.get(r, c).unwrap() {
                t.set(r, c, Value::Float(f + 1.0)).unwrap();
                return t;
            }
        }
    }
    panic!("no float cell to perturb");
}

/// The master catalog is an input of the pass (its values anchor fusion),
/// so a record written under one catalog is no record of a pass over
/// another: a session rebuilt over a revised catalog and pointed at the
/// crashed run's store delivers what a store-less session over the revised
/// catalog does, not the old run's fused values.
#[test]
fn a_store_written_under_another_master_catalog_replays_nothing_stale() {
    let fleet = make_fleet(42);
    let old = fleet.truth.master_catalog();
    let brand = old.schema().index_of("brand").unwrap();
    let mut revised = old.clone();
    for r in 0..revised.num_rows() {
        let v = Value::from(format!("{} Holdings", old.get(r, brand).unwrap().render()));
        revised.set(r, brand, v).unwrap();
    }
    let dir = scratch_dir("resume-revised-master");
    cleanup(&dir);
    assert!(crash_at(&fleet, None, &dir, CrashSite::AfterFuse));

    let mut cold = build_over(&fleet, revised.clone(), None);
    let cold_out = cold.wrangle().unwrap();
    let mut stale = build(&fleet, None);
    let stale_out = stale.wrangle().unwrap();
    assert_ne!(
        wire::table_hash(&cold_out.table),
        wire::table_hash(&stale_out.table),
        "fixture: the revision reaches the delivered table"
    );

    let store = CheckpointStore::open(&dir).unwrap();
    let mut resumed = build_over(&fleet, revised, None).with_checkpoint_store(store);
    let out = resumed.resume().unwrap();
    assert_eq!(fingerprint(&resumed, &out), fingerprint(&cold, &cold_out));
    assert_every_seam_missed(&out);
    cleanup(&dir);
}

#[test]
fn an_update_after_a_resumed_pass_carries_nothing_and_matches_cold() {
    let fleet = make_fleet(23);
    // A union replayed from the store has no live-computed block keys, so
    // nothing may be carried across the next update — whether the resumed
    // pass replayed ER too (no memo) or ran it live (a memo with no layout).
    for site in [CrashSite::MidEr, CrashSite::AfterEr] {
        let dir = scratch_dir(&format!("resume-then-update-{}", site.name()));
        cleanup(&dir);
        assert!(crash_at(&fleet, None, &dir, site));
        let mut resumed =
            build(&fleet, None).with_checkpoint_store(CheckpointStore::open(&dir).unwrap());
        let first = resumed.resume().unwrap();
        assert_eq!(first.metrics.counts.get("ckpt.union.hits"), Some(&1));
        let victim = first.selected_sources[0];
        let payload = perturbed(&fleet.registry.get(victim).unwrap().table);
        assert!(resumed.update_source(victim, payload.clone()).unwrap());
        let out = resumed.wrangle().unwrap();

        // The cold comparator: no store, no engine, same history.
        let mut cold = build(&fleet, None);
        cold.set_incr_enabled(false);
        cold.wrangle().unwrap();
        assert!(cold.update_source(victim, payload).unwrap());
        let cold_out = cold.wrangle().unwrap();
        assert_eq!(fingerprint(&resumed, &out), fingerprint(&cold, &cold_out), "{site:?}");

        let count = |key: &str| out.metrics.counts.get(key).copied().unwrap_or(0);
        assert_eq!(count("incr.er.pairs_remapped"), 0, "{site:?}");
        assert_eq!(count("incr.union.reused"), 0, "{site:?}: no block was memoized");
        assert!(count("er.candidates") > 0, "{site:?}: ER ran live after the update");
        cleanup(&dir);
    }
}

#[test]
fn full_replay_restores_counters_without_rescoring() {
    let fleet = make_fleet(23);
    let mut first = {
        let dir = scratch_dir("replay-counters");
        cleanup(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        build(&fleet, None).with_checkpoint_store(store)
    };
    let out1 = first.wrangle().unwrap();
    let work = first.working.work;

    // Fresh process, same store: every seam hits; the work counters come
    // back from the checkpoint, not from recomputation, and ER scores
    // nothing.
    let dir = first.checkpoint_store().unwrap().dir().to_path_buf();
    let store = CheckpointStore::open(&dir).unwrap();
    let mut second = build(&fleet, None).with_checkpoint_store(store);
    let out2 = second.resume().unwrap();
    assert_eq!(wire::table_hash(&out1.table), wire::table_hash(&out2.table));
    assert_eq!(second.working.work, work);
    assert_eq!(out2.metrics.counts.get("ckpt.fuse.hits"), Some(&1));
    assert_eq!(out2.metrics.counts.get("er.cache.misses"), None);
    cleanup(&dir);
}

#[test]
fn records_of_another_format_version_are_misses_never_misdecoded() {
    let fleet = make_fleet(23);
    let mut cold = build(&fleet, None);
    let cold_out = cold.wrangle().unwrap();
    let cold_fp = fingerprint(&cold, &cold_out);

    let dir = scratch_dir("resume-old-version");
    cleanup(&dir);
    build(&fleet, None)
        .with_checkpoint_store(CheckpointStore::open(&dir).unwrap())
        .wrangle()
        .unwrap();
    // A store left by a build with a different record layout: same magic,
    // same checksummed payloads, another version in header bytes 4..6.
    let mut rewritten = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut raw = std::fs::read(&path).unwrap();
        let version = u16::from_le_bytes([raw[4], raw[5]]);
        raw[4..6].copy_from_slice(&(version - 1).to_le_bytes());
        std::fs::write(&path, raw).unwrap();
        rewritten += 1;
    }
    assert_eq!(rewritten, 7, "one record per seam");

    let mut resumed =
        build(&fleet, None).with_checkpoint_store(CheckpointStore::open(&dir).unwrap());
    let out = resumed
        .resume()
        .expect("a record of another version must fall back to live compute");
    assert_eq!(fingerprint(&resumed, &out), cold_fp);
    assert_every_seam_missed(&out);
    assert_eq!(resumed.checkpoint_store().unwrap().stats().torn_detected, 7);
    cleanup(&dir);
}

#[test]
fn a_checkpointed_pass_writes_a_small_multiple_of_its_source_bytes() {
    let fleet = make_fleet(23);
    let dir = scratch_dir("write-amp");
    cleanup(&dir);
    let out = build(&fleet, None)
        .with_checkpoint_store(CheckpointStore::open(&dir).unwrap())
        .wrangle()
        .unwrap();
    let source_bytes: usize = out
        .selected_sources
        .iter()
        .map(|&id| wire::table_bytes(&fleet.registry.get(id).unwrap().table).len())
        .sum();
    let store_bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().metadata().unwrap().len())
        .sum();
    // The mapped tables and the union each carry the selected rows once, and
    // every record repeats the session snapshot: 4.0x on this fixture. A
    // record that grows with the candidate-pair count lands far above (37x
    // when both post-ER records embedded every pair score).
    assert!(
        store_bytes <= 8 * source_bytes as u64,
        "store {store_bytes} B vs sources {source_bytes} B"
    );
    cleanup(&dir);
}

#[test]
fn resume_without_store_is_a_structured_error() {
    let fleet = make_fleet(3);
    let mut w = build(&fleet, None);
    let err = w.resume().unwrap_err();
    assert!(err.to_string().contains("checkpoint store"));
}

// ---------------------------------------------------------------------------
// Property: for ANY (crash site, fleet, fault profile, containment mode),
// crash-then-resume is indistinguishable from never having crashed — same
// table bytes, same trust/breaker/containment state, or the same structured
// error when the uninterrupted run itself fails.
// ---------------------------------------------------------------------------

use proptest::prelude::*;
use wrangler_core::ContainPolicy;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn resume_matches_cold_run_for_any_crash_and_fault_mix(
        site_idx in 0usize..8,
        fleet_seed in 0u64..4,
        fault_rate in 0.0f64..=0.5,
        fault_seed in any::<u64>(),
        mode in 0u8..3,
    ) {
        let site = CrashSite::all()[site_idx];
        let fleet = make_fleet(1000 + fleet_seed);
        let faults = FaultConfig::with_rate(fault_rate, fault_seed);
        let policy = match mode {
            0 => ContainPolicy::contain(),
            1 => ContainPolicy::abort(),
            _ => ContainPolicy::off(),
        };
        let session = || build(&fleet, Some(&faults)).with_contain_policy(policy.clone());

        let mut cold = session();
        let cold_run = cold.wrangle();

        let dir = scratch_dir(&format!(
            "prop-{}-{}-{}-{:x}-{}",
            site.name(),
            fleet_seed,
            fault_rate.to_bits(),
            fault_seed,
            mode
        ));
        cleanup(&dir);
        {
            let store = CheckpointStore::open(&dir).unwrap();
            let mut w = session()
                .with_checkpoint_store(store)
                .with_crash_policy(CrashPolicy::panic_at(site));
            let _ = catch_unwind(AssertUnwindSafe(|| w.wrangle()));
        }
        let store = CheckpointStore::open(&dir).unwrap();
        let mut resumed = session().with_checkpoint_store(store);
        let resumed_run = resumed.resume();

        match (cold_run, resumed_run) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(
                    fingerprint(&cold, &a),
                    fingerprint(&resumed, &b),
                    "resume diverged (site {:?}, mode {})", site, mode
                );
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "resume must fail identically (site {:?}, mode {})", site, mode
                );
            }
            (a, b) => {
                cleanup(&dir);
                return Err(format!(
                    "cold {:?} vs resumed {:?} disagree on success (site {:?}, mode {})",
                    a.map(|o| o.entities),
                    b.map(|o| o.entities),
                    site,
                    mode
                ));
            }
        }
        cleanup(&dir);
    }
}
