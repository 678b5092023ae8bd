//! Crash → resume integration: kill a wrangle at every stage seam, rebuild
//! the session from scratch (simulating process restart), point it at the
//! same checkpoint store, and demand the resumed outcome be *byte-identical*
//! (`f64::to_bits` via the canonical table hash) to an uninterrupted run —
//! with quarantine, trust and breaker state preserved. Torn or bit-flipped
//! checkpoints must be detected and recomputed, never loaded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use wrangler_context::{DataContext, Ontology, UserContext};
use wrangler_core::ckpt_io::{ErOut, SeamRecord, UnionOut};
use wrangler_core::{
    ckpt_io, scratch_dir, CheckpointStore, CrashPolicy, CrashSite, Stage, WrangleOutcome, Wrangler,
};
use wrangler_feedback::{FeedbackItem, FeedbackTarget, Verdict};
use wrangler_sources::faults::FaultConfig;
use wrangler_sources::{FleetConfig, SourceId, SyntheticFleet};
use wrangler_table::{wire, DataType, Schema, Table, Value};
use wrangler_uncertainty::Belief;

/// The checkpoint seams, in pass order.
const SEAMS: [&str; 5] = ["select", "acquire", "map_generate", "union", "er"];

fn make_fleet(seed: u64) -> SyntheticFleet {
    let cfg = FleetConfig {
        num_products: 60,
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
    let fleet = &make_fleet(42);
    // Cold reference: no store, no crash.
    let mut cold = build(fleet, None);
    let cold_out = cold.wrangle().unwrap();
    let cold_fp = fingerprint(&cold, &cold_out);

    for site in CrashSite::all() {
        let dir = scratch_dir(&format!("resume-{}", site.name()));
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
        let hits: u64 = SEAMS
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
        cleanup(&dir);
    }
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

    for site in [CrashSite::AfterAcquire, CrashSite::MidEr, CrashSite::AfterEr] {
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
    for stage in SEAMS {
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
    assert_eq!(rewritten, 5, "one record per seam");

    let mut resumed = build(&fleet, None).with_checkpoint_store(CheckpointStore::open(&dir).unwrap());
    let out = resumed
        .resume()
        .expect("an undecodable stage payload must fall back to live compute");
    assert_eq!(fingerprint(&resumed, &out), cold_fp);
    assert_every_seam_missed(&out);
    cleanup(&dir);
}

/// Resume over a store whose record for `stage` is forged: two interrupted
/// runs over one store, at `upstream` and then at `site`, leave exactly
/// `stage`'s record beside the prefix, under its live key. It is re-put with
/// its stage output `forge`d (the forgery must still decode) and its session
/// state forged, so a restore that ran before the record was rejected would
/// show in the fingerprint. The record must be a miss, the prefix up to
/// `prefix` must still replay, and the outcome must equal cold.
fn resume_misses_a_forged<R: SeamRecord>(
    label: &str,
    (upstream, site): (CrashSite, CrashSite),
    (prefix, stage): (&str, &str),
    forge: impl FnOnce(R) -> R,
) {
    let fleet = make_fleet(5);
    let mut cold = build(&fleet, None);
    let cold_out = cold.wrangle().unwrap();
    let cold_fp = fingerprint(&cold, &cold_out);

    let dir = scratch_dir(&format!("resume-forged-{label}"));
    cleanup(&dir);
    assert!(crash_at(&fleet, None, &dir, upstream));
    let before = record_keys(&dir);
    assert!(crash_at(&fleet, None, &dir, site));
    let added: Vec<u64> = record_keys(&dir).difference(&before).copied().collect();
    let &[key] = added.as_slice() else {
        panic!("{label}: expected exactly the {stage} record, got {added:?}");
    };
    let store = CheckpointStore::open(&dir).unwrap();
    let (mut state, out) = ckpt_io::decode_record(&store.get(key).unwrap()).unwrap();
    let forged = wire::to_bytes(&forge(wire::from_bytes(&out).unwrap()));
    wire::from_bytes::<R>(&forged)
        .unwrap_or_else(|e| panic!("{label}: the forged record decodes: {e}"));
    state.access_spent = 1e9;
    state
        .creport
        .record_quarantine(SourceId(0), Stage::Union, "forged");
    store
        .put(key, &ckpt_io::encode_record(&state, &forged))
        .unwrap();

    let mut resumed = build(&fleet, None).with_checkpoint_store(store);
    let out = resumed
        .resume()
        .unwrap_or_else(|e| panic!("{label}: a record that does not fit must be a miss: {e}"));
    assert_eq!(fingerprint(&resumed, &out), cold_fp, "{label}");
    let count = |key: String| out.metrics.counts.get(&key).copied().unwrap_or(0);
    assert_eq!(count(format!("ckpt.{prefix}.hits")), 1, "{label}: the prefix still replays");
    assert_eq!(
        (count(format!("ckpt.{stage}.misses")), count(format!("ckpt.{stage}.hits"))),
        (1, 0),
        "{label}"
    );
    cleanup(&dir);
}

const UNION: (CrashSite, CrashSite) = (CrashSite::AfterMapGenerate, CrashSite::AfterUnion);

#[test]
fn forged_union_records_are_misses_and_leave_the_session_untouched() {
    // Far past the end of any mapped table of a 60-product fleet.
    resume_misses_a_forged(
        "union-past-end",
        UNION,
        ("map_generate", "union"),
        |mut rec: UnionOut| {
            rec.blocks[0].1.push((1 << 40, 1));
            rec
        },
    );
    // One past the registry: no source, so no held mapped table.
    resume_misses_a_forged(
        "union-no-table",
        UNION,
        ("map_generate", "union"),
        |mut rec: UnionOut| {
            rec.blocks.push((8, vec![(0, 1)]));
            rec
        },
    );
    // A block's first row moved behind the rest of its run.
    resume_misses_a_forged(
        "union-unordered",
        UNION,
        ("map_generate", "union"),
        |mut rec: UnionOut| {
            let long = |(_, r): &&mut (usize, Vec<(usize, usize)>)| r.first().is_some_and(|run| run.1 > 1);
            let runs = &mut rec.blocks.iter_mut().find(long).unwrap().1;
            let (first, n) = runs[0];
            runs.splice(0..1, [(first + 1, n - 1), (first, 1)]);
            rec
        },
    );
}

/// An ER record whose clusters do not partition the union's rows is a miss:
/// a row past the union used to panic the fuse stage's catalog anchors.
#[test]
fn an_er_record_that_does_not_partition_the_union_is_a_miss_and_leaves_the_session_untouched() {
    let er = (CrashSite::AfterUnion, CrashSite::AfterEr);
    let rows = |rec: &ErOut| rec.clusters.iter().map(Vec::len).sum::<usize>();
    resume_misses_a_forged("er-row-first", er, ("union", "er"), |mut rec: ErOut| {
        let past = rows(&rec) + 1000;
        rec.clusters[0].insert(0, past);
        rec
    });
    resume_misses_a_forged("er-row-last", er, ("union", "er"), |mut rec: ErOut| {
        let past = rows(&rec) + 1000;
        rec.clusters[0].push(past);
        rec
    });
    resume_misses_a_forged("er-row-twice", er, ("union", "er"), |mut rec: ErOut| {
        let again = rec.clusters[1][0];
        rec.clusters[0].push(again);
        rec
    });
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
/// catalog does, not what the old run's records hold.
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
    assert!(crash_at(&fleet, None, &dir, CrashSite::AfterEr));

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

/// A mapping the session holds is an input of the pass (map_generate keeps
/// it instead of generating one), so a store a completed pass left under the
/// generated mappings is no record of a pass over an overridden one: the
/// rebuilt session delivers what a store-less session given the same
/// override does, and its first seam already misses.
#[test]
fn an_override_given_before_resume_is_not_replaced_by_the_stored_mapping() {
    let fleet = make_fleet(42);
    let dir = scratch_dir("resume-after-override");
    cleanup(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let mut stored = build(&fleet, None).with_checkpoint_store(store);
    let stored_out = stored.wrangle().unwrap();
    // src0's generated mapping, cut down to its key binding.
    let src0 = SourceId(0);
    let key = stored.target().index_of("sku").unwrap();
    let mut key_only = stored.mapping_of(src0).expect("src0 was mapped").clone();
    for (f, binding) in key_only.bindings.iter_mut().enumerate() {
        if f != key {
            *binding = None;
            key_only.binding_beliefs[f] = Belief::uninformed();
        }
    }
    assert!(key_only.bindings[key].is_some(), "fixture: src0 binds the key");

    let mut cold = build(&fleet, None);
    assert!(cold.override_mapping(src0, key_only.clone()));
    let cold_out = cold.wrangle().unwrap();
    assert_ne!(
        wire::table_hash(&cold_out.table),
        wire::table_hash(&stored_out.table),
        "fixture: the override reaches the delivered table"
    );

    let store = CheckpointStore::open(&dir).unwrap();
    let mut resumed = build(&fleet, None).with_checkpoint_store(store);
    assert!(resumed.override_mapping(src0, key_only.clone()));
    let out = resumed.wrangle().unwrap();
    assert_eq!(fingerprint(&resumed, &out), fingerprint(&cold, &cold_out));
    assert_eq!(
        resumed.mapping_of(src0).map(|m| &m.bindings),
        Some(&key_only.bindings),
        "the override is the mapping the pass ran"
    );
    assert_every_seam_missed(&out);
    cleanup(&dir);
}

/// The ontology is an input of map_generate (semantic evidence), so a store
/// a completed pass left under one ontology is no record of a pass under
/// another: every seam misses and the session delivers what a store-less
/// session under the other ontology does.
#[test]
fn a_store_written_under_another_ontology_replays_nothing_stale() {
    let fleet = make_fleet(42);
    let dir = scratch_dir("resume-other-ontology");
    cleanup(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let stored_out = build(&fleet, None).with_checkpoint_store(store).wrangle().unwrap();

    let mut cold = build(&fleet, None);
    cold.data_ctx.ontology = Ontology::new();
    let cold_out = cold.wrangle().unwrap();
    let cold_fp = fingerprint(&cold, &cold_out);
    assert_ne!(
        (wire::table_hash(&stored_out.table), stored_out.entities),
        (cold_fp.0, cold_out.entities),
        "fixture: the ontology reaches the delivered outcome"
    );

    let store = CheckpointStore::open(&dir).unwrap();
    let mut resumed = build(&fleet, None).with_checkpoint_store(store);
    resumed.data_ctx.ontology = Ontology::new();
    let out = resumed.resume().unwrap();
    assert_eq!(fingerprint(&resumed, &out), cold_fp);
    assert_every_seam_missed(&out);
    cleanup(&dir);
}

/// Value-level feedback is an input of fuse alone, and fuse keeps no
/// record: a veto given to the session that resumes a crashed run replays
/// every seam up to ER, and fuses live under the veto.
#[test]
fn a_veto_given_before_resume_replays_up_to_er_and_refuses_live() {
    let fleet = make_fleet(42);
    let dir = scratch_dir("resume-after-veto");
    cleanup(&dir);
    assert!(crash_at(&fleet, None, &dir, CrashSite::AfterEr));
    let mut plain = build(&fleet, None);
    let plain_out = plain.wrangle().unwrap();
    let (entity, vetoed) = (0..plain_out.table.num_rows())
        .find_map(|r| {
            let v = plain_out.table.get_named(r, "price").unwrap();
            (!v.is_null()).then(|| (r, v.clone()))
        })
        .unwrap();
    let veto = FeedbackItem::expert(
        FeedbackTarget::Value {
            entity,
            attr: plain.target().index_of("price").unwrap(),
            value: Some(vetoed),
        },
        Verdict::Negative,
        1.0,
    );
    let mut cold = build(&fleet, None);
    cold.give_feedback(veto.clone());
    let cold_out = cold.wrangle().unwrap();
    assert_ne!(
        wire::table_hash(&cold_out.table),
        wire::table_hash(&plain_out.table),
        "fixture: the veto reaches the delivered table"
    );

    let store = CheckpointStore::open(&dir).unwrap();
    let mut resumed = build(&fleet, None).with_checkpoint_store(store);
    resumed.give_feedback(veto);
    let out = resumed.resume().unwrap();
    assert_eq!(fingerprint(&resumed, &out), fingerprint(&cold, &cold_out));
    let count = |key: String| out.metrics.counts.get(&key).copied().unwrap_or(0);
    for seam in SEAMS {
        assert_eq!(count(format!("ckpt.{seam}.hits")), 1, "{seam}");
    }
    assert!(!out
        .metrics
        .counts
        .keys()
        .any(|k| k.starts_with("ckpt.fuse.")));
    cleanup(&dir);
}

#[test]
fn an_update_after_a_resumed_pass_carries_nothing_and_matches_cold() {
    let fleet = make_fleet(23);
    // A union replayed from the store names no held table per block, so
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

    // Fresh process, same store: every seam hits; the work counters up to
    // ER come back from the checkpoint, not from recomputation, ER scores
    // nothing, and fuse — no seam — adds the slots it fuses live, as the
    // first pass did.
    let dir = first.checkpoint_store().unwrap().dir().to_path_buf();
    let store = CheckpointStore::open(&dir).unwrap();
    let mut second = build(&fleet, None).with_checkpoint_store(store);
    let out2 = second.resume().unwrap();
    assert_eq!(wire::table_hash(&out1.table), wire::table_hash(&out2.table));
    assert_eq!(second.working.work, work);
    for seam in SEAMS {
        assert_eq!(
            out2.metrics.counts.get(&format!("ckpt.{seam}.hits")),
            Some(&1),
            "{seam}"
        );
    }
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
    assert_eq!(rewritten, 5, "one record per seam");

    let mut resumed =
        build(&fleet, None).with_checkpoint_store(CheckpointStore::open(&dir).unwrap());
    let out = resumed
        .resume()
        .expect("a record of another version must fall back to live compute");
    assert_eq!(fingerprint(&resumed, &out), cold_fp);
    assert_every_seam_missed(&out);
    assert_eq!(resumed.checkpoint_store().unwrap().stats().torn_detected, 5);
    cleanup(&dir);
}

/// A checkpointed cold pass leaves one record per seam, and a resume after
/// a crash past the last seam writes nothing: the stages after ER run live
/// and keep no record.
#[test]
fn a_checkpointed_pass_writes_one_record_per_seam_and_a_post_er_resume_none() {
    let fleet = make_fleet(23);
    let dir = scratch_dir("one-record-per-seam");
    cleanup(&dir);
    let out = build(&fleet, None)
        .with_checkpoint_store(CheckpointStore::open(&dir).unwrap())
        .wrangle()
        .unwrap();
    assert_eq!(record_keys(&dir).len(), SEAMS.len(), "one record per seam");
    let written: Vec<&str> = out
        .metrics
        .counts
        .keys()
        .filter_map(|k| k.strip_prefix("ckpt.")?.strip_suffix(".bytes_written"))
        .collect();
    assert_eq!(
        written,
        ["acquire", "er", "map_generate", "select", "union"]
    );
    cleanup(&dir);

    assert!(crash_at(&fleet, None, &dir, CrashSite::AfterEr));
    let stored = record_keys(&dir);
    assert_eq!(stored.len(), SEAMS.len(), "the crash left every record");
    let mut resumed =
        build(&fleet, None).with_checkpoint_store(CheckpointStore::open(&dir).unwrap());
    let out = resumed.resume().unwrap();
    assert_eq!(resumed.checkpoint_store().unwrap().stats().bytes_written, 0);
    assert!(!out
        .metrics
        .counts
        .keys()
        .any(|k| k.ends_with(".bytes_written")));
    assert_eq!(record_keys(&dir), stored);
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
    // The mapped tables carry the selected rows once (the union record only
    // names the rows each block keeps), and every record repeats the
    // session snapshot: 2.9x on this fixture. A record that grows with the
    // candidate-pair count lands far above (37x when both post-ER records
    // embedded every pair score).
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
        site_idx in 0usize..6,
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
