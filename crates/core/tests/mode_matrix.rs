//! The mode-matrix oracle: one enumerated sweep over every execution mode
//! the session has, asserting that they all deliver the same bytes.
//!
//! {`OptMode::Naive`, `Optimized`} × {incr on, off} × {no store, empty
//! store, resumed from a store left by a crash at each `CrashSite`} ×
//! {`ObsMode::On`, `Off`} × {`ContainPolicy::contain()`, `off()`} = 128
//! cells, each running `wrangle → update_source(one source,
//! nudged payload) → wrangle` on one small fleet with a row filter and an
//! output projection set, then an expert's veto of one delivered price and
//! `rewrangle`. All three outcomes of every cell must fingerprint
//! (`f64::to_bits`-exact) like the reference cell's; the containment render
//! is compared among cells of the same policy.

use std::panic::{catch_unwind, AssertUnwindSafe};

use wrangler_context::{DataContext, Ontology, UserContext};
use wrangler_core::{
    scratch_dir, CheckpointStore, ContainPolicy, CrashPolicy, CrashSite, ObsMode, OptMode,
    WrangleOutcome, Wrangler,
};
use wrangler_feedback::{FeedbackItem, FeedbackTarget, Verdict};
use wrangler_sources::{FleetConfig, SourceId, SyntheticFleet};
use wrangler_table::{wire, DataType, Expr, Field, Schema, Table, Value};

fn make_fleet() -> SyntheticFleet {
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
    wrangler_sources::synthetic::generate_fleet(&cfg, 42)
}

fn target_sample(fleet: &SyntheticFleet) -> Table {
    let catalog = fleet.truth.master_catalog();
    let mut fields = catalog.schema().fields().to_vec();
    fields.push(Field::new("price", DataType::Float));
    let schema = Schema::new(fields).unwrap();
    let mut columns: Vec<Vec<Value>> = (0..catalog.num_columns())
        .map(|i| catalog.column(i).unwrap().to_vec())
        .collect();
    columns.push(vec![Value::Null; catalog.num_rows()]);
    Table::from_columns(schema, columns).unwrap()
}

/// Where a cell's checkpoint store comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StoreAxis {
    None,
    Empty,
    ResumedFrom(CrashSite),
}

#[derive(Debug, Clone)]
struct Cell {
    opt: OptMode,
    incr: bool,
    store: StoreAxis,
    obs: ObsMode,
    policy: ContainPolicy,
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "{:?}-incr{}-{:?}-{:?}-{:?}",
            self.opt, self.incr, self.store, self.obs, self.policy.mode
        )
    }

    /// The same session every time (the restart discipline resume depends
    /// on), with this cell's knobs applied.
    fn session(&self, fleet: &SyntheticFleet) -> Wrangler {
        let mut ctx = DataContext::with_ontology(Ontology::ecommerce());
        ctx.add_master("product", fleet.truth.master_catalog(), "sku")
            .unwrap();
        // Completeness-first selects every relevant source, so the update's
        // freshness bump cannot reshuffle the selection and the incremental
        // engine has clean partitions to reuse.
        let mut w = Wrangler::new(UserContext::completeness_first(), ctx, target_sample(fleet));
        w.set_now(fleet.truth.now);
        for s in fleet.registry.iter() {
            w.add_source(s.meta.clone(), s.table.clone());
        }
        let mut w = w
            .with_opt_mode(self.opt)
            .with_obs_mode(self.obs)
            .with_contain_policy(self.policy.clone())
            .with_row_filter(
                Expr::col("category")
                    .eq(Expr::lit("electronics"))
                    .or(Expr::col("category").eq(Expr::lit("home"))),
            )
            .with_output_columns(vec!["sku".into(), "name".into(), "price".into()]);
        w.set_incr_enabled(self.incr);
        w
    }
}

/// Bump every float cell: the content hash moves, the schema stays put, and
/// the source now dissents on every price it claims.
fn nudged(table: &Table) -> Table {
    let mut cols: Vec<Vec<Value>> = (0..table.num_columns())
        .map(|i| table.column(i).unwrap().to_vec())
        .collect();
    for v in cols.iter_mut().flatten() {
        if let Value::Float(f) = v {
            *f += 1.0;
        }
    }
    Table::from_columns(table.schema().clone(), cols).unwrap()
}

/// The `ckpt_resume.rs` fingerprint, with the containment render split off
/// (it is only comparable among cells of one `ContainPolicy`).
fn fingerprint(w: &Wrangler, out: &WrangleOutcome) -> (String, String) {
    let state = format!(
        "table={:016x} sel={:?} skip={:?} deg={:?} att={} ticks={} cost={} ent={} util={} trust={:?} breakers={:?}",
        wire::table_hash(&out.table),
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
    );
    (state, out.containment.render())
}

type CellPrint = [(String, String); 3];

/// `wrangle → update_source → wrangle → veto a price → rewrangle` under one
/// cell's modes.
fn run_cell(fleet: &SyntheticFleet, cell: &Cell) -> CellPrint {
    let dir = scratch_dir(&format!("matrix-{}", cell.label()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || CheckpointStore::open(&dir).unwrap();
    let (mut w, first) = match cell.store {
        StoreAxis::None => {
            let mut w = cell.session(fleet);
            let out = w.wrangle().unwrap();
            (w, out)
        }
        StoreAxis::Empty => {
            let mut w = cell.session(fleet).with_checkpoint_store(open());
            let out = w.wrangle().unwrap();
            (w, out)
        }
        StoreAxis::ResumedFrom(site) => {
            let mut doomed = cell
                .session(fleet)
                .with_checkpoint_store(open())
                .with_crash_policy(CrashPolicy::panic_at(site));
            // Panicked at the seam, or (MidEr under containment) surfaced as
            // a structured error by the stage's panic isolation.
            let interrupted = !matches!(
                catch_unwind(AssertUnwindSafe(|| doomed.wrangle())),
                Ok(Ok(_))
            );
            assert!(interrupted, "{}: crash policy did not fire", cell.label());
            let mut w = cell.session(fleet).with_checkpoint_store(open());
            let out = w.resume().unwrap();
            (w, out)
        }
    };
    let fp1 = fingerprint(&w, &first);
    // A source the row filter lets through: one whose mapping binds the
    // filtered column (the others' rows never reach the union, so updating
    // them could not change the delivery).
    let category = w.target().index_of("category").unwrap();
    let victim = *first
        .selected_sources
        .iter()
        .find(|&&id| {
            w.mapping_of(id)
                .is_some_and(|m| m.bindings[category].is_some())
        })
        .expect("some selected source maps the filtered column");
    let payload = nudged(&fleet.registry.get(victim).unwrap().table);
    assert!(w.update_source(victim, payload).unwrap());
    let second = w.wrangle().unwrap();
    let fp2 = fingerprint(&w, &second);
    // The veto moves its supporters' trust, so the re-fuse covers every
    // slot they claim.
    let prices = second.table.column_named("price").unwrap();
    let entity = (0..prices.len())
        .find(|&e| !prices[e].is_null())
        .expect("some price delivered");
    w.give_feedback(FeedbackItem::expert(
        FeedbackTarget::Value {
            entity,
            attr: w.target().index_of("price").unwrap(),
            value: None,
        },
        Verdict::Negative,
        1.0,
    ));
    let third = w.rewrangle().unwrap();
    let fp3 = fingerprint(&w, &third);
    let _ = std::fs::remove_dir_all(&dir);
    [fp1, fp2, fp3]
}

#[test]
fn every_mode_combination_delivers_the_reference_bytes() {
    let fleet = make_fleet();
    let mut stores = vec![StoreAxis::None, StoreAxis::Empty];
    stores.extend(CrashSite::all().map(StoreAxis::ResumedFrom));
    let mut reference: Option<CellPrint> = None;
    let mut cells = 0usize;
    for policy in [ContainPolicy::contain(), ContainPolicy::off()] {
        // Containment renders are compared within one policy only.
        let mut policy_reference: Option<[String; 3]> = None;
        for opt in [OptMode::Optimized, OptMode::Naive] {
            for incr in [true, false] {
                for &store in &stores {
                    for obs in [ObsMode::On, ObsMode::Off] {
                        let cell = Cell {
                            opt,
                            incr,
                            store,
                            obs,
                            policy: policy.clone(),
                        };
                        let got = run_cell(&fleet, &cell);
                        let want = reference.get_or_insert_with(|| got.clone());
                        let want_render = policy_reference.get_or_insert_with(|| {
                            [got[0].1.clone(), got[1].1.clone(), got[2].1.clone()]
                        });
                        for pass in 0..3 {
                            assert_eq!(
                                got[pass].0,
                                want[pass].0,
                                "{}: outcome {pass} diverged from the reference cell",
                                cell.label()
                            );
                            assert_eq!(
                                got[pass].1,
                                want_render[pass],
                                "{}: containment render {pass} diverged",
                                cell.label()
                            );
                        }
                        cells += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cells, 128);
    let [first, second, third] = reference.unwrap();
    assert_ne!(first.0, second.0, "the update must change the outcome");
    assert_ne!(second.0, third.0, "the veto must change the outcome");
}
