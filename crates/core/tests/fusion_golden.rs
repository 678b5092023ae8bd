//! Golden fusion outcomes: two fixed fleets with a master catalog, one
//! confirmation and one veto, pinned bit for bit after `wrangle()`, after
//! `rewrangle()` and after a second full `wrangle()` (which fuses the
//! constrained slots inside the fuse stage). The strings below were captured
//! before truth discovery and the fuse kernel moved onto the shared claim
//! index; any change to a float expression or its order in `crates/fusion`
//! shows up here as a different bit pattern. The `rewrangle()` strings were
//! re-pinned when its trust stopped compounding: it blends the last full
//! pass's discovered trust with the beliefs, so the sources no feedback
//! moved keep their fusion-time trust.

use wrangler_context::{DataContext, Ontology, UserContext};
use wrangler_core::{WrangleOutcome, Wrangler};
use wrangler_feedback::{FeedbackItem, FeedbackTarget, Verdict};
use wrangler_sources::{FleetConfig, SourceId, SyntheticFleet};
use wrangler_table::{wire, DataType, Field, Schema, Table, Value};

fn make_fleet(num_products: usize, num_sources: usize, seed: u64) -> SyntheticFleet {
    let cfg = FleetConfig {
        num_products,
        num_sources,
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
    fields.push(Field::new("price", DataType::Float));
    let schema = Schema::new(fields).unwrap();
    let mut columns: Vec<Vec<Value>> = (0..catalog.num_columns())
        .map(|i| catalog.column(i).unwrap().to_vec())
        .collect();
    columns.push(vec![Value::Null; catalog.num_rows()]);
    Table::from_columns(schema, columns).unwrap()
}

fn session(fleet: &SyntheticFleet, user: UserContext) -> Wrangler {
    let mut ctx = DataContext::with_ontology(Ontology::ecommerce());
    ctx.add_master("product", fleet.truth.master_catalog(), "sku")
        .unwrap();
    let mut w = Wrangler::new(user, ctx, target_sample(fleet));
    w.set_now(fleet.truth.now);
    for s in fleet.registry.iter() {
        w.add_source(s.meta.clone(), s.table.clone());
    }
    w
}

/// The delivered table, the utility, every source's belief trust and the
/// fusion-time trust (truth discovery blended with belief), bit for bit.
fn snapshot(w: &Wrangler, out: &WrangleOutcome) -> String {
    let hex = |bits: Vec<u64>| {
        let words: Vec<String> = bits.iter().map(|b| format!("{b:016x}")).collect();
        words.join(",")
    };
    let belief = (0..w.num_sources())
        .map(|s| w.source_trust(SourceId(s as u32)).to_bits())
        .collect();
    let (_, ctx, _) = w.fusion_inputs().expect("a pass ran");
    let fused = ctx.trust.iter().map(|t| t.to_bits()).collect();
    format!(
        "table={:016x} util={:016x} trust={} fuse_trust={}",
        wire::table_hash(&out.table),
        out.utility.to_bits(),
        hex(belief),
        hex(fused)
    )
}

/// The entities with a delivered price, ascending.
fn delivered_prices(out: &WrangleOutcome) -> Vec<usize> {
    (0..out.table.num_rows())
        .filter(|&e| !out.table.get_named(e, "price").unwrap().is_null())
        .collect()
}

/// The delivered prices some source disputes, ascending: a veto only has
/// something to decide where sources disagree.
fn contested_prices(w: &Wrangler, out: &WrangleOutcome) -> Vec<usize> {
    let price = w.target().index_of("price").unwrap();
    delivered_prices(out)
        .into_iter()
        .filter(|&e| {
            w.explain(e, price)
                .is_some_and(|x| !x.dissenters.is_empty())
        })
        .collect()
}

/// An expert's verdict on the price `entity` was delivered.
fn price_feedback(w: &Wrangler, entity: usize, verdict: Verdict) -> FeedbackItem {
    FeedbackItem::expert(
        FeedbackTarget::Value {
            entity,
            attr: w.target().index_of("price").unwrap(),
            value: None,
        },
        verdict,
        1.0,
    )
}

/// `wrangle()`, confirm one delivered price, refute a contested one,
/// `rewrangle()`, then a full `wrangle()` with both constraints in force.
fn run(fleet: &SyntheticFleet, user: UserContext) -> [String; 3] {
    let mut w = session(fleet, user);
    let first = w.wrangle().unwrap();
    let after_wrangle = snapshot(&w, &first);

    let confirmed = delivered_prices(&first)[0];
    let vetoed = contested_prices(&w, &first)
        .into_iter()
        .find(|&e| e != confirmed)
        .expect("some contested price");
    for (entity, verdict) in [(confirmed, Verdict::Positive), (vetoed, Verdict::Negative)] {
        let item = price_feedback(&w, entity, verdict);
        w.give_feedback(item);
    }
    let second = w.rewrangle().unwrap();
    assert_ne!(
        second.table.get_named(vetoed, "price").unwrap(),
        first.table.get_named(vetoed, "price").unwrap(),
        "the vetoed price was delivered again"
    );
    let after_rewrangle = snapshot(&w, &second);
    let third = w.wrangle().unwrap();
    let after_second_wrangle = snapshot(&w, &third);
    [after_wrangle, after_rewrangle, after_second_wrangle]
}

#[test]
fn completeness_first_fleet_is_pinned() {
    let got = run(&make_fleet(60, 8, 42), UserContext::completeness_first());
    let want = [
        "table=70486412901eac6b util=3fedb36803fc1c8d trust=3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333 fuse_trust=3fe666959bcdb3c6,3fe776bb233772d6,3fe869b0a949cb46,3fe7c36f36d98a08,3fe6fab8b5c124e6,3fe799f76575891c,3fe809e4b41f1dd6,3fe5f2c07ef47edf",
        "table=4b9e3db0b7581bea util=3fedb6f9252855bf trust=3fe7a8be02fca6ef,3fe3333333333333,3fe3333333333333,3fdfaa7d0f7fbb95,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333 fuse_trust=3fe8a15b03b26da4,3fe776bb233772d6,3fe869b0a949cb46,3fe61474e11fdf54,3fe6fab8b5c124e6,3fe799f76575891c,3fe809e4b41f1dd6,3fe5f2c07ef47edf",
        "table=3dc855e10e89640d util=3fedb6f9252855bf trust=3fe7a8be02fca6ef,3fe3333333333333,3fe3333333333333,3fdfaa7d0f7fbb95,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333 fuse_trust=3fe8a15b03b26da4,3fe776bb233772d6,3fe869b0a949cb46,3fe61474e11fdf54,3fe6fab8b5c124e6,3fe799f76575891c,3fe809e4b41f1dd6,3fe5f2c07ef47edf",
    ];
    assert_eq!(got, want);
}

#[test]
fn accuracy_first_fleet_is_pinned() {
    let got = run(&make_fleet(40, 12, 7), UserContext::accuracy_first());
    let want = [
        "table=2942f14dad84b544 util=3fec5ce7446a8f98 trust=3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333 fuse_trust=3fe7192c1b39483e,3fe7244c44e07d4c,3fe6609384e2a4aa,3fe598c32c0e9bd6,3fe6666666666666,3fe7f7acbcb03148,3fe65b584b1a3f4e,3fe7e36b60f7fcf0,3fe66b92bc6b0a02,3fe7f0ee00cf9382,3fe6666666666666,3fe6e8365860afe4",
        "table=b16d2dd04514703e util=3fec680e81bce3b7 trust=3fe18d77806469a4,3fe4c795b0443325,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333332,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333 fuse_trust=3fe6464e41d1e377,3fe7ee7d8368fd46,3fe6609384e2a4aa,3fe598c32c0e9bd6,3fe6666666666666,3fe7f7acbcb03148,3fe65b584b1a3f4e,3fe7e36b60f7fcf0,3fe66b92bc6b0a02,3fe7f0ee00cf9382,3fe6666666666666,3fe6e8365860afe4",
        "table=be276295ca34c8cc util=3fee8f222c09a24a trust=3fe18d77806469a4,3fe4c795b0443325,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333332,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333,3fe3333333333333 fuse_trust=3fe593888cff019f,3fe86e3bc350bdb0,3fe82bbc12971477,3fe6666666666666,3fe6666666666666,3fe6666666666666,3fe6666666666666,3fe8d1a0dc4b2b0a,3fe6666666666666,3fe6666666666666,3fe6666666666666,3fe6666666666666",
    ];
    assert_eq!(got, want);
}

/// `rewrangle` blends the trust the last full pass's truth discovery found
/// with the beliefs, as the fuse stage does, never with its own previous
/// blend: after one value veto under shared routing, every source whose
/// belief the veto did not move keeps its fusion-time trust bit for bit, and
/// a second `rewrangle` with no feedback between moves no trust bit.
#[test]
fn rewrangle_moves_the_trust_of_the_sources_whose_belief_moved_and_no_other() {
    let fleet = make_fleet(60, 8, 42);
    let mut w = session(&fleet, UserContext::completeness_first());
    let first = w.wrangle().unwrap();
    let beliefs = |w: &Wrangler| -> Vec<u64> {
        (0..w.num_sources())
            .map(|s| w.source_trust(SourceId(s as u32)).to_bits())
            .collect()
    };
    let fusion_trust = |w: &Wrangler| -> Vec<u64> {
        let (_, ctx, _) = w.fusion_inputs().expect("a pass ran");
        ctx.trust.iter().map(|t| t.to_bits()).collect()
    };
    let (belief_before, trust_before) = (beliefs(&w), fusion_trust(&w));

    let vetoed = contested_prices(&w, &first)[0];
    let veto = price_feedback(&w, vetoed, Verdict::Negative);
    w.give_feedback(veto);
    let refused = w.rewrangle().unwrap();
    assert_eq!(refused.metrics.counts.get("pass.rewrangle"), Some(&1));
    let (belief, trust) = (beliefs(&w), fusion_trust(&w));
    let unmoved: Vec<usize> = (0..belief.len())
        .filter(|&s| belief[s] == belief_before[s])
        .collect();
    assert!(
        !unmoved.is_empty() && unmoved.len() < belief.len(),
        "fixture: the veto moves some beliefs and not others"
    );
    for s in unmoved {
        assert_eq!(
            trust[s], trust_before[s],
            "source {s}: its belief did not move"
        );
    }

    w.rewrangle().unwrap();
    assert_eq!(beliefs(&w), belief);
    assert_eq!(
        fusion_trust(&w),
        trust,
        "a re-fuse without feedback moved trust"
    );
}
