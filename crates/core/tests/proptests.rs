//! Property-based tests for the resilient-acquisition layer: laws the
//! backoff schedule must satisfy for any policy, and determinism of the
//! whole acquisition engine under a fixed seed.

use proptest::prelude::*;
use wrangler_core::acquire::{Acquisition, AcquisitionMode, RetryPolicy};
use wrangler_sources::faults::FaultConfig;
use wrangler_sources::{FleetConfig, SourceId};

/// Arbitrary-but-sane retry policies, spanning degenerate corners
/// (base 0, jitter 0/1, multiplier < 1, cap smaller than base).
fn arb_policy() -> impl Strategy<Value = RetryPolicy> {
    (
        0u64..=16,       // base_backoff (0 exercises the max(1) floor)
        0.5f64..=4.0,    // multiplier (< 1 exercises the max(1.0) floor)
        1u64..=64,       // max_backoff
        0.0f64..=1.0,    // jitter
        any::<u64>(),    // seed
    )
        .prop_map(|(base, mult, cap, jitter, seed)| RetryPolicy {
            max_attempts: 8,
            base_backoff: base,
            multiplier: mult,
            max_backoff: cap,
            jitter,
            seed,
            attempt_deadline: 8,
        })
}

proptest! {
    #[test]
    fn backoff_schedule_is_deterministic_per_seed(
        policy in arb_policy(),
        source in 0u32..200,
        retries in 0u32..12,
    ) {
        let a = policy.backoff_schedule(SourceId(source), retries);
        let b = policy.backoff_schedule(SourceId(source), retries);
        prop_assert_eq!(a, b, "same (policy, source) must replay identically");
    }

    #[test]
    fn backoff_schedule_is_monotone_and_bounded(
        policy in arb_policy(),
        source in 0u32..200,
        retries in 1u32..12,
    ) {
        let waits = policy.backoff_schedule(SourceId(source), retries);
        prop_assert_eq!(waits.len(), retries as usize);
        let cap = policy.max_backoff.max(1);
        let mut prev = 0u64;
        for (i, &w) in waits.iter().enumerate() {
            prop_assert!(w >= 1, "retry {i}: wait {w} below floor");
            prop_assert!(w <= cap, "retry {i}: wait {w} exceeds cap {cap}");
            prop_assert!(w >= prev, "retry {i}: wait {w} < previous {prev}");
            prev = w;
        }
    }

    #[test]
    fn backoff_jitter_never_shrinks_the_exponential_floor(
        source in 0u32..200,
        retries in 1u32..8,
    ) {
        // With jitter, every wait is >= the jitter-free schedule (jitter only
        // stretches), so total added latency is bounded below by pure
        // exponential backoff.
        let jittered = RetryPolicy { jitter: 0.25, ..RetryPolicy::default() };
        let bare = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };
        let j = jittered.backoff_schedule(SourceId(source), retries);
        let b = bare.backoff_schedule(SourceId(source), retries);
        for i in 0..retries as usize {
            prop_assert!(j[i] >= b[i], "retry {i}: jittered {} < bare {}", j[i], b[i]);
        }
    }

    #[test]
    fn acquisition_engine_is_deterministic(
        fault_rate in 0.0f64..=0.6,
        fault_seed in any::<u64>(),
    ) {
        // Two engines fed the same faulty fleet must produce byte-identical
        // reports: dispositions, attempt counts, and virtual-tick totals.
        let fleet = wrangler_sources::synthetic::generate_fleet(
            &FleetConfig { num_products: 30, num_sources: 8, now: 10, ..FleetConfig::default() },
            11,
        );
        let ids: Vec<SourceId> = (0..fleet.registry.len()).map(|i| SourceId(i as u32)).collect();
        let run = || {
            let mut reg = fleet.registry.clone();
            reg.inject_faults(&FaultConfig::with_rate(fault_rate, fault_seed));
            let mut eng = Acquisition::default(); // default mode is Resilient
            assert!(matches!(eng.mode, AcquisitionMode::Resilient));
            let report = eng.acquire_selected(&reg, &ids, 10);
            report
                .outcomes
                .iter()
                .map(|o| format!("{}:{:?}:{}:{}", o.id, o.disposition, o.attempts, o.ticks))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}

// ---------------------------------------------------------------------------
// Stage-level containment: mid-pipeline fault mixes must never panic the
// session, and the containment report must replay byte-identically.
// ---------------------------------------------------------------------------

use wrangler_context::{DataContext, Ontology, UserContext};
use wrangler_core::acquire::{BreakerConfig, BreakerState, CircuitBreaker};
use wrangler_core::{ChaosPolicy, ContainPolicy, Wrangler};
use wrangler_table::{DataType, Schema, Table, Value};

/// A ready-to-run session over a fresh small fleet (mirrors the harness in
/// `wrangler-bench`, which this crate cannot depend on).
fn contain_session(fleet: &wrangler_sources::SyntheticFleet) -> Wrangler {
    let mut ctx = DataContext::with_ontology(Ontology::ecommerce());
    ctx.add_master("product", fleet.truth.master_catalog(), "sku")
        .expect("catalog keyed by sku");
    let catalog = fleet.truth.master_catalog();
    let mut fields = catalog.schema().fields().to_vec();
    fields.push(wrangler_table::Field::new("price", DataType::Float));
    let schema = Schema::new(fields).expect("unique names");
    let mut columns: Vec<Vec<Value>> = (0..catalog.num_columns())
        .map(|i| catalog.column(i).unwrap().to_vec())
        .collect();
    columns.push(vec![Value::Null; catalog.num_rows()]);
    let sample = Table::from_columns(schema, columns).expect("aligned");
    let mut w = Wrangler::new(UserContext::balanced("p"), ctx, sample);
    w.set_now(fleet.truth.now);
    for s in fleet.registry.iter() {
        w.add_source(s.meta.clone(), s.table.clone());
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn wrangle_under_mid_pipeline_faults_never_panics(
        fault_rate in 0.0f64..=0.6,
        fault_seed in any::<u64>(),
        chaos_rate in 0.0f64..=0.4,
        chaos_seed in any::<u64>(),
    ) {
        let fleet = wrangler_sources::synthetic::generate_fleet(
            &FleetConfig { num_products: 25, num_sources: 6, now: 10, ..FleetConfig::default() },
            23,
        );
        let profiles = FaultConfig::with_rate(fault_rate, fault_seed)
            .assign_payload(fleet.registry.len());
        let run = || {
            let mut w = contain_session(&fleet);
            for (i, p) in profiles.iter().enumerate() {
                w.set_fault_profile(SourceId(i as u32), *p);
            }
            w.contain = ContainPolicy::contain()
                .with_chaos(ChaosPolicy::new(chaos_rate, chaos_seed));
            // The property under test: this call must never panic, whatever
            // mix of payload faults and injected stage panics it absorbs.
            let result = w.wrangle();
            let report = w.containment_report().render();
            (result.map(|o| (o.entities, o.selected_sources)), report)
        };
        let (a, ra) = run();
        let (b, rb) = run();
        match &a {
            Ok((entities, selected)) => {
                // Ok means survivors produced output, and no quarantined
                // source slipped back into the surviving set.
                prop_assert!(*entities > 0 || selected.is_empty() || fault_rate > 0.0);
            }
            Err(e) => {
                // Failures are structured table errors with a message, never
                // a propagated panic.
                prop_assert!(!e.to_string().is_empty());
            }
        }
        // Byte-identical replay: same outcome, same containment report.
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        prop_assert_eq!(ra, rb);
    }

    #[test]
    fn breaker_recovers_through_half_open_after_quarantine_trip(
        threshold in 1u32..=6,
        cooldown in 1u64..=48,
        probes in 1u32..=4,
        t0 in 0u64..1000,
    ) {
        let cfg = BreakerConfig {
            failure_threshold: threshold,
            cooldown,
            half_open_successes: probes,
        };
        let mut b = CircuitBreaker::new(cfg);
        // A quarantine-induced trip records a full threshold of failures.
        for _ in 0..threshold {
            b.record_failure(t0);
        }
        prop_assert!(matches!(b.state(), BreakerState::Open { .. }));
        // Blocked for the whole cooldown window...
        prop_assert_eq!(b.availability(t0 + cooldown - 1), 0.0);
        prop_assert!(!b.allow_request(t0 + cooldown - 1));
        // ...then half-open eligible, and the probe is let through.
        prop_assert_eq!(b.availability(t0 + cooldown), 0.5);
        prop_assert!(b.allow_request(t0 + cooldown));
        prop_assert_eq!(b.state(), BreakerState::HalfOpen);
        // One failure mid-probe re-opens immediately.
        let mut relapse = b;
        relapse.record_failure(t0 + cooldown);
        prop_assert!(matches!(relapse.state(), BreakerState::Open { .. }));
        // Enough probe successes close the breaker for good.
        for i in 0..probes {
            prop_assert!(b.allow_request(t0 + cooldown + u64::from(i)));
            b.record_success();
        }
        prop_assert_eq!(b.state(), BreakerState::Closed);
        prop_assert_eq!(b.availability(t0 + cooldown + u64::from(probes)), 1.0);
    }
}

// ---------------------------------------------------------------------------
// Plan equivalence: the optimizer may push filters toward acquisition, share
// target profiles across sources and skip dead fusion slots — but only with
// verified justifications, and the delivered table must stay byte-identical
// to naive execution under any fleet, fault profile, containment mode,
// filter and projection combination.
// ---------------------------------------------------------------------------

use wrangler_core::OptMode;
use wrangler_feedback::{FeedbackItem, FeedbackTarget, Verdict};
use wrangler_table::Expr;

/// Bit-exact fingerprint: floats via `to_bits` (NaN-safe, -0.0 ≠ 0.0 safe),
/// everything else via debug rendering.
fn table_fingerprint(t: &Table) -> String {
    let mut s = String::new();
    for r in 0..t.num_rows() {
        for c in 0..t.num_columns() {
            match t.get(r, c).unwrap() {
                Value::Float(f) => s.push_str(&format!("f{:016x};", f.to_bits())),
                v => s.push_str(&format!("{v:?};")),
            }
        }
        s.push('\n');
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn optimized_execution_is_byte_identical_to_naive(
        fleet_seed in any::<u64>(),
        fault_rate in 0.0f64..=0.4,
        fault_seed in any::<u64>(),
        policy_pick in 0u8..3,
        with_filter in any::<bool>(),
        with_projection in any::<bool>(),
    ) {
        let fleet = wrangler_sources::synthetic::generate_fleet(
            &FleetConfig { num_products: 20, num_sources: 5, now: 10, ..FleetConfig::default() },
            fleet_seed,
        );
        let policy = match policy_pick {
            0 => ContainPolicy::off(),     // barrier down: pushdown legal
            1 => ContainPolicy::contain(), // barrier up: union placement only
            _ => ContainPolicy::abort(),
        };
        let profiles = FaultConfig::with_rate(fault_rate, fault_seed)
            .assign_payload(fleet.registry.len());
        let run = |mode: OptMode| {
            let mut w = contain_session(&fleet)
                .with_contain_policy(policy.clone())
                .with_opt_mode(mode);
            for (i, p) in profiles.iter().enumerate() {
                w.set_fault_profile(SourceId(i as u32), *p);
            }
            if with_filter {
                w = w.with_row_filter(
                    Expr::col("category")
                        .eq(Expr::lit("electronics"))
                        .or(Expr::col("category").eq(Expr::lit("home"))),
                );
            }
            if with_projection {
                w = w.with_output_columns(vec!["sku".into(), "name".into(), "price".into()]);
            }
            match w.wrangle() {
                Ok(o) => format!(
                    "ok:{}:{:?}:{}",
                    o.entities,
                    o.selected_sources,
                    table_fingerprint(&o.table)
                ),
                // Both modes must fail the same way (same structured error).
                Err(e) => format!("err:{e}"),
            }
        };
        prop_assert_eq!(run(OptMode::Optimized), run(OptMode::Naive));
    }
}

// ---------------------------------------------------------------------------
// Incremental rewrangling: whatever subset of sources receives a payload
// update between passes — under any fleet, fault profile and containment
// mode — the warm session's memo-reusing pass must deliver byte-for-byte
// the outcome of a cold session that never memoized anything.
// ---------------------------------------------------------------------------

/// A copy of `table` with its first numeric/string cell nudged (same
/// schema, different content). Tables with nothing to nudge return as-is.
fn nudged(table: &Table) -> Table {
    let schema = table.schema().clone();
    let mut cols: Vec<Vec<Value>> = (0..table.num_columns())
        .map(|i| table.column(i).unwrap().to_vec())
        .collect();
    'outer: for col in cols.iter_mut() {
        for v in col.iter_mut() {
            match v {
                Value::Float(f) => {
                    *f += 1.0;
                    break 'outer;
                }
                Value::Int(n) => {
                    *n += 1;
                    break 'outer;
                }
                Value::Str(s) => {
                    s.push_str(" v2");
                    break 'outer;
                }
                _ => {}
            }
        }
    }
    Table::from_columns(schema, cols).expect("same shape")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_rewrangle_is_byte_identical_to_cold(
        fleet_seed in any::<u64>(),
        fault_rate in 0.0f64..=0.4,
        fault_seed in any::<u64>(),
        policy_pick in 0u8..3,
        // Three rounds: bit i of the mask set => source i gets a payload
        // update; a `Some` gives an expert veto of that entity's price.
        mut rounds in prop::collection::vec((0u8..64, prop::option::of(any::<u16>())), 3),
    ) {
        // And a fourth that changes nothing, so that every case checks the
        // pass whose ER carry covers the whole union.
        rounds.push((0, None));
        let fleet = wrangler_sources::synthetic::generate_fleet(
            &FleetConfig { num_products: 20, num_sources: 6, now: 10, ..FleetConfig::default() },
            fleet_seed,
        );
        let policy = match policy_pick {
            0 => ContainPolicy::off(),
            1 => ContainPolicy::contain(),
            _ => ContainPolicy::abort(),
        };
        let profiles = FaultConfig::with_rate(fault_rate, fault_seed)
            .assign_payload(fleet.registry.len());
        let mut warm = contain_session(&fleet).with_contain_policy(policy);
        for (i, p) in profiles.iter().enumerate() {
            warm.set_fault_profile(SourceId(i as u32), *p);
        }
        // First pass populates the memos (it may legitimately fail under
        // abort-mode faults; the property still holds over the shared state).
        let _ = warm.wrangle();
        let mut payloads: Vec<Table> = (0..fleet.registry.len())
            .map(|i| fleet.registry.get(SourceId(i as u32)).unwrap().table.clone())
            .collect();
        let render = |r: wrangler_table::Result<wrangler_core::WrangleOutcome>| match r {
            Ok(o) => format!(
                "ok:{}:{:?}:{:?}:{}",
                o.entities,
                o.selected_sources,
                o.skipped_sources,
                table_fingerprint(&o.table)
            ),
            Err(e) => format!("err:{e}"),
        };
        for (round, (dirty_mask, veto)) in rounds.into_iter().enumerate() {
            for (i, payload) in payloads.iter_mut().enumerate() {
                if dirty_mask & (1 << i) != 0 {
                    *payload = nudged(payload);
                    let _ = warm.update_source(SourceId(i as u32), payload.clone());
                }
            }
            if let Some(pick) = veto {
                let target = FeedbackTarget::Value {
                    entity: usize::from(pick) % 20,
                    attr: warm.target().index_of("price").unwrap(),
                    value: None,
                };
                warm.give_feedback(FeedbackItem::expert(target, Verdict::Negative, 1.0));
            }
            // The cold comparator is the *same* session state with the
            // engine (and everything it memoized) dropped.
            let mut cold = warm.clone();
            cold.set_incr_enabled(false);
            let a = render(warm.wrangle());
            let b = render(cold.wrangle());
            prop_assert_eq!(a, b, "incremental reuse diverged from cold recompute, round {}", round);
        }
    }
}

// ---------------------------------------------------------------------------
// The refuse set: `rewrangle` turns its marks straight into slot numbers of
// the claim index. That must be the eager expansion it replaced — every
// claim of a marked source listed as its `(entity, attribute)`, sorted and
// deduplicated with the slots marked one by one — mapped through `slot_no`,
// and the count it reports must be that list's length.
// ---------------------------------------------------------------------------

use std::collections::BTreeSet;

use wrangler_core::working::WorkingData;
use wrangler_fusion::{Claim, ClaimSet};

/// The eager expansion, as `WorkingData::dirty_slots` computed it.
fn eager_dirty_slots(
    slots: &BTreeSet<(usize, usize)>,
    sources: &BTreeSet<usize>,
    claims: &[Claim],
) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = slots.iter().copied().collect();
    let of_marked = claims.iter().filter(|c| sources.contains(&c.source));
    out.extend(of_marked.map(|c| (c.entity, c.attr)));
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slot_number_expansion_equals_the_eager_one(
        claims in prop::collection::vec((0usize..12, 0usize..4, 0i64..3, 0usize..6), 0..60),
        slot_marks in prop::collection::vec((0usize..14, 0usize..5), 0..8),
        source_marks in prop::collection::vec(0usize..8, 0..4),
    ) {
        let mut set = ClaimSet::new(6);
        for &(entity, attr, value, source) in &claims {
            set.add(entity, attr, Value::Int(value), source);
        }
        let mut wd = WorkingData::new();
        for &(e, a) in &slot_marks {
            wd.mark_slot(e, a);
        }
        // Sources 6 and 7 claim nothing.
        for &s in &source_marks {
            wd.mark_source(s);
        }
        let slots: BTreeSet<(usize, usize)> = slot_marks.iter().copied().collect();
        let sources: BTreeSet<usize> = source_marks.iter().copied().collect();
        let eager = eager_dirty_slots(&slots, &sources, set.claims());
        let index = set.index();
        let want: Vec<usize> = eager.iter().filter_map(|&(e, a)| index.slot_no(e, a)).collect();
        let (nos, unclaimed) = wd.dirty_slot_nos(index);
        prop_assert_eq!(&nos, &want);
        prop_assert_eq!(nos.len() + unclaimed, eager.len());
    }
}
