//! The traced run: per-layer metrics (layer = crate) for one workload.
//!
//! Three sources of numbers, all on one fleet:
//! * the five user operations, each under a benchmark span, with the stage
//!   timings and counters the session already reports read off their
//!   outcomes (stages with no public entry point are only visible there);
//! * replays of each layer's public functions on the reference pass's
//!   intermediates, under the benchmark's own spans — a replay whose time
//!   strays more than 10% from the stage the session reports is flagged
//!   unfaithful rather than believed;
//! * the feature-tax table: cold passes with one feature off, interleaved
//!   with default ones.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;

use wrangler_bench::{session, target_sample};
use wrangler_context::UserContext;
use wrangler_core::eval::score_against_truth;
use wrangler_core::incr::pack_pair;
use wrangler_core::working::PairScoreCache;
use wrangler_core::{
    lower, CheckpointStore, ContainPolicy, LowerInput, MetricsReport, ObsMode, OptMode,
    PlanProgram, Wrangler,
};
use wrangler_fusion::FuseKernel;
use wrangler_lint::GateMode;
use wrangler_mapping::generate_mapping_with_profiles;
use wrangler_match::strsim::name_similarity;
use wrangler_match::{profile_table, MatchConfig};
use wrangler_resolve::{candidates_blocked, candidates_blocked_exact, cluster_pairs, ErKernel};
use wrangler_sources::select_greedy_utility;
use wrangler_table::par::{available_parallelism, effective_workers, run_blocked};
use wrangler_table::{wire, Schema, Table};

use crate::fleet::{payload, Workload};
use crate::json::Json;
use crate::ops::{
    ckpt_cold_pass, cold_pass, dir_bytes, fingerprint, refuse_pass, resume_pass, set_up,
    update_pass, user, wrangle_timed, Ledger, Pass, RunResult, Scratch, Setup,
};
use crate::timing::{median, sample, summarize, time};
use crate::trace::Tracer;

/// Traced samples of each user operation.
const OP_REPS: usize = 3;
/// Replays of the cold path's layer functions (after one discarded warm-up).
const REPLAY_REPS: usize = 5;
/// Single-worker scoring replays: twice the work of everything else together.
const W1_REPS: usize = 3;
/// Rounds of the feature-tax table: each runs the default pass and the four
/// one-feature-off passes, rotating which goes first.
const TAX_ROUNDS: usize = 3;
/// Name pairs sampled from the union for the similarity kernel.
const NAME_PAIRS: usize = 10_000;

fn ms_of(report: &MetricsReport, path: &str) -> f64 {
    report
        .timings
        .get(path)
        .map_or(0.0, |t| t.nanos as f64 / 1e6)
}

fn count_of(report: &MetricsReport, name: &str) -> f64 {
    report.counts.get(name).copied().unwrap_or(0) as f64
}

/// Sum of the direct child spans of `wrangle`, in milliseconds.
fn stage_sum_ms(report: &MetricsReport) -> f64 {
    report
        .timings
        .iter()
        .filter(|(p, _)| {
            p.strip_prefix("wrangle/")
                .is_some_and(|rest| !rest.contains('/'))
        })
        .map(|(_, t)| t.nanos as f64 / 1e6)
        .sum()
}

/// The five user operations under benchmark spans, `OP_REPS` times each,
/// with an untraced cold pass beside every traced one.
fn user_operations(
    s: &Setup,
    tr: &mut Tracer,
    scratch: &mut Scratch,
    led: &mut Ledger,
) -> Result<(), String> {
    // A warm session's report aggregates over its passes; deltas against the
    // reference pass isolate the follow-up pass.
    let base = &s.reference.metrics;
    let delta = |r: &MetricsReport, name: &str| count_of(r, name) - count_of(base, name);
    let delta_ms = |r: &MetricsReport, path: &str| ms_of(r, path) - ms_of(base, path);
    let source_wire_bytes: usize = s
        .reference
        .selected_sources
        .iter()
        .map(|id| wire::table_bytes(payload(&s.fleet, *id)).len())
        .sum();

    for rep in 0..OP_REPS {
        // A traced and an untraced cold pass, alternating which goes first.
        // Only the traced outcome is kept: a live session beside the other
        // pass (its pair cache is hundreds of MB) would slow that one.
        let mut traced_pass = None;
        for traced in [rep % 2 == 0, rep % 2 != 0] {
            tr.set_on(traced);
            let metric = if traced {
                "traced.cold_ms"
            } else {
                "untraced.cold_ms"
            };
            let pass = tr.span("op.cold_pass", |_| cold_pass(&s.fleet));
            let Pass { secs, out, .. } = led.record(metric, pass, &s.cold_ref)?;
            if traced {
                traced_pass = Some((secs, out));
            }
        }
        tr.set_on(true);
        let (cold_secs, cold_out) = traced_pass.expect("one of the pair is traced");
        let r = &cold_out.metrics;
        let er_ms = ms_of(r, "wrangle/er");
        led.put("core.acquire_ms", ms_of(r, "wrangle/acquire"));
        led.put("core.union_ms", ms_of(r, "wrangle/union"));
        led.put("core.assemble_ms", ms_of(r, "wrangle/assemble"));
        led.put("core.er_stage_ms", er_ms);
        led.put("core.fuse_stage_ms", ms_of(r, "wrangle/fuse"));
        led.put("core.glue_ms", cold_secs * 1e3 - stage_sum_ms(r));
        led.put("core.er_stage_share", er_ms / (cold_secs * 1e3));
        for stage in ["select", "map_generate", "plan", "preflight", "map_apply"] {
            led.put(
                &format!("stage.{stage}_ms"),
                ms_of(r, &format!("wrangle/{stage}")),
            );
        }
        if rep == 0 {
            led.put(
                "sources.select.candidates",
                count_of(r, "select.candidates"),
            );
            led.put("plan.nodes", count_of(r, "plan.nodes"));
            led.put("plan.rewrites", count_of(r, "opt.rewrites"));
            led.put("resolve.candidates", count_of(r, "er.candidates"));
            led.put(
                "resolve.match_ratio",
                count_of(r, "er.match_pairs") / count_of(r, "er.candidates").max(1.0),
            );
            led.put("fusion.slots", count_of(r, "fuse.slots"));
            led.put("fusion.claims", count_of(r, "fuse.claims"));
            led.put("core.union.rows", count_of(r, "union.rows"));
            led.put("core.scan.bytes", count_of(r, "scan.bytes"));
            let scores = score_against_truth(&cold_out.table, &s.fleet.truth, 0.005)
                .map_err(|e| e.to_string())?;
            led.put("eval.correct_price_yield", scores.correct_price_yield);
        }

        let upd = tr.span("op.update_k1_pass", |_| {
            update_pass(&s.warm, s.update_id, &s.delivery)
        });
        let upd = led.record("traced.update_ms", upd, &s.update_ref)?;
        let r = &upd.out.metrics;
        led.put("core.er_replay_ms", delta_ms(r, "wrangle/er_replay"));
        led.put("core.fuse_replay_ms", delta_ms(r, "wrangle/fuse_replay"));
        if rep == 0 {
            led.put("incr.union.reused", delta(r, "incr.union.reused"));
            led.put("incr.union.recomputed", delta(r, "incr.union.recomputed"));
            led.put("incr.er.pairs_remapped", delta(r, "incr.er.pairs_remapped"));
            led.put("incr.er.pairs_rescored", delta(r, "er.cache.misses"));
            let (evicted, retained) = (
                delta(r, "incr.pair_cache.evicted"),
                delta(r, "incr.pair_cache.retained"),
            );
            led.put(
                "incr.pair_cache.retention",
                retained / (evicted + retained).max(1.0),
            );
            let (scanned, skipped) = (delta(r, "scan.bytes"), delta(r, "incr.union.bytes_skipped"));
            led.put(
                "incr.bytes_skipped_share",
                skipped / (scanned + skipped).max(1.0),
            );
        }

        let dir = scratch.fresh("ckpt");
        let ck = tr.span("op.ckpt_cold_pass", |_| ckpt_cold_pass(&s.fleet, &dir));
        let ck = led.record("traced.ckpt_cold_ms", ck, &s.cold_ref)?;
        if rep == 0 {
            let store = ck.session.checkpoint_store().ok_or("store detached")?;
            led.put("ckpt.bytes_written", store.stats().bytes_written as f64);
            led.put("ckpt.records", store.num_records() as f64);
            led.put(
                "ckpt.write_amp",
                dir_bytes(&dir) as f64 / source_wire_bytes.max(1) as f64,
            );
            let largest = std::fs::read_dir(&dir)
                .map_err(|e| e.to_string())?
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .max()
                .unwrap_or(0);
            led.put("ckpt.largest_record_bytes", largest as f64);
        }
        let _ = std::fs::remove_dir_all(&dir);

        let dir = scratch.fresh("resume");
        let res = tr.span("op.resume_post_er", |_| {
            resume_pass(&s.fleet, &s.crashed, &dir)
        });
        let res = led.record("traced.resume_ms", res, &s.cold_ref)?;
        led.put(
            "core.resume_er_seam_ms",
            ms_of(&res.out.metrics, "wrangle/er"),
        );
        led.put(
            "core.resume_fuse_seam_ms",
            ms_of(&res.out.metrics, "wrangle/fuse"),
        );
        if rep == 0 {
            let stats = res
                .session
                .checkpoint_store()
                .ok_or("store detached")?
                .stats();
            led.put("ckpt.hits", stats.hits as f64);
            led.put("ckpt.torn_detected", stats.torn_detected as f64);
        }
        let _ = std::fs::remove_dir_all(&dir);

        let refuse = tr.span("op.refuse_pass", |_| refuse_pass(&s.warm, &s.feedback));
        let refuse = led.record("traced.refuse_ms", refuse, &s.refuse_ref)?;
        led.put("core.refuse_ms", delta_ms(&refuse.out.metrics, "rewrangle"));
    }
    let tax = |on: f64, off: f64| (on / off - 1.0) * 100.0;
    led.put(
        "ckpt.tax_pct",
        tax(
            led.median("traced.ckpt_cold_ms"),
            led.median("traced.cold_ms"),
        ),
    );
    led.put(
        "bench.trace_overhead_pct",
        tax(led.median("traced.cold_ms"), led.median("untraced.cold_ms")),
    );
    Ok(())
}

/// The column ER blocks on: a name-ish column, else the first (the session's rule).
fn blocking_column(target: &Schema) -> String {
    target
        .fields()
        .iter()
        .find(|f| {
            let l = f.name.to_lowercase();
            l.contains("name") || l.contains("title")
        })
        .unwrap_or(&target.fields()[0])
        .name
        .clone()
}

/// Replays of each layer's public functions on the reference pass's
/// intermediates. Every repetition is one operation: a root span with one
/// child per layer function, so a layer's time is its child's self time and
/// the root's self time is the harness's own glue.
fn replays(
    s: &Setup,
    tr: &mut Tracer,
    scratch: &mut Scratch,
    led: &mut Ledger,
) -> Result<(), String> {
    let warm = &s.warm;
    let err = |e: wrangler_table::TableError| e.to_string();
    let nproc = available_parallelism();
    let target = warm.target().clone();
    let instances = target_sample(&s.fleet);
    let selected = &s.reference.selected_sources;
    let union = warm.union_table().ok_or("no union before the first pass")?;
    let er_cfg = warm.er_config().clone();
    let plan = warm.plan();
    let block_col = blocking_column(&target);
    let key_col = target.fields()[0].name.clone();
    let (claims, source_ctx, strategy) = warm
        .fusion_inputs()
        .ok_or("no fusion inputs before the first pass")?;
    let slots = claims.slots();
    let match_cfg = MatchConfig::default();
    let ontology = &warm.data_ctx.ontology;
    let tables: Vec<&Table> = selected.iter().map(|id| payload(&s.fleet, *id)).collect();
    let mappings: Vec<_> = selected
        .iter()
        .map(|id| {
            warm.mapping_of(*id)
                .ok_or(format!("{id}: no mapping after the reference pass"))
        })
        .collect::<Result<_, _>>()?;
    let mut everything = UserContext::balanced("all");
    everything.budget = warm.user.budget;
    everything.max_sources = warm.user.max_sources;
    everything.freshness_horizon = warm.user.freshness_horizon;

    let mut skew = Vec::new();
    let mut last = None;
    for rep in 0..=REPLAY_REPS {
        // `estimates` refreshes per-source relevance, hence a scratch session.
        let mut scratch_session = warm.clone();
        // The first repetition is the warm-up: run it untraced.
        tr.set_on(rep > 0);
        last = Some(tr.span("replay.cold_path", |tr| -> Result<_, String> {
            tr.span("sources.select", |_| {
                let estimates = scratch_session.estimates();
                black_box(select_greedy_utility(&estimates, &everything));
            });
            tr.span("mapping.generate", |_| {
                let profiles = profile_table(&instances);
                let workers = effective_workers(nproc, tables.len(), 1);
                run_blocked(&tables, workers, |_, chunk| {
                    chunk
                        .iter()
                        .map(|t| {
                            generate_mapping_with_profiles(
                                t,
                                &target,
                                &instances,
                                &profiles,
                                Some(ontology),
                                &match_cfg,
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .map(black_box)
            })?;
            tr.span("plan.compile", |_| {
                let inputs: Vec<LowerInput<'_>> = selected
                    .iter()
                    .zip(tables.iter().zip(&mappings))
                    .map(|(id, (table, mapping))| LowerInput {
                        source: id.0 as usize,
                        name: format!("src{}", id.0),
                        table,
                        mapping,
                    })
                    .collect();
                let ir = lower(&inputs, &target, &plan, &warm.contain, None, None, &er_cfg);
                black_box(PlanProgram::compile(ir, OptMode::Optimized).is_ok());
            });
            tr.span("lint.preflight", |_| {
                black_box(wrangler_lint::audit_steps(&plan.describe()));
                for (table, mapping) in tables.iter().zip(&mappings) {
                    black_box(wrangler_lint::check_mapping(mapping, table.schema()));
                }
            });
            tr.span("mapping.apply", |_| {
                tables
                    .iter()
                    .zip(&mappings)
                    .try_for_each(|(table, mapping)| {
                        mapping.apply(table).map(|t| drop(black_box(t)))
                    })
            })
            .map_err(err)?;
            let candidates = tr
                .span("resolve.candidates", |_| -> wrangler_table::Result<_> {
                    let mut c = candidates_blocked(&union, &block_col)?;
                    if key_col != block_col {
                        c.extend(candidates_blocked_exact(&union, &key_col)?);
                        c.sort_unstable();
                        c.dedup();
                    }
                    Ok(c)
                })
                .map_err(err)?;
            let kernel = tr
                .span("resolve.compile", |_| ErKernel::compile(&union, &er_cfg))
                .map_err(err)?;
            let (scores, stats) = tr
                .span("resolve.score", |_| {
                    kernel.score_pairs_parallel(&candidates, nproc)
                })
                .map_err(err)?;
            if rep > 0 {
                let busy: Vec<f64> = stats.iter().map(|w| w.busy_nanos as f64).collect();
                skew.push(
                    busy.iter().copied().fold(0.0, f64::max)
                        / (busy.iter().sum::<f64>() / busy.len() as f64),
                );
            }
            // The session's own share of the ER stage: the content-keyed pair
            // cache (render a key per candidate, miss, insert) and the memo
            // the incremental engine keeps (pack and sort every score).
            tr.span("core.pair_cache", |_| {
                let keys = kernel.content_keys();
                let mut cache = PairScoreCache::default();
                let mut misses = Vec::new();
                for (k, &(i, j)) in candidates.iter().enumerate() {
                    let key = PairScoreCache::pair_key(&keys[i], &keys[j]);
                    if cache.lookup(&key).is_none() {
                        misses.push((k, key));
                    }
                }
                for (k, key) in misses {
                    cache.insert(key, scores[k], (0, 0));
                }
                black_box(cache.len());
            });
            tr.span("core.er_memo", |_| {
                let mut packed: Vec<(u64, f64)> = candidates
                    .iter()
                    .zip(&scores)
                    .map(|(&(i, j), &s)| (pack_pair(i, j), s))
                    .collect();
                packed.sort_unstable_by_key(|&(key, _)| key);
                black_box(packed.len());
            });
            tr.span("resolve.cluster", |_| {
                let pairs = kernel.filter_matches(&candidates, &scores);
                black_box(cluster_pairs(
                    union.num_rows(),
                    pairs.iter().map(|p| (p.i, p.j)),
                ));
            });
            let fuse = tr.span("fusion.compile", |_| {
                FuseKernel::compile(claims, strategy, source_ctx)
            });
            tr.span("fusion.fuse", |_| {
                fuse.fuse_slots_parallel(&slots, nproc)
                    .map(|f| drop(black_box(f)))
            })
            .map_err(err)?;
            Ok((candidates, kernel))
        })?);
    }
    tr.set_on(true);
    let (pairs, kernel) = last.expect("at least one repetition ran");

    let candidates = led.median("resolve.candidates");
    let cells: usize = tables.iter().map(|t| t.num_rows() * target.len()).sum();
    for (span, metric) in [
        ("sources.select", "sources.select_ms"),
        ("mapping.generate", "mapping.generate_ms"),
        ("plan.compile", "plan.compile_ms"),
        ("lint.preflight", "lint.preflight_ms"),
        ("mapping.apply", "mapping.apply_ms"),
        ("resolve.candidates", "resolve.candidates_ms"),
        ("resolve.compile", "resolve.compile_ms"),
        ("resolve.score", "resolve.score_ms"),
        ("resolve.cluster", "resolve.cluster_ms"),
        ("core.pair_cache", "core.pair_cache_ms"),
        ("core.er_memo", "core.er_memo_ms"),
        ("fusion.compile", "fusion.compile_ms"),
        ("fusion.fuse", "fusion.fuse_ms"),
    ] {
        for ms in tr.self_ms(span) {
            led.put(metric, ms);
        }
    }
    led.put(
        "mapping.generate_us_per_source",
        led.median("mapping.generate_ms") * 1e3 / tables.len() as f64,
    );
    led.put(
        "mapping.apply_ns_per_cell",
        led.median("mapping.apply_ms") * 1e6 / cells.max(1) as f64,
    );
    led.put(
        "resolve.score_ns_per_pair",
        led.median("resolve.score_ms") * 1e6 / candidates.max(1.0),
    );
    led.put("resolve.worker_skew", median(&skew));
    led.put(
        "fusion.ns_per_slot",
        led.median("fusion.fuse_ms") * 1e6 / slots.len().max(1) as f64,
    );

    // Replayed layer time against the stage the session reports.
    let er_replay = [
        "resolve.candidates_ms",
        "resolve.compile_ms",
        "resolve.score_ms",
        "resolve.cluster_ms",
        "core.pair_cache_ms",
        "core.er_memo_ms",
    ]
    .iter()
    .map(|m| led.median(m))
    .sum::<f64>();
    led.put(
        "bench.er_replay_coverage",
        er_replay / led.median("core.er_stage_ms"),
    );
    let fuse_replay = led.median("fusion.compile_ms") + led.median("fusion.fuse_ms");
    led.put(
        "bench.fuse_replay_coverage",
        fuse_replay / led.median("core.fuse_stage_ms"),
    );
    for (replay, stage, replayed) in [
        ("sources", "select", led.median("sources.select_ms")),
        (
            "mapping.generate",
            "map_generate",
            led.median("mapping.generate_ms"),
        ),
        ("plan", "plan", led.median("plan.compile_ms")),
        ("lint", "preflight", led.median("lint.preflight_ms")),
        ("mapping.apply", "map_apply", led.median("mapping.apply_ms")),
        ("resolve + pair cache + memo", "er", er_replay),
        ("fusion", "fuse", fuse_replay),
    ] {
        let reported = match stage {
            "er" => led.median("core.er_stage_ms"),
            "fuse" => led.median("core.fuse_stage_ms"),
            other => led.median(&format!("stage.{other}_ms")),
        };
        let ratio = replayed / reported;
        let verdict = if (0.9..=1.1).contains(&ratio) {
            "faithful"
        } else {
            "UNFAITHFUL (beyond 10%)"
        };
        println!("replay {replay}: {replayed:.3} ms of the {reported:.3} ms `{stage}` stage, ratio {ratio:.2}: {verdict}");
    }

    // The single-worker baseline of the scoring kernel, on the same pairs.
    let w1 = sample(0, W1_REPS, || {
        tr.span("resolve.score_w1", |_| {
            time(|| kernel.score_pairs_parallel(&pairs, 1)).0 * 1e3
        })
    });
    led.samples.insert("resolve.score_ms_w1".into(), w1);

    // Codecs and the store, on the union table and a record the size of the
    // largest seam a checkpointed pass wrote.
    let names: Vec<String> = union
        .column_named(&block_col)
        .map_err(err)?
        .iter()
        .map(|v| v.render())
        .collect();
    let record = vec![0xA5u8; led.median("ckpt.largest_record_bytes") as usize];
    let store = CheckpointStore::open(scratch.fresh("putget")).map_err(|e| e.to_string())?;
    for rep in 0..=REPLAY_REPS {
        tr.set_on(rep > 0);
        tr.span("replay.codecs", |tr| -> Result<(), String> {
            tr.span("matching.name_similarity", |_| {
                let n = names.len();
                black_box(
                    (0..NAME_PAIRS)
                        .map(|i| name_similarity(&names[i % n], &names[(i * 7919 + 13) % n]))
                        .sum::<f64>(),
                );
            });
            let bytes = tr.span("table.wire_encode", |_| wire::table_bytes(&union));
            tr.span("table.wire_decode", |_| {
                wire::decode_table(&mut wire::Dec::new(&bytes)).map(|t| drop(black_box(t)))
            })
            .map_err(err)?;
            tr.span("ckpt.put", |_| store.put(rep as u64, &record))
                .map_err(|e| e.to_string())?;
            tr.span("ckpt.get_verify", |_| {
                black_box(store.get(rep as u64)).map(drop)
            })
            .ok_or("record did not verify")?;
            if rep == 0 {
                led.put("table.wire_bytes", bytes.len() as f64);
                led.put(
                    "table.wire_bytes_per_row",
                    bytes.len() as f64 / union.num_rows().max(1) as f64,
                );
            }
            Ok(())
        })?;
    }
    tr.set_on(true);
    for (span, metric) in [
        ("table.wire_encode", "table.wire_encode_ms"),
        ("table.wire_decode", "table.wire_decode_ms"),
        ("ckpt.put", "ckpt.put_ms"),
        ("ckpt.get_verify", "ckpt.get_verify_ms"),
    ] {
        tr.self_ms(span)
            .into_iter()
            .for_each(|ms| led.put(metric, ms));
    }
    tr.self_ms("matching.name_similarity")
        .into_iter()
        .for_each(|ms| led.put("matching.name_similarity_ns", ms * 1e6 / NAME_PAIRS as f64));

    // Giving one piece of feedback (routing it, moving trust, dirtying slots).
    let give = sample(1, REPLAY_REPS, || {
        let mut scratch_session = warm.clone();
        let secs = tr.span("feedback.give", |_| {
            time(|| {
                s.feedback
                    .iter()
                    .map(|item| scratch_session.give_feedback(item.clone()))
                    .sum::<usize>()
            })
            .0
        });
        secs * 1e6 / s.feedback.len() as f64
    });
    led.samples.insert("feedback.give_us".into(), give);
    Ok(())
}

/// Cold passes with one feature off, interleaved with default ones: what
/// each feature levies on the cold path.
fn feature_taxes(s: &Setup, tr: &mut Tracer, led: &mut Ledger) -> Result<(), String> {
    type Build = fn(Wrangler) -> Wrangler;
    let configs: [(&'static str, &'static str, Build); 5] = [
        ("tax.on_ms", "", |w| w),
        ("tax.obs_off_ms", "obs.tax_pct", |w| {
            w.with_obs_mode(ObsMode::Off)
        }),
        ("tax.lint_off_ms", "lint.tax_pct", |w| {
            w.with_lint_gate(GateMode::Off)
        }),
        ("tax.incr_off_ms", "incr.tax_pct", |mut w| {
            w.set_incr_enabled(false);
            w
        }),
        ("tax.contain_off_ms", "core.contain_tax_pct", |w| {
            w.with_contain_policy(ContainPolicy::off())
        }),
    ];
    for round in 0..TAX_ROUNDS {
        for i in 0..configs.len() {
            let (samples, _, build) = configs[(i + round) % configs.len()];
            let w = build(session(&s.fleet, user()));
            let pass = tr.span("tax.cold_pass", |_| wrangle_timed(w));
            led.record(samples, pass, &s.cold_ref)?;
        }
    }
    let on = led.median("tax.on_ms");
    for (samples, metric, _) in &configs[1..] {
        let off = summarize(&led.samples[*samples]);
        let tax = (on / off.median - 1.0) * 100.0;
        led.put(metric, tax);
        if (on - off.median).abs() < off.q3 - off.q1 {
            println!(
                "{metric}: unresolved ({tax:.2}% is inside the off side's quartile spread of {:.2}%)",
                off.spread() * 100.0
            );
        }
    }
    Ok(())
}

/// The traced run of one workload; writes `trace_<workload>.json`.
pub fn run_traced(w: &Workload, seed: u64, out_dir: &Path) -> Result<RunResult, String> {
    let mut scratch = Scratch::new(out_dir);
    let s = set_up(w, seed, 0, &mut scratch)?;
    let mut tr = Tracer::new(true);
    let mut led = Ledger::default();
    user_operations(&s, &mut tr, &mut scratch, &mut led)?;
    replays(&s, &mut tr, &mut scratch, &mut led)?;
    feature_taxes(&s, &mut tr, &mut led)?;

    let file = out_dir.join(format!("trace_{}.json", w.name));
    let doc = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(seed as f64)),
        ("spans", tr.to_json()),
    ]);
    std::fs::write(&file, format!("{doc}\n")).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    Ok(led.into_result())
}

/// The deterministic half of a workload: every count, the store size, the
/// yield and the outcome fingerprints. Two runs print the same bytes.
pub fn render_counts(w: &Workload, seed: u64, out_dir: &Path) -> Result<String, String> {
    let mut scratch = Scratch::new(out_dir);
    let s = set_up(w, seed, 0, &mut scratch)?;
    let mut out = String::new();
    let mut put = |key: &str, value: &dyn std::fmt::Display| {
        let _ = writeln!(out, "{}.{key} = {value}", w.name);
    };
    let report =
        |put: &mut dyn FnMut(&str, &dyn std::fmt::Display), op: &str, r: &MetricsReport| {
            for (k, v) in &r.counts {
                put(&format!("{op}.{k}"), v);
            }
            for (k, v) in &r.gauges {
                put(&format!("{op}.{k}"), &format!("{v:.6}"));
            }
        };
    put("fingerprint.cold", &s.cold_ref.0);
    put("fingerprint.update_k1", &s.update_ref.0);
    put("fingerprint.refuse", &s.refuse_ref.0);
    report(&mut put, "cold", &s.reference.metrics);
    let scores = score_against_truth(&s.reference.table, &s.fleet.truth, 0.005)
        .map_err(|e| e.to_string())?;
    put("correct_price_yield", &scores.correct_price_yield);

    let upd = update_pass(&s.warm, s.update_id, &s.delivery)?;
    put(
        "fingerprint.update_k1.incremental",
        &fingerprint(&upd.out).0,
    );
    report(&mut put, "update_k1", &upd.out.metrics);

    let dir = scratch.fresh("ckpt");
    let ck = ckpt_cold_pass(&s.fleet, &dir)?;
    put("fingerprint.ckpt_cold", &fingerprint(&ck.out).0);
    put("ckpt_store_bytes", &dir_bytes(&dir));
    put(
        "ckpt_store_mib",
        &(dir_bytes(&dir) as f64 / (1024.0 * 1024.0)),
    );
    let dir = scratch.fresh("resume");
    let res = resume_pass(&s.fleet, &s.crashed, &dir)?;
    put("fingerprint.resume_post_er", &fingerprint(&res.out).0);
    report(&mut put, "resume_post_er", &res.out.metrics);
    Ok(out)
}
