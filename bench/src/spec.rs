//! The metric tables: what the benchmark prints, in which unit, which way
//! is better, and (end to end) by how much a metric may worsen before a
//! change counts as a regression. `BENCHMARK.json` repeats these tables;
//! a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end to end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// User operations and the costs a user of the library sees. Every metric is
/// reported on every workload. A bound is about three times the widest
/// quartile spread seen over ten seeds on any workload (2-core VM), capped at
/// the 25% the PR driver allows: tighter bounds would call noise a regression.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", 0.25),
    e2e("cold_pass_ms", "ms", 0.20),
    e2e("update_k1_pass_ms", "ms", 0.25),
    e2e("ckpt_cold_pass_ms", "ms", 0.25),
    e2e("resume_post_er_ms", "ms", 0.15),
    e2e("refuse_pass_ms", "ms", 0.25),
    e2e("ckpt_store_mib", "MiB", 0.12),
    e2e("peak_rss_mib", "MiB", 0.10),
];

use Better::{Higher, Lower};

/// Single-layer metrics (layer = crate), from the traced run. No bounds.
pub const PER_LAYER: [Metric; 68] = [
    layer("sources.select_ms", "ms", Lower),
    layer("sources.select.candidates", "count", Lower),
    layer("mapping.generate_ms", "ms", Lower),
    layer("mapping.generate_us_per_source", "us", Lower),
    layer("mapping.apply_ms", "ms", Lower),
    layer("mapping.apply_ns_per_cell", "ns", Lower),
    layer("matching.name_similarity_ns", "ns", Lower),
    layer("lint.preflight_ms", "ms", Lower),
    layer("plan.compile_ms", "ms", Lower),
    layer("plan.nodes", "count", Lower),
    layer("plan.rewrites", "count", Higher),
    layer("resolve.candidates_ms", "ms", Lower),
    layer("resolve.candidates", "count", Lower),
    layer("resolve.match_ratio", "ratio", Higher),
    layer("resolve.compile_ms", "ms", Lower),
    layer("resolve.score_ms", "ms", Lower),
    layer("resolve.score_ms_w1", "ms", Lower),
    layer("resolve.score_ns_per_pair", "ns", Lower),
    layer("resolve.worker_skew", "ratio", Lower),
    layer("resolve.cluster_ms", "ms", Lower),
    layer("fusion.compile_ms", "ms", Lower),
    layer("fusion.fuse_ms", "ms", Lower),
    layer("fusion.slots", "count", Lower),
    layer("fusion.claims", "count", Lower),
    layer("fusion.ns_per_slot", "ns", Lower),
    layer("feedback.give_us", "us", Lower),
    layer("core.refuse_ms", "ms", Lower),
    layer("table.wire_encode_ms", "ms", Lower),
    layer("table.wire_decode_ms", "ms", Lower),
    layer("table.wire_bytes", "bytes", Lower),
    layer("table.wire_bytes_per_row", "bytes", Lower),
    layer("ckpt.put_ms", "ms", Lower),
    layer("ckpt.get_verify_ms", "ms", Lower),
    layer("ckpt.bytes_written", "bytes", Lower),
    layer("ckpt.records", "count", Lower),
    layer("ckpt.write_amp", "ratio", Lower),
    layer("ckpt.hits", "count", Higher),
    layer("ckpt.torn_detected", "count", Lower),
    layer("ckpt.tax_pct", "%", Lower),
    layer("incr.union.reused", "count", Higher),
    layer("incr.union.recomputed", "count", Lower),
    layer("incr.er.pairs_remapped", "count", Higher),
    layer("incr.er.pairs_rescored", "count", Lower),
    layer("incr.pair_cache.retention", "ratio", Higher),
    layer("incr.bytes_skipped_share", "ratio", Higher),
    layer("core.er_replay_ms", "ms", Lower),
    layer("core.fuse_replay_ms", "ms", Lower),
    layer("core.acquire_ms", "ms", Lower),
    layer("core.union_ms", "ms", Lower),
    layer("core.assemble_ms", "ms", Lower),
    layer("core.er_stage_ms", "ms", Lower),
    layer("core.fuse_stage_ms", "ms", Lower),
    layer("core.pair_cache_ms", "ms", Lower),
    layer("core.er_memo_ms", "ms", Lower),
    layer("core.glue_ms", "ms", Lower),
    layer("core.resume_er_seam_ms", "ms", Lower),
    layer("core.resume_fuse_seam_ms", "ms", Lower),
    layer("core.union.rows", "count", Lower),
    layer("core.scan.bytes", "bytes", Lower),
    layer("core.er_stage_share", "ratio", Lower),
    layer("obs.tax_pct", "%", Lower),
    layer("lint.tax_pct", "%", Lower),
    layer("incr.tax_pct", "%", Lower),
    layer("core.contain_tax_pct", "%", Lower),
    layer("eval.correct_price_yield", "ratio", Higher),
    layer("bench.er_replay_coverage", "ratio", Higher),
    layer("bench.fuse_replay_coverage", "ratio", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::WORKLOADS;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// Names are `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`; units `[A-Za-z0-9_/%.-]{1,16}`.
    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&s.len())
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(
            !valid_name("")
                && !valid_name(".x")
                && !valid_name("a b")
                && !valid_name(&"x".repeat(65))
        );
        assert!(!valid_unit("") && !valid_unit("ms per op"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` sits at the repo root, one level above this package.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let listed = |key: &str, with_bound: bool| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    let bound = if with_bound {
                        m.get("bound").and_then(Json::as_f64).unwrap()
                    } else {
                        0.0
                    };
                    assert_eq!(m.as_obj().unwrap().len(), if with_bound { 4 } else { 3 });
                    format!("{} {} {} {bound}", f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let row = |m: &Metric| format!("{} {} {} {}", m.name, m.unit, m.better.name(), m.bound);
        assert_eq!(
            listed("end_to_end", true),
            END_TO_END.iter().map(row).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer", false),
            PER_LAYER.iter().map(row).collect::<Vec<_>>()
        );
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let f = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (f("name"), f("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
    }
}
