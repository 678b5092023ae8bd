//! Property tests for mappings: execution shape, normalization laws,
//! feedback monotonicity.

use proptest::prelude::*;
use wrangler_mapping::mapping::target_schema;
use wrangler_mapping::normalize::{normalize_to, parse_messy_number};
use wrangler_mapping::refine::record_feedback;
use wrangler_mapping::Mapping;
use wrangler_table::{DataType, Table, Value};
use wrangler_uncertainty::Belief;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-10_000i64..10_000).prop_map(Value::Int),
        (-1e4f64..1e4).prop_map(Value::Float),
        "[ -~]{0,10}".prop_map(Value::from),
    ]
}

proptest! {
    #[test]
    fn parse_messy_number_agrees_with_plain_parse(x in -1e6f64..1e6) {
        let s = format!("{x}");
        let parsed = parse_messy_number(&s).expect("plain floats parse");
        prop_assert!((parsed - x).abs() < 1e-9_f64.max(x.abs() * 1e-12));
        // Currency decoration does not change the value.
        let decorated = format!("${x}");
        prop_assert_eq!(parse_messy_number(&decorated), Some(parsed));
    }

    #[test]
    fn normalize_never_invents_nulls(v in arb_value()) {
        for dt in [DataType::Int, DataType::Float, DataType::Str, DataType::Bool] {
            let out = normalize_to(&v, dt);
            prop_assert_eq!(out.is_null(), v.is_null(), "{:?} -> {:?}", v, dt);
        }
    }

    #[test]
    fn normalize_to_str_renders_identically(v in arb_value()) {
        let out = normalize_to(&v, DataType::Str);
        if !v.is_null() {
            prop_assert_eq!(out.render(), v.render());
        }
    }

    #[test]
    fn mapping_apply_preserves_row_count_and_schema(
        rows in prop::collection::vec((arb_value(), arb_value()), 0..15),
    ) {
        let source = Table::literal(
            &["c0", "c1"],
            rows.into_iter().map(|(a, b)| vec![a, b]).collect(),
        )
        .unwrap();
        let m = Mapping {
            target: target_schema(&[("x", DataType::Str), ("y", DataType::Float), ("z", DataType::Int)]),
            bindings: vec![Some(0), Some(1), None],
            binding_beliefs: vec![Belief::uninformed(); 3],
            belief: Belief::uninformed(),
        };
        let out = m.apply(&source).unwrap();
        prop_assert_eq!(out.num_rows(), source.num_rows());
        prop_assert_eq!(out.schema().names(), vec!["x", "y", "z"]);
        // Unbound column is all null.
        for i in 0..out.num_rows() {
            prop_assert!(out.get_named(i, "z").unwrap().is_null());
        }
    }

    #[test]
    fn feedback_moves_belief_monotonically(
        verdicts in prop::collection::vec(any::<bool>(), 1..20),
    ) {
        let mut m = Mapping {
            target: target_schema(&[("x", DataType::Str)]),
            bindings: vec![Some(0)],
            binding_beliefs: vec![Belief::uninformed()],
            belief: Belief::from_prior(0.5),
        };
        for &positive in &verdicts {
            let before = m.belief.probability();
            record_feedback(&mut m, positive, 1.0);
            let after = m.belief.probability();
            if positive {
                prop_assert!(after > before - 1e-12);
            } else {
                prop_assert!(after < before + 1e-12);
            }
        }
    }

    #[test]
    fn coverage_counts_bindings(bound in prop::collection::vec(any::<bool>(), 1..8)) {
        let fields: Vec<(String, DataType)> =
            (0..bound.len()).map(|i| (format!("f{i}"), DataType::Str)).collect();
        let refs: Vec<(&str, DataType)> =
            fields.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        let m = Mapping {
            target: target_schema(&refs),
            bindings: bound.iter().map(|&b| if b { Some(0) } else { None }).collect(),
            binding_beliefs: vec![Belief::uninformed(); bound.len()],
            belief: Belief::uninformed(),
        };
        let want = bound.iter().filter(|&&b| b).count() as f64 / bound.len() as f64;
        prop_assert!((m.coverage() - want).abs() < 1e-12);
    }
}
