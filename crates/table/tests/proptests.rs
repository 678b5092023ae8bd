//! Property-based tests for the table substrate: value-order laws, CSV
//! round-tripping, and algebraic laws of the relational operators.

use proptest::prelude::*;
use wrangler_table::csv::{read_csv, write_csv};
use wrangler_table::expr::Expr;
use wrangler_table::ops;
use wrangler_table::wire;
use wrangler_table::{Table, Text, Value};

/// Arbitrary scalar values, weighted towards the interesting edge cases.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        2 => Just(Value::Null),
        2 => any::<bool>().prop_map(Value::Bool),
        4 => any::<i64>().prop_map(Value::Int),
        4 => (-1e12f64..1e12f64).prop_map(Value::Float),
        4 => "[ -~]{0,12}".prop_map(Value::from), // printable ASCII incl. space/quote/comma
    ]
}

fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    (1usize..=4).prop_flat_map(move |width| {
        let names: Vec<String> = (0..width).map(|i| format!("col{i}")).collect();
        prop::collection::vec(prop::collection::vec(arb_value(), width), 0..=max_rows).prop_map(
            move |rows| {
                let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                Table::literal(&name_refs, rows).expect("consistent arity")
            },
        )
    })
}

proptest! {
    #[test]
    fn value_ordering_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        // Antisymmetry + transitivity spot checks via sort stability.
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2]);
        // Eq consistent with Ord.
        prop_assert_eq!(a.cmp(&b) == std::cmp::Ordering::Equal, a == b);
    }

    #[test]
    fn value_hash_consistent_with_eq(a in arb_value(), b in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    #[test]
    fn text_reads_exactly_as_the_string_it_holds(
        a in "[\u{1}-~é-ü€😀]{0,10}",
        b in "[\u{1}-~é-ü€😀]{0,10}",
        tail in "[ -~é]{0,4}",
    ) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h<T: Hash + ?Sized>(v: &T) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        let (ta, tb) = (Text::from(a.as_str()), Text::from(b.clone()));
        prop_assert_eq!(format!("{ta:?}"), format!("{a:?}"));
        prop_assert_eq!(format!("{ta}"), a.clone());
        prop_assert_eq!(h(&ta), h(&a));
        prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(wire::to_bytes(&ta), wire::to_bytes(&a));
        prop_assert_eq!(wire::from_bytes::<Text>(&wire::to_bytes(&a)).expect("valid UTF-8"), ta.clone());
        // A cell's Debug text feeds the pass fingerprint and the goldens.
        prop_assert_eq!(format!("{:?}", Value::Str(ta.clone())), format!("Str({a:?})"));
        let shared = ta.clone();
        let mut grown = ta.clone();
        grown.push_str(&tail);
        prop_assert_eq!(grown.to_string(), format!("{a}{tail}"));
        prop_assert_eq!(&*shared, a.as_str());
        prop_assert!(Text::ptr_eq(&shared, &ta));
    }

    #[test]
    fn csv_roundtrip_preserves_shape_and_strings(t in arb_table(12)) {
        let text = write_csv(&t);
        let back = read_csv(&text).unwrap();
        prop_assert_eq!(back.num_columns(), t.num_columns());
        prop_assert_eq!(back.num_rows(), t.num_rows());
        // The round-trip contract: reading back yields the canonical parse of
        // the written text. Typed values render canonically, so they survive
        // exactly; strings survive up to CSV's inherent inference ambiguity
        // ("42" re-types as Int(42), " 0" trims, "na" becomes Null).
        for r in 0..t.num_rows() {
            for c in 0..t.num_columns() {
                let orig = t.get(r, c).unwrap();
                let got = back.get(r, c).unwrap();
                // Cell-level contract: the canonical parse of the written
                // text. Column-level typing may instead keep the trimmed
                // text verbatim when the column unified to Str.
                let parsed = wrangler_table::infer::parse_cell(&orig.render());
                let as_str = Value::from(orig.render().trim());
                prop_assert!(
                    got == &parsed || got == &as_str,
                    "got {got:?}, expected {parsed:?} or {as_str:?} (orig {orig:?})"
                );
            }
        }
    }

    #[test]
    fn filter_true_is_identity_filter_false_is_empty(t in arb_table(12)) {
        let all = ops::filter(&t, &Expr::lit(true)).unwrap();
        prop_assert_eq!(all.num_rows(), t.num_rows());
        let none = ops::filter(&t, &Expr::lit(false)).unwrap();
        prop_assert_eq!(none.num_rows(), 0);
    }

    #[test]
    fn distinct_is_idempotent(t in arb_table(12)) {
        let d1 = ops::distinct(&t);
        let d2 = ops::distinct(&d1);
        prop_assert_eq!(d1.num_rows(), d2.num_rows());
        prop_assert!(d1.num_rows() <= t.num_rows());
    }

    #[test]
    fn union_row_count_adds(t in arb_table(8)) {
        let u = ops::union(&t, &t).unwrap();
        prop_assert_eq!(u.num_rows(), 2 * t.num_rows());
    }

    #[test]
    fn sort_is_permutation_and_ordered(t in arb_table(12)) {
        if t.num_columns() == 0 { return Ok(()); }
        let name = t.schema().names()[0].to_string();
        let s = ops::sort_by(&t, &[&name]).unwrap();
        prop_assert_eq!(s.num_rows(), t.num_rows());
        let col = s.column_named(&name).unwrap();
        for w in col.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Multiset of rows preserved.
        let mut a: Vec<Vec<Value>> = t.iter_rows().collect();
        let mut b: Vec<Vec<Value>> = s.iter_rows().collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn project_then_project_composes(t in arb_table(8)) {
        if t.num_columns() < 2 { return Ok(()); }
        let names: Vec<String> = t.schema().names().iter().map(|s| s.to_string()).collect();
        let p1 = ops::project(&t, &[&names[1], &names[0]]).unwrap();
        let p2 = ops::project(&p1, &[&names[0]]).unwrap();
        let direct = ops::project(&t, &[&names[0]]).unwrap();
        prop_assert_eq!(p2, direct);
    }

    #[test]
    fn join_with_self_on_key_contains_all_distinct_keyed_rows(t in arb_table(8)) {
        if t.num_columns() == 0 { return Ok(()); }
        let name = t.schema().names()[0].to_string();
        let j = ops::join(&t, &t, &name, &name).unwrap();
        // Every non-null key row joins with at least itself.
        let non_null = t.column_named(&name).unwrap().iter().filter(|v| !v.is_null()).count();
        prop_assert!(j.num_rows() >= non_null);
    }
}
