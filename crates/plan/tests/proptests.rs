//! Property tests for the plan analyzer and optimizer: analysis is a pure,
//! idempotent function of the IR; every optimizer rewrite carries a
//! justification the verifier accepts; optimization is a fixed point; and
//! seeded whole-plan defects are caught deterministically.

use proptest::prelude::*;
use wrangler_lint::{Code, DefectClass};
use wrangler_plan::{
    analyze, fixture, inject_plan_defect, Fact, FilterPlacement, OpKind, OptMode, PlanIr,
    PlanProgram,
};
use wrangler_table::Expr;

/// A perturbed — but still clean — variant of the fixture plan: toggle the
/// scan barrier, the predicate column, each source's cell-exactness
/// certificate for that column, and whether the (otherwise dead) `brand`
/// column is projected.
fn plan_variant(
    scan_barrier: bool,
    filter_on_price: bool,
    exact: [bool; 2],
    project_brand: bool,
) -> PlanIr {
    let mut ir = fixture::clean_plan();
    ir.scan_barrier = scan_barrier;
    let (site, predicate) = if filter_on_price {
        (4, Expr::col("price").gt(Expr::lit(10.0)))
    } else {
        (3, Expr::col("category").eq(Expr::lit("home")))
    };
    let filter_id = ir.filter_node().expect("fixture has a filter").id;
    if let OpKind::Filter { predicate: p, .. } = &mut ir.nodes[filter_id].kind {
        *p = predicate;
    }
    let map_ids: Vec<usize> = ir.map_nodes().map(|n| n.id).collect();
    for (source, id) in map_ids.into_iter().enumerate() {
        if let OpKind::Map { cell_exact, .. } = &mut ir.nodes[id].kind {
            cell_exact[site] = exact[source];
        }
    }
    if project_brand {
        let assemble_id = ir.assemble_node().expect("fixture assembles").id;
        if let OpKind::Assemble { output } = &mut ir.nodes[assemble_id].kind {
            output.push("brand".to_string());
        }
    }
    ir
}

proptest! {
    #[test]
    fn analysis_is_deterministic_and_idempotent(
        scan_barrier in any::<bool>(),
        filter_on_price in any::<bool>(),
        exact0 in any::<bool>(),
        exact1 in any::<bool>(),
        project_brand in any::<bool>(),
    ) {
        let ir = plan_variant(scan_barrier, filter_on_price, [exact0, exact1], project_brand);
        let a = analyze(&ir);
        prop_assert_eq!(&a, &analyze(&ir), "two runs must agree");
        let again = analyze(&a.ir);
        prop_assert_eq!(&again, &a, "re-analysis must be the identity");
        prop_assert!(a.report.is_clean(), "variants stay clean: {:?}", a.report);
    }

    #[test]
    fn every_rewrite_is_justified_and_placement_matches_facts(
        scan_barrier in any::<bool>(),
        filter_on_price in any::<bool>(),
        exact0 in any::<bool>(),
        exact1 in any::<bool>(),
        project_brand in any::<bool>(),
    ) {
        let ir = plan_variant(scan_barrier, filter_on_price, [exact0, exact1], project_brand);
        let program = PlanProgram::compile(ir.clone(), OptMode::Optimized);
        let program = match program {
            Ok(p) => p,
            Err(report) => {
                prop_assert!(false, "clean plan must compile: {report:?}");
                return Ok(());
            }
        };
        let analysis = analyze(&ir);
        for rw in &program.rewrites {
            prop_assert!(!rw.justification.is_empty(), "{:?}", rw.kind);
            for fact in &rw.justification {
                prop_assert!(
                    analysis.holds(fact),
                    "{:?} cites unestablished {}", rw.kind, fact.render()
                );
            }
        }
        // Placement is exactly as early as the facts allow.
        for (source, &is_exact) in [exact0, exact1].iter().enumerate() {
            let expected = if scan_barrier {
                FilterPlacement::Union
            } else if is_exact {
                FilterPlacement::Acquire
            } else {
                FilterPlacement::PostMap
            };
            prop_assert_eq!(program.placement_for(source), expected, "src{}", source);
        }
        // Dead-column elimination tracks the projection: `category` is never
        // projected, `brand` only when the variant asks for it.
        let live = match program.live_mask() {
            Some(live) => live,
            None => {
                prop_assert!(false, "category is always dead, a mask must exist");
                return Ok(());
            }
        };
        prop_assert!(!live[3], "category is unprojected, so dead");
        prop_assert_eq!(live[2], project_brand, "brand liveness tracks projection");
        prop_assert!(live[0] && live[1] && live[4], "projected columns stay live");
        // Naive mode never rewrites and never places early.
        let naive = PlanProgram::compile(ir, OptMode::Naive);
        let naive = match naive {
            Ok(p) => p,
            Err(report) => {
                prop_assert!(false, "naive compile must succeed: {report:?}");
                return Ok(());
            }
        };
        prop_assert!(naive.rewrites.is_empty());
        prop_assert_eq!(&naive.ir, &analysis.ir);
    }

    #[test]
    fn optimization_is_a_fixed_point(
        scan_barrier in any::<bool>(),
        filter_on_price in any::<bool>(),
        exact0 in any::<bool>(),
        exact1 in any::<bool>(),
        project_brand in any::<bool>(),
    ) {
        let ir = plan_variant(scan_barrier, filter_on_price, [exact0, exact1], project_brand);
        let once = PlanProgram::compile(ir, OptMode::Optimized);
        let once = match once {
            Ok(p) => p,
            Err(report) => {
                prop_assert!(false, "clean plan must compile: {report:?}");
                return Ok(());
            }
        };
        // Re-compiling the optimized IR must be sound (clean analysis) and
        // must not move anything further.
        let twice = PlanProgram::compile(once.ir.clone(), OptMode::Optimized);
        let twice = match twice {
            Ok(p) => p,
            Err(report) => {
                prop_assert!(false, "optimized plan must re-compile: {report:?}");
                return Ok(());
            }
        };
        prop_assert!(twice.report.is_clean(), "{:?}", twice.report);
        prop_assert_eq!(&twice.ir, &once.ir, "optimize must be a fixed point");
    }

    #[test]
    fn plan_defects_are_caught_deterministically(
        scan_barrier in any::<bool>(),
        exact0 in any::<bool>(),
        exact1 in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let ir = plan_variant(scan_barrier, false, [exact0, exact1], false);
        let baseline = analyze(&ir).report;
        prop_assert!(baseline.is_clean(), "{:?}", baseline);
        for (class, code) in [
            (DefectClass::DeadColumnConsumed, Code::PlanDeadColumn),
            (DefectClass::LossyPushdown, Code::PlanLossyPushdown),
            (DefectClass::DuplicateMapWork, Code::PlanDuplicateMapWork),
        ] {
            let a = inject_plan_defect(&ir, class, seed);
            prop_assert_eq!(&a, &inject_plan_defect(&ir, class, seed), "{:?}", class);
            let bad = match a {
                Some(bad) => bad,
                None => {
                    prop_assert!(false, "{class:?} found no injection site");
                    return Ok(());
                }
            };
            let report = analyze(&bad).report;
            prop_assert!(report.has_code(code), "{class:?}: {report:?}");
            prop_assert!(
                !report.newly_versus(&baseline).is_empty(),
                "{class:?} must add findings over baseline"
            );
        }
    }

    #[test]
    fn forged_citations_never_compile(
        scan_barrier in any::<bool>(),
        source in 0usize..4,
    ) {
        let ir = plan_variant(scan_barrier, false, [true, true], false);
        let analysis = analyze(&ir);
        let forged = wrangler_plan::AppliedRewrite {
            kind: wrangler_plan::RewriteKind::SkipDeadFusion {
                column: "sku".to_string(), // projected, so never dead
            },
            justification: vec![Fact::DeadAtFuse {
                column: "sku".to_string(),
            }],
            description: format!("forged (src{source})"),
        };
        let err = PlanProgram::compile_with_rewrites(ir, analysis.ir.clone(), vec![forged]);
        match err {
            Err(report) => prop_assert!(report.has_code(Code::PlanUnjustifiedRewrite)),
            Ok(_) => prop_assert!(false, "forged citation must be rejected"),
        }
    }
}
