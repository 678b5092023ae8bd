//! `wrangler-plan` — the typed wrangle-plan IR, its static analyzer, and the
//! proof-carrying optimizer.
//!
//! The paper frames wrangling as a cost-aware, automated process; Doan et
//! al.'s system-building agenda (PAPERS.md) sharpens that into *wrangling as
//! a compiled, optimizable program*. This crate is that compiler's middle
//! end:
//!
//! * [`ir`] — a wrangle pass lowered into typed operator nodes
//!   ([`OpNode`]): select → acquire → map → union → ER → fuse → assemble,
//!   each carrying an inferred `(DataType, nullable)` schema, its source
//!   partition, and [`Effects`] determinism annotations derived from the
//!   same `PlanStep` metadata the lint audit consumes;
//! * [`analysis`] — abstract-interpretation dataflow passes over the IR
//!   (schema/nullability flow, column liveness, predicate purity and
//!   pushdown safety, cross-source common-subexpression detection) emitting
//!   stable codes `L301`–`L303` through the `wrangler-lint`
//!   `Report`/`GateMode` machinery, plus the [`Fact`] base rewrites cite;
//! * [`opt`] — the optimizer. Every [`AppliedRewrite`] carries the facts
//!   that justify it; [`verify_rewrites`] re-checks the citations and
//!   [`PlanProgram::compile`] rejects a plan whose ledger contains a forged
//!   or insufficient justification with an `L304` typed diagnostic;
//! * [`corrupt`] — seeded injection of the three whole-plan defect classes
//!   experiment E12 measures ([`inject_plan_defect`]);
//! * [`fixture`] — a small clean plan for tests and experiments.
//!
//! `wrangler-core` lowers its pipeline into this IR (its lowering module is
//! the only place in core allowed to construct [`OpKind`] — `scripts/lint.sh`
//! rule 5) and consults the compiled [`PlanProgram`] for every execution
//! decision the optimizer can influence: filter placement per source, how
//! the union runs the filter ([`PlanProgram::union_filter`]), fuse liveness
//! and the output projection. Map generation's profile sharing is decided
//! before the program exists, by [`OptMode::shares_target_profile`], the
//! rule the `share-target-profile` rewrite records.

pub mod analysis;
pub mod corrupt;
pub mod fixture;
pub mod ir;
pub mod opt;

pub use analysis::{analyze, Analysis, Fact};
pub use corrupt::inject_plan_defect;
pub use ir::{
    fingerprint_map, predicate_columns, rename_columns, ColType, Effects, FilterPlacement, OpKind,
    OpNode, PlanIr,
};
pub use opt::{
    optimize, verify_rewrites, AppliedRewrite, OptMode, PlanProgram, RewriteKind, UnionFilter,
};

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_lint::Code;

    #[test]
    fn clean_plan_analyzes_clean_with_full_fact_base() {
        let a = analyze(&fixture::clean_plan());
        assert!(a.report.is_clean(), "{:?}", a.report);
        assert!(a.holds(&Fact::NoScanBarrier));
        assert!(a.holds(&Fact::PredicatePure {
            columns: vec!["category".into()]
        }));
        assert!(a.holds(&Fact::DeadAtFuse {
            column: "brand".into()
        }));
        assert!(a.holds(&Fact::CellExactBinding {
            source: 1,
            column: "category".into()
        }));
        assert!(a.holds(&Fact::CommonMapInput {
            sources: vec![0, 1]
        }));
    }

    #[test]
    fn optimizer_rewrites_are_all_verified() {
        let ir = fixture::clean_plan();
        let program = PlanProgram::compile(ir, OptMode::Optimized).expect("clean plan compiles");
        let kinds: Vec<&str> = program.rewrites.iter().map(|r| r.kind.name()).collect();
        // Profiles shared, the filter pushed into both sources'
        // acquisitions, and the two unprojected columns left unfused.
        assert_eq!(
            kinds,
            [
                "share-target-profile",
                "pushdown-filter-to-acquire",
                "pushdown-filter-to-acquire",
                "skip-dead-fusion",
                "skip-dead-fusion",
            ]
        );
        assert!(program.rewrites.iter().all(|r| !r.justification.is_empty()));
        // Decision API reflects the rewrites.
        assert_eq!(program.placement_for(0), FilterPlacement::Acquire);
        let live = program.live_mask().expect("dead columns exist");
        assert!(!live[2], "brand is dead");
        assert!(live[0], "sku is live");
    }

    #[test]
    fn naive_mode_compiles_without_rewrites() {
        let program =
            PlanProgram::compile(fixture::clean_plan(), OptMode::Naive).expect("compiles");
        assert!(program.rewrites.is_empty());
        assert_eq!(program.ir, analyze(&fixture::clean_plan()).ir);
        assert_eq!(program.placement_for(0), FilterPlacement::Union);
        assert!(program.live_mask().is_none());
        // Map generation shares the target profile only when optimized and
        // only across two or more sources, as the rewrite's rule demands.
        assert!(!OptMode::Naive.shares_target_profile(2));
        assert!(!OptMode::Optimized.shares_target_profile(1));
        assert!(OptMode::Optimized.shares_target_profile(2));
    }

    #[test]
    fn the_union_filter_is_separate_when_naive_fused_behind_a_barrier_and_gone_below_it() {
        let mut barrier_up = fixture::clean_plan();
        barrier_up.scan_barrier = true;
        let programs = [
            (
                OptMode::Naive,
                fixture::clean_plan(),
                Some(UnionFilter::Separate),
            ),
            (OptMode::Optimized, barrier_up, Some(UnionFilter::Fused)),
            (OptMode::Optimized, fixture::clean_plan(), None),
        ];
        for (mode, ir, expected) in programs {
            let program = PlanProgram::compile(ir, mode).expect("compiles");
            let decision = program.union_filter();
            assert_eq!(decision.map(|(_, how)| how), expected, "{mode:?}");
            if let Some((predicate, _)) = decision {
                assert_eq!(Some(predicate), program.predicate());
            }
            // Below the barrier every source filters before the union.
            let at_union = (0..2).all(|i| program.placement_for(i) == FilterPlacement::Union);
            assert_eq!(at_union, expected.is_some(), "{mode:?}");
        }
    }

    #[test]
    fn scan_barrier_blocks_early_placements() {
        let mut ir = fixture::clean_plan();
        ir.scan_barrier = true;
        let program = PlanProgram::compile(ir, OptMode::Optimized).expect("compiles");
        assert_eq!(program.placement_for(0), FilterPlacement::Union);
        assert_eq!(program.placement_for(1), FilterPlacement::Union);
        assert!(program
            .rewrites
            .iter()
            .any(|r| r.kind == RewriteKind::FuseFilterIntoUnion));
        // Dead-column elimination is barrier-independent.
        assert!(program.live_mask().is_some());
    }

    #[test]
    fn forged_justification_is_rejected_with_l304() {
        let ir = fixture::clean_plan();
        let analysis = analyze(&ir);
        // Cite a fact the analysis never established.
        let forged = AppliedRewrite {
            kind: RewriteKind::PushdownFilterToAcquire { source: 0 },
            justification: vec![
                Fact::PredicatePure {
                    columns: vec!["category".into()],
                },
                Fact::NoScanBarrier,
                Fact::CellExactBinding {
                    source: 7,
                    column: "category".into(),
                },
            ],
            description: "forged".into(),
        };
        let err = PlanProgram::compile_with_rewrites(ir.clone(), analysis.ir.clone(), vec![forged])
            .expect_err("forged citation must be rejected");
        assert!(err.has_code(Code::PlanUnjustifiedRewrite), "{err:?}");

        // A true but insufficient citation is also rejected.
        let insufficient = AppliedRewrite {
            kind: RewriteKind::PushdownFilterToAcquire { source: 0 },
            justification: vec![Fact::NoScanBarrier],
            description: "missing purity and cell-exactness".into(),
        };
        let err = PlanProgram::compile_with_rewrites(ir, analysis.ir.clone(), vec![insufficient])
            .expect_err("insufficient citation must be rejected");
        assert!(err.has_code(Code::PlanUnjustifiedRewrite), "{err:?}");
    }

    #[test]
    fn empty_ledger_always_verifies() {
        let ir = fixture::clean_plan();
        let analysis = analyze(&ir);
        let program = PlanProgram::compile_with_rewrites(ir, analysis.ir.clone(), Vec::new());
        assert!(program.is_ok(), "empty ledger is trivially justified");
    }

    #[test]
    fn analysis_is_deterministic_and_idempotent_on_fixture() {
        let ir = fixture::clean_plan();
        let a = analyze(&ir);
        let b = analyze(&ir);
        assert_eq!(a, b);
        let again = analyze(&a.ir);
        assert_eq!(again, a);
    }
}
