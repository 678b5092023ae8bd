//! The proof-carrying plan optimizer.
//!
//! Every rewrite the optimizer applies is an [`AppliedRewrite`]: the rewrite
//! kind plus the [`Fact`]s that justify it. [`verify_rewrites`] re-checks
//! each citation against the analysis — the fact must actually have been
//! established, and the cited set must be *sufficient* for the rewrite kind
//! — emitting `L304` for anything forged or missing. [`PlanProgram::compile`]
//! refuses to produce an executable program unless verification is clean, so
//! an unjustified rewrite is rejected at plan-build time with a typed
//! diagnostic rather than silently executed.

use wrangler_lint::{Code, Diagnostic, Locus, Report};
use wrangler_table::Expr;

use crate::analysis::{analyze, Analysis, Fact};
use crate::ir::{FilterPlacement, OpKind, PlanIr};

/// The rewrites this optimizer knows, ordered by where they act in the plan.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum RewriteKind {
    /// Hoist target-sample column profiling out of the per-source map
    /// generation loop (cross-source CSE of the alignment input).
    ShareTargetProfile,
    /// Push the row filter into acquisition for one source: raw rows are
    /// filtered (over renamed columns) before mapping runs at all.
    PushdownFilterToAcquire {
        /// Registry index of the source.
        source: usize,
    },
    /// Evaluate the row filter over mapped rows before the union firewall.
    PushdownFilterPostMap {
        /// Registry index of the source.
        source: usize,
    },
    /// Fuse the row filter into the union loop (map+union stage fusion)
    /// instead of a separate pass over the materialized union.
    FuseFilterIntoUnion,
    /// Skip fusing a column no downstream operator consumes.
    SkipDeadFusion {
        /// Target column name.
        column: String,
    },
}

impl RewriteKind {
    /// Stable rewrite name.
    pub fn name(&self) -> &'static str {
        match self {
            RewriteKind::ShareTargetProfile => "share-target-profile",
            RewriteKind::PushdownFilterToAcquire { .. } => "pushdown-filter-to-acquire",
            RewriteKind::PushdownFilterPostMap { .. } => "pushdown-filter-post-map",
            RewriteKind::FuseFilterIntoUnion => "fuse-filter-into-union",
            RewriteKind::SkipDeadFusion { .. } => "skip-dead-fusion",
        }
    }

    /// What the rewrite acts on, for provenance.
    pub fn target(&self) -> String {
        match self {
            RewriteKind::ShareTargetProfile => "map-generation".to_string(),
            RewriteKind::PushdownFilterToAcquire { source }
            | RewriteKind::PushdownFilterPostMap { source } => format!("src{source}"),
            RewriteKind::FuseFilterIntoUnion => "union".to_string(),
            RewriteKind::SkipDeadFusion { column } => format!("column:{column}"),
        }
    }
}

/// One applied rewrite with its proof.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedRewrite {
    /// What was rewritten.
    pub kind: RewriteKind,
    /// The analysis facts cited as justification.
    pub justification: Vec<Fact>,
    /// Human-readable account, recorded in provenance.
    pub description: String,
}

impl AppliedRewrite {
    /// Render the justification for provenance, `;`-joined.
    fn justification_rendered(&self) -> String {
        let parts: Vec<String> = self.justification.iter().map(Fact::render).collect();
        parts.join("; ")
    }
}

/// Whether compilation applies the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptMode {
    /// Execute the lowered plan as-is.
    Naive,
    /// Apply every justified rewrite (the default).
    #[default]
    Optimized,
}

impl OptMode {
    /// Whether map generation profiles the target sample once and shares
    /// the profiles across `generations` sources: the rule of the
    /// `share-target-profile` rewrite below (a common map input across at
    /// least two sources), the one decision map generation takes before
    /// the program it feeds exists.
    pub fn shares_target_profile(self, generations: usize) -> bool {
        self == OptMode::Optimized && generations >= 2
    }
}

/// Apply every rewrite the analysis justifies. Returns the optimized IR plus
/// the applied rewrites with their proofs. A plan whose analysis has
/// `Error`-severity findings is left untouched: broken plans are not
/// optimized, they are reported.
pub fn optimize(analysis: &Analysis) -> (PlanIr, Vec<AppliedRewrite>) {
    let mut ir = analysis.ir.clone();
    let mut rewrites = Vec::new();
    if !analysis.report.is_clean() {
        return (ir, rewrites);
    }

    // Cross-source CSE: share the target-side profiling work.
    if let Some(fact @ Fact::CommonMapInput { sources }) = analysis.facts.iter().find(|f| {
        matches!(f, Fact::CommonMapInput { sources }
            if OptMode::Optimized.shares_target_profile(sources.len()))
    }) {
        rewrites.push(AppliedRewrite {
            kind: RewriteKind::ShareTargetProfile,
            justification: vec![fact.clone()],
            description: format!(
                "profile the target sample once and share it across {} map generations",
                sources.len()
            ),
        });
    }

    // Filter placement: per source, as early as the facts allow.
    let pure = analysis
        .facts
        .iter()
        .find(|f| matches!(f, Fact::PredicatePure { .. }))
        .cloned();
    let filter_id = ir.filter_node().map(|n| n.id);
    if let (Some(pure_fact), Some(filter_id)) = (pure, filter_id) {
        let columns = match &pure_fact {
            Fact::PredicatePure { columns } => columns.clone(),
            _ => Vec::new(),
        };
        let no_barrier = analysis.holds(&Fact::NoScanBarrier);
        let mut fused_union = false;
        if let OpKind::Filter { placement, .. } = &mut ir.nodes[filter_id].kind {
            for (source, place) in placement.iter_mut() {
                let exact: Vec<Fact> = columns
                    .iter()
                    .map(|c| Fact::CellExactBinding {
                        source: *source,
                        column: c.clone(),
                    })
                    .collect();
                if no_barrier && exact.iter().all(|f| analysis.holds(f)) {
                    *place = FilterPlacement::Acquire;
                    let mut justification = vec![pure_fact.clone(), Fact::NoScanBarrier];
                    justification.extend(exact);
                    rewrites.push(AppliedRewrite {
                        kind: RewriteKind::PushdownFilterToAcquire { source: *source },
                        justification,
                        description: format!(
                            "filter src{source} raw rows before mapping (all referenced \
                             bindings cell-exact, no scan barrier)"
                        ),
                    });
                } else if no_barrier {
                    *place = FilterPlacement::PostMap;
                    rewrites.push(AppliedRewrite {
                        kind: RewriteKind::PushdownFilterPostMap { source: *source },
                        justification: vec![pure_fact.clone(), Fact::NoScanBarrier],
                        description: format!(
                            "filter src{source} mapped rows before the union (no scan barrier)"
                        ),
                    });
                } else {
                    *place = FilterPlacement::Union;
                    fused_union = true;
                }
            }
        }
        if fused_union {
            rewrites.push(AppliedRewrite {
                kind: RewriteKind::FuseFilterIntoUnion,
                justification: vec![pure_fact.clone()],
                description: "evaluate the filter inside the union loop, after the per-row \
                              poison check, instead of a separate pass over the materialized \
                              union"
                    .to_string(),
            });
        }
    }

    // Dead-column elimination at fuse.
    let dead: Vec<Fact> = analysis
        .facts
        .iter()
        .filter(|f| matches!(f, Fact::DeadAtFuse { .. }))
        .cloned()
        .collect();
    if let Some(fuse_id) = ir.fuse_node().map(|n| n.id) {
        let target = ir.target.clone();
        if let OpKind::Fuse { live } = &mut ir.nodes[fuse_id].kind {
            for fact in dead {
                let Fact::DeadAtFuse { column } = &fact else {
                    continue;
                };
                if let Some(j) = target.iter().position(|c| &c.name == column) {
                    if live.get(j).copied().unwrap_or(false) {
                        live[j] = false;
                        rewrites.push(AppliedRewrite {
                            kind: RewriteKind::SkipDeadFusion {
                                column: column.clone(),
                            },
                            justification: vec![fact.clone()],
                            description: format!(
                                "skip fusing `{column}`: no operator after fuse consumes it \
                                 (claims are still collected, so trust estimation is unchanged)"
                            ),
                        });
                    }
                }
            }
        }
    }

    (ir, rewrites)
}

/// Check every rewrite's citations against the analysis: each cited fact
/// must have been established, and the cited set must suffice for the
/// rewrite kind. Violations are `L304` errors.
pub fn verify_rewrites(analysis: &Analysis, rewrites: &[AppliedRewrite]) -> Report {
    let mut report = Report::new();
    for rw in rewrites {
        let locus = Locus::Step(format!("rewrite:{}", rw.kind.name()));
        for fact in &rw.justification {
            if !analysis.holds(fact) {
                report.push(Diagnostic::new(
                    Code::PlanUnjustifiedRewrite,
                    locus.clone(),
                    format!(
                        "rewrite `{}` cites {}, which the analysis did not establish",
                        rw.kind.name(),
                        fact.render()
                    ),
                ));
            }
        }
        let missing = |report: &mut Report, what: &str| {
            report.push(Diagnostic::new(
                Code::PlanUnjustifiedRewrite,
                locus.clone(),
                format!(
                    "rewrite `{}` does not cite {what}, which its soundness requires",
                    rw.kind.name()
                ),
            ));
        };
        let cites_pure = rw
            .justification
            .iter()
            .find(|f| matches!(f, Fact::PredicatePure { .. }));
        let cites_barrier = rw.justification.contains(&Fact::NoScanBarrier);
        match &rw.kind {
            RewriteKind::ShareTargetProfile => {
                let ok = rw.justification.iter().any(
                    |f| matches!(f, Fact::CommonMapInput { sources } if sources.len() >= 2),
                );
                if !ok {
                    missing(&mut report, "a common map input across at least two sources");
                }
            }
            RewriteKind::FuseFilterIntoUnion => {
                if cites_pure.is_none() {
                    missing(&mut report, "predicate purity");
                }
            }
            RewriteKind::PushdownFilterPostMap { .. } => {
                if cites_pure.is_none() {
                    missing(&mut report, "predicate purity");
                }
                if !cites_barrier {
                    missing(&mut report, "the absence of a scan barrier");
                }
            }
            RewriteKind::PushdownFilterToAcquire { source } => {
                if !cites_barrier {
                    missing(&mut report, "the absence of a scan barrier");
                }
                match cites_pure {
                    None => missing(&mut report, "predicate purity"),
                    Some(Fact::PredicatePure { columns }) => {
                        for c in columns {
                            let fact = Fact::CellExactBinding {
                                source: *source,
                                column: c.clone(),
                            };
                            if !rw.justification.contains(&fact) {
                                missing(
                                    &mut report,
                                    &format!("a cell-exact binding of `{c}` for src{source}"),
                                );
                            }
                        }
                    }
                    Some(_) => {}
                }
            }
            RewriteKind::SkipDeadFusion { column } => {
                let fact = Fact::DeadAtFuse {
                    column: column.clone(),
                };
                if !rw.justification.contains(&fact) {
                    missing(&mut report, &format!("liveness death of `{column}` at fuse"));
                }
            }
        }
    }
    report.canonicalize();
    report
}

/// How the union stage evaluates the row filter in a source's block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnionFilter {
    /// Inside the poison scan, row by row after the poison check: the
    /// `fuse-filter-into-union` rewrite.
    Fused,
    /// A second scan over the rows the block kept, after the poison-row
    /// threshold decided the block survives: the naive program, or one the
    /// optimizer left unrewritten.
    Separate,
}

/// A compiled wrangle plan: the executed (possibly optimized) IR and its
/// verified rewrite ledger. The session consults this — never the raw IR —
/// for every decision the optimizer can influence.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProgram {
    /// The IR that executes.
    pub ir: PlanIr,
    /// Facts established by analysis.
    pub facts: Vec<Fact>,
    /// Whole-plan analysis findings (feeds the pre-flight gate).
    pub report: Report,
    /// Applied rewrites with their proofs.
    pub rewrites: Vec<AppliedRewrite>,
}

impl PlanProgram {
    /// Analyze, optionally optimize, and verify. `Err` carries the typed
    /// verification report when any rewrite's justification is missing or
    /// false — the plan-build-time rejection the optimizer contract demands.
    pub fn compile(ir: PlanIr, mode: OptMode) -> Result<PlanProgram, Report> {
        let analysis = analyze(&ir);
        let (opt_ir, rewrites) = match mode {
            OptMode::Naive => (analysis.ir.clone(), Vec::new()),
            OptMode::Optimized => optimize(&analysis),
        };
        PlanProgram::from_parts(analysis, opt_ir, rewrites)
    }

    /// Compile with a caller-supplied rewrite ledger (and the IR those
    /// rewrites claim to produce). This is the path defect experiments and
    /// forged-justification tests use; `compile` itself always goes through
    /// [`optimize`].
    pub fn compile_with_rewrites(
        ir: PlanIr,
        opt_ir: PlanIr,
        rewrites: Vec<AppliedRewrite>,
    ) -> Result<PlanProgram, Report> {
        let analysis = analyze(&ir);
        PlanProgram::from_parts(analysis, opt_ir, rewrites)
    }

    fn from_parts(
        analysis: Analysis,
        opt_ir: PlanIr,
        rewrites: Vec<AppliedRewrite>,
    ) -> Result<PlanProgram, Report> {
        let verification = verify_rewrites(&analysis, &rewrites);
        if !verification.is_clean() {
            return Err(verification);
        }
        Ok(PlanProgram {
            ir: opt_ir,
            facts: analysis.facts,
            report: analysis.report,
            rewrites,
        })
    }

    /// True if analysis established `fact` for this program (the facts are
    /// kept sorted). Runtime reuse decisions — like the incremental
    /// engine's per-source block memoization — cite facts through this, so
    /// a reuse without a verified justification is structurally impossible.
    pub fn holds(&self, fact: &Fact) -> bool {
        self.facts.binary_search(fact).is_ok()
    }

    /// The row filter predicate, if the plan has one.
    pub fn predicate(&self) -> Option<&Expr> {
        self.ir.filter_node().and_then(|n| match &n.kind {
            OpKind::Filter { predicate, .. } => Some(predicate),
            _ => None,
        })
    }

    /// Where the filter runs for `source` (`Union` when the plan has no
    /// placement entry: the always-legal default).
    pub fn placement_for(&self, source: usize) -> FilterPlacement {
        self.ir
            .filter_node()
            .and_then(|n| match &n.kind {
                OpKind::Filter { placement, .. } => placement
                    .iter()
                    .find(|(s, _)| *s == source)
                    .map(|(_, p)| *p),
                _ => None,
            })
            .unwrap_or(FilterPlacement::Union)
    }

    /// The row filter the union stage runs, and how: `None` when the plan
    /// has no filter or every source's runs before the union. A source
    /// whose [`placement_for`](Self::placement_for) is `Union` has it
    /// evaluated in its union block either way.
    pub fn union_filter(&self) -> Option<(&Expr, UnionFilter)> {
        let OpKind::Filter {
            predicate,
            placement,
        } = &self.ir.filter_node()?.kind
        else {
            return None;
        };
        if placement.iter().all(|&(_, p)| p != FilterPlacement::Union) {
            return None;
        }
        let fused = self
            .rewrites
            .iter()
            .any(|r| r.kind == RewriteKind::FuseFilterIntoUnion);
        let how = if fused {
            UnionFilter::Fused
        } else {
            UnionFilter::Separate
        };
        Some((predicate, how))
    }

    /// Per-target-attribute fuse liveness; `None` when every column is live.
    pub fn live_mask(&self) -> Option<&[bool]> {
        let live = self.ir.fuse_node().and_then(|n| match &n.kind {
            OpKind::Fuse { live } => Some(live.as_slice()),
            _ => None,
        })?;
        if live.iter().all(|&l| l) {
            None
        } else {
            Some(live)
        }
    }

    /// The output projection, in target order.
    pub fn output_columns(&self) -> Option<Vec<String>> {
        self.ir.assemble_node().and_then(|n| match &n.kind {
            OpKind::Assemble { output } => Some(output.clone()),
            _ => None,
        })
    }

    /// Provenance rows: `(rewrite, target, justification, description)` per
    /// applied rewrite.
    pub fn rewrite_rows(&self) -> Vec<[String; 4]> {
        self.rewrites
            .iter()
            .map(|r| {
                [
                    r.kind.name().to_string(),
                    r.kind.target(),
                    r.justification_rendered(),
                    r.description.clone(),
                ]
            })
            .collect()
    }
}
