//! The typed wrangle-plan IR.
//!
//! A wrangle pass — select → acquire → map → union → ER → fuse → assemble —
//! is lowered into a small DAG of [`OpNode`]s. Each node carries a typed
//! output schema (`(DataType, nullable)` per column, computed by the
//! analyzer's schema-flow pass), the source partition it operates on, and
//! [`Effects`] annotations derived from the same [`PlanStep`] metadata the
//! determinism audit consumes. The IR is the single source of truth for what
//! executes: `wrangler-core`'s lowering module is the only place operator
//! nodes are constructed (enforced by `scripts/lint.sh` rule 5), and the
//! session consults the compiled [`crate::PlanProgram`] for every execution
//! decision the optimizer can influence.

use std::collections::BTreeMap;

use wrangler_lint::PlanStep;
use wrangler_table::{CastSafety, DataType, Expr, Field, Schema};

/// A typed column in an operator's output schema.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ColType {
    /// Column name.
    pub name: String,
    /// Inferred data type.
    pub dtype: DataType,
    /// Whether the column can hold nulls at this point in the plan.
    pub nullable: bool,
}

impl ColType {
    /// A typed column.
    pub fn new(name: impl Into<String>, dtype: DataType, nullable: bool) -> ColType {
        ColType {
            name: name.into(),
            dtype,
            nullable,
        }
    }

    /// Convert a schema into IR column types (schema nullability is carried
    /// through).
    pub fn of_schema(schema: &Schema) -> Vec<ColType> {
        schema
            .fields()
            .iter()
            .map(|f| ColType::new(&f.name, f.dtype, f.nullable))
            .collect()
    }

    /// Convert IR column types back into a schema (for running the
    /// expression typechecker over an operator's output).
    pub fn to_schema(cols: &[ColType]) -> Option<Schema> {
        let fields = cols
            .iter()
            .map(|c| {
                if c.nullable {
                    Field::new(&c.name, c.dtype)
                } else {
                    Field::required(&c.name, c.dtype)
                }
            })
            .collect();
        Schema::new(fields).ok()
    }
}

/// Effect/determinism annotations of one operator, the IR form of the
/// [`PlanStep`] metadata the plan audit consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effects {
    /// Draws randomness.
    pub randomized: bool,
    /// Randomness comes from a declared seed.
    pub seeded: bool,
    /// Iterates hash-keyed state into ordered output.
    pub hash_iteration: bool,
    /// Hash iteration order is normalized before it matters.
    pub order_normalized: bool,
    /// Fans out to parallel workers.
    pub parallel: bool,
    /// Parallel results merge in canonical order.
    pub merge_ordered: bool,
}

impl Effects {
    /// Derive effects from a described plan step.
    pub fn from_step(step: &PlanStep) -> Effects {
        Effects {
            randomized: step.randomized,
            seeded: step.seeded,
            hash_iteration: step.hash_iteration,
            order_normalized: step.order_normalized,
            parallel: step.parallel,
            merge_ordered: step.merge_ordered,
        }
    }

    /// Express the effects back as a plan step named `name`, so the existing
    /// determinism audit can run over IR nodes.
    pub fn to_step(self, name: &str) -> PlanStep {
        PlanStep {
            name: name.to_string(),
            randomized: self.randomized,
            seeded: self.seeded,
            hash_iteration: self.hash_iteration,
            order_normalized: self.order_normalized,
            parallel: self.parallel,
            merge_ordered: self.merge_ordered,
        }
    }

    /// True when no annotation implies run-to-run divergence.
    pub fn deterministic(self) -> bool {
        (!self.randomized || self.seeded)
            && (!self.hash_iteration || self.order_normalized)
            && (!self.parallel || self.merge_ordered)
    }
}

/// Where the row filter executes for one source. Ordered from latest
/// (always legal) to earliest (needs the strongest proof).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FilterPlacement {
    /// Fused into the union loop, after the per-row poison check. Always
    /// legal: quarantine decisions are identical to the naive plan.
    Union,
    /// Over mapped rows, before the union firewall. Legal only with no scan
    /// barrier (early row drops would change poison/budget decisions).
    PostMap,
    /// Over raw acquired rows, before mapping. Legal only with no scan
    /// barrier and a cell-exact binding for every referenced column.
    Acquire,
}

impl FilterPlacement {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FilterPlacement::Union => "union",
            FilterPlacement::PostMap => "post-map",
            FilterPlacement::Acquire => "acquire",
        }
    }
}

/// One typed operator of the wrangle plan.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Source selection under the session's strategy.
    Select {
        /// Strategy name (for diagnostics/provenance).
        strategy: String,
    },
    /// Acquisition of one source's table. Its `schema` annotation is the
    /// ground-truth raw source schema recorded at lowering time.
    Acquire {
        /// Registry index of the source.
        source: usize,
        /// Source name.
        name: String,
    },
    /// Schema mapping of one acquired source into the target schema.
    Map {
        /// Registry index of the source.
        source: usize,
        /// Per-target-field source column bindings.
        bindings: Vec<Option<usize>>,
        /// Cast safety of each binding under the `CastSafety` lattice
        /// (`Lossless` for unbound fields: an all-null column loses nothing).
        casts: Vec<CastSafety>,
        /// Per-target-field proof that mapping normalization is the identity
        /// on every cell the source actually holds (computed only for
        /// columns the lowering was asked to certify; `false` elsewhere).
        cell_exact: Vec<bool>,
        /// Fingerprint of `(source schema, bindings)`, for duplicate-work
        /// detection across nodes.
        fingerprint: u64,
    },
    /// Row filter over target-schema rows, placed per source.
    Filter {
        /// The predicate, over target column names.
        predicate: Expr,
        /// `(source, placement)` pairs, sorted by source.
        placement: Vec<(usize, FilterPlacement)>,
    },
    /// Union of the mapped (and possibly filtered) source tables.
    Union {
        /// Number of source inputs.
        arity: usize,
    },
    /// Entity resolution over the union.
    Er {
        /// Columns the ER kernel compares.
        columns: Vec<String>,
        /// Match threshold.
        threshold: f64,
    },
    /// Conflict-resolving fusion of clustered claims.
    Fuse {
        /// Per-target-attribute liveness: `false` slots are never consumed
        /// downstream and their fusion may be skipped.
        live: Vec<bool>,
    },
    /// Assembly of the wrangled table.
    Assemble {
        /// Output projection, in target-schema order.
        output: Vec<String>,
    },
}

impl OpKind {
    /// Stable operator name, used in diagnostics loci.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Select { .. } => "select",
            OpKind::Acquire { .. } => "acquire",
            OpKind::Map { .. } => "map",
            OpKind::Filter { .. } => "filter",
            OpKind::Union { .. } => "union",
            OpKind::Er { .. } => "er",
            OpKind::Fuse { .. } => "fuse",
            OpKind::Assemble { .. } => "assemble",
        }
    }

    /// The source partition this operator works on, if per-source.
    pub fn source(&self) -> Option<usize> {
        match self {
            OpKind::Acquire { source, .. } | OpKind::Map { source, .. } => Some(*source),
            _ => None,
        }
    }
}

/// One node of the plan DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct OpNode {
    /// Node id == index in [`PlanIr::nodes`].
    pub id: usize,
    /// The operator.
    pub kind: OpKind,
    /// Ids of input nodes.
    pub inputs: Vec<usize>,
    /// Typed output schema; filled by the analyzer's schema-flow pass
    /// (lowering may leave non-`Acquire` nodes empty).
    pub schema: Vec<ColType>,
    /// Effect/determinism annotations.
    pub effects: Effects,
}

impl OpNode {
    /// Diagnostic locus name, e.g. `node3:map[src1]`.
    pub fn locus_name(&self) -> String {
        match self.kind.source() {
            Some(s) => format!("node{}:{}[src{s}]", self.id, self.kind.name()),
            None => format!("node{}:{}", self.id, self.kind.name()),
        }
    }
}

/// A lowered wrangle plan: the typed operator DAG plus whole-plan context.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanIr {
    /// The target schema every mapped source lands in.
    pub target: Vec<ColType>,
    /// Operator nodes; a node's inputs always precede it.
    pub nodes: Vec<OpNode>,
    /// True when containment scans/budgets run between map and union: row
    /// sets reaching the firewall must then match the naive plan exactly, so
    /// no filter may execute ahead of it.
    pub scan_barrier: bool,
}

impl PlanIr {
    /// Index of the target column named `name`.
    pub fn target_index(&self, name: &str) -> Option<usize> {
        self.target.iter().position(|c| c.name == name)
    }

    /// The first node matching `pred`.
    fn find(&self, pred: impl Fn(&OpKind) -> bool) -> Option<&OpNode> {
        self.nodes.iter().find(|n| pred(&n.kind))
    }

    /// The filter node, if the plan has one.
    pub fn filter_node(&self) -> Option<&OpNode> {
        self.find(|k| matches!(k, OpKind::Filter { .. }))
    }

    /// The fuse node.
    pub fn fuse_node(&self) -> Option<&OpNode> {
        self.find(|k| matches!(k, OpKind::Fuse { .. }))
    }

    /// The assemble node.
    pub fn assemble_node(&self) -> Option<&OpNode> {
        self.find(|k| matches!(k, OpKind::Assemble { .. }))
    }

    /// All map nodes, in node order.
    pub fn map_nodes(&self) -> impl Iterator<Item = &OpNode> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Map { .. }))
    }
}

/// Fingerprint of one map operator's input: the source schema and the
/// bindings that consume it. Two map nodes with equal fingerprints over the
/// same source perform identical work.
pub fn fingerprint_map(source_schema: &[ColType], bindings: &[Option<usize>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for c in source_schema {
        for b in c.name.bytes() {
            mix(b);
        }
        mix(0xff);
        mix(c.dtype as u8);
        mix(u8::from(c.nullable));
    }
    mix(0xfe);
    for b in bindings {
        match b {
            None => mix(0xfd),
            Some(i) => {
                mix(0x01);
                for byte in (*i as u64).to_le_bytes() {
                    mix(byte);
                }
            }
        }
    }
    h
}

/// The column names a predicate references, sorted and deduplicated.
pub fn predicate_columns(expr: &Expr) -> Vec<String> {
    fn walk(e: &Expr, out: &mut Vec<String>) {
        match e {
            Expr::Col(name) => out.push(name.clone()),
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Expr::Not(a)
            | Expr::IsNull(a)
            | Expr::Lower(a)
            | Expr::Trim(a)
            | Expr::Len(a)
            | Expr::Cast(_, a) => walk(a, out),
            Expr::Coalesce(es) | Expr::Concat(es) => {
                for e in es {
                    walk(e, out);
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out.sort();
    out.dedup();
    out
}

/// Rewrite every column reference through `renames` (references absent from
/// the map are left untouched). Used to push a target-schema predicate down
/// to raw source columns once every referenced binding is proven cell-exact.
pub fn rename_columns(expr: &Expr, renames: &BTreeMap<String, String>) -> Expr {
    let r = |e: &Expr| Box::new(rename_columns(e, renames));
    match expr {
        Expr::Col(name) => Expr::Col(renames.get(name).cloned().unwrap_or_else(|| name.clone())),
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Cmp(op, a, b) => Expr::Cmp(*op, r(a), r(b)),
        Expr::Arith(op, a, b) => Expr::Arith(*op, r(a), r(b)),
        Expr::And(a, b) => Expr::And(r(a), r(b)),
        Expr::Or(a, b) => Expr::Or(r(a), r(b)),
        Expr::Not(a) => Expr::Not(r(a)),
        Expr::IsNull(a) => Expr::IsNull(r(a)),
        Expr::Lower(a) => Expr::Lower(r(a)),
        Expr::Trim(a) => Expr::Trim(r(a)),
        Expr::Len(a) => Expr::Len(r(a)),
        Expr::Cast(dt, a) => Expr::Cast(*dt, r(a)),
        Expr::Coalesce(es) => Expr::Coalesce(es.iter().map(|e| rename_columns(e, renames)).collect()),
        Expr::Concat(es) => Expr::Concat(es.iter().map(|e| rename_columns(e, renames)).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_round_trip_plan_steps() {
        let step = PlanStep::deterministic("entity-resolution")
            .with_hash_iteration(true)
            .with_parallelism(true);
        let e = Effects::from_step(&step);
        assert!(e.deterministic());
        assert_eq!(Effects::from_step(&e.to_step("entity-resolution")), e);
        let bad = Effects {
            randomized: true,
            ..Effects::default()
        };
        assert!(!bad.deterministic());
    }

    #[test]
    fn fingerprints_separate_schemas_and_bindings() {
        let a = vec![ColType::new("sku", DataType::Str, false)];
        let b = vec![ColType::new("sku", DataType::Int, false)];
        let bind = vec![Some(0), None];
        assert_eq!(fingerprint_map(&a, &bind), fingerprint_map(&a, &bind));
        assert_ne!(fingerprint_map(&a, &bind), fingerprint_map(&b, &bind));
        assert_ne!(
            fingerprint_map(&a, &bind),
            fingerprint_map(&a, &[None, Some(0)])
        );
    }

    #[test]
    fn predicate_columns_sorted_and_deduped() {
        let p = Expr::col("price")
            .gt(Expr::lit(1.0))
            .and(Expr::col("category").eq(Expr::col("price")));
        assert_eq!(predicate_columns(&p), vec!["category", "price"]);
    }

    #[test]
    fn rename_columns_rewrites_only_mapped_refs() {
        let p = Expr::col("price").gt(Expr::lit(1.0)).and(Expr::col("name").is_null());
        let mut m = BTreeMap::new();
        m.insert("price".to_string(), "cost".to_string());
        let q = rename_columns(&p, &m);
        assert_eq!(predicate_columns(&q), vec!["cost", "name"]);
    }

    #[test]
    fn coltype_schema_round_trip() {
        let cols = vec![
            ColType::new("sku", DataType::Str, false),
            ColType::new("price", DataType::Float, true),
        ];
        let schema = ColType::to_schema(&cols).expect("valid");
        assert_eq!(ColType::of_schema(&schema), cols);
    }
}
