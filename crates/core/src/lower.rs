//! Lowering a wrangle pass into the typed plan IR.
//!
//! This module is the *only* place in `wrangler-core` allowed to construct
//! `wrangler_plan::OpKind` nodes (`scripts/lint.sh` rule 5): everything else
//! in the crate consults the compiled [`wrangler_plan::PlanProgram`] through
//! its decision API. Lowering happens per wrangle, after mapping generation
//! — so every map node carries the real bindings, the `CastSafety` of each
//! binding, and (for columns the row filter references) a *cell-exact*
//! certificate computed against the actual acquired payload: mapping
//! normalization is the identity on every cell the source holds, so a
//! predicate over the raw column returns the same verdict as over the mapped
//! one. Those certificates are the facts the optimizer's pushdown rewrites
//! must cite.

use std::collections::BTreeMap;

use wrangler_mapping::{normalize::normalize_to, Mapping};
use wrangler_plan::{
    fingerprint_map, predicate_columns, rename_columns, ColType, Effects, FilterPlacement, OpKind,
    OpNode, PlanIr,
};
use wrangler_resolve::ErConfig;
use wrangler_table::{CastSafety, Expr, Schema, Table, Value};

use crate::contain::ContainPolicy;
use crate::planner::{Plan, SelectionStrategy};

/// One acquired source as the lowering sees it: the payload actually
/// delivered this pass (possibly degraded) plus its generated mapping.
pub struct LowerInput<'a> {
    /// Registry index of the source.
    pub source: usize,
    /// Source name, recorded on the acquire node.
    pub name: String,
    /// The raw table this pass will map.
    pub table: &'a Table,
    /// The mapping that will run over it.
    pub mapping: &'a Mapping,
}

/// Lower one wrangle pass into a [`PlanIr`].
///
/// The lowered plan is *naive*: every filter placement starts at the
/// always-legal `Union` position and every fuse slot starts live. The
/// optimizer promotes placements and kills dead slots only with analysis
/// facts in hand.
pub fn lower(
    inputs: &[LowerInput<'_>],
    target: &Schema,
    plan: &Plan,
    policy: &ContainPolicy,
    row_filter: Option<&Expr>,
    output_columns: Option<&[String]>,
    er_cfg: &ErConfig,
) -> PlanIr {
    let described = plan.describe();
    let effects_of = |step_name: &str| {
        described
            .iter()
            .find(|s| s.name == step_name)
            .map(Effects::from_step)
            .unwrap_or_default()
    };
    let select_fx = effects_of("source-selection");
    let acquire_fx = effects_of("acquisition");
    let map_fx = effects_of("mapping-generation");
    let er_fx = effects_of("entity-resolution");
    let fuse_fx = effects_of("fusion");

    // Cell-exactness is only certified for columns the filter references:
    // the certificate costs a scan of the raw column, and only pushdown
    // rewrites consume it.
    let certify: Vec<String> = row_filter.map(predicate_columns).unwrap_or_default();

    let target_cols = ColType::of_schema(target);
    let mut nodes = Vec::with_capacity(inputs.len() * 2 + 6);
    nodes.push(OpNode {
        id: 0,
        kind: OpKind::Select {
            strategy: match plan.selection {
                SelectionStrategy::AllRelevant => "all-relevant".to_string(),
                SelectionStrategy::MarginalGain => "marginal-gain".to_string(),
            },
        },
        inputs: vec![],
        schema: vec![],
        effects: select_fx,
    });
    let mut map_ids = Vec::with_capacity(inputs.len());
    for input in inputs {
        let source_schema = ColType::of_schema(input.table.schema());
        let acquire_id = nodes.len();
        nodes.push(OpNode {
            id: acquire_id,
            kind: OpKind::Acquire {
                source: input.source,
                name: input.name.clone(),
            },
            inputs: vec![0],
            schema: source_schema.clone(),
            effects: acquire_fx,
        });
        let bindings = input.mapping.bindings.clone();
        let casts: Vec<CastSafety> = target
            .fields()
            .iter()
            .zip(&bindings)
            .map(|(field, binding)| match binding {
                // An unbound field maps to an all-null column: nothing to lose.
                None => CastSafety::Lossless,
                Some(s) => source_schema
                    .get(*s)
                    .map(|c| c.dtype.cast_safety(field.dtype))
                    .unwrap_or(CastSafety::Incompatible),
            })
            .collect();
        let cell_exact: Vec<bool> = target
            .fields()
            .iter()
            .zip(&bindings)
            .map(|(field, binding)| {
                if !certify.contains(&field.name) {
                    return false;
                }
                match binding {
                    None => false,
                    Some(s) => binding_is_cell_exact(input.table, *s, field.dtype),
                }
            })
            .collect();
        let map_id = nodes.len();
        nodes.push(OpNode {
            id: map_id,
            kind: OpKind::Map {
                source: input.source,
                fingerprint: fingerprint_map(&source_schema, &bindings),
                bindings,
                casts,
                cell_exact,
            },
            inputs: vec![acquire_id],
            schema: vec![],
            effects: map_fx,
        });
        map_ids.push(map_id);
    }
    let mut union_inputs = map_ids.clone();
    if let Some(predicate) = row_filter {
        let filter_id = nodes.len();
        nodes.push(OpNode {
            id: filter_id,
            kind: OpKind::Filter {
                predicate: predicate.clone(),
                placement: inputs
                    .iter()
                    .map(|i| (i.source, FilterPlacement::Union))
                    .collect(),
            },
            inputs: map_ids,
            schema: vec![],
            effects: Effects::default(),
        });
        union_inputs = vec![filter_id];
    }
    let union_id = nodes.len();
    nodes.push(OpNode {
        id: union_id,
        kind: OpKind::Union {
            arity: inputs.len(),
        },
        inputs: union_inputs,
        schema: vec![],
        effects: Effects::default(),
    });
    let er_id = nodes.len();
    nodes.push(OpNode {
        id: er_id,
        kind: OpKind::Er {
            columns: er_cfg.fields.iter().map(|f| f.column.clone()).collect(),
            threshold: er_cfg.threshold,
        },
        inputs: vec![union_id],
        schema: vec![],
        effects: er_fx,
    });
    let fuse_id = nodes.len();
    nodes.push(OpNode {
        id: fuse_id,
        kind: OpKind::Fuse {
            live: vec![true; target.len()],
        },
        inputs: vec![er_id],
        schema: vec![],
        effects: fuse_fx,
    });
    nodes.push(OpNode {
        id: fuse_id + 1,
        kind: OpKind::Assemble {
            output: match output_columns {
                Some(cols) => cols.to_vec(),
                None => target.fields().iter().map(|f| f.name.clone()).collect(),
            },
        },
        inputs: vec![fuse_id],
        schema: vec![],
        effects: Effects::default(),
    });
    PlanIr {
        target: target_cols,
        nodes,
        scan_barrier: policy.scans_enabled(),
    }
}

/// True when mapping normalization is the identity on every cell source
/// column `col` actually holds: the raw and mapped values are bit-identical,
/// so a predicate verdict over the raw column equals the verdict over the
/// mapped one. Conservative on error (an out-of-range binding certifies
/// nothing).
fn binding_is_cell_exact(table: &Table, col: usize, dtype: wrangler_table::DataType) -> bool {
    let Ok(cells) = table.column(col) else {
        return false;
    };
    cells.iter().all(|v| &normalize_to(v, dtype) == v)
}

/// Rewrite `predicate` (over target column names) to reference the raw
/// columns `mapping` binds for them in `source_schema`. References to
/// unbound columns are left untouched — pushdown verification guarantees
/// they do not occur.
pub fn pushdown_predicate(
    predicate: &Expr,
    source_schema: &Schema,
    target: &Schema,
    mapping: &Mapping,
) -> Expr {
    let mut renames = BTreeMap::new();
    for (field, binding) in target.fields().iter().zip(&mapping.bindings) {
        if let Some(s) = binding {
            if let Some(raw) = source_schema.fields().get(*s) {
                renames.insert(field.name.clone(), raw.name.clone());
            }
        }
    }
    rename_columns(predicate, &renames)
}

/// Byte estimate of one value, the unit of the `scan.bytes` counter: fixed
/// widths for scalars, payload length for strings.
fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Null | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => s.len() as u64,
    }
}

/// Byte estimate of scanning every cell of `table`.
pub fn table_scan_bytes(table: &Table) -> u64 {
    (0..table.num_columns())
        .filter_map(|c| table.column(c).ok())
        .map(|col| col.iter().map(value_bytes).sum::<u64>())
        .sum()
}

/// Byte estimate of scanning the named columns of `table` (columns missing
/// from the schema contribute nothing).
pub fn columns_scan_bytes(table: &Table, names: &[String]) -> u64 {
    names
        .iter()
        .filter_map(|n| table.column_named(n).ok())
        .map(|col| col.iter().map(value_bytes).sum::<u64>())
        .sum()
}
