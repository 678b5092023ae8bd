//! Seeded defect injection for analyzer evaluation (experiment E12).
//!
//! Each [`DefectClass`] is a realistic corruption of a wrangling artifact —
//! the kind a buggy mapping generator, a schema drift, or a hand-edited
//! pipeline would introduce. Injection is a pure function of `(artifact,
//! class, seed)`, so experiments are reproducible without any RNG crate: the
//! only randomness is a splitmix64 stream derived from the seed.

use wrangler_mapping::Mapping;
use wrangler_table::{DataType, Expr, Schema};
use wrangler_uncertainty::Belief;

/// The defect classes injected by E12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DefectClass {
    /// A binding's source column index is bumped past the source arity.
    OutOfRangeBinding,
    /// A bound target field's dtype is flipped to a worse-cast type.
    DtypeFlip,
    /// The binding vector's arity is corrupted (entry dropped or appended).
    ArityCorruption,
    /// Every binding is removed, leaving a zero-coverage mapping.
    UnbindAll,
    /// A well-typed predicate is rewritten into an ill-typed one.
    IllTypedPredicate,
    /// A column dropped from the output projection is still consumed by a
    /// downstream operator — visible only to whole-plan liveness analysis.
    DeadColumnConsumed,
    /// A filter forced below a lossy cast boundary, where row verdicts can
    /// diverge — visible only to whole-plan pushdown-safety analysis.
    LossyPushdown,
    /// Map-generation work duplicated across sources with the same inferred
    /// schema — visible only to whole-plan common-subexpression detection.
    DuplicateMapWork,
}

impl DefectClass {
    /// The classes that corrupt mapping artifacts (everything except
    /// [`DefectClass::IllTypedPredicate`]).
    pub const MAPPING_CLASSES: [DefectClass; 4] = [
        DefectClass::OutOfRangeBinding,
        DefectClass::DtypeFlip,
        DefectClass::ArityCorruption,
        DefectClass::UnbindAll,
    ];

    /// The classes that corrupt whole-plan structure; injection sites live in
    /// `wrangler-plan` (the IR layer), which this crate cannot depend on.
    pub const PLAN_CLASSES: [DefectClass; 3] = [
        DefectClass::DeadColumnConsumed,
        DefectClass::LossyPushdown,
        DefectClass::DuplicateMapWork,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            DefectClass::OutOfRangeBinding => "out-of-range-binding",
            DefectClass::DtypeFlip => "dtype-flip",
            DefectClass::ArityCorruption => "arity-corruption",
            DefectClass::UnbindAll => "unbind-all",
            DefectClass::IllTypedPredicate => "ill-typed-predicate",
            DefectClass::DeadColumnConsumed => "dead-column-consumed",
            DefectClass::LossyPushdown => "lossy-pushdown",
            DefectClass::DuplicateMapWork => "duplicate-map-work",
        }
    }
}

/// Minimal deterministic RNG (splitmix64); good enough for picking injection
/// sites, and keeps this crate free of an RNG dependency. Public so the plan
/// layer's defect injector draws from the same stream family.
pub struct Split(u64);

impl Split {
    /// Stream seeded by `seed`.
    pub fn new(seed: u64) -> Split {
        Split(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, infallible
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Inject `class` into a copy of `mapping`, which targets a source with
/// schema `source`. Returns `None` when the mapping offers no injection site
/// for the class (e.g. dtype flip on a mapping with no bound fields).
pub fn inject_mapping_defect(
    mapping: &Mapping,
    source: &Schema,
    class: DefectClass,
    seed: u64,
) -> Option<Mapping> {
    let mut rng = Split::new(seed);
    let mut m = mapping.clone();
    let bound: Vec<usize> = m
        .bindings
        .iter()
        .enumerate()
        .filter_map(|(i, b)| b.map(|_| i))
        .collect();
    match class {
        DefectClass::OutOfRangeBinding => {
            let site = *bound.get(rng.below(bound.len()))?;
            m.bindings[site] = Some(source.len() + 1 + rng.below(7));
            Some(m)
        }
        DefectClass::DtypeFlip => {
            // Pick a bound field whose dtype can be flipped to a strictly
            // worse cast from its source column's type.
            let mut candidates: Vec<(usize, DataType)> = Vec::new();
            for &ti in &bound {
                let src = m.bindings[ti]?;
                let src_dtype = source.field(src).ok()?.dtype;
                let cur = m.target.field(ti).ok()?.dtype;
                let cur_safety = src_dtype.cast_safety(cur);
                let flip = [DataType::Bool, DataType::Int, DataType::Float]
                    .into_iter()
                    .filter(|d| *d != cur)
                    .max_by_key(|d| src_dtype.cast_safety(*d));
                if let Some(flip) = flip {
                    if src_dtype.cast_safety(flip) > cur_safety {
                        candidates.push((ti, flip));
                    }
                }
            }
            let (site, flip) = *candidates.get(rng.below(candidates.len()))?;
            let mut fields = m.target.fields().to_vec();
            fields[site].dtype = flip;
            m.target = Schema::new(fields).ok()?;
            Some(m)
        }
        DefectClass::ArityCorruption => {
            if m.bindings.is_empty() {
                return None;
            }
            if rng.next().is_multiple_of(2) {
                m.bindings.pop();
                m.binding_beliefs.pop();
            } else {
                m.bindings.push(None);
                m.binding_beliefs.push(Belief::uninformed());
            }
            Some(m)
        }
        DefectClass::UnbindAll => {
            if bound.is_empty() {
                return None;
            }
            for b in &mut m.bindings {
                *b = None;
            }
            for bel in &mut m.binding_beliefs {
                *bel = Belief::uninformed();
            }
            Some(m)
        }
        // Predicate and whole-plan classes have no mapping injection site;
        // the former is handled by `corrupt_predicate`, the latter by
        // `wrangler-plan`'s IR-level injector.
        DefectClass::IllTypedPredicate
        | DefectClass::DeadColumnConsumed
        | DefectClass::LossyPushdown
        | DefectClass::DuplicateMapWork => None,
    }
}

/// Rewrite a predicate over `schema` into an ill-typed one. Returns `None`
/// when the schema offers no suitable columns.
pub fn corrupt_predicate(pred: &Expr, schema: &Schema, seed: u64) -> Option<Expr> {
    let mut rng = Split::new(seed);
    let str_cols: Vec<&str> = schema
        .fields()
        .iter()
        .filter(|f| f.dtype == DataType::Str)
        .map(|f| f.name.as_str())
        .collect();
    let non_bool: Vec<&str> = schema
        .fields()
        .iter()
        .filter(|f| !matches!(f.dtype, DataType::Bool | DataType::Null))
        .map(|f| f.name.as_str())
        .collect();
    match rng.next() % 3 {
        // Arithmetic over a string column: every non-null row errors.
        0 => {
            let c = *str_cols.get(rng.below(str_cols.len()))?;
            Some(Expr::col(c).add(Expr::lit(1)).gt(Expr::lit(0)))
        }
        // Boolean connective over a non-boolean operand.
        1 => {
            let c = *non_bool.get(rng.below(non_bool.len()))?;
            Some(pred.clone().and(Expr::col(c)))
        }
        // Non-boolean root: the predicate evaluates to a value, not a truth.
        _ => {
            let c = *non_bool.get(rng.below(non_bool.len()))?;
            Some(Expr::col(c))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Code;
    use crate::mapping::check_mapping;
    use wrangler_mapping::mapping::target_schema;
    use wrangler_table::Field;

    fn source() -> Schema {
        Schema::new(vec![
            Field::new("code", DataType::Str),
            Field::new("cost", DataType::Float),
        ])
        .expect("unique names")
    }

    fn mapping() -> Mapping {
        Mapping {
            target: target_schema(&[("sku", DataType::Str), ("price", DataType::Float)]),
            bindings: vec![Some(0), Some(1)],
            binding_beliefs: vec![Belief::from_prior(0.9), Belief::from_prior(0.8)],
            belief: Belief::from_prior(0.85),
        }
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let m = mapping();
        let s = source();
        for class in DefectClass::MAPPING_CLASSES {
            let a = inject_mapping_defect(&m, &s, class, 42).map(|x| x.bindings);
            let b = inject_mapping_defect(&m, &s, class, 42).map(|x| x.bindings);
            assert_eq!(a, b, "{class:?}");
        }
    }

    #[test]
    fn each_mapping_class_yields_its_code() {
        let m = mapping();
        let s = source();
        let baseline = check_mapping(&m, &s);
        for (class, code) in [
            (DefectClass::OutOfRangeBinding, Code::BindingOutOfRange),
            (DefectClass::ArityCorruption, Code::BindingArityMismatch),
            (DefectClass::UnbindAll, Code::ZeroCoverage),
        ] {
            let bad = inject_mapping_defect(&m, &s, class, 7).expect("site exists");
            let report = check_mapping(&bad, &s);
            assert!(report.has_code(code), "{class:?}: {report:?}");
            assert!(
                !report.newly_versus(&baseline).is_empty(),
                "{class:?} must add findings over baseline"
            );
        }
    }

    #[test]
    fn dtype_flip_degrades_cast() {
        let m = mapping();
        let s = source();
        let baseline = check_mapping(&m, &s);
        let bad = inject_mapping_defect(&m, &s, DefectClass::DtypeFlip, 7).expect("site exists");
        let report = check_mapping(&bad, &s);
        assert!(!report.newly_versus(&baseline).is_empty(), "{report:?}");
    }

    #[test]
    fn predicate_corruption_is_caught() {
        use crate::expr::check_predicate;
        let s = Schema::new(vec![
            Field::new("name", DataType::Str),
            Field::new("price", DataType::Float),
        ])
        .expect("unique names");
        let clean = Expr::col("price").gt(Expr::lit(1.0));
        for seed in 0..6 {
            let bad = corrupt_predicate(&clean, &s, seed).expect("columns exist");
            let r = check_predicate(&bad, &s);
            assert!(
                r.has_code(Code::IllTypedArithmetic)
                    || r.has_code(Code::IllTypedLogic)
                    || r.has_code(Code::NonBooleanPredicate),
                "seed {seed}: {r:?}"
            );
        }
    }
}
