//! Evidence combination: column-pair beliefs and schema matching.

use wrangler_context::Ontology;
use wrangler_table::Table;
use wrangler_uncertainty::{Belief, Evidence, EvidenceKind};

use crate::instance::{instance_signals, profile, InstanceProfile};
use crate::name::name_evidence;
use crate::semantic::semantic_evidence;

/// Which evidence kinds to use and how to weigh them. Disabling kinds yields
/// the single-evidence baselines of experiment E5.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Use column-name similarity.
    pub use_names: bool,
    /// Use instance (content) similarity.
    pub use_instances: bool,
    /// Use ontology similarity (requires an ontology to be passed).
    pub use_ontology: bool,
    /// Reliability discount for name evidence (names lie more than data).
    pub name_reliability: f64,
    /// Reliability discount for instance evidence.
    pub instance_reliability: f64,
    /// Reliability discount for ontology evidence.
    pub ontology_reliability: f64,
    /// Prior probability that a random column pair corresponds.
    pub prior: f64,
    /// Minimum posterior for a pair to be reported at all.
    pub min_probability: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            use_names: true,
            use_instances: true,
            use_ontology: true,
            name_reliability: 0.8,
            instance_reliability: 0.7,
            ontology_reliability: 0.9,
            prior: 0.2,
            min_probability: 0.35,
        }
    }
}

impl MatchConfig {
    /// The name-only baseline (state of the art per §2.3: "small numbers of
    /// types of evidence").
    pub fn names_only() -> MatchConfig {
        MatchConfig {
            use_instances: false,
            use_ontology: false,
            ..MatchConfig::default()
        }
    }
}

/// A proposed correspondence between a left and a right column.
#[derive(Debug, Clone)]
pub struct Correspondence {
    /// Column index in the left schema.
    pub left: usize,
    /// Column index in the right schema.
    pub right: usize,
    /// Combined belief that the columns denote the same attribute.
    pub belief: Belief,
}

impl Correspondence {
    /// Posterior probability shorthand.
    pub fn probability(&self) -> f64 {
        self.belief.probability()
    }
}

/// Belief for one column pair given the available evidence.
fn pair_belief(
    left_name: &str,
    right_name: &str,
    left_prof: &InstanceProfile,
    right_prof: &InstanceProfile,
    ontology: Option<&Ontology>,
    cfg: &MatchConfig,
) -> Belief {
    let mut b = Belief::from_prior(cfg.prior);
    // Semantic evidence first: when the ontology recognizes both terms its
    // judgement supersedes syntactic name comparison — "cost" vs "price" are
    // spelled differently precisely because sources use synonyms.
    let semantic = if cfg.use_ontology {
        ontology.and_then(|ont| semantic_evidence(ont, left_name, right_name))
    } else {
        None
    };
    if cfg.use_names && semantic.is_none() {
        if let Some(sim) = name_evidence(left_name, right_name) {
            // Asymmetric mapping around a 0.55 neutral point: dissimilar
            // names are only weak negative evidence (synonyms exist), while
            // strongly similar names are strong positive evidence.
            let score = if sim >= 0.55 {
                0.5 + (sim - 0.55) * 0.9
            } else {
                0.5 - (0.55 - sim) * 0.33
            };
            b.update(
                &Evidence::from_score(EvidenceKind::NameSimilarity, score)
                    .discounted(cfg.name_reliability),
            );
        }
    }
    if cfg.use_instances {
        // The three instance signals are quasi-independent; pool each.
        let s = instance_signals(left_prof, right_prof);
        // Type compatibility: mildly positive if compatible, strongly
        // negative if not (a str column is simply not a price).
        let type_score = if s.type_score == 0.0 {
            0.1
        } else {
            0.3 + 0.4 * s.type_score
        };
        b.update(
            &Evidence::from_score(EvidenceKind::InstanceSimilarity, type_score)
                .discounted(cfg.instance_reliability),
        );
        if let Some(o) = s.overlap {
            b.update(
                &Evidence::from_score(EvidenceKind::InstanceSimilarity, o)
                    .discounted(cfg.instance_reliability),
            );
        }
        if let Some(d) = s.distribution {
            b.update(
                &Evidence::from_score(EvidenceKind::InstanceSimilarity, d)
                    .discounted(cfg.instance_reliability),
            );
        }
    }
    if let Some(sim) = semantic {
        b.update(
            &Evidence::from_score(EvidenceKind::Ontology, sim).discounted(cfg.ontology_reliability),
        );
    }
    b
}

/// Instance profiles of every column of a table, in column order. `profile`
/// is a pure function of the column values, so profiling a table once and
/// reusing the result across many [`match_schemas_with_profiles`] calls is
/// byte-identical to re-profiling per call — the basis of the optimizer's
/// shared-target-profile rewrite.
pub fn profile_table(table: &Table) -> Vec<InstanceProfile> {
    table.columns().map(profile).collect()
}

/// Match two tables' schemas: compute a belief per column pair and return all
/// pairs above `cfg.min_probability`, strongest first.
pub fn match_schemas(
    left: &Table,
    right: &Table,
    ontology: Option<&Ontology>,
    cfg: &MatchConfig,
) -> Vec<Correspondence> {
    match_schemas_with_profiles(left, &profile_table(left), right, ontology, cfg)
}

/// [`match_schemas`] with the left side's column profiles precomputed (see
/// [`profile_table`]). `left_profiles` must be the profiles of `left`'s
/// columns in order.
pub fn match_schemas_with_profiles(
    left: &Table,
    left_profiles: &[InstanceProfile],
    right: &Table,
    ontology: Option<&Ontology>,
    cfg: &MatchConfig,
) -> Vec<Correspondence> {
    let right_profiles: Vec<InstanceProfile> = right.columns().map(profile).collect();
    let mut out = Vec::new();
    for (li, lp) in left_profiles.iter().enumerate() {
        let lname = &left.schema().fields()[li].name;
        for (ri, rp) in right_profiles.iter().enumerate() {
            let rname = &right.schema().fields()[ri].name;
            let belief = pair_belief(lname, rname, lp, rp, ontology, cfg);
            if belief.probability() >= cfg.min_probability {
                out.push(Correspondence {
                    left: li,
                    right: ri,
                    belief,
                });
            }
        }
    }
    out.sort_by(|a, b| {
        b.probability()
            .total_cmp(&a.probability())
            .then(a.left.cmp(&b.left))
            .then(a.right.cmp(&b.right))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::Value;

    fn left() -> Table {
        Table::literal(
            &["sku", "name", "price"],
            vec![
                vec!["a1".into(), "Acme Widget".into(), Value::Float(9.9)],
                vec!["a2".into(), "Bolt Gadget".into(), Value::Float(19.0)],
                vec!["a3".into(), "Acme Flange".into(), Value::Float(5.5)],
                vec!["a4".into(), "Acme Spanner".into(), Value::Float(7.0)],
                vec!["a5".into(), "Bolt Coupler".into(), Value::Float(14.0)],
            ],
        )
        .unwrap()
    }

    /// Overlapping data, drifted schema: synonym + cryptic names.
    fn right() -> Table {
        Table::literal(
            &["code", "title", "col2"],
            vec![
                vec!["a1".into(), "Acme Widget".into(), Value::Float(9.9)],
                vec!["a4".into(), "Acme Spanner".into(), Value::Float(7.5)],
                vec!["a5".into(), "Bolt Coupler".into(), Value::Float(13.0)],
                vec!["b9".into(), "Tyrell Dynamo".into(), Value::Float(18.0)],
            ],
        )
        .unwrap()
    }

    fn top_match_for(corrs: &[Correspondence], left: usize) -> Option<usize> {
        corrs.iter().find(|c| c.left == left).map(|c| c.right)
    }

    #[test]
    fn full_evidence_matches_drifted_schema() {
        let ont = Ontology::ecommerce();
        let corrs = match_schemas(&left(), &right(), Some(&ont), &MatchConfig::default());
        assert_eq!(top_match_for(&corrs, 1), Some(1), "name ↔ title");
        assert_eq!(
            top_match_for(&corrs, 2),
            Some(2),
            "price ↔ col2 via instances"
        );
        assert_eq!(top_match_for(&corrs, 0), Some(0), "sku ↔ code");
    }

    #[test]
    fn names_only_baseline_misses_cryptic_column() {
        let corrs = match_schemas(&left(), &right(), None, &MatchConfig::names_only());
        // price ↔ col2 has no name evidence; belief stays at the (sub-threshold) prior.
        assert_eq!(top_match_for(&corrs, 2), None);
    }

    #[test]
    fn ontology_strengthens_synonym_pairs() {
        use crate::instance::profile;
        let ont = Ontology::ecommerce();
        let l = left();
        let r = right();
        let lp = profile(l.column_named("name").unwrap());
        let rp = profile(r.column_named("title").unwrap());
        let cfg = MatchConfig::default();
        let p_with = pair_belief("name", "title", &lp, &rp, Some(&ont), &cfg).probability();
        let p_without = pair_belief("name", "title", &lp, &rp, None, &cfg).probability();
        assert!(p_with > p_without, "{p_with} vs {p_without}");
    }

    #[test]
    fn beliefs_carry_evidence_ledger() {
        let ont = Ontology::ecommerce();
        let corrs = match_schemas(&left(), &right(), Some(&ont), &MatchConfig::default());
        let c = corrs.iter().find(|c| c.left == 1 && c.right == 1).unwrap();
        // `name` and `title` both resolve in the ontology, which supersedes
        // syntactic name evidence.
        assert_eq!(c.belief.evidence_count(EvidenceKind::NameSimilarity), 0);
        assert!(c.belief.evidence_count(EvidenceKind::InstanceSimilarity) > 0);
        assert!(c.belief.evidence_count(EvidenceKind::Ontology) > 0);
        assert_eq!(c.belief.evidence_diversity(), 2);
        // Without an ontology, name evidence is used for the same pair.
        let no_ont = match_schemas(&left(), &right(), None, &MatchConfig::default());
        if let Some(c2) = no_ont.iter().find(|c| c.left == 0 && c.right == 0) {
            assert!(c2.belief.evidence_count(EvidenceKind::NameSimilarity) > 0);
        }
    }

    #[test]
    fn output_sorted_by_probability() {
        let ont = Ontology::ecommerce();
        let corrs = match_schemas(&left(), &right(), Some(&ont), &MatchConfig::default());
        for w in corrs.windows(2) {
            assert!(w[0].probability() >= w[1].probability());
        }
    }
}
