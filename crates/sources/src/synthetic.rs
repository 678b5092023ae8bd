//! Synthetic e-commerce source fleets with known ground truth.
//!
//! The generator builds a *world* of products with time-varying true prices,
//! then derives any number of *sources*, each a noisy, partial, stale,
//! schema-drifted view of that world — Example 1's competitor sites in
//! controllable form. Everything is seeded and deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wrangler_table::{Table, Value};

use crate::registry::{SourceMeta, SourceRegistry};

/// Canonical product attributes in the ground truth.
pub const CANONICAL_COLUMNS: [&str; 6] = ["sku", "name", "brand", "category", "price", "stock"];

/// One true product.
#[derive(Debug, Clone)]
pub struct ProductTruth {
    /// Unique key.
    pub sku: String,
    /// Product name.
    pub name: String,
    /// Brand.
    pub brand: String,
    /// Category.
    pub category: String,
    /// Price per tick (index = tick), a bounded random walk.
    pub prices: Vec<f64>,
    /// Units in stock at `now`.
    pub stock: i64,
}

/// The generated world: products plus the current tick.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// All products.
    pub products: Vec<ProductTruth>,
    /// The current tick (price index `now` is the live price).
    pub now: u64,
}

impl GroundTruth {
    /// The true price of product `idx` at `tick` (clamped to the series).
    pub fn price_at(&self, idx: usize, tick: u64) -> f64 {
        let p = &self.products[idx].prices;
        p[(tick as usize).min(p.len() - 1)]
    }

    /// The live true price of the product with the given sku.
    fn live_price(&self, sku: &str) -> Option<f64> {
        let idx = self.products.iter().position(|p| p.sku == sku)?;
        Some(self.price_at(idx, self.now))
    }

    /// Index of a product by sku.
    pub fn index_of(&self, sku: &str) -> Option<usize> {
        self.products.iter().position(|p| p.sku == sku)
    }

    /// Whether `value` is within `tol` (relative) of the live price of `sku`.
    pub fn price_is_correct(&self, sku: &str, value: f64, tol: f64) -> bool {
        match self.live_price(sku) {
            Some(truth) => (value - truth).abs() <= tol * truth.abs().max(1e-9),
            None => false,
        }
    }

    /// The master-data catalog (Example 4): sku, name, brand, category — the
    /// data the company already owns (no prices; prices are what it wants).
    pub fn master_catalog(&self) -> Table {
        let rows = self
            .products
            .iter()
            .map(|p| {
                vec![
                    Value::from(p.sku.as_str()),
                    Value::from(p.name.as_str()),
                    Value::from(p.brand.as_str()),
                    Value::from(p.category.as_str()),
                ]
            })
            .collect();
        Table::literal(&["sku", "name", "brand", "category"], rows).expect("consistent arity") // lint-allow: literal rows, fixed arity
    }
}

/// Knobs for fleet generation. Ranges are sampled per source.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of products in the world.
    pub num_products: usize,
    /// Number of sources to derive.
    pub num_sources: usize,
    /// Current tick (length of each price series − 1).
    pub now: u64,
    /// Probability a product's price changes at each tick (prices are
    /// episodic, as on real shops: long stable epochs, occasional jumps).
    pub price_change_prob: f64,
    /// Relative magnitude range of a price change when one happens.
    pub price_volatility: f64,
    /// Range of per-source product coverage.
    pub coverage: (f64, f64),
    /// Range of per-source cell error rates.
    pub error_rate: (f64, f64),
    /// Range of per-source cell null rates.
    pub null_rate: (f64, f64),
    /// Range of per-source staleness lags in ticks.
    pub staleness: (u64, u64),
    /// Probability that a source renames a column to a synonym.
    pub rename_rate: f64,
    /// Probability that a source uses a cryptic (uninformative) column name.
    pub cryptic_rate: f64,
    /// Probability that a source drops one non-key column.
    pub drop_rate: f64,
    /// Range of per-source access costs.
    pub access_cost: (f64, f64),
    /// Fraction of sources whose products fall outside the master catalog's
    /// domain (irrelevant sources, for relevance experiments).
    pub irrelevant_rate: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            num_products: 200,
            num_sources: 20,
            now: 20,
            price_change_prob: 0.12,
            price_volatility: 0.15,
            coverage: (0.3, 0.9),
            error_rate: (0.02, 0.25),
            null_rate: (0.0, 0.15),
            staleness: (0, 10),
            rename_rate: 0.5,
            cryptic_rate: 0.1,
            drop_rate: 0.3,
            access_cost: (0.5, 3.0),
            irrelevant_rate: 0.0,
        }
    }
}

/// Per-source latent parameters, kept so experiments can compare estimates
/// against the truth.
#[derive(Debug, Clone)]
pub struct SourceTruth {
    /// Fraction of products present.
    pub coverage: f64,
    /// Cell corruption probability.
    pub error_rate: f64,
    /// Cell null probability.
    pub null_rate: f64,
    /// Price staleness in ticks.
    pub staleness: u64,
    /// Whether the source is about an unrelated domain.
    pub irrelevant: bool,
}

/// A generated fleet: registry + ground truth + per-source latents.
#[derive(Debug, Clone)]
pub struct SyntheticFleet {
    /// The sources, registered in id order.
    pub registry: SourceRegistry,
    /// The world they describe.
    pub truth: GroundTruth,
    /// Latent parameters, indexed by source id.
    pub latents: Vec<SourceTruth>,
}

const BRANDS: [&str; 8] = [
    "Acme",
    "Globex",
    "Initech",
    "Umbrella",
    "Stark",
    "Wayne",
    "Tyrell",
    "Cyberdyne",
];
const CATEGORIES: [&str; 6] = ["electronics", "home", "toys", "sports", "office", "garden"];
const NOUNS: [&str; 12] = [
    "Widget",
    "Gadget",
    "Sprocket",
    "Gizmo",
    "Doohickey",
    "Flange",
    "Grommet",
    "Spanner",
    "Bracket",
    "Coupler",
    "Dynamo",
    "Filament",
];
const ADJS: [&str; 10] = [
    "Turbo", "Ultra", "Mini", "Mega", "Smart", "Classic", "Pro", "Eco", "Prime", "Quantum",
];

/// Synonym pools aligned with [`wrangler_context::Ontology::ecommerce`].
fn synonyms_for(col: &str) -> &'static [&'static str] {
    match col {
        "sku" => &["sku", "id", "product id", "code", "mpn"],
        "name" => &["name", "title", "product name", "label"],
        "brand" => &["brand", "manufacturer", "maker"],
        "category" => &["category", "type", "product type", "department"],
        "price" => &["price", "cost", "amount", "unit price", "sale price"],
        "stock" => &["stock", "availability", "inventory", "in stock"],
        _ => &[],
    }
}

/// Generate a fleet deterministically from `seed`.
pub fn generate_fleet(cfg: &FleetConfig, seed: u64) -> SyntheticFleet {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth = generate_world(cfg, "SKU", &mut rng);
    // An off-catalog world (disjoint key namespace) for irrelevant sources.
    let other_world = if cfg.irrelevant_rate > 0.0 {
        Some(generate_world(cfg, "ALT", &mut rng))
    } else {
        None
    };

    let mut registry = SourceRegistry::new();
    let mut latents = Vec::with_capacity(cfg.num_sources);
    for s in 0..cfg.num_sources {
        let irrelevant = rng.gen::<f64>() < cfg.irrelevant_rate;
        let world = if irrelevant {
            other_world.as_ref().unwrap_or(&truth)
        } else {
            &truth
        };
        let lat = SourceTruth {
            coverage: rng.gen_range(cfg.coverage.0..=cfg.coverage.1),
            error_rate: rng.gen_range(cfg.error_rate.0..=cfg.error_rate.1),
            null_rate: rng.gen_range(cfg.null_rate.0..=cfg.null_rate.1),
            staleness: rng.gen_range(cfg.staleness.0..=cfg.staleness.1),
            irrelevant,
        };
        let table = derive_source_table(world, cfg, &lat, &mut rng);
        let meta = SourceMeta {
            id: crate::registry::SourceId(0), // reassigned by registry
            name: format!("shop{s:03}.example"),
            access_cost: rng.gen_range(cfg.access_cost.0..=cfg.access_cost.1),
            last_updated: cfg.now.saturating_sub(lat.staleness),
        };
        registry.register_with_meta(meta, table);
        latents.push(lat);
    }
    SyntheticFleet {
        registry,
        truth,
        latents,
    }
}

fn generate_world(cfg: &FleetConfig, sku_prefix: &str, rng: &mut StdRng) -> GroundTruth {
    let mut products = Vec::with_capacity(cfg.num_products);
    for i in 0..cfg.num_products {
        let adj = ADJS[rng.gen_range(0..ADJS.len())];
        let noun = NOUNS[rng.gen_range(0..NOUNS.len())];
        let brand = BRANDS[rng.gen_range(0..BRANDS.len())];
        let base: f64 = rng.gen_range(5.0..500.0);
        let mut prices = Vec::with_capacity(cfg.now as usize + 1);
        let mut p = (base * 100.0).round() / 100.0;
        for _ in 0..=cfg.now {
            prices.push(p);
            if rng.gen::<f64>() < cfg.price_change_prob {
                let magnitude = rng.gen_range(0.03..=cfg.price_volatility.max(0.031));
                let step = 1.0 + magnitude * if rng.gen() { 1.0 } else { -1.0 };
                p = ((p * step).max(0.5) * 100.0).round() / 100.0;
            }
        }
        products.push(ProductTruth {
            sku: format!("{sku_prefix}-{i:05}"),
            name: format!("{brand} {adj} {noun} {}", i % 97),
            brand: brand.to_string(),
            category: CATEGORIES[rng.gen_range(0..CATEGORIES.len())].to_string(),
            prices,
            stock: rng.gen_range(0..250),
        });
    }
    GroundTruth {
        products,
        now: cfg.now,
    }
}

/// Derive one source's noisy table from the world.
fn derive_source_table(
    world: &GroundTruth,
    cfg: &FleetConfig,
    lat: &SourceTruth,
    rng: &mut StdRng,
) -> Table {
    // Schema variant: possibly drop one non-key column, rename the rest.
    let mut cols: Vec<&str> = CANONICAL_COLUMNS.to_vec();
    if rng.gen::<f64>() < cfg.drop_rate {
        let droppable = ["brand", "category", "stock"];
        let victim = droppable[rng.gen_range(0..droppable.len())];
        cols.retain(|c| *c != victim);
    }
    let mut names: Vec<String> = Vec::with_capacity(cols.len());
    for (ci, c) in cols.iter().enumerate() {
        let name = if rng.gen::<f64>() < cfg.cryptic_rate {
            format!("col{ci}")
        } else if rng.gen::<f64>() < cfg.rename_rate {
            let pool = synonyms_for(c);
            pool[rng.gen_range(0..pool.len())].to_string()
        } else {
            (*c).to_string()
        };
        names.push(name);
    }
    // Ensure uniqueness after renames.
    for i in 0..names.len() {
        while names[..i].contains(&names[i]) {
            names[i].push('_');
        }
    }

    let tick = world.now.saturating_sub(lat.staleness);
    let mut rows = Vec::new();
    for (pi, prod) in world.products.iter().enumerate() {
        if rng.gen::<f64>() > lat.coverage {
            continue;
        }
        let mut row = Vec::with_capacity(cols.len());
        for c in &cols {
            let clean: Value = match *c {
                "sku" => Value::from(prod.sku.as_str()),
                "name" => Value::from(prod.name.as_str()),
                "brand" => Value::from(prod.brand.as_str()),
                "category" => Value::from(prod.category.as_str()),
                "price" => Value::Float(world.price_at(pi, tick)),
                "stock" => Value::Int(prod.stock),
                // `cols` is built from the fixed list above; any future
                // column lands as Null rather than panicking mid-generation.
                _ => Value::Null,
            };
            // Keys stay non-null so records remain linkable; their errors are
            // typos (ER stress) at a reduced rate.
            let v = if *c != "sku" && rng.gen::<f64>() < lat.null_rate {
                Value::Null
            } else if rng.gen::<f64>() < lat.error_rate * if *c == "sku" { 0.2 } else { 1.0 } {
                corrupt(&clean, rng)
            } else {
                clean
            };
            row.push(v);
        }
        rows.push(row);
    }
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Table::literal(&name_refs, rows).expect("consistent arity") // lint-allow: rows built to name_refs arity
}

/// Corrupt one value (veracity injection).
pub(crate) fn corrupt(v: &Value, rng: &mut StdRng) -> Value {
    match v {
        Value::Float(f) => match rng.gen_range(0..3) {
            // Decimal-point error: off by 10x.
            0 => Value::Float((f * 10.0 * 100.0).round() / 100.0),
            // Plausible-but-wrong perturbation.
            1 => {
                let factor = 1.0 + rng.gen_range(0.05..0.5) * if rng.gen() { 1.0 } else { -1.0 };
                Value::Float(((f * factor) * 100.0).round() / 100.0)
            }
            // Stringified with currency junk (type noise).
            _ => Value::from(format!("${f:.2}")),
        },
        Value::Int(i) => Value::Int(i + rng.gen_range(1..50)),
        Value::Str(s) => Value::from(typo(s, rng)),
        other => other.clone(),
    }
}

/// Introduce one character-level typo.
pub(crate) fn typo(s: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 2 {
        return format!("{s}x");
    }
    let i = rng.gen_range(0..chars.len() - 1);
    let mut out = chars.clone();
    match rng.gen_range(0..3) {
        0 => out.swap(i, i + 1), // transposition
        1 => {
            out.remove(i); // deletion
        }
        _ => out.insert(i, out[i]), // duplication
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            num_products: 30,
            num_sources: 5,
            now: 10,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_fleet(&small_cfg(), 42);
        let b = generate_fleet(&small_cfg(), 42);
        assert_eq!(a.truth.products.len(), b.truth.products.len());
        for (x, y) in a.truth.products.iter().zip(&b.truth.products) {
            assert_eq!(x.sku, y.sku);
            assert_eq!(x.prices, y.prices);
        }
        for (s, t) in a.registry.iter().zip(b.registry.iter()) {
            assert_eq!(s.table.num_rows(), t.table.num_rows());
            assert_eq!(s.table.schema().names(), t.table.schema().names());
        }
        let c = generate_fleet(&small_cfg(), 43);
        assert_ne!(
            a.truth.products[0].prices, c.truth.products[0].prices,
            "different seeds differ"
        );
    }

    #[test]
    fn world_shape() {
        let fleet = generate_fleet(&small_cfg(), 1);
        assert_eq!(fleet.truth.products.len(), 30);
        assert_eq!(fleet.registry.len(), 5);
        assert_eq!(fleet.latents.len(), 5);
        for p in &fleet.truth.products {
            assert_eq!(p.prices.len(), 11);
            assert!(p.prices.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn coverage_approximately_respected() {
        let cfg = FleetConfig {
            num_products: 500,
            num_sources: 3,
            coverage: (0.5, 0.5),
            ..FleetConfig::default()
        };
        let fleet = generate_fleet(&cfg, 7);
        for s in fleet.registry.iter() {
            let frac = s.table.num_rows() as f64 / 500.0;
            assert!((frac - 0.5).abs() < 0.1, "coverage {frac}");
        }
    }

    #[test]
    fn clean_fleet_prices_match_truth() {
        let cfg = FleetConfig {
            num_products: 50,
            num_sources: 2,
            error_rate: (0.0, 0.0),
            null_rate: (0.0, 0.0),
            staleness: (0, 0),
            rename_rate: 0.0,
            cryptic_rate: 0.0,
            drop_rate: 0.0,
            ..FleetConfig::default()
        };
        let fleet = generate_fleet(&cfg, 3);
        let src = fleet.registry.get(crate::registry::SourceId(0)).unwrap();
        assert_eq!(src.table.schema().names(), CANONICAL_COLUMNS.to_vec());
        for i in 0..src.table.num_rows() {
            let sku = src
                .table
                .get_named(i, "sku")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            let price = src.table.get_named(i, "price").unwrap().as_f64().unwrap();
            assert!(
                fleet.truth.price_is_correct(&sku, price, 1e-9),
                "{sku} {price}"
            );
        }
    }

    #[test]
    fn stale_sources_report_old_prices() {
        let cfg = FleetConfig {
            num_products: 80,
            num_sources: 1,
            error_rate: (0.0, 0.0),
            null_rate: (0.0, 0.0),
            staleness: (8, 8),
            rename_rate: 0.0,
            cryptic_rate: 0.0,
            drop_rate: 0.0,
            now: 10,
            price_volatility: 0.1,
            ..FleetConfig::default()
        };
        let fleet = generate_fleet(&cfg, 9);
        let src = fleet.registry.get(crate::registry::SourceId(0)).unwrap();
        assert_eq!(src.meta.last_updated, 2);
        let mut stale_hits = 0;
        for i in 0..src.table.num_rows() {
            let sku = src
                .table
                .get_named(i, "sku")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            let price = src.table.get_named(i, "price").unwrap().as_f64().unwrap();
            let idx = fleet.truth.index_of(&sku).unwrap();
            if (price - fleet.truth.price_at(idx, 2)).abs() < 1e-9 {
                stale_hits += 1;
            }
        }
        assert_eq!(stale_hits, src.table.num_rows());
    }

    #[test]
    fn schema_variety_produced() {
        let cfg = FleetConfig {
            num_sources: 20,
            num_products: 20,
            rename_rate: 0.9,
            ..FleetConfig::default()
        };
        let fleet = generate_fleet(&cfg, 5);
        let mut distinct_schemas = std::collections::HashSet::new();
        for s in fleet.registry.iter() {
            distinct_schemas.insert(
                s.table
                    .schema()
                    .names()
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>(),
            );
        }
        assert!(
            distinct_schemas.len() > 5,
            "only {} schemas",
            distinct_schemas.len()
        );
    }

    #[test]
    fn errors_injected_at_configured_rate() {
        let cfg = FleetConfig {
            num_products: 400,
            num_sources: 1,
            error_rate: (0.3, 0.3),
            null_rate: (0.0, 0.0),
            staleness: (0, 0),
            rename_rate: 0.0,
            cryptic_rate: 0.0,
            drop_rate: 0.0,
            ..FleetConfig::default()
        };
        let fleet = generate_fleet(&cfg, 11);
        let src = fleet.registry.get(crate::registry::SourceId(0)).unwrap();
        let mut wrong = 0;
        let mut total = 0;
        for i in 0..src.table.num_rows() {
            let sku = src
                .table
                .get_named(i, "sku")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            if fleet.truth.index_of(&sku).is_none() {
                continue; // sku itself corrupted
            }
            total += 1;
            match src.table.get_named(i, "price").unwrap().as_f64() {
                Some(p) if fleet.truth.price_is_correct(&sku, p, 1e-9) => {}
                _ => wrong += 1,
            }
        }
        let rate = wrong as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.08, "observed error rate {rate}");
    }

    #[test]
    fn master_catalog_covers_all_products() {
        let fleet = generate_fleet(&small_cfg(), 2);
        let cat = fleet.truth.master_catalog();
        assert_eq!(cat.num_rows(), 30);
        assert_eq!(
            cat.schema().names(),
            vec!["sku", "name", "brand", "category"]
        );
    }

    #[test]
    fn irrelevant_sources_do_not_overlap_catalog() {
        let cfg = FleetConfig {
            num_products: 40,
            num_sources: 10,
            irrelevant_rate: 1.0,
            error_rate: (0.0, 0.0),
            rename_rate: 0.0,
            cryptic_rate: 0.0,
            drop_rate: 0.0,
            ..FleetConfig::default()
        };
        let fleet = generate_fleet(&cfg, 13);
        assert!(fleet.latents.iter().all(|l| l.irrelevant));
        // Irrelevant sources describe a disjoint key namespace (ALT-*).
        let truth_skus: std::collections::HashSet<_> =
            fleet.truth.products.iter().map(|p| p.sku.clone()).collect();
        for s in fleet.registry.iter() {
            for v in s.table.column_named("sku").unwrap() {
                if let Some(sku) = v.as_str() {
                    assert!(
                        !truth_skus.contains(sku),
                        "irrelevant source overlaps: {sku}"
                    );
                }
            }
        }
    }

    #[test]
    fn typo_changes_string() {
        let mut rng = StdRng::seed_from_u64(1);
        for s in ["widget", "ab", "a"] {
            let t = typo(s, &mut rng);
            assert_ne!(t, s);
        }
    }
}
