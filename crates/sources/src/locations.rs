//! Synthetic business-locations data (Example 3).
//!
//! "Many social networks offer the ability for users to check-in to places
//! ... this way of acquiring data is prone to data quality problems, e.g.,
//! wrong geo-locations, misspelled or fantasy places." The generator
//! produces a ground-truth set of businesses, a noisy *check-in feed*
//! exhibiting exactly those defects, and the authoritative business websites
//! (as structured rows) a wrangling process can wrap to correct them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wrangler_table::{Table, Value};

use crate::synthetic::typo;

/// One true business.
#[derive(Debug, Clone)]
pub struct BusinessTruth {
    /// Unique business name.
    pub name: String,
    /// Street address.
    pub address: String,
    /// City.
    pub city: String,
    /// Latitude.
    pub lat: f64,
    /// Longitude.
    pub lon: f64,
    /// Category.
    pub category: String,
    /// Website URL (the key that lets extraction target the right site).
    pub url: String,
}

/// Generated ground truth plus derived datasets.
#[derive(Debug, Clone)]
pub struct LocationWorld {
    /// True businesses.
    pub businesses: Vec<BusinessTruth>,
    /// The noisy check-in feed (social-network acquired data).
    pub checkins: Table,
    /// Per-check-in defect labels, aligned with `checkins` rows:
    /// `(wrong_geo, misspelled, fantasy)`.
    pub defects: Vec<(bool, bool, bool)>,
}

/// Noise configuration for the check-in feed.
#[derive(Debug, Clone, Copy)]
pub struct CheckinConfig {
    /// Number of businesses in the world.
    pub num_businesses: usize,
    /// Check-ins to generate.
    pub num_checkins: usize,
    /// Probability a check-in has a wrongly shifted geo-location.
    pub wrong_geo_rate: f64,
    /// Probability the place name is misspelled.
    pub misspell_rate: f64,
    /// Probability the check-in refers to a fantasy (nonexistent) place.
    pub fantasy_rate: f64,
}

impl Default for CheckinConfig {
    fn default() -> Self {
        CheckinConfig {
            num_businesses: 100,
            num_checkins: 500,
            wrong_geo_rate: 0.1,
            misspell_rate: 0.15,
            fantasy_rate: 0.05,
        }
    }
}

const STREETS: [&str; 8] = [
    "High St",
    "Station Rd",
    "Church Ln",
    "Victoria Ave",
    "Mill Rd",
    "King St",
    "Park Ln",
    "Bridge St",
];
const CITIES: [&str; 5] = ["Oxford", "Edinburgh", "Birmingham", "Manchester", "London"];
const KINDS: [&str; 6] = ["restaurant", "cafe", "cinema", "gym", "bookshop", "bakery"];
const NAME_A: [&str; 8] = [
    "Golden", "Royal", "Corner", "Old", "Little", "Grand", "Blue", "Silver",
];
const NAME_B: [&str; 8] = [
    "Lion", "Crown", "Bridge", "Garden", "Star", "Anchor", "Oak", "Swan",
];

/// Generate a location world deterministically.
pub fn generate_locations(cfg: &CheckinConfig, seed: u64) -> LocationWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut businesses = Vec::with_capacity(cfg.num_businesses);
    for i in 0..cfg.num_businesses {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let name = format!(
            "{} {} {kind} {}",
            NAME_A[rng.gen_range(0..NAME_A.len())],
            NAME_B[rng.gen_range(0..NAME_B.len())],
            i
        );
        let city = CITIES[rng.gen_range(0..CITIES.len())];
        businesses.push(BusinessTruth {
            url: format!("https://biz{i:04}.example"),
            name,
            address: format!(
                "{} {}",
                rng.gen_range(1..200),
                STREETS[rng.gen_range(0..STREETS.len())]
            ),
            city: city.to_string(),
            lat: 50.0 + rng.gen_range(0.0..8.0),
            lon: -5.0 + rng.gen_range(0.0..6.0),
            category: kind.to_string(),
        });
    }

    let mut rows = Vec::with_capacity(cfg.num_checkins);
    let mut defects = Vec::with_capacity(cfg.num_checkins);
    for _ in 0..cfg.num_checkins {
        let fantasy = rng.gen::<f64>() < cfg.fantasy_rate;
        if fantasy {
            rows.push(vec![
                Value::from(format!(
                    "{} {} palace {}",
                    NAME_A[rng.gen_range(0..NAME_A.len())],
                    NAME_B[rng.gen_range(0..NAME_B.len())],
                    rng.gen_range(1000..9999)
                )),
                Value::Float(50.0 + rng.gen::<f64>() * 8.0),
                Value::Float(-5.0 + rng.gen::<f64>() * 6.0),
                Value::Null,
            ]);
            defects.push((false, false, true));
            continue;
        }
        let b = &businesses[rng.gen_range(0..businesses.len())];
        let wrong_geo = rng.gen::<f64>() < cfg.wrong_geo_rate;
        let misspelled = rng.gen::<f64>() < cfg.misspell_rate;
        let name = if misspelled {
            typo(&b.name, &mut rng)
        } else {
            b.name.clone()
        };
        let (lat, lon) = if wrong_geo {
            (
                b.lat + rng.gen_range(0.5..3.0),
                b.lon - rng.gen_range(0.5..3.0),
            )
        } else {
            // Honest GPS jitter well below the wrong-geo threshold.
            (
                b.lat + rng.gen_range(-0.001..0.001),
                b.lon + rng.gen_range(-0.001..0.001),
            )
        };
        rows.push(vec![
            Value::from(name),
            Value::Float(lat),
            Value::Float(lon),
            Value::from(b.url.clone()),
        ]);
        defects.push((wrong_geo, misspelled, false));
    }
    let checkins = Table::literal(&["place", "lat", "lon", "url"], rows).expect("consistent arity"); // lint-allow: literal rows, fixed arity
    LocationWorld {
        businesses,
        checkins,
        defects,
    }
}

impl LocationWorld {
    /// The authoritative table "extracted" from the business's own website —
    /// the informed-extraction target of Example 3.
    pub fn website_table(&self) -> Table {
        let rows = self
            .businesses
            .iter()
            .map(|b| {
                vec![
                    Value::from(b.url.clone()),
                    b.name.clone().into(),
                    b.address.clone().into(),
                    b.city.clone().into(),
                    Value::Float(b.lat),
                    Value::Float(b.lon),
                    b.category.clone().into(),
                ]
            })
            .collect();
        Table::literal(
            &["url", "name", "address", "city", "lat", "lon", "category"],
            rows,
        )
        .expect("consistent arity") // lint-allow: literal rows, fixed arity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn business<'a>(w: &'a LocationWorld, url: &str) -> Option<&'a BusinessTruth> {
        w.businesses.iter().find(|b| b.url == url)
    }

    #[test]
    fn deterministic_generation() {
        let a = generate_locations(&CheckinConfig::default(), 5);
        let b = generate_locations(&CheckinConfig::default(), 5);
        assert_eq!(a.businesses.len(), b.businesses.len());
        assert_eq!(a.checkins.num_rows(), b.checkins.num_rows());
        assert_eq!(a.defects, b.defects);
    }

    #[test]
    fn defect_rates_approximately_match() {
        let cfg = CheckinConfig {
            num_checkins: 4000,
            ..CheckinConfig::default()
        };
        let w = generate_locations(&cfg, 11);
        let fantasy = w.defects.iter().filter(|d| d.2).count() as f64 / 4000.0;
        let wrong = w.defects.iter().filter(|d| d.0).count() as f64 / 4000.0;
        let misspelled = w.defects.iter().filter(|d| d.1).count() as f64 / 4000.0;
        assert!((fantasy - 0.05).abs() < 0.02, "{fantasy}");
        assert!((wrong - 0.1 * 0.95).abs() < 0.03, "{wrong}");
        assert!((misspelled - 0.15 * 0.95).abs() < 0.03, "{misspelled}");
    }

    #[test]
    fn fantasy_checkins_have_no_url() {
        let w = generate_locations(&CheckinConfig::default(), 3);
        for (i, d) in w.defects.iter().enumerate() {
            let url = w.checkins.get_named(i, "url").unwrap();
            if d.2 {
                assert!(url.is_null());
            } else {
                assert!(!url.is_null());
                assert!(business(&w, url.as_str().unwrap()).is_some());
            }
        }
    }

    #[test]
    fn clean_checkins_geolocate_near_truth() {
        let w = generate_locations(&CheckinConfig::default(), 7);
        for (i, d) in w.defects.iter().enumerate() {
            if d.0 || d.2 {
                continue;
            }
            let url = w
                .checkins
                .get_named(i, "url")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            let b = business(&w, &url).unwrap();
            let lat = w.checkins.get_named(i, "lat").unwrap().as_f64().unwrap();
            assert!((lat - b.lat).abs() < 0.01);
        }
    }

    #[test]
    fn website_table_is_complete_and_keyed_by_url() {
        let w = generate_locations(&CheckinConfig::default(), 1);
        let t = w.website_table();
        assert_eq!(t.num_rows(), w.businesses.len());
        let urls = t.column_named("url").unwrap();
        let distinct: std::collections::HashSet<_> = urls.iter().collect();
        assert_eq!(distinct.len(), t.num_rows());
    }
}
