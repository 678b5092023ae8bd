//! Deterministic fault injection for the source fleet.
//!
//! Real wrangling pipelines acquire data from sources that fail: sites go
//! down, rate-limit crawlers, time out, or return truncated / garbled
//! payloads (§2's Variety and Veracity both have an *operational* face the
//! paper's quality dimensions only see after the fact). This module gives the
//! synthetic fleet that operational face in a fully **seeded, virtual-time**
//! way so robustness experiments (E11) are reproducible bit-for-bit:
//!
//! * every source carries a [`FaultProfile`];
//! * acquisition goes through [`SourceRegistry::acquire`], which consults the
//!   profile at a caller-supplied virtual tick and either yields a
//!   [`SourceSnapshot`] (possibly degraded) or an [`AcquireError`];
//! * no wall-clock time is involved anywhere — flapping, rate-limit windows
//!   and latencies are all functions of the tick, so a retry loop that
//!   advances its own virtual clock sees exactly the behaviour a live
//!   acquisition layer would, deterministically.

use std::fmt;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wrangler_table::{wire_enum, Field, Schema, Table, Value};

use crate::registry::SourceId;
use crate::synthetic::corrupt;

/// How a source (mis)behaves when accessed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultProfile {
    /// Answers every request promptly and intact.
    Healthy,
    /// Never answers (site gone, credentials revoked, firewalled).
    HardDown,
    /// Alternates availability: up for `up_fraction` of every `period`
    /// ticks, shifted by `phase`. A retry that waits long enough succeeds.
    Flap {
        /// Length of one up/down cycle in ticks.
        period: u64,
        /// Fraction of the cycle the source is up, in (0, 1).
        up_fraction: f64,
        /// Offset into the cycle, so sources don't flap in lockstep.
        phase: u64,
    },
    /// Answers, but only after `latency` ticks — callers with a tighter
    /// per-attempt deadline give up first.
    Slow {
        /// Ticks before the payload arrives.
        latency: u64,
    },
    /// Answers promptly but delivers only a prefix of its rows.
    Truncated {
        /// Fraction of rows delivered, in (0, 1].
        keep_fraction: f64,
    },
    /// Answers promptly but garbles cells on the way out.
    CorruptRows {
        /// Per-cell corruption probability, in \[0, 1\].
        cell_error_rate: f64,
    },
    /// Serves at most `max_per_window` requests per `window` ticks, then
    /// rejects with a retry-after hint until the window rolls over.
    RateLimited {
        /// Requests served per window.
        max_per_window: u32,
        /// Window length in ticks.
        window: u64,
    },
    /// Answers promptly but the payload's schema has drifted: trailing
    /// columns are gone and the last surviving column was renamed. The
    /// acquisition layer never notices — the damage surfaces at schema
    /// matching and mapping time (a *post-acquisition* fault).
    SchemaDrift {
        /// How many trailing columns the drifted payload lost.
        drop: usize,
    },
    /// Answers promptly but some cells arrive as type-poisoned garbage
    /// (control-byte-laced strings no downstream matcher should ingest).
    TypePoison {
        /// Per-cell poisoning probability, in \[0, 1\].
        cell_rate: f64,
    },
    /// Answers promptly but inflates string cells into pathological
    /// payloads (multi-kilobyte strings that blow up edit-distance ER).
    PathologicalStrings {
        /// Per-cell inflation probability, in \[0, 1\].
        cell_rate: f64,
        /// Length in bytes of an inflated cell.
        len: usize,
    },
    /// Answers promptly but some numeric cells arrive as NaN or ±∞.
    NonFinite {
        /// Per-cell probability, in \[0, 1\].
        cell_rate: f64,
    },
    /// Answers promptly but repeats its rows `factor` times — an unbounded
    /// feed that exhausts downstream row budgets.
    Oversized {
        /// Payload size multiplier (≥ 1).
        factor: u32,
    },
}

/// Why an acquisition attempt failed.
#[derive(Debug, Clone, PartialEq)]
pub enum AcquireError {
    /// The id does not name a registered source.
    UnknownSource(SourceId),
    /// The source did not answer (hard-down, or a flapping source currently
    /// in its down phase — the caller cannot tell which, just like a client
    /// of a real endpoint cannot).
    Unavailable {
        /// Which source.
        source: SourceId,
    },
    /// The source would have answered, but not within the caller's
    /// per-attempt deadline.
    DeadlineExceeded {
        /// Which source.
        source: SourceId,
        /// Ticks the source needed.
        latency: u64,
        /// Ticks the caller was willing to wait.
        deadline: u64,
    },
    /// The source's rate limit is exhausted for the current window.
    RateLimited {
        /// Which source.
        source: SourceId,
        /// Ticks until the window rolls over and requests are served again.
        retry_after: u64,
    },
}

impl AcquireError {
    /// The source the error concerns.
    pub fn source(&self) -> SourceId {
        match self {
            AcquireError::UnknownSource(s)
            | AcquireError::Unavailable { source: s }
            | AcquireError::DeadlineExceeded { source: s, .. }
            | AcquireError::RateLimited { source: s, .. } => *s,
        }
    }

    /// Whether retrying the same request later could possibly succeed.
    pub fn is_retriable(&self) -> bool {
        !matches!(self, AcquireError::UnknownSource(_))
    }
}

impl fmt::Display for AcquireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcquireError::UnknownSource(s) => write!(f, "{s}: no such source"),
            AcquireError::Unavailable { source } => write!(f, "{source}: unavailable"),
            AcquireError::DeadlineExceeded {
                source,
                latency,
                deadline,
            } => write!(
                f,
                "{source}: needs {latency} ticks, deadline was {deadline}"
            ),
            AcquireError::RateLimited {
                source,
                retry_after,
            } => write!(f, "{source}: rate limited, retry after {retry_after} ticks"),
        }
    }
}

impl std::error::Error for AcquireError {}

/// How a delivered payload differs from the source's true table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// Only a prefix of the rows arrived.
    Truncated {
        /// Rows delivered.
        kept: usize,
        /// Rows the source actually has.
        total: usize,
    },
    /// Some cells were garbled in transit.
    CorruptCells {
        /// Number of cells corrupted.
        cells: usize,
    },
    /// The payload's schema drifted: trailing columns dropped, last
    /// survivor renamed.
    SchemaDrifted {
        /// Columns missing relative to the source's true schema.
        dropped: usize,
    },
    /// Some cells arrived as control-byte-laced garbage.
    TypePoisoned {
        /// Number of poisoned cells.
        cells: usize,
    },
    /// Some string cells arrived pathologically inflated.
    Pathological {
        /// Number of inflated cells.
        cells: usize,
    },
    /// Some numeric cells arrived as NaN or ±∞.
    NonFinite {
        /// Number of non-finite cells.
        cells: usize,
    },
    /// The payload arrived with its rows repeated.
    Oversized {
        /// Rows delivered (a multiple of the true row count).
        rows: usize,
    },
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Degradation::Truncated { kept, total } => {
                write!(f, "truncated to {kept}/{total} rows")
            }
            Degradation::CorruptCells { cells } => write!(f, "{cells} cells corrupted"),
            Degradation::SchemaDrifted { dropped } => {
                write!(f, "schema drifted ({dropped} columns lost)")
            }
            Degradation::TypePoisoned { cells } => write!(f, "{cells} cells type-poisoned"),
            Degradation::Pathological { cells } => {
                write!(f, "{cells} cells pathologically inflated")
            }
            Degradation::NonFinite { cells } => write!(f, "{cells} non-finite numeric cells"),
            Degradation::Oversized { rows } => write!(f, "oversized payload ({rows} rows)"),
        }
    }
}

wire_enum!(AcquireError: "acquire-error" {
    0 => UnknownSource(id: SourceId),
    1 => Unavailable { source: SourceId },
    2 => DeadlineExceeded { source: SourceId, latency: u64, deadline: u64 },
    3 => RateLimited { source: SourceId, retry_after: u64 },
});

wire_enum!(Degradation: "degradation" {
    0 => Truncated { kept: usize, total: usize },
    1 => CorruptCells { cells: usize },
    2 => SchemaDrifted { dropped: usize },
    3 => TypePoisoned { cells: usize },
    4 => Pathological { cells: usize },
    5 => NonFinite { cells: usize },
    6 => Oversized { rows: usize },
});

/// A successful acquisition: what arrived and what it cost.
#[derive(Debug, Clone)]
pub struct SourceSnapshot {
    /// Which source answered.
    pub id: SourceId,
    /// Virtual ticks the request took.
    pub latency: u64,
    /// `Some((how, payload))` when the payload differs from the registry's
    /// table; `None` means the registry table arrived intact (no copy made).
    pub degraded: Option<(Degradation, Table)>,
}

impl SourceSnapshot {
    /// True if the payload differs from the source's true table.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

/// Configuration for assigning fault profiles across a fleet.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Fraction of sources that get a non-healthy profile, in \[0, 1\].
    pub fault_rate: f64,
    /// Seed driving both the assignment and all per-request randomness.
    pub seed: u64,
    /// Base latency of a healthy answer, in ticks.
    pub base_latency: u64,
}

impl FaultConfig {
    /// A fleet where `fault_rate` of sources are faulty, seeded.
    pub fn with_rate(fault_rate: f64, seed: u64) -> FaultConfig {
        FaultConfig {
            fault_rate,
            seed,
            base_latency: 1,
        }
    }

    /// Deterministically assign profiles to `n` sources. Faulty sources draw
    /// uniformly from the six fault families with seeded parameters.
    fn assign(&self, n: usize) -> Vec<FaultProfile> {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x0fa1_7000, 0));
        (0..n)
            .map(|_| {
                // Draw the fault decision and the (potential) profile
                // unconditionally so a source's profile is identical across
                // different fault rates under the same seed.
                let roll: f64 = rng.gen();
                let profile = random_profile(&mut rng);
                if roll < self.fault_rate {
                    profile
                } else {
                    FaultProfile::Healthy
                }
            })
            .collect()
    }

    /// Deterministically assign *post-acquisition* payload fault profiles to
    /// `n` sources: every faulty source answers acquisition promptly but its
    /// payload is poisoned in a way only the pipeline stages can detect.
    /// Same nesting guarantee as [`FaultConfig::assign`]: a source faulty at
    /// rate `r` keeps the identical profile at any rate `r' > r` under the
    /// same seed. Independent stream from `assign` (different mix constant),
    /// so acquisition-time and payload faults can be layered freely.
    pub fn assign_payload(&self, n: usize) -> Vec<FaultProfile> {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x0fa1_7001, 0));
        (0..n)
            .map(|_| {
                let roll: f64 = rng.gen();
                let profile = random_payload_profile(&mut rng);
                if roll < self.fault_rate {
                    profile
                } else {
                    FaultProfile::Healthy
                }
            })
            .collect()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::with_rate(0.2, 17)
    }
}

fn random_profile(rng: &mut StdRng) -> FaultProfile {
    match rng.gen_range(0..6) {
        0 => FaultProfile::HardDown,
        1 => FaultProfile::Flap {
            period: rng.gen_range(6..16),
            up_fraction: rng.gen_range(0.3..0.7),
            phase: rng.gen_range(0..8),
        },
        2 => FaultProfile::Slow {
            latency: rng.gen_range(4..24),
        },
        3 => FaultProfile::Truncated {
            keep_fraction: rng.gen_range(0.2..0.8),
        },
        4 => FaultProfile::CorruptRows {
            cell_error_rate: rng.gen_range(0.05..0.3),
        },
        _ => FaultProfile::RateLimited {
            max_per_window: rng.gen_range(1..4),
            window: rng.gen_range(4..12),
        },
    }
}

fn random_payload_profile(rng: &mut StdRng) -> FaultProfile {
    match rng.gen_range(0..5) {
        0 => FaultProfile::SchemaDrift {
            drop: rng.gen_range(1..3),
        },
        1 => FaultProfile::TypePoison {
            cell_rate: rng.gen_range(0.15..0.5),
        },
        2 => FaultProfile::PathologicalStrings {
            cell_rate: rng.gen_range(0.1..0.4),
            len: rng.gen_range(4096..16384),
        },
        3 => FaultProfile::NonFinite {
            cell_rate: rng.gen_range(0.15..0.5),
        },
        _ => FaultProfile::Oversized {
            factor: rng.gen_range(4..8),
        },
    }
}

/// Per-source rate-limit bookkeeping (the only stateful fault).
#[derive(Debug, Clone, Copy, Default)]
struct RateState {
    window_index: u64,
    used: u32,
}

/// The fault layer a registry can carry: one profile per source plus the
/// mutable rate-limit state. Interior mutability keeps [`acquire`] usable
/// from `&self` (and hence from the scoped-thread fan-out in the pipeline).
///
/// [`acquire`]: crate::registry::SourceRegistry::acquire
#[derive(Debug)]
pub struct FaultLayer {
    profiles: Vec<FaultProfile>,
    seed: u64,
    base_latency: u64,
    rate_state: Mutex<Vec<RateState>>,
}

impl Clone for FaultLayer {
    fn clone(&self) -> Self {
        FaultLayer {
            profiles: self.profiles.clone(),
            seed: self.seed,
            base_latency: self.base_latency,
            rate_state: Mutex::new(self.rate_state.lock().expect("not poisoned").clone()), // lint-allow: no code path panics while holding the lock
        }
    }
}

impl FaultLayer {
    /// Build a layer for `n` sources from a fleet-level config.
    pub fn new(n: usize, cfg: &FaultConfig) -> FaultLayer {
        FaultLayer::from_profiles(cfg.assign(n), cfg.seed, cfg.base_latency)
    }

    /// Build a layer from explicit per-source profiles (targeted tests).
    pub fn from_profiles(profiles: Vec<FaultProfile>, seed: u64, base_latency: u64) -> FaultLayer {
        let n = profiles.len();
        FaultLayer {
            profiles,
            seed,
            base_latency,
            rate_state: Mutex::new(vec![RateState::default(); n]),
        }
    }

    /// The profile assigned to a source (Healthy when out of range — sources
    /// registered after injection behave as healthy).
    pub fn profile(&self, id: SourceId) -> FaultProfile {
        self.profiles
            .get(id.0 as usize)
            .copied()
            .unwrap_or(FaultProfile::Healthy)
    }

    /// Override one source's profile.
    pub fn set_profile(&mut self, id: SourceId, profile: FaultProfile) {
        let i = id.0 as usize;
        if i >= self.profiles.len() {
            self.profiles.resize(i + 1, FaultProfile::Healthy);
            self.rate_state
                .lock()
                .expect("not poisoned") // lint-allow: no code path panics while holding the lock
                .resize(i + 1, RateState::default());
        }
        self.profiles[i] = profile;
    }

    /// Evaluate one acquisition attempt against `table` (the source's true
    /// payload) at virtual tick `now`, with a per-attempt latency budget of
    /// `deadline` ticks.
    pub fn attempt(
        &self,
        id: SourceId,
        table: &Table,
        now: u64,
        deadline: u64,
    ) -> Result<SourceSnapshot, AcquireError> {
        let healthy = SourceSnapshot {
            id,
            latency: self.base_latency,
            degraded: None,
        };
        match self.profile(id) {
            FaultProfile::Healthy => Ok(healthy),
            FaultProfile::HardDown => Err(AcquireError::Unavailable { source: id }),
            FaultProfile::Flap {
                period,
                up_fraction,
                phase,
            } => {
                let pos = (now + phase) % period.max(1);
                if (pos as f64) < up_fraction * period.max(1) as f64 {
                    Ok(healthy)
                } else {
                    Err(AcquireError::Unavailable { source: id })
                }
            }
            FaultProfile::Slow { latency } => {
                if latency > deadline {
                    Err(AcquireError::DeadlineExceeded {
                        source: id,
                        latency,
                        deadline,
                    })
                } else {
                    Ok(SourceSnapshot {
                        id,
                        latency,
                        degraded: None,
                    })
                }
            }
            FaultProfile::Truncated { keep_fraction } => {
                let total = table.num_rows();
                let kept = ((total as f64 * keep_fraction).ceil() as usize).min(total);
                let mut out = Table::empty(table.schema().clone());
                for r in 0..kept {
                    out.push_row(table.row(r)).expect("same schema"); // lint-allow: row copied from a table with this schema
                }
                Ok(SourceSnapshot {
                    id,
                    latency: self.base_latency,
                    degraded: Some((Degradation::Truncated { kept, total }, out)),
                })
            }
            FaultProfile::CorruptRows { cell_error_rate } => {
                // Seed per (layer, source, tick): the same attempt replays
                // identically; a later retry sees fresh (but still
                // deterministic) noise.
                let mut rng = StdRng::seed_from_u64(mix(self.seed, u64::from(id.0), now));
                let mut out = Table::empty(table.schema().clone());
                let mut cells = 0usize;
                for r in 0..table.num_rows() {
                    let row: Vec<_> = table
                        .row(r)
                        .into_iter()
                        .map(|v| {
                            if rng.gen_bool(cell_error_rate.clamp(0.0, 1.0)) {
                                cells += 1;
                                corrupt(&v, &mut rng)
                            } else {
                                v
                            }
                        })
                        .collect();
                    out.push_row(row).expect("same arity"); // lint-allow: row built to this arity two lines up
                }
                Ok(SourceSnapshot {
                    id,
                    latency: self.base_latency,
                    degraded: Some((Degradation::CorruptCells { cells }, out)),
                })
            }
            FaultProfile::RateLimited {
                max_per_window,
                window,
            } => {
                let window = window.max(1);
                let wi = now / window;
                let mut state = self.rate_state.lock().expect("not poisoned"); // lint-allow: no code path panics while holding the lock
                let st = &mut state[id.0 as usize];
                if st.window_index != wi {
                    st.window_index = wi;
                    st.used = 0;
                }
                if st.used >= max_per_window {
                    Err(AcquireError::RateLimited {
                        source: id,
                        retry_after: (wi + 1) * window - now,
                    })
                } else {
                    st.used += 1;
                    Ok(healthy)
                }
            }
            FaultProfile::SchemaDrift { drop } => {
                let cols = table.num_columns();
                let kept = cols.saturating_sub(drop).max(2).min(cols);
                let mut fields: Vec<Field> = table.schema().fields()[..kept].to_vec();
                if let Some(last) = fields.last_mut() {
                    last.name = format!("{}_v2", last.name);
                }
                let schema = Schema::new(fields).unwrap_or_else(|_| {
                    // A `_v2` collision in the source schema: deliver the
                    // un-renamed column subset instead.
                    Schema::new(table.schema().fields()[..kept].to_vec())
                        .expect("prefix of unique names stays unique") // lint-allow: subset of a valid schema
                });
                let mut out = Table::empty(schema);
                for r in 0..table.num_rows() {
                    let mut row = table.row(r);
                    row.truncate(kept);
                    out.push_row(row).expect("row cut to schema arity"); // lint-allow: row truncated to arity one line up
                }
                Ok(SourceSnapshot {
                    id,
                    latency: self.base_latency,
                    degraded: Some((
                        Degradation::SchemaDrifted {
                            dropped: cols - kept,
                        },
                        out,
                    )),
                })
            }
            FaultProfile::TypePoison { cell_rate } => {
                let mut rng = StdRng::seed_from_u64(mix(self.seed, u64::from(id.0), now));
                let mut out = Table::empty(table.schema().clone());
                let mut cells = 0usize;
                for r in 0..table.num_rows() {
                    let row: Vec<_> = table
                        .row(r)
                        .into_iter()
                        .map(|v| {
                            if rng.gen_bool(cell_rate.clamp(0.0, 1.0)) {
                                cells += 1;
                                // Control-byte-framed garbage: exactly the
                                // payload shape the union poison scan exists
                                // to catch.
                                Value::from(format!("\u{1}x{:08x}\u{2}", rng.gen::<u32>()))
                            } else {
                                v
                            }
                        })
                        .collect();
                    out.push_row(row).expect("same arity"); // lint-allow: row built to this arity
                }
                Ok(SourceSnapshot {
                    id,
                    latency: self.base_latency,
                    degraded: Some((Degradation::TypePoisoned { cells }, out)),
                })
            }
            FaultProfile::PathologicalStrings { cell_rate, len } => {
                let mut rng = StdRng::seed_from_u64(mix(self.seed, u64::from(id.0), now));
                let mut out = Table::empty(table.schema().clone());
                let mut cells = 0usize;
                for r in 0..table.num_rows() {
                    let row: Vec<_> = table
                        .row(r)
                        .into_iter()
                        .map(|v| match v {
                            Value::Str(s) if rng.gen_bool(cell_rate.clamp(0.0, 1.0)) => {
                                cells += 1;
                                let unit = if s.is_empty() { "x" } else { &s };
                                Value::from(unit.repeat(len / unit.len().max(1) + 1))
                            }
                            other => other,
                        })
                        .collect();
                    out.push_row(row).expect("same arity"); // lint-allow: row built to this arity
                }
                Ok(SourceSnapshot {
                    id,
                    latency: self.base_latency,
                    degraded: Some((Degradation::Pathological { cells }, out)),
                })
            }
            FaultProfile::NonFinite { cell_rate } => {
                let mut rng = StdRng::seed_from_u64(mix(self.seed, u64::from(id.0), now));
                let mut out = Table::empty(table.schema().clone());
                let mut cells = 0usize;
                for r in 0..table.num_rows() {
                    let row: Vec<_> = table
                        .row(r)
                        .into_iter()
                        .map(|v| match v {
                            Value::Float(_) | Value::Int(_)
                                if rng.gen_bool(cell_rate.clamp(0.0, 1.0)) =>
                            {
                                cells += 1;
                                Value::Float(match rng.gen_range(0..3) {
                                    0 => f64::NAN,
                                    1 => f64::INFINITY,
                                    _ => f64::NEG_INFINITY,
                                })
                            }
                            other => other,
                        })
                        .collect();
                    out.push_row(row).expect("same arity"); // lint-allow: row built to this arity
                }
                Ok(SourceSnapshot {
                    id,
                    latency: self.base_latency,
                    degraded: Some((Degradation::NonFinite { cells }, out)),
                })
            }
            FaultProfile::Oversized { factor } => {
                let factor = factor.max(1) as usize;
                let mut out = Table::empty(table.schema().clone());
                for _ in 0..factor {
                    for r in 0..table.num_rows() {
                        out.push_row(table.row(r)).expect("same schema"); // lint-allow: row copied from a table with this schema
                    }
                }
                let rows = out.num_rows();
                Ok(SourceSnapshot {
                    id,
                    latency: self.base_latency,
                    degraded: Some((Degradation::Oversized { rows }, out)),
                })
            }
        }
    }
}

/// SplitMix64-style mixing of seed components into one RNG seed.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(a.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(b.wrapping_mul(0x94d0_49bb_1331_11eb));
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_table::{Schema, Value};

    fn table(rows: usize) -> Table {
        let mut t = Table::empty(Schema::of_strs(&["sku", "price"]));
        for i in 0..rows {
            t.push_row(vec![
                Value::from(format!("sku{i}")),
                Value::Float(10.0 + i as f64),
            ])
            .unwrap();
        }
        t
    }

    fn layer(profile: FaultProfile) -> FaultLayer {
        FaultLayer::from_profiles(vec![profile], 11, 1)
    }

    #[test]
    fn healthy_is_intact() {
        let l = layer(FaultProfile::Healthy);
        let t = table(4);
        let s = l.attempt(SourceId(0), &t, 0, 8).unwrap();
        assert!(!s.is_degraded());
        assert_eq!(s.latency, 1);
    }

    #[test]
    fn hard_down_never_answers() {
        let l = layer(FaultProfile::HardDown);
        let t = table(4);
        for now in 0..50 {
            assert!(matches!(
                l.attempt(SourceId(0), &t, now, 8),
                Err(AcquireError::Unavailable { .. })
            ));
        }
    }

    #[test]
    fn flap_recovers_within_a_period() {
        let l = layer(FaultProfile::Flap {
            period: 10,
            up_fraction: 0.5,
            phase: 0,
        });
        let t = table(4);
        let up: Vec<bool> = (0..20)
            .map(|now| l.attempt(SourceId(0), &t, now, 8).is_ok())
            .collect();
        assert!(up.iter().any(|&b| b) && up.iter().any(|&b| !b));
        // Periodic: tick t and t+10 agree.
        for now in 0..10 {
            assert_eq!(up[now], up[now + 10]);
        }
    }

    #[test]
    fn slow_respects_deadline() {
        let l = layer(FaultProfile::Slow { latency: 12 });
        let t = table(4);
        assert!(matches!(
            l.attempt(SourceId(0), &t, 0, 8),
            Err(AcquireError::DeadlineExceeded { latency: 12, .. })
        ));
        let s = l.attempt(SourceId(0), &t, 0, 16).unwrap();
        assert_eq!(s.latency, 12);
    }

    #[test]
    fn truncation_keeps_prefix() {
        let l = layer(FaultProfile::Truncated { keep_fraction: 0.5 });
        let t = table(10);
        let s = l.attempt(SourceId(0), &t, 0, 8).unwrap();
        let (d, payload) = s.degraded.unwrap();
        assert_eq!(d, Degradation::Truncated { kept: 5, total: 10 });
        assert_eq!(payload.num_rows(), 5);
        assert_eq!(payload.row(0), t.row(0));
    }

    #[test]
    fn corruption_is_deterministic_per_tick() {
        let l = layer(FaultProfile::CorruptRows {
            cell_error_rate: 0.5,
        });
        let t = table(20);
        let a = l.attempt(SourceId(0), &t, 3, 8).unwrap();
        let b = l.attempt(SourceId(0), &t, 3, 8).unwrap();
        let (da, ta) = a.degraded.unwrap();
        let (db, tb) = b.degraded.unwrap();
        assert_eq!(da, db);
        for r in 0..ta.num_rows() {
            assert_eq!(ta.row(r), tb.row(r));
        }
        // A different tick draws different noise (overwhelmingly likely at
        // this rate and size).
        let c = l.attempt(SourceId(0), &t, 4, 8).unwrap();
        let (dc, _) = c.degraded.unwrap();
        assert!(matches!(dc, Degradation::CorruptCells { .. }));
    }

    #[test]
    fn rate_limit_exhausts_and_rolls_over() {
        let l = layer(FaultProfile::RateLimited {
            max_per_window: 2,
            window: 10,
        });
        let t = table(4);
        assert!(l.attempt(SourceId(0), &t, 0, 8).is_ok());
        assert!(l.attempt(SourceId(0), &t, 1, 8).is_ok());
        match l.attempt(SourceId(0), &t, 2, 8) {
            Err(AcquireError::RateLimited { retry_after, .. }) => assert_eq!(retry_after, 8),
            other => panic!("expected rate limit, got {other:?}"),
        }
        // Next window serves again.
        assert!(l.attempt(SourceId(0), &t, 10, 8).is_ok());
    }

    #[test]
    fn assignment_is_deterministic_and_rate_scaled() {
        let cfg = FaultConfig::with_rate(0.5, 42);
        let a = cfg.assign(100);
        let b = cfg.assign(100);
        assert_eq!(a, b);
        let faulty = a.iter().filter(|p| **p != FaultProfile::Healthy).count();
        assert!((30..=70).contains(&faulty), "got {faulty} faulty of 100");
        // Zero rate means all healthy; full rate means none healthy.
        assert!(FaultConfig::with_rate(0.0, 42)
            .assign(50)
            .iter()
            .all(|p| *p == FaultProfile::Healthy));
        assert!(FaultConfig::with_rate(1.0, 42)
            .assign(50)
            .iter()
            .all(|p| *p != FaultProfile::Healthy));
    }

    #[test]
    fn profiles_nest_across_rates() {
        // A source faulty at rate r stays faulty (same profile) at r' > r.
        let lo = FaultConfig::with_rate(0.2, 9).assign(60);
        let hi = FaultConfig::with_rate(0.6, 9).assign(60);
        for (a, b) in lo.iter().zip(hi.iter()) {
            if *a != FaultProfile::Healthy {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn schema_drift_drops_and_renames_columns() {
        let l = layer(FaultProfile::SchemaDrift { drop: 1 });
        let mut t = Table::empty(Schema::of_strs(&["sku", "price", "stock"]));
        t.push_row(vec![
            Value::Str("sku0".into()),
            Value::Float(9.5),
            Value::Int(3),
        ])
        .unwrap();
        let s = l.attempt(SourceId(0), &t, 0, 8).unwrap();
        let (d, payload) = s.degraded.unwrap();
        assert_eq!(d, Degradation::SchemaDrifted { dropped: 1 });
        assert_eq!(payload.num_columns(), 2);
        assert_eq!(payload.schema().names(), vec!["sku", "price_v2"]);
        assert_eq!(payload.get(0, 1).unwrap(), &Value::Float(9.5));
        // Never drifts below two columns.
        let l = layer(FaultProfile::SchemaDrift { drop: 9 });
        let s = l.attempt(SourceId(0), &t, 0, 8).unwrap();
        let (_, payload) = s.degraded.unwrap();
        assert_eq!(payload.num_columns(), 2);
    }

    #[test]
    fn type_poison_plants_control_bytes() {
        let l = layer(FaultProfile::TypePoison { cell_rate: 0.5 });
        let t = table(20);
        let s = l.attempt(SourceId(0), &t, 0, 8).unwrap();
        let (d, payload) = s.degraded.unwrap();
        let cells = match d {
            Degradation::TypePoisoned { cells } => cells,
            other => panic!("unexpected degradation {other:?}"),
        };
        assert!(cells > 0);
        let poisoned = payload
            .iter_rows()
            .flatten()
            .filter(|v| {
                v.as_str()
                    .is_some_and(|s| s.chars().any(|c| c.is_control()))
            })
            .count();
        assert_eq!(poisoned, cells);
        // Deterministic per tick.
        let s2 = l.attempt(SourceId(0), &t, 0, 8).unwrap();
        assert_eq!(s2.degraded.unwrap().0, Degradation::TypePoisoned { cells });
    }

    #[test]
    fn pathological_strings_inflate_past_len() {
        let l = layer(FaultProfile::PathologicalStrings {
            cell_rate: 0.9,
            len: 512,
        });
        let t = table(10);
        let s = l.attempt(SourceId(0), &t, 0, 8).unwrap();
        let (d, payload) = s.degraded.unwrap();
        assert!(matches!(d, Degradation::Pathological { cells } if cells > 0));
        let max_len = payload
            .iter_rows()
            .flatten()
            .filter_map(|v| v.as_str().map(str::len))
            .max()
            .unwrap();
        assert!(max_len > 512, "inflated to {max_len}");
    }

    #[test]
    fn non_finite_poisons_numeric_cells_only() {
        let l = layer(FaultProfile::NonFinite { cell_rate: 0.9 });
        let t = table(10);
        let s = l.attempt(SourceId(0), &t, 0, 8).unwrap();
        let (d, payload) = s.degraded.unwrap();
        assert!(matches!(d, Degradation::NonFinite { cells } if cells > 0));
        let bad = payload
            .iter_rows()
            .flatten()
            .filter(|v| matches!(v, Value::Float(f) if !f.is_finite()))
            .count();
        assert!(bad > 0);
        // String column untouched.
        assert!(payload
            .column_named("sku")
            .unwrap()
            .iter()
            .all(|v| v.as_str().is_some()));
    }

    #[test]
    fn oversized_repeats_rows() {
        let l = layer(FaultProfile::Oversized { factor: 4 });
        let t = table(5);
        let s = l.attempt(SourceId(0), &t, 0, 8).unwrap();
        let (d, payload) = s.degraded.unwrap();
        assert_eq!(d, Degradation::Oversized { rows: 20 });
        assert_eq!(payload.num_rows(), 20);
        assert_eq!(payload.row(0), payload.row(5));
    }

    #[test]
    fn payload_assignment_is_deterministic_nested_and_independent() {
        let cfg = FaultConfig::with_rate(0.5, 42);
        let a = cfg.assign_payload(100);
        assert_eq!(a, cfg.assign_payload(100));
        let faulty = a.iter().filter(|p| **p != FaultProfile::Healthy).count();
        assert!((30..=70).contains(&faulty), "got {faulty} faulty of 100");
        // Every faulty profile is a payload fault, not an acquisition fault.
        assert!(a.iter().all(|p| matches!(
            p,
            FaultProfile::Healthy
                | FaultProfile::SchemaDrift { .. }
                | FaultProfile::TypePoison { .. }
                | FaultProfile::PathologicalStrings { .. }
                | FaultProfile::NonFinite { .. }
                | FaultProfile::Oversized { .. }
        )));
        // Nesting across rates, like `assign`.
        let lo = FaultConfig::with_rate(0.2, 9).assign_payload(60);
        let hi = FaultConfig::with_rate(0.6, 9).assign_payload(60);
        for (a, b) in lo.iter().zip(hi.iter()) {
            if *a != FaultProfile::Healthy {
                assert_eq!(a, b);
            }
        }
        // Independent stream from acquisition-fault assignment.
        assert_ne!(cfg.assign(100), a);
    }

    #[test]
    fn error_display_and_helpers() {
        let e = AcquireError::RateLimited {
            source: SourceId(3),
            retry_after: 5,
        };
        assert!(e.to_string().contains("src3"));
        assert!(e.is_retriable());
        assert_eq!(e.source(), SourceId(3));
        assert!(!AcquireError::UnknownSource(SourceId(1)).is_retriable());
    }
}
