//! Resilient source acquisition: retry with backoff, circuit breakers, and
//! graceful degradation.
//!
//! §2.2's cost argument cuts both ways: sources are cheap to *list* but
//! unreliable to *reach*. A pipeline that panics (or blocks forever) the
//! first time a site is down cannot be "production-scale". This module is
//! the session-side half of the fault story (the fleet-side half is
//! `wrangler_sources::faults`):
//!
//! * [`RetryPolicy`] — bounded attempts with exponential backoff and seeded
//!   jitter, all in **virtual ticks** so schedules are deterministic and
//!   experiments never sleep;
//! * [`CircuitBreaker`] — the classic closed → open → half-open machine per
//!   source; repeatedly failing sources are quarantined instead of burning
//!   the retry budget every wrangle, and probed again after a cooldown;
//! * [`Acquisition`] — the engine the [`Wrangler`](crate::wrangler::Wrangler)
//!   drives: acquires every selected source under an [`AcquisitionMode`],
//!   reports per-source dispositions, and lets the pipeline complete on the
//!   surviving subset (the breakers then feed source *availability* back
//!   into the next selection round).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wrangler_obs::CounterSet;
use wrangler_sources::faults::{AcquireError, Degradation};
use wrangler_sources::{SourceId, SourceRegistry};
use wrangler_table::Table;

/// How the session reacts to acquisition failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquisitionMode {
    /// Naive baseline: one attempt per source; any failure aborts the whole
    /// wrangle.
    AbortOnFailure,
    /// Naive baseline: hammer each failing source with up to `attempts`
    /// immediate retries (no backoff, no breaker); if it still fails, abort.
    BlindRetry {
        /// Attempts per source before giving up.
        attempts: u32,
    },
    /// The full resilient layer: bounded backoff retries, circuit breakers,
    /// quarantine, and completion on the surviving subset.
    Resilient,
}

/// Bounded exponential backoff with seeded jitter, in virtual ticks.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per source per wrangle (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: u64,
    /// Growth factor between retries.
    pub multiplier: f64,
    /// Hard cap on any single backoff.
    pub max_backoff: u64,
    /// Jitter fraction in \[0, 1\]: each wait is stretched by up to this
    /// much, seeded per source (decorrelates retry storms across sources
    /// without losing reproducibility).
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Per-attempt latency budget handed to the fault layer.
    pub attempt_deadline: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: 2,
            multiplier: 2.0,
            max_backoff: 32,
            jitter: 0.25,
            seed: 7,
            attempt_deadline: 8,
        }
    }
}

impl RetryPolicy {
    /// The waits (in ticks) before each retry of `source`: `retries` values,
    /// deterministic per `(seed, source)`, monotonically non-decreasing, and
    /// each bounded by `max_backoff`.
    pub fn backoff_schedule(&self, source: SourceId, retries: u32) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(u64::from(source.0)),
        );
        let cap = self.max_backoff.max(1);
        let mut raw = self.base_backoff.max(1) as f64;
        let mut prev = 0u64;
        let mut out = Vec::with_capacity(retries as usize);
        for _ in 0..retries {
            let jittered = raw * (1.0 + self.jitter.clamp(0.0, 1.0) * rng.gen::<f64>());
            let wait = (jittered.round() as u64).clamp(1, cap).max(prev);
            out.push(wait);
            prev = wait;
            raw = (raw * self.multiplier.max(1.0)).min(cap as f64);
        }
        out
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Ticks an open breaker blocks requests before probing.
    pub cooldown: u64,
    /// Probe successes required to close again from half-open.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: 24,
            half_open_successes: 2,
        }
    }
}

/// Breaker state: the classic three-state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; failures are counted.
    Closed,
    /// Requests are blocked until the cooldown elapses.
    Open {
        /// Tick at which probing may begin.
        until: u64,
    },
    /// Probing: limited trust until enough successes close the breaker.
    HalfOpen,
}

/// Per-source circuit breaker over virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    probe_successes: u32,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_successes: 0,
        }
    }

    /// Current state (an open breaker does *not* transition to half-open
    /// until a request is actually attempted after the cooldown).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// May a request proceed at `now`? An open breaker past its cooldown
    /// moves to half-open and lets the probe through.
    pub fn allow_request(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen;
                self.probe_successes = 0;
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Record a successful acquisition.
    pub fn record_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.cfg.half_open_successes {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                }
            }
            // A success while open can't happen through allow_request; treat
            // it as a probe.
            BreakerState::Open { .. } => {
                self.state = BreakerState::HalfOpen;
                self.probe_successes = 1;
            }
        }
    }

    /// Record a failed acquisition at `now`.
    pub fn record_failure(&mut self, now: u64) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.state = BreakerState::Open {
                        until: now + self.cfg.cooldown,
                    };
                }
            }
            // A failed probe re-opens for a full cooldown.
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open {
                    until: now + self.cfg.cooldown,
                };
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Rebuild a breaker mid-flight, counters and all.
    pub fn from_parts(
        cfg: BreakerConfig,
        state: BreakerState,
        consecutive_failures: u32,
        probe_successes: u32,
    ) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state,
            consecutive_failures,
            probe_successes,
        }
    }

    /// Availability in \[0, 1\] as selection sees it: 1 closed, 0.5 on
    /// probation (half-open, or open with the cooldown elapsed), 0 while
    /// quarantined.
    pub fn availability(&self, now: u64) -> f64 {
        match self.state {
            BreakerState::Closed => 1.0,
            BreakerState::HalfOpen => 0.5,
            BreakerState::Open { until } => {
                if now >= until {
                    0.5
                } else {
                    0.0
                }
            }
        }
    }
}

// The checkpoint stores a breaker whole, counters and all, so a resumed pass
// distrusts exactly what the crashed pass distrusted.
wrangler_table::wire_struct!(CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    probe_successes: u32,
});

/// What happened to one selected source during acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct AcquireOutcome {
    /// Which source.
    pub id: SourceId,
    /// Attempts actually made (0 when quarantined).
    pub attempts: u32,
    /// Virtual ticks spent on this source (latency + backoff).
    pub ticks: u64,
    /// How it ended.
    pub disposition: Disposition,
}

/// Terminal disposition of one source's acquisition.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Payload arrived intact.
    Fresh,
    /// Payload arrived degraded (truncated / partially corrupted) and was
    /// used anyway — coverage beats nothing, and fusion's redundancy
    /// tolerates noise.
    Degraded(Degradation),
    /// All attempts failed; the source is excluded from this wrangle.
    Skipped(AcquireError),
    /// The circuit breaker was open; no attempt was made.
    Quarantined,
}

/// Everything a single acquisition pass produced.
#[derive(Debug, Clone, Default)]
pub struct AcquisitionReport {
    /// Per-source outcomes, in selection order.
    pub outcomes: Vec<AcquireOutcome>,
    /// Materialized payloads for degraded sources (intact sources keep using
    /// the registry's table, zero-copy).
    pub degraded_tables: Vec<(SourceId, Table)>,
    /// `Some` when a naive mode aborted the wrangle on a failure.
    pub aborted: Option<AcquireError>,
    /// Total attempts this pass.
    pub attempts: u64,
    /// Total virtual ticks this pass (the retry-cost axis of E11).
    pub ticks: u64,
    /// Telemetry events this pass: `retries`, `breaker_trips`,
    /// `quarantine_skips`, `backoff_ticks`, `rate_limit_stretches`,
    /// `degraded_payloads`. The session absorbs these into its
    /// [`wrangler_obs::Telemetry`] under the `acquire.` prefix.
    pub events: CounterSet,
}

impl AcquisitionReport {
    /// Sources that delivered a payload (fresh or degraded).
    pub fn survivors(&self) -> Vec<SourceId> {
        self.outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.disposition,
                    Disposition::Fresh | Disposition::Degraded(_)
                )
            })
            .map(|o| o.id)
            .collect()
    }

    /// Sources that delivered nothing, with the human-readable reason.
    pub fn skipped(&self) -> Vec<(SourceId, String)> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.disposition {
                Disposition::Skipped(e) => Some((o.id, e.to_string())),
                Disposition::Quarantined => Some((o.id, "quarantined (circuit open)".into())),
                _ => None,
            })
            .collect()
    }

    /// Sources that delivered degraded payloads.
    pub fn degraded(&self) -> Vec<(SourceId, Degradation)> {
        self.outcomes
            .iter()
            .filter_map(|o| match o.disposition {
                Disposition::Degraded(d) => Some((o.id, d)),
                _ => None,
            })
            .collect()
    }
}

/// The acquisition engine a wrangling session owns: policy, per-source
/// breakers, and a monotone virtual clock that persists across wrangles (so
/// cooldowns and rate-limit windows roll forward realistically).
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Failure-handling mode (the E11 comparison axis).
    pub mode: AcquisitionMode,
    /// Retry/backoff tuning.
    pub policy: RetryPolicy,
    /// Breaker tuning (applies to breakers created after a change).
    pub breaker_cfg: BreakerConfig,
    state: EngineState,
}

/// What an [`Acquisition`] engine has accumulated across wrangles, as a
/// checkpoint stores it and the select seam's key hashes it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineState {
    /// Virtual clock: ticks spent acquiring so far.
    pub clock: u64,
    /// Lifetime attempt count (all wrangles).
    pub total_attempts: u64,
    /// Lifetime backoff ticks (all wrangles).
    pub total_backoff_ticks: u64,
    /// The per-source breakers, in source order (empty in naive modes or
    /// before the first acquisition touches a source).
    pub breakers: Vec<CircuitBreaker>,
}

wrangler_table::wire_struct!(EngineState {
    clock: u64,
    total_attempts: u64,
    total_backoff_ticks: u64,
    breakers: Vec<CircuitBreaker>,
});

impl Default for Acquisition {
    fn default() -> Self {
        Acquisition {
            mode: AcquisitionMode::Resilient,
            policy: RetryPolicy::default(),
            breaker_cfg: BreakerConfig::default(),
            state: EngineState::default(),
        }
    }
}

impl Acquisition {
    /// Engine in the given mode with default tuning.
    pub fn with_mode(mode: AcquisitionMode) -> Acquisition {
        Acquisition {
            mode,
            ..Acquisition::default()
        }
    }

    /// The engine's virtual clock (ticks spent acquiring so far).
    pub fn clock(&self) -> u64 {
        self.state.clock
    }

    /// The accumulated state: clock, lifetime totals, breaker fleet.
    pub fn state(&self) -> &EngineState {
        &self.state
    }

    /// Put back a state taken by [`state`](Self::state) (a checkpoint's).
    pub fn restore(&mut self, state: EngineState) {
        self.state = state;
    }

    /// Availability of source `i` as the breakers currently see it.
    pub fn availability(&self, i: usize, now: u64) -> f64 {
        match self.mode {
            // Naive modes have no breakers and no notion of availability.
            AcquisitionMode::AbortOnFailure | AcquisitionMode::BlindRetry { .. } => 1.0,
            AcquisitionMode::Resilient => self
                .state
                .breakers
                .get(i)
                .map(|b| b.availability(now.max(self.state.clock)))
                .unwrap_or(1.0),
        }
    }

    /// Sources currently quarantined (breaker open, cooldown not elapsed).
    pub fn quarantined(&self, now: u64) -> Vec<SourceId> {
        self.state
            .breakers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.availability(now.max(self.state.clock)) == 0.0)
            .map(|(i, _)| SourceId(i as u32))
            .collect()
    }

    /// Breaker state of source `i`, if one exists yet.
    pub fn breaker_state(&self, i: usize) -> Option<BreakerState> {
        self.state.breakers.get(i).map(|b| b.state())
    }

    /// Report a *post-acquisition* failure for source `i`: its payload
    /// cleared acquisition but poisoned a pipeline stage and was
    /// quarantined. This trips the breaker immediately (a full
    /// `failure_threshold` worth of failures) rather than recording a
    /// single failure — the pass's own successful acquisition already
    /// reset the consecutive-failure count, and a payload that breaks the
    /// pipeline is worse evidence than a connection blip. No-op in naive
    /// modes, which have no breakers.
    pub fn record_pipeline_failure(&mut self, i: usize) {
        if !matches!(self.mode, AcquisitionMode::Resilient) {
            return;
        }
        let now = self.state.clock;
        let threshold = self.breaker_cfg.failure_threshold;
        let b = self.breaker(i);
        for _ in 0..threshold.max(1) {
            b.record_failure(now);
        }
    }

    fn breaker(&mut self, i: usize) -> &mut CircuitBreaker {
        if i >= self.state.breakers.len() {
            self.state
                .breakers
                .resize(i + 1, CircuitBreaker::new(self.breaker_cfg));
        }
        &mut self.state.breakers[i]
    }

    /// Acquire every selected source. The engine clock starts at
    /// `max(internal, start)` and advances by per-attempt latency and
    /// backoff; the report carries per-source dispositions plus this pass's
    /// attempt and tick totals.
    pub fn acquire_selected(
        &mut self,
        registry: &SourceRegistry,
        selected: &[SourceId],
        start: u64,
    ) -> AcquisitionReport {
        self.state.clock = self.state.clock.max(start);
        let began = self.state.clock;
        let attempts_before = self.state.total_attempts;
        let mut report = AcquisitionReport::default();
        for &id in selected {
            let outcome = match self.mode {
                AcquisitionMode::AbortOnFailure => self.acquire_naive(registry, id, 1, &mut report),
                AcquisitionMode::BlindRetry { attempts } => {
                    self.acquire_naive(registry, id, attempts.max(1), &mut report)
                }
                AcquisitionMode::Resilient => self.acquire_resilient(registry, id, &mut report),
            };
            report.outcomes.push(outcome);
            if report.aborted.is_some() {
                break;
            }
        }
        report.attempts = self.state.total_attempts - attempts_before;
        report.ticks = self.state.clock - began;
        report
    }

    /// Naive acquisition: up to `max_attempts` back-to-back tries, abort on
    /// terminal failure.
    fn acquire_naive(
        &mut self,
        registry: &SourceRegistry,
        id: SourceId,
        max_attempts: u32,
        report: &mut AcquisitionReport,
    ) -> AcquireOutcome {
        let began = self.state.clock;
        let mut attempts = 0;
        loop {
            attempts += 1;
            self.state.total_attempts += 1;
            if attempts > 1 {
                report.events.inc("retries");
            }
            match registry.acquire(id, self.state.clock, self.policy.attempt_deadline) {
                Ok(snap) => {
                    self.state.clock += snap.latency;
                    let disposition = match snap.degraded {
                        None => Disposition::Fresh,
                        Some((d, table)) => {
                            report.degraded_tables.push((id, table));
                            report.events.inc("degraded_payloads");
                            Disposition::Degraded(d)
                        }
                    };
                    return AcquireOutcome {
                        id,
                        attempts,
                        ticks: self.state.clock - began,
                        disposition,
                    };
                }
                Err(e) => {
                    // A failed attempt still costs a tick of wall-time.
                    self.state.clock += 1;
                    if attempts >= max_attempts || !e.is_retriable() {
                        report.aborted = Some(e.clone());
                        return AcquireOutcome {
                            id,
                            attempts,
                            ticks: self.state.clock - began,
                            disposition: Disposition::Skipped(e),
                        };
                    }
                }
            }
        }
    }

    /// Resilient acquisition of one source: breaker gate, then bounded
    /// backoff retries; a rate-limit hint stretches the wait if it exceeds
    /// the scheduled backoff.
    fn acquire_resilient(
        &mut self,
        registry: &SourceRegistry,
        id: SourceId,
        report: &mut AcquisitionReport,
    ) -> AcquireOutcome {
        let began = self.state.clock;
        let i = id.0 as usize;
        let policy = self.policy;
        let schedule = policy.backoff_schedule(id, policy.max_attempts.saturating_sub(1));
        let mut attempts = 0;
        let mut last_err: Option<AcquireError> = None;
        while attempts < policy.max_attempts.max(1) {
            let now = self.state.clock;
            if !self.breaker(i).allow_request(now) {
                // Tripped before any attempt → quarantined; tripped mid-retry
                // → the attempts were real, report the failure itself.
                let disposition = match last_err.take() {
                    None => {
                        report.events.inc("quarantine_skips");
                        Disposition::Quarantined
                    }
                    Some(e) => Disposition::Skipped(e),
                };
                return AcquireOutcome {
                    id,
                    attempts,
                    ticks: self.state.clock - began,
                    disposition,
                };
            }
            attempts += 1;
            self.state.total_attempts += 1;
            if attempts > 1 {
                report.events.inc("retries");
            }
            match registry.acquire(id, self.state.clock, policy.attempt_deadline) {
                Ok(snap) => {
                    self.state.clock += snap.latency;
                    self.breaker(i).record_success();
                    let disposition = match snap.degraded {
                        None => Disposition::Fresh,
                        Some((d, table)) => {
                            report.degraded_tables.push((id, table));
                            report.events.inc("degraded_payloads");
                            Disposition::Degraded(d)
                        }
                    };
                    return AcquireOutcome {
                        id,
                        attempts,
                        ticks: self.state.clock - began,
                        disposition,
                    };
                }
                Err(e) => {
                    self.state.clock += 1;
                    let now = self.state.clock;
                    let was_open = matches!(self.breaker(i).state(), BreakerState::Open { .. });
                    self.breaker(i).record_failure(now);
                    // A tripped breaker or a terminal error ends the retries
                    // right away — no point paying the remaining backoff.
                    let tripped = matches!(self.breaker(i).state(), BreakerState::Open { .. });
                    if tripped && !was_open {
                        report.events.inc("breaker_trips");
                    }
                    if tripped || !e.is_retriable() {
                        return AcquireOutcome {
                            id,
                            attempts,
                            ticks: self.state.clock - began,
                            disposition: Disposition::Skipped(e),
                        };
                    }
                    if attempts < policy.max_attempts {
                        let mut wait = schedule
                            .get(attempts as usize - 1)
                            .copied()
                            .unwrap_or(policy.max_backoff.max(1));
                        if let AcquireError::RateLimited { retry_after, .. } = &e {
                            if *retry_after > wait {
                                report.events.inc("rate_limit_stretches");
                            }
                            wait = wait.max(*retry_after);
                        }
                        self.state.clock += wait;
                        self.state.total_backoff_ticks += wait;
                        report.events.add("backoff_ticks", wait);
                    }
                    last_err = Some(e);
                }
            }
        }
        let err = last_err.unwrap_or(AcquireError::Unavailable { source: id });
        AcquireOutcome {
            id,
            attempts,
            ticks: self.state.clock - began,
            disposition: Disposition::Skipped(err),
        }
    }
}

/// Summary of the most recent acquisition pass, kept by the session for
/// outcome reporting and provenance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AcquisitionSummary {
    /// Per-source dispositions of the last pass.
    pub outcomes: Vec<AcquireOutcome>,
    /// Sources excluded from the last wrangle, with reasons.
    pub skipped: Vec<(SourceId, String)>,
    /// Sources integrated from degraded payloads.
    pub degraded: Vec<(SourceId, Degradation)>,
    /// Attempts in the last pass.
    pub attempts: u64,
    /// Virtual ticks the last pass spent (latency + backoff).
    pub ticks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrangler_sources::faults::FaultProfile;
    use wrangler_table::{Schema, Value};

    fn registry(profiles: Vec<FaultProfile>) -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        for s in 0..profiles.len() {
            let mut t = Table::empty(Schema::of_strs(&["sku", "price"]));
            for r in 0..6 {
                t.push_row(vec![
                    Value::from(format!("sku{r}")),
                    Value::Float(10.0 + s as f64),
                ])
                .unwrap();
            }
            reg.register(format!("site{s}"), t);
        }
        reg.inject_fault_profiles(profiles, 5);
        reg
    }

    #[test]
    fn backoff_schedule_properties() {
        let p = RetryPolicy::default();
        let s1 = p.backoff_schedule(SourceId(3), 8);
        let s2 = p.backoff_schedule(SourceId(3), 8);
        assert_eq!(s1, s2, "deterministic per (seed, source)");
        for w in s1.windows(2) {
            assert!(w[1] >= w[0], "monotone: {s1:?}");
        }
        assert!(s1.iter().all(|&w| w >= 1 && w <= p.max_backoff));
        let other = p.backoff_schedule(SourceId(4), 8);
        assert_ne!(s1, other, "jitter decorrelates sources");
    }

    #[test]
    fn breaker_trips_cools_probes_closes() {
        let cfg = BreakerConfig {
            failure_threshold: 3,
            cooldown: 10,
            half_open_successes: 2,
        };
        let mut b = CircuitBreaker::new(cfg);
        assert_eq!(b.state(), BreakerState::Closed);
        for t in 0..3 {
            assert!(b.allow_request(t));
            b.record_failure(t);
        }
        assert_eq!(b.state(), BreakerState::Open { until: 12 });
        assert!(!b.allow_request(5), "quarantined during cooldown");
        assert!(b.allow_request(12), "probe allowed after cooldown");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::HalfOpen, "one success not enough");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_failed_probe_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: 10,
            half_open_successes: 1,
        });
        b.record_failure(0);
        assert!(matches!(b.state(), BreakerState::Open { until: 10 }));
        assert!(b.allow_request(10));
        b.record_failure(11);
        assert_eq!(b.state(), BreakerState::Open { until: 21 });
        assert_eq!(b.availability(15), 0.0);
        assert_eq!(b.availability(21), 0.5);
    }

    #[test]
    fn pipeline_failure_trips_breaker_immediately() {
        let mut eng = Acquisition::default();
        // Fresh breaker: a single pipeline-quarantine report must open it,
        // even though acquisition itself succeeded this pass.
        eng.record_pipeline_failure(2);
        assert_eq!(eng.availability(2, 0), 0.0, "breaker open right away");
        assert!(matches!(
            eng.breaker_state(2),
            Some(BreakerState::Open { .. })
        ));
        // Untouched sources are unaffected.
        assert_eq!(eng.availability(0, 0), 1.0);
        // After the cooldown the source is probe-eligible again.
        let cooldown = BreakerConfig::default().cooldown;
        assert_eq!(eng.availability(2, cooldown + 1), 0.5);
        // Naive modes have no breakers: the call is a no-op.
        let mut naive = Acquisition::with_mode(AcquisitionMode::AbortOnFailure);
        naive.record_pipeline_failure(1);
        assert_eq!(naive.availability(1, 0), 1.0);
    }

    #[test]
    fn abort_mode_stops_at_first_failure() {
        let reg = registry(vec![
            FaultProfile::Healthy,
            FaultProfile::HardDown,
            FaultProfile::Healthy,
        ]);
        let mut eng = Acquisition::with_mode(AcquisitionMode::AbortOnFailure);
        let ids = reg.ids();
        let report = eng.acquire_selected(&reg, &ids, 0);
        assert!(report.aborted.is_some());
        assert_eq!(report.outcomes.len(), 2, "third source never tried");
    }

    #[test]
    fn resilient_mode_completes_on_survivors() {
        let reg = registry(vec![
            FaultProfile::Healthy,
            FaultProfile::HardDown,
            FaultProfile::Truncated { keep_fraction: 0.5 },
        ]);
        let mut eng = Acquisition::default();
        let ids = reg.ids();
        let report = eng.acquire_selected(&reg, &ids, 0);
        assert!(report.aborted.is_none());
        assert_eq!(report.survivors(), vec![SourceId(0), SourceId(2)]);
        assert_eq!(report.skipped().len(), 1);
        assert_eq!(report.degraded().len(), 1);
        assert_eq!(report.degraded_tables.len(), 1);
        assert_eq!(report.degraded_tables[0].1.num_rows(), 3);
        // The hard-down source burned retries until its breaker tripped...
        let down = &report.outcomes[1];
        assert_eq!(down.attempts, eng.breaker_cfg.failure_threshold);
        // ...and its breaker tripped for next time.
        assert!(matches!(
            eng.breaker_state(1),
            Some(BreakerState::Open { .. })
        ));
    }

    #[test]
    fn quarantine_skips_attempts_until_cooldown() {
        let reg = registry(vec![FaultProfile::HardDown]);
        let mut eng = Acquisition::default();
        let ids = reg.ids();
        let r1 = eng.acquire_selected(&reg, &ids, 0);
        assert!(r1.attempts > 0);
        // Immediately after, the breaker is open: no attempts at all.
        let r2 = eng.acquire_selected(&reg, &ids, eng.clock());
        assert_eq!(r2.attempts, 0);
        assert!(matches!(
            r2.outcomes[0].disposition,
            Disposition::Quarantined
        ));
        assert_eq!(eng.availability(0, eng.clock()), 0.0);
        // After the cooldown the probe goes through (and fails again here).
        let later = eng.clock() + eng.breaker_cfg.cooldown;
        let r3 = eng.acquire_selected(&reg, &ids, later);
        assert!(r3.attempts > 0);
    }

    #[test]
    fn flapping_source_recovers_via_backoff() {
        // Down 70% of each 10-tick cycle: a single attempt at tick 3 fails,
        // but backoff pushes later attempts into the up-phase.
        let reg = registry(vec![FaultProfile::Flap {
            period: 10,
            up_fraction: 0.3,
            phase: 0,
        }]);
        let mut eng = Acquisition::default();
        let report = eng.acquire_selected(&reg, &reg.ids(), 3);
        assert!(report.aborted.is_none());
        assert_eq!(report.survivors(), vec![SourceId(0)]);
        assert!(report.outcomes[0].attempts > 1, "needed a retry");
    }

    #[test]
    fn blind_retry_burns_attempts_on_hard_down() {
        let reg = registry(vec![FaultProfile::HardDown]);
        let mut eng = Acquisition::with_mode(AcquisitionMode::BlindRetry { attempts: 50 });
        let report = eng.acquire_selected(&reg, &reg.ids(), 0);
        assert!(report.aborted.is_some());
        assert_eq!(report.attempts, 50);
    }

    #[test]
    fn acquisition_events_are_recorded() {
        let reg = registry(vec![FaultProfile::Healthy, FaultProfile::HardDown]);
        let mut eng = Acquisition::default();
        let r1 = eng.acquire_selected(&reg, &reg.ids(), 0);
        // The hard-down source retried until its breaker tripped once.
        assert!(r1.events.get("retries") > 0);
        assert_eq!(r1.events.get("breaker_trips"), 1);
        assert!(r1.events.get("backoff_ticks") > 0);
        assert_eq!(r1.events.get("quarantine_skips"), 0);
        // Immediately after, the open breaker skips it without attempts.
        let r2 = eng.acquire_selected(&reg, &reg.ids(), eng.clock());
        assert_eq!(r2.events.get("quarantine_skips"), 1);
        assert_eq!(r2.events.get("retries"), 0);
    }

    #[test]
    fn engine_is_deterministic() {
        let profiles = vec![
            FaultProfile::Flap {
                period: 8,
                up_fraction: 0.5,
                phase: 3,
            },
            FaultProfile::RateLimited {
                max_per_window: 1,
                window: 6,
            },
            FaultProfile::HardDown,
            FaultProfile::Healthy,
        ];
        let run = || {
            let reg = registry(profiles.clone());
            let mut eng = Acquisition::default();
            let r = eng.acquire_selected(&reg, &reg.ids(), 0);
            (r.survivors(), r.attempts, r.ticks, eng.clock())
        };
        assert_eq!(run(), run());
    }
}
