//! Possible-worlds semantics over independent uncertain facts.
//!
//! §4.3 notes that "even in the classical settings data uncertainty often
//! leads to intractability of the most basic data processing tasks" (\[1\],
//! \[23\]). Exact query evaluation over possible worlds is #P-hard in general;
//! the tractable tool is *Monte-Carlo estimation*: this module samples
//! worlds, and `wrangler-core`'s `UncertainView` evaluates a query per world
//! and aggregates.
//!
//! The sampler is a self-contained deterministic xorshift generator so the
//! crate stays dependency-free and experiments stay reproducible.

/// A set of independent Bernoulli facts (tuple-level uncertainty).
#[derive(Debug, Clone, Default)]
pub struct UncertainFacts {
    probs: Vec<f64>,
}

/// One sampled world: which facts hold.
pub type World = Vec<bool>;

impl UncertainFacts {
    /// Empty fact set.
    pub fn new() -> Self {
        UncertainFacts { probs: Vec::new() }
    }

    /// Add a fact with marginal probability `p`; returns its index.
    pub fn add(&mut self, p: f64) -> usize {
        self.probs.push(p.clamp(0.0, 1.0));
        self.probs.len() - 1
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True if no facts have been added.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Marginal probability of fact `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// Sample one world.
    pub fn sample(&self, rng: &mut XorShift64) -> World {
        self.probs.iter().map(|&p| rng.next_f64() < p).collect()
    }
}

/// Minimal deterministic xorshift64* generator (not cryptographic; used only
/// for reproducible world sampling).
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded generator; a zero seed is remapped (xorshift requires nonzero state).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in [0, bound).
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0);
        (self.next_f64() * bound as f64) as usize % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Share of `n` worlds sampled from `seed` in which `query` holds.
    fn frequency(
        facts: &UncertainFacts,
        seed: u64,
        n: usize,
        query: impl Fn(&World) -> bool,
    ) -> f64 {
        let mut rng = XorShift64::new(seed);
        let hits = (0..n).filter(|_| query(&facts.sample(&mut rng))).count();
        hits as f64 / n as f64
    }

    #[test]
    fn marginal_frequencies_converge() {
        let mut facts = UncertainFacts::new();
        let i = facts.add(0.3);
        let est = frequency(&facts, 42, 20_000, |w| w[i]);
        assert!((est - 0.3).abs() < 0.02, "est={est}");
    }

    #[test]
    fn sampled_facts_are_independent() {
        let mut facts = UncertainFacts::new();
        let a = facts.add(0.5);
        let b = facts.add(0.5);
        let est = frequency(&facts, 7, 20_000, |w| w[a] && w[b]);
        assert!((est - 0.25).abs() < 0.02, "est={est}");
    }

    #[test]
    fn certain_facts_are_certain() {
        let mut facts = UncertainFacts::new();
        let t = facts.add(1.0);
        let f = facts.add(0.0);
        assert_eq!(frequency(&facts, 1, 100, |w| w[t]), 1.0);
        assert_eq!(frequency(&facts, 1, 100, |w| w[f]), 0.0);
    }

    #[test]
    fn sampling_is_deterministic_given_seed() {
        let mut facts = UncertainFacts::new();
        facts.add(0.5);
        let a = frequency(&facts, 123, 1000, |w| w[0]);
        let b = frequency(&facts, 123, 1000, |w| w[0]);
        assert_eq!(a, b);
    }

    #[test]
    fn xorshift_zero_seed_ok_and_in_range() {
        let mut rng = XorShift64::new(0);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
            let k = rng.next_below(7);
            assert!(k < 7);
        }
    }
}
