//! The precompiled fusion kernel: the ER-kernel treatment for the fuse
//! stage.
//!
//! [`fuse_attribute`](crate::strategies::fuse_attribute) is correct but
//! recomputes strategy state per claim per slot: `TrustAndFreshness`
//! evaluates `exp(-age/half_life)` for every member of every agreement
//! class, and every slot re-derives the same per-source trust lookups. With
//! tens of thousands of slots over the same handful of sources, that is the
//! fuse-stage analogue of the ER bug PR 4 fixed — per-item recomputation of
//! pass-invariant state.
//!
//! [`FuseKernel::compile`] hoists everything that depends only on
//! `(strategy, SourceContext)` out of the slot loop: one weight and one
//! freshness-decay value per source, computed once per pass with exactly the
//! same floating-point expressions `fuse_attribute` uses, in the same order.
//! Per-slot fusion then reads the arrays — and the claim set's
//! [`ClaimIndex`], where each slot's agreement classes were grouped once for
//! the whole pass (truth discovery reads the same grouping), so fusing a
//! slot sums weights over flat ranges and clones only the winning value.
//! Because the arithmetic is identical operation-for-operation, kernel
//! output is **bit-identical** to `fuse_attribute` (property-tested via
//! `f64::to_bits`).
//!
//! Parallelism uses the shared blocked worker pool
//! ([`wrangler_table::par`]): contiguous slot chunks, reassembled in chunk
//! order, so [`FuseKernel::fuse_slots_parallel`] returns byte-identical
//! output for any worker count. Pool width goes through
//! [`effective_workers`] with [`MIN_SLOTS_PER_WORKER`], so small claim sets
//! never pay thread-spawn overhead; `_exact` variants bypass the sizing
//! policy for tests and benchmarks that need a specific width.

use wrangler_table::par::{self, effective_workers};
use wrangler_table::{TableError, Value};

pub use wrangler_table::par::WorkerStat;

use crate::claims::{values_agree, ClaimIndex, ClaimSet};
use crate::strategies::{FusedValue, SourceContext, Strategy};

/// Below this many slots per worker, fan-out costs more than it saves.
///
/// Measured where the policy earns or loses its keep: the pipeline's own
/// fuse loop (the `wrangle/fuse/kernel` span of whole passes at one fuse
/// worker and at two; 2-core VM, release build, 10-source fleets of 500 to
/// 3,200 products; minimum and median of 9 passes, the sweep run twice, with
/// this floor still at 1024, where every one of those fleets fans out). A
/// plain slot costs 120–150 ns there, and a fan-out some 250 µs before the
/// first slot is saved: two spawns onto cores the rest of the pass left
/// idle, two joins, every result crossing threads.
/// Two workers over one read 1.22–1.32 at 1,343 slots each, 1.06–1.20 at
/// 2,004, 0.91–1.05 at 2,784, 0.86–0.95 at 4,192, 0.81–0.85 at 5,368 and
/// 0.74–0.83 at 8,550. 4096 is the smallest power of two at which fanning
/// out is a measured win rather than a coin toss.
///
/// The kernel alone, re-run warm in a loop, flatters fan-out — its threads
/// land on cores that were busy a moment ago — and breaks even at about a
/// third of that: `e14_er_scaling` prints both, a two-workers-regardless
/// column either side of the floor and the pipeline's span on the first
/// fleet over it.
pub const MIN_SLOTS_PER_WORKER: usize = 4096;

/// A fusion pass compiled against one `(strategy, SourceContext)` pair.
///
/// Borrows the claim set; the context is copied into flat per-source
/// arrays at compile time, so the kernel is `Sync` and workers share it
/// read-only.
#[derive(Debug)]
pub struct FuseKernel<'a> {
    claims: &'a ClaimSet,
    /// `claims`' own grouping, shared with truth discovery.
    index: &'a ClaimIndex,
    strategy: Strategy,
    /// Per-source vote weight under `strategy` (unit for `MajorityVote`
    /// and `Latest`), precomputed with `fuse_attribute`'s expressions.
    weight: Vec<f64>,
    /// Per-source freshness decay `exp(-age/half_life)` (`1.0` for
    /// strategies that do not reason about time).
    decay: Vec<f64>,
    /// Per-source age in ticks (drives `Latest`).
    age: Vec<u64>,
}

impl<'a> FuseKernel<'a> {
    /// Precompile per-source weights and decays for one fusion pass.
    pub fn compile(claims: &'a ClaimSet, strategy: Strategy, ctx: &SourceContext) -> FuseKernel<'a> {
        let n = claims.num_sources();
        let mut weight = Vec::with_capacity(n);
        let mut decay = Vec::with_capacity(n);
        let mut age = Vec::with_capacity(n);
        for s in 0..n {
            // Exactly fuse_attribute's weight_of / freshness expressions, so
            // every f64 is bit-identical to the uncompiled path.
            let d = match strategy {
                Strategy::TrustAndFreshness { half_life } => {
                    (-(ctx.age_of(s) as f64) / half_life.max(1e-9)).exp()
                }
                _ => 1.0,
            };
            let w = match strategy {
                Strategy::MajorityVote | Strategy::Latest => 1.0,
                Strategy::TrustWeighted => ctx.trust_of(s),
                Strategy::TrustAndFreshness { .. } => ctx.trust_of(s) * d,
            };
            weight.push(w);
            decay.push(d);
            age.push(ctx.age_of(s));
        }
        FuseKernel {
            claims,
            index: claims.index(),
            strategy,
            weight,
            decay,
            age,
        }
    }

    /// The claim set this kernel was compiled against.
    pub fn claims(&self) -> &ClaimSet {
        self.claims
    }

    /// Resolve one slot, bit-identical to
    /// [`fuse_attribute`](crate::strategies::fuse_attribute) with the
    /// compiled strategy and context. Returns `None` when the slot has no
    /// claims.
    pub fn fuse_slot(&self, entity: usize, attr: usize) -> Option<FusedValue> {
        self.fuse_slot_no(self.index.slot_no(entity, attr)?)
    }

    /// [`Self::fuse_slot`] for the `slot`-th entry of the claim index's
    /// [`slots`](ClaimIndex::slots): what a caller walking the index already
    /// has, and `fuse_slot` spends a third of a plain slot's cost searching
    /// for. Panics when there is no such slot.
    pub fn fuse_slot_no(&self, slot: usize) -> Option<FusedValue> {
        self.fuse_indexed(self.index, slot)
    }

    /// [`Self::fuse_slot`] as if the claims agreeing with any of `vetoed`
    /// had never been made: bit-identical to `fuse_attribute` over the claim
    /// set without them. The surviving claims are classed afresh — dropping
    /// whole classes instead would differ whenever a vetoed claim was the
    /// representative that held a tolerance class together.
    pub fn fuse_slot_without(
        &self,
        entity: usize,
        attr: usize,
        vetoed: &[Value],
    ) -> Option<FusedValue> {
        let slot = self.index.slot_no(entity, attr)?;
        let claims = self.claims.claims();
        let kept: Vec<u32> = self
            .index
            .claim_ids(slot)
            .iter()
            .copied()
            .filter(|&id| {
                !vetoed
                    .iter()
                    .any(|v| values_agree(v, &claims[id as usize].value, self.claims.rel_tol()))
            })
            .collect();
        if kept.is_empty() {
            return None;
        }
        let survivors = ClaimIndex::group(claims, kept, self.claims.rel_tol());
        self.fuse_indexed(&survivors, 0)
    }

    /// Fuse slot number `slot` of `index` (an index over this kernel's claim
    /// set). Same expressions, same order as `fuse_attribute`: a class's
    /// weight is the sum over its supporters in insertion order, the total
    /// accumulates class by class, and a strict `>` keeps the earlier class.
    fn fuse_indexed(&self, index: &ClaimIndex, slot: usize) -> Option<FusedValue> {
        let claims = self.claims.claims();
        if let Strategy::Latest = self.strategy {
            let freshest = index
                .claim_ids(slot)
                .iter()
                .map(|&id| &claims[id as usize])
                .min_by_key(|c| (self.age[c.source], c.source))?;
            return Some(FusedValue {
                value: freshest.value.clone(),
                weight: 1.0,
                total_weight: 1.0,
                supporters: vec![freshest.source],
                freshness: 1.0,
            });
        }
        let mut total = 0.0;
        let mut best: Option<(f64, usize)> = None;
        for class in index.classes(slot) {
            let w: f64 = index
                .supporters(class)
                .iter()
                .map(|&s| self.weight[s as usize])
                .sum();
            total += w;
            // Deterministic tie-break: keep the earlier class (source order).
            if best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, class));
            }
        }
        let (weight, class) = best?;
        let supporters: Vec<usize> = index
            .supporters(class)
            .iter()
            .map(|&s| s as usize)
            .collect();
        let freshness = match self.strategy {
            Strategy::TrustAndFreshness { .. } => supporters
                .iter()
                .map(|&s| self.decay[s])
                .fold(0.0f64, f64::max),
            _ => 1.0,
        };
        Some(FusedValue {
            value: claims[index.class_rep(class)].value.clone(),
            weight,
            total_weight: total,
            supporters,
            freshness,
        })
    }

    /// Serial reference: fuse every slot in order.
    pub fn fuse_slots(&self, slots: &[(usize, usize)]) -> Vec<Option<FusedValue>> {
        slots.iter().map(|&(e, a)| self.fuse_slot(e, a)).collect()
    }

    /// Parallel [`Self::fuse_slots`] over contiguous blocked chunks:
    /// identical output for any worker count, plus per-worker stats. The
    /// requested width goes through the pool-sizing policy
    /// ([`effective_workers`] with [`MIN_SLOTS_PER_WORKER`]).
    pub fn fuse_slots_parallel(
        &self,
        slots: &[(usize, usize)],
        workers: usize,
    ) -> wrangler_table::Result<(Vec<Option<FusedValue>>, Vec<WorkerStat>)> {
        self.fuse_slots_parallel_exact(
            slots,
            effective_workers(workers, slots.len(), MIN_SLOTS_PER_WORKER),
        )
    }

    /// [`Self::fuse_slots_parallel`] with an exact pool width (no sizing
    /// policy): spawns `min(workers, slots.len())` threads. For tests and
    /// benchmarks that must drive real multi-thread reassembly regardless
    /// of batch size or machine width.
    pub fn fuse_slots_parallel_exact(
        &self,
        slots: &[(usize, usize)],
        workers: usize,
    ) -> wrangler_table::Result<(Vec<Option<FusedValue>>, Vec<WorkerStat>)> {
        let (chunks, stats) = par::run_blocked(slots, workers, |_, chunk| {
            chunk
                .iter()
                .map(|&(e, a)| self.fuse_slot(e, a))
                .collect::<Vec<Option<FusedValue>>>()
        })
        .map_err(|msg| TableError::Unavailable(format!("fuse worker panicked: {msg}")))?;
        let mut fused = Vec::with_capacity(slots.len());
        for chunk in chunks {
            fused.extend(chunk);
        }
        Ok((fused, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::fuse_attribute;

    fn scenario() -> (ClaimSet, SourceContext) {
        let mut cs = ClaimSet::new(4);
        cs.set_rel_tol(1e-6);
        for s in 0..3 {
            cs.add(0, 0, Value::Float(10.0), s);
        }
        cs.add(0, 0, Value::Float(12.0), 3);
        cs.add(0, 1, "acme".into(), 0);
        cs.add(0, 1, "Acme ".into(), 2);
        cs.add(1, 0, Value::Int(7), 1);
        let ctx = SourceContext {
            trust: vec![0.6, 0.6, 0.6, 0.9],
            age: vec![9, 9, 9, 0],
        };
        (cs, ctx)
    }

    fn strategies() -> Vec<Strategy> {
        vec![
            Strategy::MajorityVote,
            Strategy::Latest,
            Strategy::TrustWeighted,
            Strategy::TrustAndFreshness { half_life: 3.0 },
        ]
    }

    #[test]
    fn kernel_is_bit_identical_to_fuse_attribute() {
        let (cs, ctx) = scenario();
        for strategy in strategies() {
            let kernel = FuseKernel::compile(&cs, strategy, &ctx);
            for (e, a) in cs.slots().into_iter().chain([(9, 9)]) {
                let reference = fuse_attribute(&cs, e, a, strategy, &ctx);
                let fused = kernel.fuse_slot(e, a);
                match (reference, fused) {
                    (None, None) => {}
                    (Some(r), Some(k)) => {
                        assert_eq!(r.value, k.value, "{strategy:?} slot ({e},{a})");
                        assert_eq!(r.supporters, k.supporters);
                        assert_eq!(r.weight.to_bits(), k.weight.to_bits());
                        assert_eq!(r.total_weight.to_bits(), k.total_weight.to_bits());
                        assert_eq!(r.freshness.to_bits(), k.freshness.to_bits());
                    }
                    (r, k) => panic!("{strategy:?} slot ({e},{a}): {r:?} vs {k:?}"),
                }
            }
        }
    }

    #[test]
    fn parallel_equals_serial_for_any_worker_count() {
        let (cs, ctx) = scenario();
        let kernel =
            FuseKernel::compile(&cs, Strategy::TrustAndFreshness { half_life: 3.0 }, &ctx);
        let slots = cs.slots();
        let serial = kernel.fuse_slots(&slots);
        for workers in 1..=slots.len() + 2 {
            let (par, stats) = kernel.fuse_slots_parallel_exact(&slots, workers).unwrap();
            assert_eq!(par, serial, "workers = {workers}");
            assert_eq!(
                stats.iter().map(|s| s.items).sum::<u64>(),
                slots.len() as u64
            );
            assert_eq!(stats.len(), workers.min(slots.len()));
            assert!(stats.iter().all(|s| s.items > 0), "idle worker");
        }
    }

    #[test]
    fn pool_sizing_keeps_tiny_batches_serial() {
        // One slot short of two workers' worth stays serial however many
        // workers are asked for; the full two workers' worth fans out
        // wherever there is a second core.
        let mut cs = ClaimSet::new(2);
        for e in 0..2 * MIN_SLOTS_PER_WORKER {
            cs.add(e, 0, Value::Int(e as i64), e % 2);
        }
        let kernel = FuseKernel::compile(&cs, Strategy::MajorityVote, &SourceContext::default());
        let slots = cs.slots();
        let (short, full) = (&slots[..slots.len() - 1], &slots[..]);
        let (fused, stats) = kernel.fuse_slots_parallel(short, 8).unwrap();
        assert_eq!(fused, kernel.fuse_slots(short));
        assert_eq!(stats.len(), 1, "a batch this small must stay serial");
        let (fused, stats) = kernel.fuse_slots_parallel(full, 8).unwrap();
        assert_eq!(fused, kernel.fuse_slots(full));
        assert_eq!(stats.len(), par::available_parallelism().min(2));
    }

    #[test]
    fn empty_slot_list_is_fine() {
        let (cs, ctx) = scenario();
        let kernel = FuseKernel::compile(&cs, Strategy::MajorityVote, &ctx);
        let (fused, stats) = kernel.fuse_slots_parallel(&[], 4).unwrap();
        assert!(fused.is_empty() && stats.is_empty());
    }
}
