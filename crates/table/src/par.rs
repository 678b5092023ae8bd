//! The deterministic blocked worker pool shared by the compute kernels.
//!
//! Three places in the pipeline fan CPU-bound, per-item work across threads:
//! schema-matching generation, ER pair scoring and slot fusion. All three
//! need the same three guarantees, so they share this module:
//!
//! 1. **Determinism.** Work is split into *contiguous blocked chunks* —
//!    worker `w` takes `items[start_w .. start_w + len_w]` — and results are
//!    reassembled in chunk order, so output is a pure function of the input
//!    for any worker count and any scheduling.
//! 2. **Locality.** Blocked chunks keep each worker walking adjacent items.
//!    The strided pickup this module replaced (worker `w` takes items
//!    `w, w+workers, …`) interleaved every worker through the whole range,
//!    so precompiled per-row cells were evicted and refetched across
//!    workers; BENCH_e14 measured the result as *negative* scaling (8
//!    workers 42% slower than 1 at 40 sources). Chunks are balanced to
//!    within one item (the first `len % workers` chunks take one extra), so
//!    no worker idles while another holds two chunks' worth.
//! 3. **Sized to the work.** [`effective_workers`] refuses counterproductive
//!    pool widths: never more threads than addressable cores (oversubscribed
//!    CPU-bound threads only add scheduling overhead) and never fewer than
//!    `min_items_per_worker` items per thread (a tiny batch must not pay a
//!    thread spawn per fraction of a millisecond of work).
//!
//! The module also hosts [`catch_quiet`], the panic-to-message adapter the
//! containment layer and the kernels use for per-item isolation — here
//! because the kernels in leaf crates (`wrangler-resolve`,
//! `wrangler-fusion`) need it and must not depend on `wrangler-core`.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::Instant;

/// Per-worker accounting of one parallel pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Items this worker processed.
    pub items: u64,
    /// Wall-clock the worker spent busy, in nanoseconds (honest timing —
    /// nondeterministic, feed it only to the timing half of telemetry).
    pub busy_nanos: u128,
}

/// Number of hardware threads the process may use (cgroup/affinity aware),
/// with a serial fallback when the platform cannot say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split `0..len` into at most `workers` contiguous, non-empty, in-order
/// ranges balanced to within one item: the first `len % workers` ranges are
/// one longer. `len == 0` yields no ranges; `workers` above `len` is capped,
/// so a spawned worker always has work.
pub fn blocked_ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, len);
    let base = len / workers;
    let extra = len % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let chunk = base + usize::from(w < extra);
        out.push(start..start + chunk);
        start += chunk;
    }
    out
}

/// Resolve a requested pool width into the width actually worth spawning:
/// at most one thread per addressable core (an oversubscribed CPU-bound
/// pool cannot go faster than the cores it has — it only adds scheduling
/// overhead, the flat-to-negative half of the old E14 curve), and at least
/// `min_items_per_worker` items per thread (below that, spawn latency
/// outweighs the work). Always at least 1. Output of a kernel never depends
/// on this value — it is a pure wall-clock policy.
pub fn effective_workers(requested: usize, items: usize, min_items_per_worker: usize) -> usize {
    let by_load = items / min_items_per_worker.max(1);
    requested
        .max(1)
        .min(available_parallelism())
        .min(by_load.max(1))
        .min(items.max(1))
}

/// Run `chunk_fn` over contiguous blocked chunks of `items` on exactly
/// `min(workers, items.len())` scoped threads and return the per-chunk
/// results **in chunk order** (= item order) plus per-worker stats.
///
/// `chunk_fn(start, chunk)` receives the chunk's offset into `items` and the
/// chunk itself. Reassembly is by chunk index, so the output is identical
/// for any worker count. A panicking worker surfaces as `Err(message)` —
/// callers that need per-item isolation catch inside `chunk_fn` (see
/// [`catch_quiet`]) so one poisonous item cannot take down its chunk.
pub fn run_blocked<T, C>(
    items: &[T],
    workers: usize,
    chunk_fn: impl Fn(usize, &[T]) -> C + Sync,
) -> Result<(Vec<C>, Vec<WorkerStat>), String>
where
    T: Sync,
    C: Send,
{
    // A slice of `()` occupies no memory: this is `run_blocked_into` with
    // nothing to write into.
    let mut unit = vec![(); items.len()];
    run_blocked_into(items, &mut unit, workers, |start, chunk, _| {
        chunk_fn(start, chunk)
    })
}

/// [`run_blocked`] for kernels that produce one output per item: `out` (one
/// slot per item) is split along the same chunk boundaries and each worker
/// writes its results in place, so a million-item pass allocates its output
/// once instead of once per chunk plus once to concatenate.
/// `chunk_fn(start, chunk, out_chunk)` sees `out[start..start + chunk.len()]`.
pub fn run_blocked_into<T, U, C>(
    items: &[T],
    out: &mut [U],
    workers: usize,
    chunk_fn: impl Fn(usize, &[T], &mut [U]) -> C + Sync,
) -> Result<(Vec<C>, Vec<WorkerStat>), String>
where
    T: Sync,
    U: Send,
    C: Send,
{
    assert_eq!(items.len(), out.len(), "one output slot per item");
    let ranges = blocked_ranges(items.len(), workers);
    if ranges.len() <= 1 {
        // Serial fast path: no spawn, same arithmetic, same output.
        let started = Instant::now();
        let results = ranges
            .into_iter()
            .map(|r| chunk_fn(r.start, &items[r], &mut *out))
            .collect::<Vec<C>>();
        let stats = vec![WorkerStat {
            items: items.len() as u64,
            busy_nanos: started.elapsed().as_nanos(),
        }];
        return Ok((results, if items.is_empty() { Vec::new() } else { stats }));
    }
    let chunk_fn = &chunk_fn;
    // Join EVERY handle before reporting the first failure: leaving a second
    // panicked handle unjoined would make the scope itself panic on exit.
    let joined: Vec<Result<(C, u64, u128), String>> = std::thread::scope(|scope| {
        let mut rest = out;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let (out_chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
                rest = tail;
                scope.spawn(move || {
                    let started = Instant::now();
                    let result = chunk_fn(r.start, &items[r.clone()], out_chunk);
                    (result, r.len() as u64, started.elapsed().as_nanos())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|payload| panic_message(&*payload)))
            .collect()
    });
    let mut results = Vec::with_capacity(joined.len());
    let mut stats = Vec::with_capacity(joined.len());
    for j in joined {
        let (result, items, busy_nanos) = j?;
        results.push(result);
        stats.push(WorkerStat { items, busy_nanos });
    }
    Ok((results, stats))
}

thread_local! {
    static MUTE_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static HOOK_INIT: Once = Once::new();

/// Install (once) a panic hook that suppresses output for panics caught by
/// [`catch_quiet`], delegating everything else to the previous hook. The
/// mute flag is thread-local, so concurrent workers catching their own
/// panics never silence an unrelated thread's.
fn install_quiet_hook() {
    HOOK_INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !MUTE_PANICS.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Run `f`, catching any panic and returning its message as `Err`. The
/// default hook is muted for the duration so caught panics do not spray
/// backtraces over experiment output.
pub fn catch_quiet<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    MUTE_PANICS.with(|m| m.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    MUTE_PANICS.with(|m| m.set(false));
    result.map_err(|payload| panic_message(&*payload))
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_ranges_cover_in_order_balanced() {
        for len in 0..40usize {
            for workers in 1..10usize {
                let ranges = blocked_ranges(len, workers);
                if len == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges.len(), workers.min(len), "len={len} w={workers}");
                // Contiguous, in order, covering 0..len, no empty chunk.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len);
                // Balanced to within one item.
                let min = ranges.iter().map(|r| r.len()).min().unwrap();
                let max = ranges.iter().map(|r| r.len()).max().unwrap();
                assert!(max - min <= 1, "len={len} w={workers} min={min} max={max}");
            }
        }
    }

    #[test]
    fn blocked_ranges_never_idle_a_worker() {
        // The ceil-chunking bug this replaces: 5 items / 4 workers must give
        // every worker something (2,1,1,1), not chunks of 2 with one idle.
        let ranges = blocked_ranges(5, 4);
        assert_eq!(ranges.len(), 4);
        assert!(ranges.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn effective_workers_is_clamped_and_thresholded() {
        let cores = available_parallelism();
        // Never above cores, never above items, never zero.
        assert_eq!(effective_workers(8, 0, 1), 1);
        assert!(effective_workers(8, 3, 1) <= 3);
        assert!(effective_workers(64, 10_000, 1) <= cores);
        assert_eq!(effective_workers(0, 100, 1), 1);
        // The minimum-items threshold keeps tiny batches serial.
        assert_eq!(effective_workers(8, 100, 512), 1);
        assert!(effective_workers(8, 1024, 512) <= 2);
        assert!(effective_workers(8, 1 << 20, 512) >= 1);
    }

    #[test]
    fn run_blocked_preserves_item_order_and_counts() {
        let items: Vec<usize> = (0..37).collect();
        for workers in 1..9 {
            let (chunks, stats) = run_blocked(&items, workers, |start, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(k, &x)| {
                        assert_eq!(x, start + k, "chunk offset lines up with items");
                        x * 2
                    })
                    .collect::<Vec<usize>>()
            })
            .unwrap();
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            let expect: Vec<usize> = items.iter().map(|&x| x * 2).collect();
            assert_eq!(flat, expect, "workers={workers}");
            assert_eq!(
                stats.iter().map(|s| s.items).sum::<u64>(),
                items.len() as u64
            );
            assert!(stats.iter().all(|s| s.items > 0), "idle worker");
        }
    }

    #[test]
    fn run_blocked_into_writes_each_chunk_in_place() {
        let items: Vec<usize> = (0..37).collect();
        for workers in 1..9 {
            let mut out = vec![0usize; items.len()];
            let (lens, stats) = run_blocked_into(&items, &mut out, workers, |start, chunk, out| {
                assert_eq!(chunk.len(), out.len(), "slices split on the same bounds");
                for (k, (&x, slot)) in chunk.iter().zip(out.iter_mut()).enumerate() {
                    assert_eq!(x, start + k);
                    *slot = x * 3;
                }
                chunk.len()
            })
            .unwrap();
            assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
            assert_eq!(lens.iter().sum::<usize>(), items.len(), "workers={workers}");
            assert_eq!(stats.len(), workers.min(items.len()));
        }
    }

    #[test]
    fn run_blocked_empty_input_spawns_nothing() {
        let (chunks, stats) = run_blocked(&[] as &[u8], 4, |_, _| 0u8).unwrap();
        assert!(chunks.is_empty() && stats.is_empty());
    }

    #[test]
    fn run_blocked_worker_panic_is_a_message() {
        // Mute the hook on the panicking worker so the test log stays clean
        // (the mute flag is thread-local, exactly like catch_quiet's).
        install_quiet_hook();
        let items = [1, 2, 3, 4];
        let err = run_blocked(&items, 2, |start, _| {
            if start > 0 {
                MUTE_PANICS.with(|m| m.set(true));
                panic!("boom at {start}");
            }
            0
        })
        .unwrap_err();
        assert!(err.contains("boom"), "{err}");
    }

    #[test]
    fn catch_quiet_returns_value_or_message() {
        assert_eq!(catch_quiet(|| 42), Ok(42));
        let err = catch_quiet(|| -> i32 { panic!("boom {}", 7) }).unwrap_err();
        assert!(err.contains("boom 7"));
        // The hook survives and later successes are unaffected.
        assert_eq!(catch_quiet(|| "fine"), Ok("fine"));
    }
}
