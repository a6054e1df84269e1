//! Scoped worker pool: the workspace's only source of data parallelism.
//!
//! Built on `std::thread::scope` alone (the workspace builds `--offline`;
//! no rayon). Every parallel primitive here partitions its work into
//! contiguous runs that are **independent of the thread count**: a worker
//! only changes *which* runs it executes, never how a run is computed or
//! in what order per-element arithmetic happens inside one run. Combined
//! with deterministic merges at the call sites, this is what makes every
//! result in the workspace bit-identical at 1, 2 or N threads.
//!
//! # Thread-count resolution
//!
//! [`max_threads`] resolves, in priority order:
//!
//! 1. a scoped override installed by [`with_threads`] (used by tests and
//!    by callers that know their own width, e.g. the streaming monitor),
//! 2. the `IMDIFF_THREADS` environment variable (`0` or unparsable values
//!    fall through),
//! 3. [`std::thread::available_parallelism`].
//!
//! # Granularity
//!
//! Spawning an OS thread costs tens of microseconds, so every primitive
//! takes a `grain`: the minimum number of work units per worker. Work
//! smaller than two grains runs inline on the caller's thread — the
//! single-core and tiny-shape paths never pay a spawn.

use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// Scoped override installed by [`with_threads`]; 0 means "no override".
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Upper bound on worker threads for the current scope.
///
/// Never returns 0. See the module docs for the resolution order.
pub fn max_threads() -> usize {
    let ov = THREAD_OVERRIDE.with(|c| c.get());
    if ov > 0 {
        return ov;
    }
    if let Ok(v) = std::env::var("IMDIFF_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    // `available_parallelism` is deliberately uncached by std (it re-reads
    // cgroup quota files on Linux), which costs ~15us per call — and this
    // runs on every pooled op dispatch. The machine's parallelism doesn't
    // change under us, so resolve it once.
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f` with the pool's thread count capped at `n` (min 1).
///
/// The override is scoped to the current thread and restored on exit
/// (including on panic), so nested overrides compose and tests can pin
/// the width without touching the process environment. Note that worker
/// threads spawned *inside* `f` do not inherit the override — parallel
/// primitives resolve their width once, on the calling thread, before
/// spawning, so this is invisible in practice.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.get());
    let _restore = Restore(prev);
    THREAD_OVERRIDE.with(|c| c.set(n.max(1)));
    f()
}

/// Splits `0..n` into at most `workers` contiguous ranges, every one but
/// the last of at least `grain` items: `n / grain` of them at most, so
/// work under two grains is one range and runs inline.
fn split_ranges(n: usize, grain: usize, workers: usize) -> Vec<Range<usize>> {
    let grain = grain.max(1);
    let workers = workers.max(1).min(n / grain).max(1);
    let per = n.div_ceil(workers);
    let mut out = Vec::with_capacity(workers);
    let mut s = 0;
    while s < n {
        let e = (s + per).min(n);
        out.push(s..e);
        s = e;
    }
    out
}

/// Parallel for over the index range `0..n`: calls `f` once per contiguous
/// sub-range, on up to [`max_threads`] workers, with at least `grain`
/// indices per worker. `f(range)` must only touch state owned by (or
/// sharded by) its range. Runs inline when one worker suffices.
pub fn parallel_for<F>(n: usize, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let budget = max_threads();
    let ranges = split_ranges(n, grain, budget);
    record_dispatch(&ranges);
    run_tasks(budget, ranges.len(), ranges.iter().cloned(), f);
}

/// Parallel map over `0..n`: like [`parallel_for`] but each index produces
/// a value, returned in index order. The per-index closure runs exactly
/// once per index regardless of thread count.
pub fn parallel_map<R, F>(n: usize, grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    {
        let slots = &mut out[..];
        parallel_slices_mut(slots, 1, grain, |start, run| {
            for (off, slot) in run.iter_mut().enumerate() {
                *slot = Some(f(start + off));
            }
        });
    }
    out.into_iter()
        .map(|s| s.expect("parallel_map filled every slot"))
        .collect()
}

/// Splits `data` — conceptually `data.len() / unit` fixed-size units —
/// into one contiguous run per worker (aligned to unit boundaries) and
/// calls `f(first_unit_index, run)` for each run in parallel. `grain` is
/// the minimum number of units per worker.
///
/// This is the mutation-side primitive: matmul shards output rows
/// (`unit = n`), attention shards the `S·C·D` slab of each leading index
/// `a` (its backward shards one `[dQ, dK, dV]` triple of slabs per unit),
/// convolution shards batch items (`unit = c_out * l_out`). The runs are
/// disjoint `&mut` slices, so no synchronisation is needed and the
/// arithmetic inside each unit is identical at any thread count.
pub fn parallel_slices_mut<T, F>(data: &mut [T], unit: usize, grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    parallel_slices_mut_with(data, None, unit, grain, |start, run, _| f(start, run));
}

/// [`parallel_slices_mut`] over `data` and, when given, a `side` buffer of
/// the same length sharded at the same unit boundaries: `f(first_unit,
/// run, side_run)`. The matmul epilogue writes its output and, for a
/// recorded tape, the pre-activation this way in one pass.
pub(crate) fn parallel_slices_mut_with<T, F>(
    data: &mut [T],
    side: Option<&mut [T]>,
    unit: usize,
    grain: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T], Option<&mut [T]>) + Sync,
{
    assert!(unit > 0, "unit must be positive");
    debug_assert_eq!(data.len() % unit, 0, "data not a whole number of units");
    assert!(side.as_ref().is_none_or(|s| s.len() == data.len()), "side buffer length mismatch");
    let units = data.len() / unit;
    if units == 0 {
        return;
    }
    let budget = max_threads();
    let ranges = split_ranges(units, grain, budget);
    record_dispatch(&ranges);
    let runs = ranges.iter().scan((data, side), |(rest, side_rest), r| {
        let len = r.len() * unit;
        let (run, tail) = std::mem::take(rest).split_at_mut(len);
        *rest = tail;
        let side_run = side_rest.take().map(|s| {
            let (head, tail) = s.split_at_mut(len);
            *side_rest = Some(tail);
            head
        });
        Some((r.start, run, side_run))
    });
    run_tasks(budget, ranges.len(), runs, |(start, run, side_run)| f(start, run, side_run));
}

/// The one dispatch core under every parallel primitive: runs `task` once
/// per item of `tasks` (`count` items, at least one). A single item runs
/// inline on the caller. Otherwise items 1.. each get a scoped thread and
/// the caller runs item 0, every worker with an equal share of the
/// thread budget — so nested primitives (e.g. matmul inside a
/// window-parallel chain) can still fan out when workers outnumber work,
/// but the total never exceeds the budget. Every run of a fanned-out
/// dispatch is one `pool.worker` span; an inline run opens none, so its
/// time stays charged to the op that dispatched it.
///
/// When the caller has buffer recycling active, worker `i` is lent the
/// arena list worker `i` of the caller's previous dispatch returned, so
/// a thread spawned per dispatch starts with warm buffers; the caller
/// keeps the lists until its outermost recycling scope exits.
fn run_tasks<W: Send>(
    budget: usize,
    count: usize,
    mut tasks: impl Iterator<Item = W>,
    task: impl Fn(W) + Sync,
) {
    let head = tasks.next().expect("at least one task");
    if count == 1 {
        task(head);
        return;
    }
    let worker = |w: W| {
        let _busy = crate::obs::span("pool.worker");
        task(w)
    };
    let inner = (budget / count).max(1);
    std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = tasks
            .enumerate()
            .map(|(slot, w)| {
                let lent = crate::arena::lend(slot);
                s.spawn(move || with_threads(inner, || crate::arena::run_lent(lent, || worker(w))))
            })
            .collect();
        with_threads(inner, || worker(head));
        for (slot, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(returned) => crate::arena::store_lent(slot, returned),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
}

/// Records dispatch telemetry for one parallel call: how many tasks were
/// produced and the size of each grain (in work units). Purely
/// observational — the partition in `ranges` is already fixed and is
/// never influenced by whether observability is enabled.
fn record_dispatch(ranges: &[Range<usize>]) {
    if !crate::obs::enabled() {
        return;
    }
    crate::obs::counter("pool.dispatches", 1);
    crate::obs::counter("pool.tasks", ranges.len() as u64);
    if ranges.len() == 1 {
        crate::obs::counter("pool.inline_runs", 1);
    }
    for r in ranges {
        crate::obs::histogram("pool.grain_units", (r.end - r.start) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = max_threads();
        with_threads(3, || {
            assert_eq!(max_threads(), 3);
            with_threads(1, || assert_eq!(max_threads(), 1));
            assert_eq!(max_threads(), 3);
        });
        assert_eq!(max_threads(), outer);
    }

    #[test]
    fn split_ranges_covers_exactly() {
        let cases = [(10, 1, 3), (7, 2, 8), (1, 5, 4), (100, 7, 5), (912, 512, 2), (1023, 512, 2)];
        for (n, grain, workers) in cases {
            let rs = split_ranges(n, grain, workers);
            assert_eq!(rs[0].start, 0);
            assert_eq!(rs.last().unwrap().end, n);
            for w in rs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            for r in &rs[..rs.len() - 1] {
                assert!(r.end - r.start >= grain, "{n}/{grain}/{workers}: {rs:?}");
            }
        }
        // Under two grains of work is one inline run.
        assert_eq!(split_ranges(912, 512, 2).len(), 1);
        assert_eq!(split_ranges(1023, 512, 2).len(), 1);
        assert_eq!(split_ranges(1024, 512, 2), [0..512, 512..1024]);
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        with_threads(4, || {
            parallel_for(97, 1, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = with_threads(4, || parallel_map(33, 1, |i| i * i));
        assert_eq!(out, (0..33).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_slices_mut_partitions_disjointly() {
        let mut data = vec![0usize; 12 * 5];
        with_threads(4, || {
            parallel_slices_mut(&mut data, 5, 1, |start, run| {
                for (off, v) in run.iter_mut().enumerate() {
                    *v = (start * 5 + off) + 1;
                }
            });
        });
        assert_eq!(data, (1..=60).collect::<Vec<_>>());
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let reference: Vec<usize> = (0..50).map(|i| i * 3 + 1).collect();
        for t in [1, 2, 5, 16] {
            let got = with_threads(t, || parallel_map(50, 2, |i| i * 3 + 1));
            assert_eq!(got, reference, "threads={t}");
        }
    }
}
