//! Thread-local buffer arena: recycled `Vec<f32>` storage for op outputs,
//! autodiff tape buffers and gradients.
//!
//! Every op output and every backward-closure gradient is a short-lived
//! buffer. Inside a recycling scope ([`crate::recycling`], which
//! [`crate::forward_only`] and the trainer open) those buffers are
//! *recycled* instead of freed: when a tape node or a detached op output
//! is dropped, when a gradient is cleared, and when `backward` has run a
//! node's closure, the storage returns to a per-thread free list. The
//! next request of the same capacity reuses it.
//!
//! A request names one of two contracts:
//!
//! - [`zeroed`] hands back a zero-filled buffer, identical to
//!   `vec![0.0; n]` bit for bit. Accumulators take it: gradient sums,
//!   `+=` targets, the Scalar matmul.
//! - [`overwrite`] hands back a buffer whose contents are whatever its
//!   last user left, for an output the caller writes in full before
//!   anything reads it. It skips the fill, so each element is written
//!   once. The stale values are initialised `f32`s, so this needs no
//!   `unsafe`. In debug builds the buffer is filled with the NaN
//!   [`POISON`] instead, fresh or recycled, so an element an op forgets
//!   to write shows up in any debug test run.
//!
//! A buffer is reused only for a request of exactly its capacity, so a
//! large buffer never serves a small request, and the list parks at most
//! `MAX_PARKED_ELEMS` elements per thread; past that a buffer is freed.
//! Only storage the arena handed out comes back to it (caller-built
//! leaves and parameters never do), so a thread parks no more buffers of
//! a size than it once had in use at the same time.
//!
//! The arena never changes what any op computes, only where the bytes
//! live. It is thread-local because tensors are `Rc`-based and never
//! cross threads. A pool worker is a new thread on every dispatch, so
//! while the dispatching thread has the arena active, each worker slot is
//! lent the list its previous worker returned (see `crate::pool`). The
//! thread's own list and every list it holds for its workers are dropped
//! when its outermost scope exits, so no memory is held between calls.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Most elements (64 MiB of `f32`) one thread keeps parked, counting
/// capacity; a buffer that would pass it is freed instead.
const MAX_PARKED_ELEMS: usize = 1 << 24;
/// Largest buffer (in elements) worth recycling; bigger ones are freed.
const MAX_BUFFER_ELEMS: usize = 1 << 22;

/// One thread's parked buffers, keyed by exact capacity. The map is
/// ordered, not hashed, so the buffers are freed in the same order in
/// every process and the heap a fit leaves behind does not depend on a
/// random hash seed.
#[derive(Default)]
pub(crate) struct Parked {
    by_capacity: BTreeMap<usize, Vec<Vec<f32>>>,
    elems: usize,
}

impl Parked {
    fn take(&mut self, n: usize) -> Option<Vec<f32>> {
        let buf = self.by_capacity.get_mut(&n)?.pop()?;
        self.elems -= n;
        Some(buf)
    }

    fn park(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if self.elems + cap <= MAX_PARKED_ELEMS {
            self.elems += cap;
            self.by_capacity.entry(cap).or_default().push(buf);
        }
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.elems == 0
    }

    fn clear(&mut self) {
        self.by_capacity.clear();
        self.elems = 0;
    }
}

thread_local! {
    /// Nesting depth of active recycling scopes; 0 = inactive.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
    static FREE: RefCell<Parked> = RefCell::new(Parked::default());
    /// The lists this thread's pool workers returned, by worker slot.
    static LENT: RefCell<Vec<Parked>> = const { RefCell::new(Vec::new()) };
}

/// Whether a recycling scope is active on this thread.
pub(crate) fn active() -> bool {
    DEPTH.with(|d| d.get()) > 0
}

/// Runs `f` with buffer recycling active on this thread. Nesting composes;
/// the free list and the lent lists are released when the outermost scope
/// exits (including on panic), so arenas never pin memory across calls.
pub(crate) fn scope<T>(f: impl FnOnce() -> T) -> T {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            let depth = DEPTH.with(|d| {
                let v = d.get() - 1;
                d.set(v);
                v
            });
            if depth == 0 {
                FREE.with(|p| p.borrow_mut().clear());
                LENT.with(|l| l.borrow_mut().clear());
            }
        }
    }
    DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = Guard;
    f()
}

/// What a debug build fills an [`overwrite`] buffer with: a quiet NaN
/// with a payload no arithmetic produces, so an unwritten element
/// propagates through every later op and is easy to spot.
pub(crate) const POISON: f32 = f32::from_bits(0x7fc0_dead);

/// A parked buffer of capacity `n`, when the arena is active and holds
/// one.
fn reuse(n: usize) -> Option<Vec<f32>> {
    if active() && n <= MAX_BUFFER_ELEMS {
        FREE.with(|p| p.borrow_mut().take(n))
    } else {
        None
    }
}

/// A zero-filled buffer of exactly `n` elements: recycled when the arena
/// is active and a parked buffer has capacity `n`, freshly allocated
/// otherwise. Identical to `vec![0.0; n]` in every observable way.
pub(crate) fn zeroed(n: usize) -> Vec<f32> {
    match reuse(n) {
        Some(mut buf) => {
            buf.clear();
            buf.resize(n, 0.0);
            buf
        }
        None => vec![0.0f32; n],
    }
}

/// A buffer of exactly `n` elements for the caller to overwrite in full:
/// a recycled one keeps its old contents (no fill), a fresh one is
/// `vec![0.0; n]`. Debug builds fill either with [`POISON`].
pub(crate) fn overwrite(n: usize) -> Vec<f32> {
    let fill = if cfg!(debug_assertions) { POISON } else { 0.0 };
    match reuse(n) {
        Some(mut buf) => {
            if cfg!(debug_assertions) {
                buf.fill(fill);
            }
            // A no-op for the usual buffer, whose length is its capacity.
            buf.resize(n, fill);
            buf
        }
        None => vec![fill; n],
    }
}

/// Parks a no-longer-needed buffer for reuse. No-op when the arena is
/// inactive or full, or the buffer is empty or oversized — the buffer is
/// then freed normally.
pub(crate) fn recycle(buf: Vec<f32>) {
    if !active() || buf.capacity() == 0 || buf.capacity() > MAX_BUFFER_ELEMS {
        return;
    }
    FREE.with(|p| p.borrow_mut().park(buf));
}

/// An arena buffer that an op's backward keeps from its forward (a saved
/// pre-activation): parked again when it drops with the tape node that
/// owns the closure.
pub(crate) struct Saved(pub(crate) Vec<f32>);

impl Drop for Saved {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.0));
    }
}

impl std::ops::Deref for Saved {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.0
    }
}

/// The list to lend a new worker thread for pool slot `slot`: what that
/// slot's previous worker returned, empty the first time. `None` when the
/// arena is inactive here, so the worker runs without one.
pub(crate) fn lend(slot: usize) -> Option<Parked> {
    if !active() {
        return None;
    }
    Some(LENT.with(|l| {
        l.borrow_mut()
            .get_mut(slot)
            .map(std::mem::take)
            .unwrap_or_default()
    }))
}

/// Runs `f` on a fresh worker thread. With a `lent` list, `f` runs with
/// it as this thread's parked buffers and the arena active, and the list
/// is returned as `f` left it.
pub(crate) fn run_lent(lent: Option<Parked>, f: impl FnOnce()) -> Option<Parked> {
    let Some(list) = lent else {
        f();
        return None;
    };
    debug_assert!(!active(), "a lent list goes to a fresh thread");
    FREE.with(|p| *p.borrow_mut() = list);
    scope(|| {
        f();
        Some(FREE.with(|p| std::mem::take(&mut *p.borrow_mut())))
    })
}

/// Keeps the list a worker returned for the next worker in `slot`.
pub(crate) fn store_lent(slot: usize, returned: Option<Parked>) {
    let Some(list) = returned else { return };
    LENT.with(|l| {
        let mut lent = l.borrow_mut();
        if lent.len() <= slot {
            lent.resize_with(slot + 1, Parked::default);
        }
        lent[slot] = list;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_outside_scope() {
        assert!(!active());
        let v = zeroed(8);
        assert_eq!(v, vec![0.0; 8]);
        recycle(v); // must be a no-op
        FREE.with(|p| assert!(p.borrow().is_empty()));
    }

    #[test]
    fn recycles_inside_scope_and_clears_on_exit() {
        scope(|| {
            assert!(active());
            let mut v = zeroed(16);
            v.iter_mut().for_each(|x| *x = 7.0);
            let cap = v.capacity();
            recycle(v);
            // The recycled buffer comes back zeroed, not with stale data.
            let w = zeroed(16);
            assert!(w.capacity() >= 16 && w.iter().all(|&x| x == 0.0));
            assert_eq!(w.capacity(), cap, "expected buffer reuse");
            recycle(w);
        });
        assert!(!active());
        FREE.with(|p| assert!(p.borrow().is_empty()));
    }

    /// The bits of every element of `v` equal those of `x`.
    fn all_bits(v: &[f32], x: f32) -> bool {
        v.iter().all(|e| e.to_bits() == x.to_bits())
    }

    #[cfg(debug_assertions)]
    #[test]
    fn debug_overwrite_buffers_hold_the_poison() {
        assert!(POISON.is_nan());
        // Fresh, outside a scope and inside one.
        assert!(all_bits(&overwrite(8), POISON));
        scope(|| {
            assert!(all_bits(&overwrite(16), POISON));
            let mut v = zeroed(16);
            v.fill(7.0);
            recycle(v);
            // Recycled: the stale values are poisoned over.
            let w = overwrite(16);
            assert_eq!(w.len(), 16);
            assert!(all_bits(&w, POISON));
            recycle(w);
            // A zeroed request still zero-fills what an overwrite left.
            assert!(all_bits(&zeroed(16), 0.0));
        });
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_overwrite_buffers_keep_stale_contents() {
        assert!(all_bits(&overwrite(8), 0.0));
        scope(|| {
            let mut v = zeroed(16);
            v.fill(7.0);
            let cap = v.capacity();
            recycle(v);
            let w = overwrite(16);
            assert_eq!((w.len(), w.capacity()), (16, cap));
            assert!(all_bits(&w, 7.0), "an overwrite buffer is not filled");
            recycle(w);
            assert!(all_bits(&zeroed(16), 0.0));
        });
    }

    #[test]
    fn nesting_keeps_arena_alive_until_outermost_exit() {
        scope(|| {
            recycle(zeroed(4));
            scope(|| {
                assert!(active());
                recycle(zeroed(4));
            });
            // Inner exit must not drain the free list.
            FREE.with(|p| assert!(!p.borrow().is_empty()));
        });
        FREE.with(|p| assert!(p.borrow().is_empty()));
    }

    #[test]
    fn reuse_needs_exact_capacity() {
        scope(|| {
            recycle(zeroed(64));
            // A smaller request allocates rather than take the larger
            // buffer, which stays parked for a request of its own size.
            let small = zeroed(16);
            assert_eq!(small.capacity(), 16);
            FREE.with(|p| assert_eq!(p.borrow().elems, 64));
            let large = zeroed(64);
            assert_eq!(large.capacity(), 64);
            FREE.with(|p| assert!(p.borrow().is_empty()));
        });
    }

    #[test]
    fn parking_stops_at_the_element_cap() {
        scope(|| {
            // Fresh `vec![0.0; n]` buffers of this size are lazily mapped,
            // so holding several costs address space, not memory.
            let fit = MAX_PARKED_ELEMS / MAX_BUFFER_ELEMS;
            let bufs: Vec<Vec<f32>> = (0..=fit).map(|_| zeroed(MAX_BUFFER_ELEMS)).collect();
            for b in bufs {
                recycle(b);
            }
            FREE.with(|p| {
                let free = p.borrow();
                assert_eq!(free.elems, MAX_PARKED_ELEMS);
                assert_eq!(free.by_capacity[&MAX_BUFFER_ELEMS].len(), fit);
            });
        });
    }

    #[test]
    fn lent_lists_survive_dispatches_until_outermost_exit() {
        use crate::pool::{parallel_for, with_threads};
        use std::sync::atomic::{AtomicUsize, Ordering};
        // What the spawned worker found parked when it started, per round.
        let found = [AtomicUsize::new(usize::MAX), AtomicUsize::new(usize::MAX)];
        scope(|| {
            with_threads(2, || {
                for seen in &found {
                    parallel_for(2, 1, |r| {
                        if r.start == 1 {
                            seen.store(FREE.with(|p| p.borrow().elems), Ordering::Relaxed);
                            recycle(zeroed(32));
                        }
                    });
                }
            });
            LENT.with(|l| assert_eq!(l.borrow()[0].elems, 32));
        });
        // The second worker thread started with the first one's buffer.
        assert_eq!(found.map(|f| f.into_inner()), [0, 32]);
        LENT.with(|l| assert!(l.borrow().is_empty()));
    }

    #[test]
    fn oversized_requests_fall_through() {
        scope(|| {
            let v = zeroed(MAX_BUFFER_ELEMS + 1);
            assert_eq!(v.len(), MAX_BUFFER_ELEMS + 1);
            recycle(v);
            FREE.with(|p| assert!(p.borrow().is_empty()));
        });
    }
}
