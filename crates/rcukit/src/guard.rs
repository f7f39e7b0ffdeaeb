//! RAII read-side critical sections.

use std::cell::Cell;
use std::fmt;
use std::ptr::NonNull;
#[cfg(not(loomette_weaken))]
use std::sync::atomic::Ordering::Release;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::Arc;

use crate::collector::{pack, unpack, Collector, LocalState};
use crate::deferred::{Deferred, RecycleBatch};
use crate::sync::atomic::fence;

thread_local! {
    /// Number of live guards on this thread, across all collectors and
    /// handles (cached or explicitly registered).
    static LIVE_GUARDS: Cell<usize> = const { Cell::new(0) };
}

/// How many guards the current thread holds. `Collector::pin` consults this
/// before running eviction callbacks inline: a callback may block on a grace
/// period, which can never elapse while this thread stays pinned. Reports
/// "pinned" when the TLS value is unavailable (thread exit) — the
/// conservative answer.
pub(crate) fn live_guards() -> usize {
    LIVE_GUARDS.try_with(Cell::get).unwrap_or(1)
}

/// A pinned read-side critical section (the paper's `rcu_read_begin` /
/// `rcu_read_end` pair).
///
/// While a `Guard` is live, the global epoch cannot advance more than one
/// step past the guard's pinned epoch, so no object retired while the guard
/// could observe it is reclaimed. Dropping the guard ends the critical
/// section.
///
/// The guard *borrows* its origin — the [`LocalHandle`] it was pinned
/// through, or the [`Collector`] for the TLS-cached
/// [`Collector::pin`](Collector::pin) path — and the per-thread state
/// behind it, which is what makes pinning free of atomic read-modify-writes:
/// nothing is cloned, so no reference count is touched. It also means a
/// guard cannot outlive its handle; see [`LocalHandle::pin`] for the
/// compile-time rejection.
///
/// Guards are re-entrant per thread (nested pins share the outermost epoch)
/// and are neither `Send` nor `Sync`: a critical section belongs to the
/// thread that opened it.
///
/// [`LocalHandle`]: crate::LocalHandle
/// [`LocalHandle::pin`]: crate::LocalHandle::pin
pub struct Guard<'a> {
    collector: &'a Collector,
    /// The pinned thread's state, kept alive by the collector's registry
    /// (see [`Guard::enter`]). A pointer rather than a `&'a LocalState`
    /// because the last guard of an orphaned state unregisters it — which
    /// may free it — inside `drop`, while the guard still exists.
    /// `NonNull` also keeps the guard `!Send + !Sync`: unpinning must
    /// happen on the pinning thread for the epoch protocol to mean
    /// anything.
    local: NonNull<LocalState>,
}

impl<'a> Guard<'a> {
    /// Pins the thread whose state `local` points at. The outermost pin
    /// publishes the pinned epoch; nested pins only count.
    ///
    /// # Safety
    ///
    /// `local` must come from [`Arc::as_ptr`] on a state registered with
    /// `collector`, and the state must stay registered while the guard
    /// lives: the registry's `Arc` is what keeps it alive. The runtime
    /// unregisters a state only when it has no live guard
    /// (`LocalHandle::drop` at `guard_count == 0`) or, for an orphaned
    /// state, as the last guard's final action.
    pub(crate) unsafe fn enter(collector: &'a Collector, local: *const LocalState) -> Guard<'a> {
        let guard = Guard {
            collector,
            // Safety: `Arc::as_ptr` never returns null.
            local: unsafe { NonNull::new_unchecked(local.cast_mut()) },
        };
        let local = guard.local();
        let _ = LIVE_GUARDS.try_with(|c| c.set(c.get() + 1));
        // ordering: Relaxed — owner-thread nesting counter: only this
        // thread's guards touch it and the collector never reads it, so a
        // plain load and store do what an RMW would.
        let depth = local.guard_count.load(Relaxed);
        // ordering: Relaxed — owner-thread counter, as above.
        local.guard_count.store(depth + 1, Relaxed);
        if depth == 0 {
            // Publish our pinned epoch, re-reading the global epoch until it
            // is stable across the store. This guarantees that at some
            // instant after the store the global epoch equalled our pinned
            // epoch, which is what bounds the epoch to `pinned + 1` while we
            // stay pinned (any later advance re-scans the registry and sees
            // us).
            loop {
                // ordering: Relaxed — this sample is validated by the fence
                // + re-read below before the pin counts as published.
                let e = collector.inner.epoch.load(Relaxed);
                // ordering: Relaxed — the publication itself is ordered by
                // the fence that follows; the advance scan's Acquire load
                // pairs with the *unpin* store, not this one.
                local.status.store(pack(e), Relaxed);
                // ordering: SeqCst fence (StoreLoad) — the pin-publication
                // fence, paired with the fence in `Inner::try_advance`: it
                // forces the status store out before the epoch re-read, so
                // in the SC order of fences either a concurrent advance's
                // scan sees our pin, or our re-read sees its advance and we
                // retry. It also keeps the critical section's pointer loads
                // from starting before the pin is visible.
                fence(SeqCst);
                // ordering: Relaxed — the fence above makes this re-read at
                // least as new as any advance whose scan missed our store.
                if collector.inner.epoch.load(Relaxed) == e {
                    break;
                }
            }
        }
        guard
    }

    /// The pinned thread's state.
    #[inline]
    fn local(&self) -> &LocalState {
        // Safety: the registry keeps the state alive while the guard lives
        // (see `enter`); only `drop` may end that, and it stops using the
        // state first.
        unsafe { self.local.as_ref() }
    }

    /// The epoch this guard is pinned at.
    pub fn epoch(&self) -> u64 {
        // ordering: Relaxed — reading our own thread's status word.
        unpack(self.local().status.load(Relaxed))
    }

    /// The collector this guard is pinned against.
    pub fn collector(&self) -> &Collector {
        self.collector
    }

    /// Defers `f` until after a grace period: it runs only once every thread
    /// that was pinned when `defer` was called has unpinned.
    ///
    /// This is the general form of the paper's `rcu_free`; use
    /// [`defer_free`](Self::defer_free) to retire a `Box` allocation.
    ///
    /// # Callback context
    ///
    /// `f` may run inline on any participating thread — at an explicit
    /// [`collect`](Collector::collect)/[`synchronize`](Collector::synchronize),
    /// when the last reference to an abandoned collector dies, or when a
    /// thread drops its last guard. At the *implicit* points (unpin,
    /// pin-time cache eviction) the runtime guarantees `f` never runs while
    /// the executing thread holds a guard, so `f` may pin or wait on a
    /// grace period; the *explicit* `collect`/`synchronize` calls run ready
    /// callbacks in the caller's context unconditionally — do not make them
    /// while pinned if any retired callback may wait on a grace period.
    /// The runtime also cannot know about caller locks: `f` must not
    /// acquire a non-reentrant lock that callers hold around pin/unpin or
    /// collect/synchronize points.
    pub fn defer<F: FnOnce() + Send + 'static>(&self, f: F) {
        // Accounting: an opaque closure counts as one retired object with
        // no byte estimate (see `CollectorStats`).
        self.collector
            .inner
            .defer(self.local(), Deferred::new(f), 1, 0);
    }

    /// Retires a heap allocation: after a grace period, `ptr` is reclaimed
    /// as a `Box<T>` (running `T`'s destructor).
    ///
    /// # Safety
    ///
    /// * `ptr` must have been produced by [`Box::into_raw`] and must not be
    ///   freed by any other path (no double retire).
    /// * `ptr` must be unreachable for readers that pin *after* this call —
    ///   i.e. it has been unlinked from every shared structure.
    pub unsafe fn defer_free<T: Send + 'static>(&self, ptr: *mut T) {
        debug_assert!(!ptr.is_null());
        let addr = ptr as usize;
        self.collector.inner.defer(
            self.local(),
            Deferred::new(move || {
                // Safety: per the contract above, this is the sole owner of
                // the allocation once the grace period has elapsed.
                unsafe { drop(Box::from_raw(addr as *mut T)) };
            }),
            1,
            std::mem::size_of::<T>(),
        );
    }

    /// Defers recycling `batch` to `recycler` after a grace period — the
    /// allocation-free sibling of [`defer`](Self::defer): no closure is
    /// boxed (the batch travels by value inside the bag entry) and the
    /// recycler is an `Arc` clone, so an arena-backed writer can retire a
    /// whole update without touching the heap. After the grace period the
    /// collector calls [`crate::Recycler::recycle`] with the batch, on whichever
    /// thread drives reclamation (same execution contract as
    /// [`defer`](Self::defer)'s callback context).
    ///
    /// # Safety
    ///
    /// * Every pointer in `batch` must be unreachable for readers that pin
    ///   *after* this call (unlinked from every shared structure) and must
    ///   not be reclaimed by any other path (no double retire).
    /// * Every pointer must be valid for `recycler` — pointing at a block
    ///   it manages, still holding an initialized value if `recycle` drops
    ///   payloads — and the pointed-to data must be safe to reclaim from
    ///   any thread (`Send` payloads).
    ///
    /// `bytes` is the caller's estimate of the heap bytes the batch stands
    /// for (feeding the collector's byte counters; every batch pointer
    /// counts as one retired object).
    pub unsafe fn defer_recycle(
        &self,
        recycler: Arc<dyn crate::Recycler>,
        batch: RecycleBatch,
        bytes: usize,
    ) {
        let objects = batch.len();
        self.collector.inner.defer(
            self.local(),
            Deferred::recycle(recycler, batch),
            objects,
            bytes,
        );
    }

    /// Moves this thread's pending retirements into the collector's global
    /// queue so another thread's `collect`/`synchronize` can reclaim them
    /// without waiting for this guard to drop.
    pub fn flush(&self) {
        if self.collector.inner.seal_bag(self.local()) {
            // The local bag is empty now, so the unpin's `had_garbage`
            // check won't see this garbage; arm the pending flag so the
            // next guard-free unpin still collects it (as `Inner::defer`
            // does for its full/stale-bag seals).
            // ordering: Relaxed — owner-thread flag: only this thread's
            // guards read or write it.
            self.local().collect_pending.store(true, Relaxed);
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let _ = LIVE_GUARDS.try_with(|c| c.set(c.get().saturating_sub(1)));
        let inner = &self.collector.inner;
        let local = self.local();
        // ordering: Relaxed — owner-thread nesting counter (see `enter`).
        let depth = local.guard_count.load(Relaxed);
        debug_assert!(depth >= 1);
        // ordering: Relaxed — owner-thread counter, as above.
        local.guard_count.store(depth - 1, Relaxed);
        if depth != 1 {
            return;
        }
        // Takes the bag lock only if this section retired something.
        let had_garbage = inner.seal_bag(local);
        // ordering: Release — ends the critical section: pairs with the
        // advance scan's Acquire load, so every read this section made
        // happens-before an advance that observes us unpinned (and hence
        // before any free that advance unlocks).
        #[cfg(not(loomette_weaken))]
        local.status.store(0, Release);
        // Seeded bug for the model-checker meta-test (never in release
        // builds): weakening this Release to Relaxed severs the unpin →
        // advance happens-before edge, and the AcqRel loom leg must
        // find the resulting message-passing violation.
        #[cfg(loomette_weaken)]
        local.status.store(0, Relaxed);
        // ordering: Relaxed — same-thread flag: set by this thread's own
        // handle drop or orphan pin.
        let orphaned = local.orphaned.load(Relaxed);
        // Opportunistic advance + reclaim keeps garbage bounded for
        // writer threads without a dedicated reclaimer. Gated on the
        // thread holding no guard (ours is already decremented):
        // reclaim fires user callbacks inline, and a callback that
        // blocks on a grace period — of any collector this thread is
        // still pinned on — would never return.
        //
        // Two triggers, with different contracts:
        //
        // * `collect_pending` — armed by liveness-gate skips (unpin
        //   under other live guards), mid-critical-section bag seals,
        //   and `flush`, and re-armed while a pending-driven collect
        //   leaves bags queued. A pending handle collects at its next
        //   guard-free unpin *unconditionally*: these are the cases
        //   where the `had_garbage` check below can no longer see the
        //   garbage, so the flag is the only thing keeping it alive.
        // * `had_garbage` — this unpin itself sealed a bag. These
        //   collects are *throttled* (`unpin_collect_due`): every Nth
        //   garbage-bearing unpin, or sooner under shard-queue
        //   pressure, this handle runs a collect; in between, sealed
        //   bags just queue. A throttle skip deliberately does NOT arm
        //   `collect_pending` — doing so would make the next unpin
        //   collect and defeat the throttle. The cost is a weaker
        //   tail guarantee: garbage sealed by a handle's final few
        //   (< period) unpins waits for another trigger (any handle's
        //   due collect, queue pressure, or an explicit
        //   collect/synchronize).
        // Held across the opportunistic collect (see below).
        let mut keep = None;
        if live_guards() == 0 {
            // The flag is consumed up front and only ever re-SET after
            // the collect, never cleared: a callback fired inside
            // `collect()` may re-enter this collector, defer, and arm
            // the flag for its own freshly sealed bag — a blind
            // `store(remaining)` with the pre-callback snapshot would
            // clobber that and strand the bag.
            // ordering: Relaxed — owner-thread flag (see `flush`): only
            // this thread writes it, so a load plus a store only when set
            // consumes it without an RMW.
            let pending = local.collect_pending.load(Relaxed);
            if pending {
                // ordering: Relaxed — owner-thread flag, as above.
                local.collect_pending.store(false, Relaxed);
            }
            if pending || (had_garbage && inner.unpin_collect_due(local)) {
                // The slow path: callbacks run inline below, and one may
                // pin through the TLS cache and sweep — even evict this
                // thread's cached handle, unregistering the state now that
                // it has no guard. Hold the state by `Arc` across them; an
                // RMW here is noise next to the collect's registry locks.
                // Safety: `self.local` came from `Arc::as_ptr` on a state
                // that is still registered (see `enter`), so the strong
                // count is at least one.
                let state = unsafe {
                    Arc::increment_strong_count(self.local.as_ptr());
                    Arc::from_raw(self.local.as_ptr())
                };
                let (_, remaining) = inner.collect();
                if remaining && pending {
                    // Only the pending chain re-arms on an incomplete
                    // drain: it carries the liveness contract (flushed
                    // or gate-skipped garbage MUST reclaim via later
                    // unpins alone). Throttled collects instead rely on
                    // the steady unpin stream that triggered them.
                    // ordering: Relaxed — owner-thread flag, as above.
                    state.collect_pending.store(true, Relaxed);
                }
                keep = Some(state);
            }
        } else if had_garbage {
            // ordering: Relaxed — owner-thread flag, as above.
            local.collect_pending.store(true, Relaxed);
        }
        if orphaned {
            // The state has no handle left: unregister it. This may free
            // it, so it is the last use of the state but `keep`'s count.
            inner.unregister(self.local.as_ptr());
        }
        drop(keep);
    }
}

impl fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn nested_guards_share_epoch() {
        let c = Collector::new();
        let h = c.register();
        let g1 = h.pin();
        let e = g1.epoch();
        // Force epoch movement attempts; the outer pin keeps us at `e`.
        c.collect();
        let g2 = h.pin();
        assert_eq!(g2.epoch(), e);
        drop(g2);
        assert!(h.is_pinned());
        drop(g1);
        assert!(!h.is_pinned());
    }

    #[test]
    fn defer_runs_after_grace_period_only() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            let n = counter.clone();
            g.defer(move || {
                n.fetch_add(1, SeqCst);
            });
            // Still pinned: a grace period cannot complete.
            for _ in 0..10 {
                c.collect();
            }
            assert_eq!(counter.load(SeqCst), 0);
        }
        c.synchronize();
        assert_eq!(counter.load(SeqCst), 1);
    }

    /// `defer_recycle` honours the same grace-period contract as `defer`
    /// and hands the batch (with its buffer) to the recycler exactly once.
    #[test]
    fn defer_recycle_runs_after_grace_period() {
        struct Sink {
            seen: AtomicUsize,
        }
        impl crate::Recycler for Sink {
            unsafe fn recycle(&self, mut batch: RecycleBatch) {
                self.seen.fetch_add(batch.drain().count(), SeqCst);
            }
        }
        let sink = Arc::new(Sink {
            seen: AtomicUsize::new(0),
        });
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            let mut batch = RecycleBatch::new();
            // Never-dereferenced markers: the sink only counts.
            let marks = [0u8; 2];
            batch.push(std::ptr::from_ref(&marks[0]).cast_mut().cast());
            batch.push(std::ptr::from_ref(&marks[1]).cast_mut().cast());
            // Safety: the sink never dereferences; the markers are retired
            // exactly once and reachable by no reader.
            unsafe { g.defer_recycle(sink.clone(), batch, 2) };
            // Still pinned: the grace period cannot complete.
            for _ in 0..10 {
                c.collect();
            }
            assert_eq!(sink.seen.load(SeqCst), 0);
        }
        c.synchronize();
        assert_eq!(sink.seen.load(SeqCst), 2);
        let s = c.stats();
        // Object units: every batch pointer counts (the PR 1 regression
        // counted the whole batch as one), and the caller's byte estimate
        // flows through to the byte counters.
        assert_eq!(s.objects_retired, 2);
        assert_eq!(s.objects_freed, 2);
        assert_eq!(s.bytes_retired, 2);
        assert_eq!(s.bytes_freed, 2);
        assert_eq!(s.peak_unreclaimed_bytes, 2);
    }

    #[test]
    fn defer_free_reclaims_allocation() {
        let c = Collector::new();
        let h = c.register();
        let b = Box::into_raw(Box::new(42u64));
        {
            let g = h.pin();
            // Safety: `b` is never reachable elsewhere and never re-freed.
            unsafe { g.defer_free(b) };
        }
        c.synchronize();
        let s = c.stats();
        assert_eq!(s.objects_retired, 1);
        assert_eq!(s.objects_freed, 1);
        // `defer_free` knows the payload size.
        assert_eq!(s.bytes_retired, std::mem::size_of::<u64>() as u64);
        assert_eq!(s.bytes_freed, std::mem::size_of::<u64>() as u64);
    }

    /// The read-side fast path in checkable form: 10k outermost pin/unpin
    /// cycles, through an explicit handle and through the TLS-cached
    /// `Collector::pin`, perform no atomic read-modify-write of any
    /// ordering (the `sync` facade's per-thread census, debug builds), take
    /// no lock — no registry lock, and no bag lock since nothing was
    /// retired — and move no reference count, neither the collector's nor
    /// the per-thread state's. What is left is one fence plus plain loads
    /// and stores: the paper's "readers never contend" property.
    #[test]
    fn reader_pins_touch_no_shared_refcount_and_no_registry_lock() {
        #[derive(Debug, PartialEq)]
        struct Census {
            collector_refs: usize,
            handle_state_refs: usize,
            cached_state_refs: usize,
            rmws: u64,
            registry_locks: u64,
            bag_locks: u64,
        }
        const PINS: usize = 10_000;
        let c = Collector::new();
        let h = c.register();
        // Warm up: register the handle and the TLS-cached state.
        drop(h.pin());
        drop(c.pin());
        let cached = c.cached_state().expect("Collector::pin caches a handle");
        let census = || Census {
            collector_refs: c.handle_count(),
            handle_state_refs: Arc::strong_count(&h.local),
            cached_state_refs: cached.strong_count(),
            #[cfg(all(not(loom), debug_assertions))]
            rmws: crate::sync::atomic::rmw_count(),
            #[cfg(not(all(not(loom), debug_assertions)))]
            rmws: 0,
            // The lock counters only tick in debug builds (see
            // `Inner::registry`); in release they must simply stay 0.
            registry_locks: c.inner.registry_locks.load(Relaxed),
            bag_locks: c.inner.bag_locks.load(Relaxed),
        };
        let before = census();
        // Checked mid-loop with the guard live, too: a guard that held a
        // clone would restore the count when dropped.
        for i in 0..PINS {
            let g = h.pin();
            std::hint::black_box(g.epoch());
            if i == PINS / 2 {
                assert_eq!(census(), before, "LocalHandle::pin, while pinned");
            }
            drop(g);
        }
        assert_eq!(census(), before, "LocalHandle::pin/unpin cycles");
        for i in 0..PINS {
            let g = c.pin();
            std::hint::black_box(g.epoch());
            if i == PINS / 2 {
                assert_eq!(census(), before, "Collector::pin, while pinned");
            }
            drop(g);
        }
        assert_eq!(census(), before, "Collector::pin/unpin cycles");
    }

    /// Unpinning must not fire deferred callbacks while the thread still
    /// holds a guard on another collector: a callback blocking on that
    /// collector's grace period (here, `synchronize`) would deadlock under
    /// the thread's own pin.
    #[test]
    fn unpin_defers_callbacks_while_other_guards_live() {
        let fired = Arc::new(AtomicUsize::new(0));
        let x = Collector::new();
        let y = Collector::new();
        let hy = y.register();
        let gx = x.pin();
        {
            let gy = hy.pin();
            let f = fired.clone();
            let x2 = x.clone();
            gy.defer(move || {
                x2.synchronize(); // completes only if the thread is unpinned
                f.fetch_add(1, SeqCst);
            });
        }
        {
            // A second retire/unpin cycle would advance y's epoch far enough
            // to fire the first callback — were the inline collect not gated
            // on the thread holding zero guards.
            let gy = hy.pin();
            gy.defer(|| {});
        }
        assert_eq!(fired.load(SeqCst), 0);
        drop(gx);
        // The skipped collect is pending on the handle: guard-free unpins
        // that seal nothing still retry it until the queue drains, without
        // needing an explicit collect/synchronize.
        for _ in 0..3 {
            drop(hy.pin());
        }
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// `flush` empties the local bag, so the unpin's `had_garbage` check
    /// alone would never reclaim it; the pending flag must carry it.
    #[test]
    fn flushed_garbage_is_collected_by_later_unpins() {
        let fired = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
            g.flush();
        }
        for _ in 0..3 {
            drop(h.pin());
        }
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// The collect throttle: a mutation-heavy loop (every unpin seals
    /// garbage) must run the opportunistic advance-and-reclaim only every
    /// Nth unpin, not every time — observable in debug builds as far fewer
    /// registry-lock takes (each collect's advance scan takes one lock per
    /// shard), the shard-lock traffic the ROADMAP item exists to cut.
    #[test]
    fn unpin_collects_are_throttled() {
        let c = Collector::with_shards(1);
        let h = c.register();
        drop(h.pin()); // warm up
        const ITERS: u64 = 64;
        let locks_before = c.stats().registry_locks;
        for _ in 0..ITERS {
            let g = h.pin();
            g.defer(|| {});
            drop(g);
        }
        let locks_after = c.stats().registry_locks;
        c.synchronize();
        let s = c.stats();
        assert_eq!(s.objects_retired, ITERS);
        assert_eq!(s.objects_freed, ITERS);
        if cfg!(debug_assertions) {
            // One shard: each collect's advance scan takes exactly one
            // registry lock, and each `stats()` call takes one. Without the
            // throttle every one of the 64 unpins would collect (>= 64
            // takes); with it, collects run at most every-8th unpin plus
            // queue-pressure extras — comfortably under half.
            let taken = locks_after - locks_before - 1; // minus the stats() call
            assert!(
                taken < ITERS / 2,
                "mutation-heavy loop took {taken} registry locks over {ITERS} unpins \
                 — the collect throttle is not throttling"
            );
            assert!(taken > 0, "no collect ever ran despite queued garbage");
        }
    }

    /// With the throttle period forced to 1, every garbage-bearing unpin
    /// collects — the pre-throttle behaviour tests and model scenarios can
    /// opt back into.
    #[test]
    fn throttle_period_one_collects_every_unpin() {
        let c = Collector::with_shards(1);
        c.set_unpin_collect_period(1);
        let h = c.register();
        drop(h.pin());
        let locks_before = c.stats().registry_locks;
        for _ in 0..8 {
            let g = h.pin();
            g.defer(|| {});
            drop(g);
        }
        if cfg!(debug_assertions) {
            let taken = c.stats().registry_locks - locks_before - 1;
            assert!(
                taken >= 8,
                "period-1 throttle skipped unpin collects ({taken} lock takes over 8 unpins)"
            );
        }
    }

    #[test]
    fn flush_allows_foreign_reclaim() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let h = c.register();
        let g = h.pin();
        let n = counter.clone();
        g.defer(move || {
            n.fetch_add(1, SeqCst);
        });
        g.flush();
        drop(g);
        c.synchronize();
        assert_eq!(counter.load(SeqCst), 1);
    }
}
