//! The global epoch collector and per-thread registration.
//!
//! # Epoch protocol
//!
//! The collector maintains a global epoch counter. Each registered thread
//! ([`LocalHandle`]) publishes its *status* word: `0` when not in a read-side
//! critical section, or `(epoch << 1) | 1` while pinned. The global epoch may
//! advance from `E` to `E + 1` only when every pinned thread's recorded epoch
//! equals `E`; consequently a thread pinned at epoch `p` keeps the global
//! epoch at most `p + 1` for as long as it stays pinned.
//!
//! Retired garbage is tagged with the global epoch observed *at retire time*.
//! Any reader that could still hold a reference to a retired object must have
//! pinned no later than the retirement, so its pinned epoch is at most the
//! tag `e`. Once the global epoch reaches `e + `[`GRACE_EPOCHS`]` = e + 2`,
//! every such reader has unpinned and the garbage may be freed.
//!
//! # Sharding
//!
//! Registered threads and sealed garbage bags live in per-shard lists
//! (shard count derived from [`std::thread::available_parallelism`], one
//! shard per core rounded up to a power of two). Registration assigns each
//! thread a home shard round-robin; its registry entry and its sealed bags
//! only ever touch that shard's locks. [`Inner::try_advance`] scans the
//! shards one lock at a time — there is no global registry lock for
//! advancing writers to convoy on. Reader pin/unpin takes **no** lock at
//! all (see [`Guard`](crate::Guard)): the hot path is the thread's own
//! status word plus a read of the global epoch word, which sits on a cache
//! line of its own so that writers' statistics RMWs never invalidate it.
//!
//! [`GRACE_EPOCHS`]: crate::GRACE_EPOCHS

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::mem;
use std::ops::Deref;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, SeqCst};
use std::sync::Arc;
use std::thread;

use crate::deferred::{Bag, Deferred, Retired};
use crate::guard::Guard;
use crate::stats::CollectorStats;
use crate::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize};
use crate::sync::{Mutex, MutexGuard};
use crate::GRACE_EPOCHS;

/// Seal a thread-local bag into the global garbage queue once it holds this
/// many retirements, even if the owning guard is still pinned.
const BAG_SEAL_THRESHOLD: usize = 64;

/// Maximum drained bag buffers cached for reuse (see [`Inner::bag_pool`]):
/// enough that every active writer thread's seal finds a warm buffer, small
/// enough that the cached capacity stays bounded.
const BAG_POOL_MAX: usize = 64;

/// Default collect throttle: a guard-free unpin that sealed garbage runs the
/// opportunistic advance-and-reclaim pass only every this-many
/// garbage-bearing unpins (per handle), instead of on every one. Between
/// collects, sealed bags simply queue in the home shard. Overridable per
/// collector via [`Collector::set_unpin_collect_period`] (tests and model
/// scenarios set `1` to recover collect-every-unpin behaviour).
const UNPIN_COLLECT_PERIOD: usize = 8;

/// Collect-throttle escape hatch: if the handle's home shard has at least
/// this many sealed bags queued, a garbage-bearing unpin collects regardless
/// of the per-handle counter, bounding queue growth when one handle does all
/// the retiring.
const QUEUE_COLLECT_THRESHOLD: usize = 16;

/// Packs an epoch into a pinned status word.
#[inline]
pub(crate) fn pack(epoch: u64) -> u64 {
    (epoch << 1) | 1
}

/// Extracts the epoch from a pinned status word.
#[inline]
pub(crate) fn unpack(status: u64) -> u64 {
    status >> 1
}

/// Shard count for a new collector: one per hardware thread, rounded up to
/// a power of two (cheap index masking), at least one.
fn default_shards() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
}

/// Keeps the wrapped value alone on its cache line. 128 bytes covers the
/// spatial prefetcher's line pairs on x86-64 and the 128-byte lines of
/// some ARM cores.
#[repr(align(128))]
pub(crate) struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Per-thread state shared between a [`LocalHandle`], its [`Guard`]s, and the
/// collector's registry.
///
/// Aligned to a cache line so that two threads' status words — each
/// written on every pin and unpin — never share one, and so that the
/// `Arc`'s reference counts sit on a different line from the status word.
///
/// Every field except `status` and `bag` is *owner-thread* state: only the
/// thread currently using the handle reads or writes it, so plain
/// `Relaxed` loads and stores suffice (no RMW). A handle moves between
/// threads only by a synchronizing hand-off.
#[repr(align(128))]
pub(crate) struct LocalState {
    /// `0` when unpinned, `(epoch << 1) | 1` while pinned.
    pub(crate) status: AtomicU64,
    /// Number of live guards for this handle (nesting depth). Only the owning
    /// thread mutates this; the collector never reads it.
    pub(crate) guard_count: AtomicUsize,
    /// Set when the state's [`LocalHandle`] is gone while a guard is still
    /// live — the one-shot orphan pin path, or a cached handle torn down at
    /// thread exit under a guard stored elsewhere in TLS. The last guard
    /// then unregisters the state as its final action.
    pub(crate) orphaned: AtomicBool,
    /// Set when an outermost unpin sealed garbage but skipped the
    /// opportunistic collect because the thread still held other guards;
    /// this handle's next guard-free unpin collects instead.
    pub(crate) collect_pending: AtomicBool,
    /// Whether `bag` holds anything. Written only under the bag lock (by
    /// `Inner::defer` and `Inner::seal_bag`), and only by the owner
    /// thread, so the owner can read it without the lock: an unpin that
    /// retired nothing skips the bag lock entirely.
    pub(crate) bag_nonempty: AtomicBool,
    /// Garbage-bearing guard-free unpins since this handle last ran the
    /// opportunistic collect — the collect-throttle counter. Only the
    /// owning thread reads or writes it (plain load/store, no RMW).
    pub(crate) garbage_unpins: AtomicUsize,
    /// Index of the home shard holding this thread's registry entry and
    /// receiving its sealed bags.
    pub(crate) shard: usize,
    /// Garbage retired by this thread that has not yet been sealed into the
    /// collector's global queue. Only the owning thread pushes; the lock is
    /// effectively uncontended.
    pub(crate) bag: Mutex<Bag>,
}

impl LocalState {
    fn new(shard: usize) -> Self {
        Self {
            status: AtomicU64::new(0),
            guard_count: AtomicUsize::new(0),
            orphaned: AtomicBool::new(false),
            collect_pending: AtomicBool::new(false),
            bag_nonempty: AtomicBool::new(false),
            garbage_unpins: AtomicUsize::new(0),
            shard,
            bag: Mutex::new(Bag::new(0)),
        }
    }
}

/// One registry/garbage shard. A thread's registration and its sealed bags
/// live entirely in its home shard, so writer-side housekeeping from
/// different shards never contends.
struct Shard {
    /// Threads registered in this shard.
    registry: Mutex<Vec<Arc<LocalState>>>,
    /// Sealed bags from this shard's threads awaiting a grace period.
    garbage: Mutex<Vec<Bag>>,
    /// Mirror of `garbage.len()`, maintained under the `garbage` lock but
    /// readable without it — the collect throttle's queue-pressure probe
    /// must not take the very lock the throttle exists to avoid.
    garbage_len: AtomicUsize,
}

impl Shard {
    fn new() -> Self {
        Self {
            registry: Mutex::new(Vec::new()),
            garbage: Mutex::new(Vec::new()),
            garbage_len: AtomicUsize::new(0),
        }
    }

    /// Pushes a sealed bag, keeping the lock-free length mirror exact
    /// (every `garbage` mutation site goes through here or
    /// [`Inner::reclaim`]/`Inner::drop`, all of which hold the lock while
    /// storing the new length).
    fn push_garbage(&self, bag: Bag) {
        let mut garbage = self.garbage.lock().unwrap();
        garbage.push(bag);
        // ordering: Relaxed — advisory queue-pressure mirror; the `garbage`
        // mutex guards the real list, and a stale probe read only delays or
        // hastens a collect by one unpin.
        self.garbage_len.store(garbage.len(), Relaxed);
    }
}

/// Shared collector state behind the [`Collector`] handle.
pub(crate) struct Inner {
    /// The global epoch: read by every pin, written only by advances. On
    /// its own cache line, away from the statistics counters that writers
    /// RMW on every retirement.
    pub(crate) epoch: CachePadded<AtomicU64>,
    /// Per-shard registries and sealed-bag queues.
    shards: Box<[Shard]>,
    /// Round-robin cursor assigning home shards to new registrations.
    next_shard: AtomicUsize,
    /// Total number of successful epoch advances.
    epochs_advanced: AtomicU64,
    /// Total heap objects retired via `defer`/`defer_free`/`defer_recycle`.
    /// Units are *objects*: every pointer in a recycle batch counts
    /// individually; an opaque `defer` closure counts as one (see
    /// [`CollectorStats`]).
    pub(crate) retired: AtomicU64,
    /// Total heap objects reclaimed by executed retirements.
    freed: AtomicU64,
    /// Total bytes retired, per the retirer's estimate (`defer_free` uses
    /// the payload size; `defer_recycle` takes an explicit count; opaque
    /// closures contribute 0).
    retired_bytes: AtomicU64,
    /// Total bytes reclaimed by executed retirements.
    freed_bytes: AtomicU64,
    /// Deferred `Call` callbacks that panicked while the reclaim loop
    /// drained them. The panic is caught in `Bag::fire` so the rest of the
    /// bag still reclaims; this counter is the only trace it leaves.
    callback_panics: AtomicU64,
    /// Bytes retired but not yet reclaimed, and its high-water mark — the
    /// bounded-garbage gauge the stalled-reader benchmark reads.
    unreclaimed_bytes: AtomicU64,
    peak_unreclaimed_bytes: AtomicU64,
    /// Diagnostic: total registry-lock acquisitions, across all shards.
    /// Reader pin/unpin must never move this counter — the hot-path
    /// regression test pins in a loop and asserts it stays flat. Counted
    /// in debug builds only: one shared counter RMW'd by every shard-lock
    /// taker would reintroduce exactly the cross-shard cache-line traffic
    /// the sharding removed (release builds report 0).
    pub(crate) registry_locks: AtomicU64,
    /// Diagnostic: total per-thread bag-lock acquisitions, counted in debug
    /// builds only, like `registry_locks`. An unpin that retired nothing
    /// must not move it.
    #[cfg_attr(not(test), allow(dead_code))] // read by the pin-flatness test
    pub(crate) bag_locks: AtomicU64,
    /// Number of per-thread TLS cache entries (see [`HANDLES`]) currently
    /// holding a handle to this collector. Used by the cache sweep to tell
    /// "alive only because caches hold it" apart from "externally owned":
    /// the collector is abandoned exactly when every strong reference is a
    /// cache entry, i.e. `strong_count <= tls_cached`.
    #[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
    tls_cached: AtomicUsize,
    /// Collect throttle period: a guard-free unpin that sealed garbage runs
    /// the opportunistic collect only every this-many garbage-bearing
    /// unpins per handle (see [`UNPIN_COLLECT_PERIOD`]; minimum 1 =
    /// collect every time).
    unpin_collect_period: AtomicUsize,
    /// Recycled bag item buffers (empty, warm capacity). Every bag seal
    /// needs a replacement bag; popping a pooled buffer instead of growing
    /// a fresh `Vec` keeps the steady-state write path allocation-free.
    /// Capped at [`BAG_POOL_MAX`]; a leaf lock (nothing is acquired while
    /// holding it).
    bag_pool: Mutex<Vec<Vec<Retired>>>,
    /// Reusable ready-bag buffer for [`Inner::reclaim`], so the collect
    /// path stops allocating one `Vec` per reclaim pass. Taken briefly at
    /// reclaim entry (a re-entrant reclaim fired from a callback just sees
    /// it empty and falls back to a fresh buffer).
    reclaim_scratch: Mutex<Vec<Bag>>,
}

impl Inner {
    /// Locks one shard's registry, counting the acquisition in debug
    /// builds (the hot-path regression test asserts reader pins never
    /// reach here).
    fn registry(&self, shard: usize) -> MutexGuard<'_, Vec<Arc<LocalState>>> {
        if cfg!(debug_assertions) {
            // ordering: Relaxed — diagnostic counter; nothing is published
            // through it.
            self.registry_locks.fetch_add(1, Relaxed);
        }
        self.shards[shard].registry.lock().unwrap()
    }

    /// Locks `local`'s bag, counting the acquisition in debug builds (the
    /// pin-flatness test asserts that unpins with nothing retired never
    /// reach here).
    fn bag<'l>(&self, local: &'l LocalState) -> MutexGuard<'l, Bag> {
        if cfg!(debug_assertions) {
            // ordering: Relaxed — diagnostic counter; nothing is published
            // through it.
            self.bag_locks.fetch_add(1, Relaxed);
        }
        local.bag.lock().unwrap()
    }

    /// Attempts one epoch advance. Returns `true` if the global epoch moved.
    ///
    /// Scans the shards one registry lock at a time; there is no instant at
    /// which the whole registry is locked. That is sound because the scan
    /// only needs a *negative* guarantee per thread: any thread observed
    /// unpinned or pinned at `e` either stays that way or re-pins through
    /// the publication protocol (publish status, re-read the epoch), which
    /// bounds its pinned epoch to at least `e`.
    fn try_advance(&self) -> bool {
        // ordering: Relaxed — the fence below orders this sample against the
        // scan, and the CAS at the end re-validates it before committing.
        let e = self.epoch.load(Relaxed);
        // ordering: SeqCst fence — the advance-side half of the
        // pin-publication Dekker (its partner is the fence in
        // `Guard::pin_status`). In the total order of SeqCst fences either
        // this fence comes after a pinning reader's fence — then the scan
        // below is guaranteed to observe that reader's status store — or it
        // comes before, and the reader's post-fence epoch re-read is
        // guaranteed to observe every advance this thread already saw, so
        // the reader retries its publication at the newer epoch. Without
        // this fence the scan's loads could read a stale "unpinned" status
        // while the reader's re-read still sees the old epoch, advancing
        // the epoch twice over a live pin.
        fence(SeqCst);
        for shard in 0..self.shards.len() {
            let registry = self.registry(shard);
            for local in registry.iter() {
                // ordering: Acquire — pairs with the Release store of `0` in
                // `Guard::drop`: a reader this scan observes as unpinned had
                // all its critical-section reads happen-before the advance,
                // and hence before any free the advance unlocks.
                #[cfg(not(loomette_weaken))]
                let s = local.status.load(Acquire);
                // Seeded bug for the model-checker meta-test (never in
                // release builds): a Relaxed scan load drops the acquire
                // side of the unpin edge — the AcqRel loom leg must catch
                // the resulting stale-read advance.
                #[cfg(loomette_weaken)]
                let s = local.status.load(Relaxed);
                if s != 0 && unpack(s) != e {
                    return false;
                }
            }
        }
        if self
            .epoch
            // ordering: AcqRel success — Release publishes the new epoch to
            // `reclaim`'s Acquire load (completing the unpin → scan → advance
            // → reclaim happens-before chain); Acquire joins the scan's
            // observations into this advance. Relaxed failure — a lost race
            // is just "someone else advanced".
            .compare_exchange(e, e + 1, AcqRel, Relaxed)
            .is_ok()
        {
            // ordering: Relaxed — statistics counter.
            self.epochs_advanced.fetch_add(1, Relaxed);
            true
        } else {
            false
        }
    }

    /// Fires every sealed bag whose grace period has elapsed, across all
    /// shards. Returns the number of callbacks executed and whether bags
    /// are still queued (observed inside the shard locks, so no extra
    /// acquisition is needed to learn it).
    fn reclaim(&self) -> (usize, bool) {
        // ordering: Acquire — pairs with the advance CAS's Release: an epoch
        // value proving a bag's grace period elapsed carries with it every
        // reader unpin the advances in between observed, so the readers'
        // critical-section reads happen-before the frees below.
        let e = self.epoch.load(Acquire);
        // Reuse the ready buffer across reclaims. `mem::take` under a brief
        // lock, not holding the lock across the fires below: callbacks may
        // re-enter `collect` → `reclaim`, which would then deadlock on the
        // scratch mutex (the re-entrant pass simply sees an empty scratch).
        let mut ready = mem::take(&mut *self.reclaim_scratch.lock().unwrap());
        let mut remaining = false;
        for shard in self.shards.iter() {
            let mut garbage = shard.garbage.lock().unwrap();
            let mut i = 0;
            while i < garbage.len() {
                if garbage[i].epoch + GRACE_EPOCHS <= e {
                    ready.push(garbage.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            // ordering: Relaxed — advisory mirror; see `Shard::push_garbage`.
            shard.garbage_len.store(garbage.len(), Relaxed);
            remaining |= !garbage.is_empty();
        }
        let mut n = 0;
        let mut bytes = 0;
        let mut panics = 0;
        for bag in ready.drain(..) {
            let (objects, b, p, buffer) = bag.fire();
            n += objects;
            bytes += b;
            panics += p;
            self.pool_bag_buffer(buffer);
        }
        // Hand the (drained) buffer back for the next reclaim. A concurrent
        // or re-entrant pass may have installed its own in the meantime;
        // keeping either one is fine — this is a capacity cache, not state.
        *self.reclaim_scratch.lock().unwrap() = ready;
        // ordering: Relaxed (all) — statistics counters.
        self.freed.fetch_add(n as u64, Relaxed);
        self.freed_bytes.fetch_add(bytes as u64, Relaxed);
        self.unreclaimed_bytes.fetch_sub(bytes as u64, Relaxed);
        self.callback_panics.fetch_add(panics, Relaxed);
        (n, remaining)
    }

    /// Pops a recycled bag tagged `epoch` (warm buffer when the pool has
    /// one; a fresh empty `Vec` — which does not allocate until pushed to —
    /// otherwise).
    fn pooled_bag(&self, epoch: u64) -> Bag {
        let buffer = self.bag_pool.lock().unwrap().pop().unwrap_or_default();
        Bag::with_buffer(epoch, buffer)
    }

    /// Returns a drained bag buffer to the pool, dropping it if the pool
    /// is full (bounding the cached capacity).
    fn pool_bag_buffer(&self, buffer: Vec<Retired>) {
        if buffer.capacity() == 0 {
            return;
        }
        let mut pool = self.bag_pool.lock().unwrap();
        if pool.len() < BAG_POOL_MAX {
            pool.push(buffer);
        }
    }

    /// Moves a thread's local bag (if non-empty) into its home shard's
    /// sealed queue. Returns whether anything was sealed. Must be called by
    /// `local`'s owner thread; takes the bag lock only when the owner's
    /// `bag_nonempty` hint says there is something to seal.
    pub(crate) fn seal_bag(&self, local: &LocalState) -> bool {
        // ordering: Relaxed — owner-thread hint: only this thread writes it
        // (see `LocalState::bag_nonempty`), so it reads its own last store.
        if !local.bag_nonempty.load(Relaxed) {
            return false;
        }
        let sealed = {
            let mut bag = self.bag(local);
            debug_assert!(!bag.is_empty(), "bag_nonempty hint out of date");
            // ordering: Relaxed — owner-thread hint, written under the lock.
            local.bag_nonempty.store(false, Relaxed);
            let epoch = bag.epoch;
            mem::replace(&mut *bag, self.pooled_bag(epoch))
        };
        self.shards[local.shard].push_garbage(sealed);
        true
    }

    /// Adds one deferred retirement (standing for `objects` heap objects /
    /// `bytes` bytes) to `local`'s bag, tagged with the current global
    /// epoch. Seals oversized or stale-epoch bags along the way.
    pub(crate) fn defer(&self, local: &LocalState, d: Deferred, objects: usize, bytes: usize) {
        // ordering: SeqCst fence (StoreLoad) — the caller's unlink store
        // (e.g. a Release store of a new tree root) must be globally visible
        // before the epoch tag is sampled. Without it the unlink can linger
        // in the store buffer while the epoch advances past the stale tag,
        // letting a reader pin at `tag + 1`, load the *old* pointer, and
        // outlive the grace period computed from `tag`.
        fence(SeqCst);
        // ordering: Relaxed — the fence above already orders the unlink
        // before this sample; a stale (lower) tag only lengthens the grace
        // period, and the epoch word is monotone.
        let tag = self.epoch.load(Relaxed);
        let sealed = {
            let mut bag = self.bag(local);
            let stale = if !bag.is_empty() && bag.epoch != tag {
                Some(mem::replace(&mut *bag, self.pooled_bag(tag)))
            } else {
                None
            };
            bag.epoch = tag;
            bag.items.push(Retired { d, objects, bytes });
            let full = if bag.len() >= BAG_SEAL_THRESHOLD {
                Some(mem::replace(&mut *bag, self.pooled_bag(tag)))
            } else {
                None
            };
            // ordering: Relaxed — owner-thread hint, written under the lock
            // (see `LocalState::bag_nonempty`).
            local.bag_nonempty.store(!bag.is_empty(), Relaxed);
            (stale, full)
        };
        // ordering: Relaxed (both) — statistics counters.
        self.retired.fetch_add(objects as u64, Relaxed);
        self.retired_bytes.fetch_add(bytes as u64, Relaxed);
        crate::reclaim::note_unreclaimed(
            &self.unreclaimed_bytes,
            &self.peak_unreclaimed_bytes,
            bytes as u64,
        );
        if sealed.0.is_some() || sealed.1.is_some() {
            // A bag sealed mid-critical-section leaves the local bag empty
            // at unpin, so `Guard::drop`'s `had_garbage` check alone would
            // never collect it; arm the handle's pending flag.
            // ordering: Relaxed — owner-thread flag: `local` is the calling
            // thread's own state, and only its own guards consult the flag.
            local.collect_pending.store(true, Relaxed);
            let shard = &self.shards[local.shard];
            let mut garbage = shard.garbage.lock().unwrap();
            if let Some(bag) = sealed.0 {
                garbage.push(bag);
            }
            if let Some(bag) = sealed.1 {
                garbage.push(bag);
            }
            // ordering: Relaxed — advisory mirror; see `Shard::push_garbage`.
            shard.garbage_len.store(garbage.len(), Relaxed);
        }
    }

    /// Removes the state at `local` from its home shard's registry.
    ///
    /// The registry's `Arc` may be the state's last reference, so the state
    /// may be freed before this returns: `local` is a raw pointer, and the
    /// caller must not touch the state afterwards. Each state is
    /// unregistered exactly once (debug-asserted).
    pub(crate) fn unregister(&self, local: *const LocalState) {
        // Safety: the caller passes a registered state, which the registry's
        // `Arc` keeps alive until the removal below.
        let shard = unsafe { (*local).shard };
        let removed = {
            let mut registry = self.registry(shard);
            let at = registry.iter().position(|l| Arc::as_ptr(l) == local);
            at.map(|i| registry.swap_remove(i))
        };
        debug_assert!(removed.is_some(), "thread state unregistered twice");
        // Dropped outside the registry lock: freeing the state drops its
        // (empty) bag mutex, which needs no lock of ours.
        drop(removed);
    }

    /// One non-blocking advance-and-reclaim step. Returns the number of
    /// callbacks executed and whether bags are still queued.
    pub(crate) fn collect(&self) -> (usize, bool) {
        self.try_advance();
        self.reclaim()
    }

    /// The collect-throttle gate, consulted by a guard-free outermost unpin
    /// that just sealed garbage: counts the unpin against the handle and
    /// returns whether this one should run the opportunistic collect —
    /// every [`UNPIN_COLLECT_PERIOD`]-th garbage-bearing unpin, or sooner
    /// when the handle's home shard has [`QUEUE_COLLECT_THRESHOLD`] sealed
    /// bags queued (a lock-free read of the shard's length mirror). The
    /// counter resets only when the collect is due, so skipped unpins
    /// accumulate toward the next one.
    pub(crate) fn unpin_collect_due(&self, local: &LocalState) -> bool {
        // ordering: Relaxed — owner-thread-only counter (only `local`'s own
        // thread reads or writes it).
        let n = local.garbage_unpins.load(Relaxed) + 1;
        // ordering: Relaxed (both) — the period is a config knob whose
        // staleness is harmless, and the length probe is the advisory
        // mirror (see `Shard::push_garbage`).
        let due = n >= self.unpin_collect_period.load(Relaxed)
            || self.shards[local.shard].garbage_len.load(Relaxed) >= QUEUE_COLLECT_THRESHOLD;
        // ordering: Relaxed — owner-thread-only counter, as above.
        local.garbage_unpins.store(if due { 0 } else { n }, Relaxed);
        due
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // No handle or guard can be alive here: a `LocalHandle` holds an
        // `Arc<Inner>` (via its `Collector`), and a `Guard` borrows either
        // a `LocalHandle` or a `Collector` — so every guard's lifetime is
        // bounded by a live strong reference. With the last strong
        // reference gone, every remaining retirement is safe to execute
        // immediately.
        let mut n = 0;
        let mut bytes = 0;
        let mut panics = 0;
        for shard in self.shards.iter_mut() {
            for local in shard.registry.get_mut().unwrap().drain(..) {
                let bag = mem::replace(&mut *local.bag.lock().unwrap(), Bag::new(0));
                let (objects, b, p, _) = bag.fire();
                n += objects;
                bytes += b;
                panics += p;
            }
            for bag in shard.garbage.get_mut().unwrap().drain(..) {
                let (objects, b, p, _) = bag.fire();
                n += objects;
                bytes += b;
                panics += p;
            }
        }
        // ordering: Relaxed (all) — statistics counters, and `&mut self`
        // proves exclusive access anyway.
        self.freed.fetch_add(n as u64, Relaxed);
        self.freed_bytes.fetch_add(bytes as u64, Relaxed);
        self.unreclaimed_bytes.fetch_sub(bytes as u64, Relaxed);
        self.callback_panics.fetch_add(panics, Relaxed);
    }
}

/// A [`LocalHandle`] owned by a thread's TLS cache. Keeps the collector's
/// [`Inner::tls_cached`] census accurate: the count is incremented when the
/// entry is created (in [`Collector::pin`]) and decremented here on drop,
/// whether the entry dies by sweep eviction or by thread exit.
#[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
struct CachedHandle {
    id: usize,
    handle: LocalHandle,
}

impl Drop for CachedHandle {
    fn drop(&mut self) {
        // Runs before `handle` (and its `Arc<Inner>`) is dropped, so the
        // count transiently underestimates the cache population; sweeps err
        // toward keeping an entry one round longer, never toward use-after-
        // free, and re-run on every cache miss and every
        // [`SWEEP_PERIOD`]-th cache-hit pin.
        // ordering: Relaxed — the census is advisory (see `sweep_abandoned`):
        // a stale read skews an eviction decision by at most one sweep round
        // and never toward use-after-free.
        self.handle.collector.inner.tls_cached.fetch_sub(1, Relaxed);
    }
}

/// A thread's handle cache plus the pin counter driving the sampled sweep.
#[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
struct HandleCache {
    entries: Vec<CachedHandle>,
    /// Cache-hit pins since the last sweep; at [`SWEEP_PERIOD`] the hit path
    /// sweeps too, so a thread that only ever cache-hits still releases
    /// abandoned collectors instead of holding them until thread exit.
    pins_since_sweep: u32,
}

#[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
impl HandleCache {
    /// The sampled eviction gate shared by [`Collector::pin`] and
    /// [`Collector::housekeep`]: counts the pin, and sweeps when due
    /// (`force` skips the cadence check — used on cache misses, which are
    /// already the slow path) but only while the thread holds no guard (an
    /// evicted collector's callbacks run inline and may block on a grace
    /// period the thread's own pin would stall forever). The counter resets
    /// only when the sweep actually runs, so a skipped sweep retries on the
    /// next guard-free opportunity. The caller must drop the returned
    /// entries outside the `HANDLES` borrow.
    fn sweep_if_due(&mut self, force: bool) -> Vec<CachedHandle> {
        let due = if force {
            true
        } else {
            self.pins_since_sweep = self.pins_since_sweep.saturating_add(1);
            self.pins_since_sweep >= SWEEP_PERIOD
        };
        if due && crate::guard::live_guards() == 0 {
            self.pins_since_sweep = 0;
            sweep_abandoned(&mut self.entries)
        } else {
            Vec::new()
        }
    }
}

/// Run the eviction sweep on the hit path after this many pins. Misses
/// always sweep (they already take the registry lock to register).
#[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
const SWEEP_PERIOD: u32 = 128;

/// Drains entries whose collector *appears* to be referenced only by TLS
/// caches (`strong_count <= tls_cached`). The two counters are read
/// separately, so a sweep racing a registration on another thread can
/// spuriously evict a live collector's entry — benign: the external
/// reference keeps the collector alive, and the entry is rebuilt on this
/// thread's next pin of it. Eviction is advisory cleanup, never a safety
/// hinge. The caller must drop the returned entries *outside* the `HANDLES`
/// borrow: the last cache to let go triggers `Inner::drop`, which runs user
/// deferred callbacks that may re-enter [`Collector::pin`].
#[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
fn sweep_abandoned(entries: &mut Vec<CachedHandle>) -> Vec<CachedHandle> {
    let mut evicted = Vec::new();
    let mut i = 0;
    while i < entries.len() {
        let inner = &entries[i].handle.collector.inner;
        // ordering: Relaxed — advisory census read; see the function docs
        // (spurious or missed evictions are benign and retried).
        if Arc::strong_count(inner) <= inner.tls_cached.load(Relaxed) {
            evicted.push(entries.swap_remove(i));
        } else {
            i += 1;
        }
    }
    evicted
}

thread_local! {
    /// Per-thread cache of handles, keyed by collector identity, backing
    /// [`Collector::pin`].
    static HANDLES: RefCell<HandleCache> = const {
        RefCell::new(HandleCache {
            entries: Vec::new(),
            pins_since_sweep: 0,
        })
    };
}

/// An epoch-based garbage collector.
///
/// `Collector` is a cheaply clonable handle to shared state; clones refer to
/// the same collector. Threads participate by [`register`](Self::register)ing
/// a [`LocalHandle`] (or implicitly through [`pin`](Self::pin)) and retire
/// garbage through a [`Guard`].
pub struct Collector {
    pub(crate) inner: Arc<Inner>,
}

impl Collector {
    /// Creates a new collector with no registered threads. The registry is
    /// sharded by the machine's available parallelism.
    pub fn new() -> Self {
        Self::with_shards(default_shards())
    }

    /// Creates a new collector with an explicit registry shard count
    /// (rounded up to a power of two; minimum one).
    ///
    /// [`new`](Self::new) sizes the registry automatically; this exists for
    /// tests — model checkers want the smallest state space, and sharding
    /// tests want a count other than the machine's.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Self {
            inner: Arc::new(Inner {
                epoch: CachePadded(AtomicU64::new(0)),
                shards: (0..shards).map(|_| Shard::new()).collect(),
                next_shard: AtomicUsize::new(0),
                epochs_advanced: AtomicU64::new(0),
                retired: AtomicU64::new(0),
                freed: AtomicU64::new(0),
                retired_bytes: AtomicU64::new(0),
                freed_bytes: AtomicU64::new(0),
                callback_panics: AtomicU64::new(0),
                unreclaimed_bytes: AtomicU64::new(0),
                peak_unreclaimed_bytes: AtomicU64::new(0),
                registry_locks: AtomicU64::new(0),
                bag_locks: AtomicU64::new(0),
                tls_cached: AtomicUsize::new(0),
                unpin_collect_period: AtomicUsize::new(UNPIN_COLLECT_PERIOD),
                bag_pool: Mutex::new(Vec::new()),
                reclaim_scratch: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Overrides how often a garbage-bearing guard-free unpin runs the
    /// opportunistic collect (default [`UNPIN_COLLECT_PERIOD`]; clamped to
    /// at least 1, which recovers collect-on-every-unpin). Test aid: model
    /// scenarios shrink the period to keep unpin-driven reclamation inside
    /// the explored schedule space, and throttle tests widen it.
    #[doc(hidden)]
    pub fn set_unpin_collect_period(&self, period: usize) {
        // ordering: Relaxed — config knob; stale readers just use the old
        // period for a few more unpins.
        self.inner
            .unpin_collect_period
            .store(period.max(1), Relaxed);
    }

    /// A process-unique identity for this collector, stable for its lifetime.
    #[inline]
    #[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
    pub(crate) fn id(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Creates and registers a fresh per-thread state in its home shard.
    fn register_state(&self) -> Arc<LocalState> {
        // ordering: Relaxed — round-robin cursor; only its atomicity
        // matters, the shard choice is a load-balancing heuristic.
        let shard = self.inner.next_shard.fetch_add(1, Relaxed) & (self.inner.shards.len() - 1);
        let local = Arc::new(LocalState::new(shard));
        self.inner.registry(shard).push(local.clone());
        local
    }

    /// Registers the calling context and returns its [`LocalHandle`].
    ///
    /// Registration takes a registry-shard lock; it is intended to happen
    /// once per thread, not once per critical section.
    pub fn register(&self) -> LocalHandle {
        LocalHandle {
            collector: self.clone(),
            local: self.register_state(),
            _not_sync: PhantomData,
        }
    }

    /// Pins the current thread using a cached per-thread handle, registering
    /// it on first use.
    ///
    /// This is the ergonomic entry point for code that does not want to
    /// thread a [`LocalHandle`] around. The cached handle is unregistered
    /// when the thread exits. A cache hit costs a thread-local lookup on
    /// top of [`LocalHandle::pin`]'s fast path — one fence, plain loads and
    /// stores of thread-owned words, and a read of the global epoch — and
    /// performs no atomic read-modify-write, takes no lock, and touches no
    /// reference count: the guard borrows `self` and the cached
    /// per-thread state instead of cloning either.
    pub fn pin(&self) -> Guard<'_> {
        // Model-checking tier: the TLS handle cache is deliberately outside
        // the model's scope. A cached handle is torn down by the OS
        // thread-exit TLS destructor, which runs *after* the model thread
        // has finished — i.e. outside the loomette scheduler — and its
        // registry unregistration would race the still-scheduled threads on
        // real time (nondeterministic replay, and a real deadlock if a
        // paused model thread holds the registry mutex). Orphan pins keep
        // every registry mutation inside the scheduled body.
        #[cfg(loom)]
        {
            self.pin_orphan()
        }
        #[cfg(not(loom))]
        loop {
            let outcome = HANDLES.try_with(|cache| {
                let mut cache = cache.borrow_mut();
                let cache = &mut *cache;
                let id = self.id();
                let pos = cache.entries.iter().position(|e| e.id == id);
                // Without the sweep, a long-lived thread would keep every
                // collector it ever pinned alive until thread exit.
                let evicted = cache.sweep_if_due(pos.is_none());
                if !evicted.is_empty() {
                    // Hand them out and retry: the drop must happen before
                    // our own pin exists (a callback may block on a grace
                    // period our pin would stall) and outside the borrow.
                    return Err(evicted);
                }
                // `pos` is still valid on this path: the sweep either did
                // not run or evicted nothing (else we returned above), so
                // the entries vec is unchanged.
                Ok(if let Some(p) = pos {
                    // Safety: a cached state stays registered while a guard
                    // on it lives (see `Guard::enter`).
                    unsafe { Guard::enter(self, Arc::as_ptr(&cache.entries[p].handle.local)) }
                } else {
                    self.register_into(cache)
                })
            });
            match outcome {
                Ok(Ok(guard)) => return guard,
                Ok(Err(evicted)) => {
                    // Unpinned and outside the `RefCell` borrow: dropping
                    // an evicted entry can run user deferred callbacks via
                    // `Inner::drop`, which may re-enter `pin` or wait on a
                    // grace period. Then retry; the sweep just ran, so the
                    // next iteration pins directly.
                    drop(evicted);
                }
                Err(_) => return self.pin_orphan(),
            }
        }
    }

    /// Like [`pin`](Self::pin) but never runs cache-eviction housekeeping,
    /// so no deferred callback can fire during the call.
    ///
    /// Use this to pin *inside* a critical section (a non-reentrant lock
    /// held): a callback fired by `pin`-time eviction could re-enter code
    /// that takes the same lock. Housekeeping happens on regular `pin`
    /// calls; code that pins *exclusively* through `pin_quiet` should pair
    /// each critical section with a [`housekeep`](Self::housekeep) call at
    /// a point where no lock is held and no guard is live, or abandoned
    /// collectors cached on the thread are only released at thread exit.
    pub fn pin_quiet(&self) -> Guard<'_> {
        // See `pin`: no TLS caching under the model checker.
        #[cfg(loom)]
        {
            self.pin_orphan()
        }
        #[cfg(not(loom))]
        {
            let cached = HANDLES.try_with(|cache| {
                let mut cache = cache.borrow_mut();
                let cache = &mut *cache;
                let id = self.id();
                if let Some(entry) = cache.entries.iter().find(|e| e.id == id) {
                    // Safety: as in `pin`.
                    unsafe { Guard::enter(self, Arc::as_ptr(&entry.handle.local)) }
                } else {
                    self.register_into(cache)
                }
            });
            match cached {
                Ok(guard) => guard,
                Err(_) => self.pin_orphan(),
            }
        }
    }

    /// Runs the sampled cache-eviction sweep a regular [`pin`](Self::pin)
    /// would run, without pinning. The complement of
    /// [`pin_quiet`](Self::pin_quiet): call it after leaving the critical
    /// section (no locks held, no guard live — evicted collectors' deferred
    /// callbacks run inline here and may themselves pin, block on a grace
    /// period, or take locks).
    pub fn housekeep(&self) {
        // See `pin`: no TLS cache — and so nothing to sweep — under the
        // model checker.
        #[cfg(not(loom))]
        {
            let evicted = HANDLES.try_with(|cache| cache.borrow_mut().sweep_if_due(false));
            if let Ok(evicted) = evicted {
                // Outside the borrow, as in `pin`.
                drop(evicted);
            }
        }
    }

    /// Registers this thread with the collector and caches the handle.
    /// Shared miss path of [`pin`](Self::pin)/[`pin_quiet`](Self::pin_quiet).
    #[cfg_attr(loom, allow(dead_code))] // TLS cache layer is outside the model's scope
    fn register_into(&self, cache: &mut HandleCache) -> Guard<'_> {
        let handle = self.register();
        // Safety: as in `pin`.
        let guard = unsafe { Guard::enter(self, Arc::as_ptr(&handle.local)) };
        cache.entries.push(CachedHandle {
            id: self.id(),
            handle,
        });
        // Count the entry only once it exists: during the window the
        // entry's reference is live but uncounted, so a concurrent sweep
        // reads `strong_count > tls_cached` and keeps its own entries. This
        // narrows (it cannot fully close — see `sweep_abandoned`) the
        // spurious-eviction race.
        // ordering: Relaxed — advisory census; see `sweep_abandoned`.
        self.inner.tls_cached.fetch_add(1, Relaxed);
        guard
    }

    /// One-shot registration for contexts where the TLS cache is being (or
    /// has been) destroyed — a thread-exit path, e.g. a deferred callback
    /// fired by the cache's own destructor. The registration is born
    /// orphaned (it has no [`LocalHandle`]); the guard unregisters it on
    /// drop.
    fn pin_orphan(&self) -> Guard<'_> {
        let local = self.register_state();
        // ordering: Relaxed — same-thread flag: the guard that consults it
        // lives on this thread (a handle serves one thread at a time).
        local.orphaned.store(true, Relaxed);
        // Safety: the registry holds the state until this guard, its only
        // user, unregisters it as its final action (see `Guard::enter`).
        unsafe { Guard::enter(self, Arc::as_ptr(&local)) }
    }

    /// Blocks until a full grace period has elapsed: every read-side critical
    /// section that was live when `synchronize` was called has ended, and all
    /// garbage retired before the call has been reclaimed.
    ///
    /// Equivalent to the paper's `synchronize_rcu`. The calling thread must
    /// **not** be pinned, otherwise this deadlocks (the epoch cannot advance
    /// past a pinned thread).
    pub fn synchronize(&self) {
        // ordering: Relaxed (both) — progress watch only: the advances this
        // loop waits for happen inside `try_advance`, which carries the real
        // ordering, and `reclaim` re-samples the epoch with Acquire.
        let start = self.inner.epoch.load(Relaxed);
        while self.inner.epoch.load(Relaxed) < start + GRACE_EPOCHS {
            if !self.inner.try_advance() {
                thread::yield_now();
            }
        }
        self.inner.reclaim();
    }

    /// Attempts one non-blocking epoch advance and reclaims any garbage whose
    /// grace period has elapsed. Returns the number of callbacks executed.
    ///
    /// Ready deferred callbacks run inline in the caller's context,
    /// regardless of any guards the caller holds — do not call this while
    /// pinned if a retired callback may wait on a grace period (see
    /// [`Guard::defer`]).
    pub fn collect(&self) -> usize {
        self.inner.collect().0
    }

    /// The current value of the global epoch.
    pub fn global_epoch(&self) -> u64 {
        // ordering: Relaxed — diagnostic snapshot of a monotone counter;
        // per-location coherence keeps it consistent with anything the
        // caller already observed.
        self.inner.epoch.load(Relaxed)
    }

    /// A point-in-time snapshot of the collector's counters.
    pub fn stats(&self) -> CollectorStats {
        let mut pending_bags = 0;
        let mut pending_objects = 0;
        let mut registered_threads = 0;
        for shard in 0..self.inner.shards.len() {
            let registry = self.inner.registry(shard);
            registered_threads += registry.len();
            for local in registry.iter() {
                let bag = self.inner.bag(local);
                if !bag.is_empty() {
                    pending_bags += 1;
                    pending_objects += bag.objects();
                }
            }
            drop(registry);
            let garbage = self.inner.shards[shard].garbage.lock().unwrap();
            pending_bags += garbage.len();
            pending_objects += garbage.iter().map(Bag::objects).sum::<usize>();
        }
        // ordering: Relaxed (all) — point-in-time snapshot of diagnostic
        // counters; the fields are not mutually consistent anyway.
        CollectorStats {
            global_epoch: self.inner.epoch.load(Relaxed),
            epochs_advanced: self.inner.epochs_advanced.load(Relaxed),
            objects_retired: self.inner.retired.load(Relaxed),
            objects_freed: self.inner.freed.load(Relaxed),
            bytes_retired: self.inner.retired_bytes.load(Relaxed),
            bytes_freed: self.inner.freed_bytes.load(Relaxed),
            peak_unreclaimed_bytes: self.inner.peak_unreclaimed_bytes.load(Relaxed),
            callback_panics: self.inner.callback_panics.load(Relaxed),
            pending_bags,
            pending_objects,
            registered_threads,
            registry_shards: self.inner.shards.len(),
            registry_locks: self.inner.registry_locks.load(Relaxed),
        }
    }

    /// Number of strong references to the collector's shared state —
    /// including this handle — i.e. live `Collector` clones plus
    /// [`LocalHandle`]s. Diagnostic: the hot-path regression test asserts
    /// that pinning does not move it.
    #[doc(hidden)]
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// This thread's cached state for the collector, if `pin` cached one —
    /// as a `Weak`, so that looking does not move the strong count.
    #[cfg(test)]
    pub(crate) fn cached_state(&self) -> Option<std::sync::Weak<LocalState>> {
        HANDLES.with(|cache| {
            let cache = cache.borrow();
            let entry = cache.entries.iter().find(|e| e.id == self.id())?;
            Some(Arc::downgrade(&entry.handle.local))
        })
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Collector {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl PartialEq for Collector {
    /// Two `Collector` handles are equal when they refer to the same
    /// underlying collector.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for Collector {}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("epoch", &self.global_epoch())
            .finish_non_exhaustive()
    }
}

/// A thread's registration with a [`Collector`].
///
/// Obtained from [`Collector::register`]. The handle is `Send` (it can be
/// moved to another thread) but not `Sync`: each handle serves exactly one
/// thread at a time, which is what makes [`pin`](Self::pin) a thread-local
/// operation.
pub struct LocalHandle {
    pub(crate) collector: Collector,
    pub(crate) local: Arc<LocalState>,
    /// `Cell` is `Send + !Sync`, making the handle single-thread-at-a-time.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl LocalHandle {
    /// Enters a read-side critical section (the paper's `rcu_read_begin`).
    ///
    /// The returned [`Guard`] borrows this handle, so it cannot outlive it:
    ///
    /// ```compile_fail,E0505
    /// use rcukit::Collector;
    ///
    /// let collector = Collector::new();
    /// let handle = collector.register();
    /// let guard = handle.pin();
    /// drop(handle); // ERROR: `handle` is still borrowed by `guard`
    /// drop(guard);
    /// ```
    ///
    /// Pinning is re-entrant: nested guards share the outermost guard's
    /// epoch. The outermost pin stores the thread's own status word (on a
    /// cache line no other thread writes), issues one StoreLoad fence, and
    /// re-reads the global epoch word; the matching unpin is one `Release`
    /// store clearing the status. Everything else on the path is a plain
    /// load or store of words only this thread writes: no atomic
    /// read-modify-write, no lock (an unpin that retired nothing skips the
    /// bag lock), no reference count — so readers never contend with each
    /// other, however many cores are faulting at once.
    pub fn pin(&self) -> Guard<'_> {
        // Safety: the guard borrows this handle, and the handle keeps its
        // state registered until it is dropped.
        unsafe { Guard::enter(&self.collector, Arc::as_ptr(&self.local)) }
    }

    /// Whether this handle currently has a live guard.
    pub fn is_pinned(&self) -> bool {
        // ordering: Relaxed — owner-thread counter: the handle's guards
        // live on the calling thread (the handle is `!Sync`).
        self.local.guard_count.load(Relaxed) > 0
    }

    /// The collector this handle is registered with.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        // ordering: Relaxed — owner-thread counter: any guard over this
        // state lives on the dropping thread (the handle is `!Sync`), so
        // there is no concurrent mutation to order against.
        if self.local.guard_count.load(Relaxed) == 0 {
            self.collector.inner.seal_bag(&self.local);
            self.collector.inner.unregister(Arc::as_ptr(&self.local));
        } else {
            // Guards from `LocalHandle::pin` cannot outlive the handle, but
            // guards from the TLS-cached `Collector::pin` path borrow the
            // collector, not the cached handle, and can: thread-exit TLS
            // destruction may drop the cached handle under a live guard
            // stored elsewhere in TLS. The registry's `Arc` keeps the state
            // alive; mark it orphaned so the last guard unregisters it.
            // ordering: Relaxed — same-thread flag, as above.
            self.local.orphaned.store(true, Relaxed);
        }
    }
}

impl fmt::Debug for LocalHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalHandle")
            .field("pinned", &self.is_pinned())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn epoch_advances_without_readers() {
        let c = Collector::new();
        let e0 = c.global_epoch();
        c.synchronize();
        assert!(c.global_epoch() >= e0 + GRACE_EPOCHS);
    }

    #[test]
    fn pinned_reader_blocks_advance_past_next_epoch() {
        let c = Collector::new();
        let h = c.register();
        let g = h.pin();
        let pinned_at = g.epoch();
        // The epoch can advance at most once past the pinned epoch.
        for _ in 0..10 {
            c.collect();
        }
        assert!(c.global_epoch() <= pinned_at + 1);
        drop(g);
        c.synchronize();
        assert!(c.global_epoch() >= pinned_at + GRACE_EPOCHS);
    }

    #[test]
    fn register_and_drop_updates_registry() {
        let c = Collector::new();
        assert_eq!(c.stats().registered_threads, 0);
        let h1 = c.register();
        let h2 = c.register();
        assert_eq!(c.stats().registered_threads, 2);
        drop(h1);
        assert_eq!(c.stats().registered_threads, 1);
        drop(h2);
        assert_eq!(c.stats().registered_threads, 0);
    }

    /// Registrations spread across every shard, epoch advance scans them
    /// all (a pinned thread in any shard blocks it), and unregistration
    /// finds the right shard.
    #[test]
    fn sharded_registry_scans_every_shard() {
        let c = Collector::with_shards(4);
        assert_eq!(c.stats().registry_shards, 4);
        // Round-robin: eight handles, two per shard.
        let handles: Vec<_> = (0..8).map(|_| c.register()).collect();
        assert_eq!(c.stats().registered_threads, 8);
        // Pin the handle that landed in the *last* shard; the advance scan
        // must still see it.
        let g = handles[3].pin();
        let pinned_at = g.epoch();
        for _ in 0..10 {
            c.collect();
        }
        assert!(c.global_epoch() <= pinned_at + 1);
        drop(g);
        c.synchronize();
        assert!(c.global_epoch() >= pinned_at + GRACE_EPOCHS);
        drop(handles);
        assert_eq!(c.stats().registered_threads, 0);
    }

    /// Garbage sealed into different shards' queues is all reclaimed.
    #[test]
    fn garbage_from_every_shard_is_reclaimed() {
        let fired = Arc::new(AtomicUsize::new(0));
        let c = Collector::with_shards(4);
        let handles: Vec<_> = (0..4).map(|_| c.register()).collect();
        for h in &handles {
            let g = h.pin();
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
        }
        c.synchronize();
        assert_eq!(fired.load(SeqCst), 4);
        let s = c.stats();
        assert_eq!(s.objects_retired, 4);
        assert_eq!(s.objects_freed, 4);
        assert_eq!(s.pending_bags, 0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(Collector::with_shards(0).stats().registry_shards, 1);
        assert_eq!(Collector::with_shards(3).stats().registry_shards, 4);
        assert_eq!(Collector::with_shards(8).stats().registry_shards, 8);
    }

    #[test]
    fn collector_drop_fires_pending_garbage() {
        static FIRED: AtomicUsize = AtomicUsize::new(0);
        let c = Collector::new();
        let h = c.register();
        {
            let g = h.pin();
            g.defer(|| {
                FIRED.fetch_add(1, SeqCst);
            });
        }
        drop(h);
        drop(c);
        assert_eq!(FIRED.load(SeqCst), 1);
    }

    #[test]
    fn tls_cache_releases_abandoned_collectors() {
        let fired = Arc::new(AtomicUsize::new(0));
        {
            let c = Collector::new();
            let g = c.pin(); // caches a handle in this thread's TLS
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
        }
        // The collector is now owned only by the TLS cache; its garbage has
        // not reached a grace period yet.
        assert_eq!(fired.load(SeqCst), 0);
        // Pinning any collector sweeps the cache, dropping the abandoned
        // entry and firing its remaining garbage via Inner::drop.
        let other = Collector::new();
        let _g = other.pin();
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// An abandoned collector cached in several threads' TLS must still be
    /// evicted: each sweep sees `strong_count == tls_cached` and drops its
    /// own entry, and the last eviction fires the pending garbage.
    #[test]
    fn abandoned_collector_cached_in_two_threads_is_evicted() {
        use std::sync::mpsc;

        let fired = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();

        let mut steps = Vec::new();
        let mut readies = Vec::new();
        let mut joins = Vec::new();
        for _ in 0..2 {
            let (step_tx, step_rx) = mpsc::channel::<()>();
            let (ready_tx, ready_rx) = mpsc::channel::<()>();
            let c = c.clone();
            let fired = fired.clone();
            joins.push(thread::spawn(move || {
                {
                    let g = c.pin(); // cache a handle in this thread's TLS
                    let fired = fired.clone();
                    g.defer(move || {
                        fired.fetch_add(1, SeqCst);
                    });
                }
                drop(c);
                ready_tx.send(()).unwrap();
                step_rx.recv().unwrap(); // main has dropped its handle
                let other = Collector::new();
                let _g = other.pin(); // sweep evicts this thread's entry
                ready_tx.send(()).unwrap();
                step_rx.recv().unwrap(); // stay alive until both swept
            }));
            steps.push(step_tx);
            readies.push(ready_rx);
        }
        for rx in &readies {
            rx.recv().unwrap();
        }
        // Only the two TLS caches own the collector now. Sweep one thread at
        // a time so each observes the other's entry consistently.
        drop(c);
        for (tx, rx) in steps.iter().zip(&readies) {
            tx.send(()).unwrap();
            rx.recv().unwrap();
        }
        assert_eq!(fired.load(SeqCst), 2);
        for tx in &steps {
            tx.send(()).unwrap();
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    /// A deferred callback fired by a sweep eviction (via `Inner::drop`) may
    /// itself pin a collector; this must not panic on the TLS `RefCell`.
    #[test]
    fn eviction_fired_callback_may_repin() {
        let fired = Arc::new(AtomicUsize::new(0));
        let other = Collector::new();
        {
            let c = Collector::new();
            let g = c.pin(); // caches a handle to `c` in this thread's TLS
            let f = fired.clone();
            let o = other.clone();
            g.defer(move || {
                let _g = o.pin(); // re-enters the TLS cache
                f.fetch_add(1, SeqCst);
            });
        }
        // Sweeping evicts `c`, dropping its last reference; `Inner::drop`
        // runs the callback above, which pins `other` recursively.
        let _g = other.pin();
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// A thread whose every pin is a cache hit must still release abandoned
    /// collectors: the hit path sweeps every `SWEEP_PERIOD`-th pin.
    #[test]
    fn hit_path_sampled_sweep_releases_abandoned_collectors() {
        let fired = Arc::new(AtomicUsize::new(0));
        let b = Collector::new();
        drop(b.pin()); // cache `b` while `a` does not exist yet
        {
            let a = Collector::new();
            let g = a.pin();
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
        }
        // `a` is now owned only by this thread's TLS cache; every further
        // pin of `b` is a cache hit, so only the sampled sweep can evict it.
        assert_eq!(fired.load(SeqCst), 0);
        for _ in 0..=SWEEP_PERIOD {
            drop(b.pin());
        }
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// `pin_quiet` must never run eviction housekeeping (it exists to be
    /// callable with non-reentrant locks held); a regular pin still does.
    #[test]
    fn pin_quiet_runs_no_housekeeping() {
        let fired = Arc::new(AtomicUsize::new(0));
        let other = Collector::new();
        drop(other.pin_quiet());
        {
            let c = Collector::new();
            let g = c.pin();
            let f = fired.clone();
            g.defer(move || {
                f.fetch_add(1, SeqCst);
            });
        }
        // `c` is abandoned in this thread's TLS; quiet pins must not evict
        // it no matter how often they run.
        for _ in 0..=SWEEP_PERIOD {
            drop(other.pin_quiet());
        }
        assert_eq!(fired.load(SeqCst), 0);
        // A regular sweeping pin (cache miss) still reclaims it.
        let fresh = Collector::new();
        drop(fresh.pin());
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// An eviction-fired callback may block on a grace period (e.g. call
    /// `synchronize`). The sweep must therefore never run — and never drop
    /// evicted handles — while this thread holds any guard, or the callback
    /// would wait forever on our own pin.
    #[test]
    fn eviction_callback_blocking_on_grace_does_not_deadlock() {
        let fired = Arc::new(AtomicUsize::new(0));
        let x = Collector::new();
        drop(x.pin()); // cache `x` so later pins are hits, not sweeping misses
        {
            let y = Collector::new();
            let g = y.pin();
            let f = fired.clone();
            let x2 = x.clone();
            g.defer(move || {
                x2.synchronize(); // completes only if the thread is unpinned
                f.fetch_add(1, SeqCst);
            });
        }
        // `y` is abandoned in this thread's TLS. While pinned on `x`, even
        // sweep-due nested pins must skip the sweep.
        let outer = x.pin();
        for _ in 0..=SWEEP_PERIOD {
            drop(x.pin());
        }
        assert_eq!(fired.load(SeqCst), 0);
        drop(outer);
        // First guard-free pin runs the overdue sweep; the callback's
        // synchronize() now makes progress.
        drop(x.pin());
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// A deferred callback can also fire from the TLS cache's *destructor*
    /// when an exiting thread owns an abandoned collector's last reference.
    /// Re-entrant pinning then cannot touch the dying TLS value; the
    /// fallback path must register-and-pin without it (and clean up).
    #[test]
    fn thread_exit_fired_callback_may_repin() {
        let fired = Arc::new(AtomicUsize::new(0));
        let other = Collector::new();
        let o = other.clone();
        let f = fired.clone();
        thread::spawn(move || {
            let c = Collector::new();
            let g = c.pin(); // caches a handle to `c` in this thread's TLS
            g.defer(move || {
                let _g = o.pin();
                f.fetch_add(1, SeqCst);
            });
            drop(g);
            drop(c);
            // The thread now exits owning `c` only through its TLS cache;
            // the cache destructor drops the last reference and
            // `Inner::drop` fires the callback above mid-TLS-destruction.
        })
        .join()
        .unwrap();
        assert_eq!(fired.load(SeqCst), 1);
        // The fallback registration was cleaned up when its guard dropped.
        assert_eq!(other.stats().registered_threads, 0);
    }

    /// A guard from the TLS-cached `pin` outlives its cached handle — the
    /// teardown order of thread exit, driven here by emptying the cache
    /// under the live guard. The handle's drop must leave the state
    /// registered (the guard still reads it, and the registry's `Arc` is
    /// what keeps it alive); the guard's drop must then unregister it
    /// exactly once (a second unregister trips the debug assertion in
    /// `Inner::unregister`) and free it, and its garbage must still be
    /// reclaimed.
    #[test]
    fn guard_outliving_its_cached_handle_unregisters_once() {
        let fired = Arc::new(AtomicUsize::new(0));
        let c = Collector::new();
        let baseline = c.stats().registered_threads;
        let g = c.pin();
        let state = c.cached_state().expect("pin cached a handle");
        let evicted = HANDLES.with(|cache| mem::take(&mut cache.borrow_mut().entries));
        drop(evicted);
        assert_eq!(c.stats().registered_threads, baseline + 1);
        assert_eq!(state.strong_count(), 1, "only the registry holds the state");
        let f = fired.clone();
        g.defer(move || {
            f.fetch_add(1, SeqCst);
        });
        drop(g);
        assert_eq!(c.stats().registered_threads, baseline);
        assert_eq!(state.strong_count(), 0, "the orphaned state was not freed");
        c.synchronize();
        assert_eq!(fired.load(SeqCst), 1);
    }

    /// The same, through real thread exit: a guard parked in a TLS slot
    /// that is destroyed after the handle cache. The slot is touched before
    /// the first pin so that its destructor is registered first, which
    /// runs it last where TLS destructors run in reverse registration
    /// order (glibc); elsewhere the guard may drop first, which must be
    /// just as clean.
    #[test]
    fn guard_in_tls_outliving_thread_exit_unregisters() {
        static C: std::sync::OnceLock<Collector> = std::sync::OnceLock::new();
        thread_local! {
            static SLOT: RefCell<Option<Guard<'static>>> = const { RefCell::new(None) };
        }
        let c = C.get_or_init(Collector::new);
        let baseline = c.stats().registered_threads;
        thread::spawn(move || {
            SLOT.with(|_| ());
            let g = c.pin();
            SLOT.with(|slot| *slot.borrow_mut() = Some(g));
        })
        .join()
        .unwrap();
        assert_eq!(c.stats().registered_threads, baseline);
    }

    #[test]
    fn clone_eq_identity() {
        let a = Collector::new();
        let b = a.clone();
        let c = Collector::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
