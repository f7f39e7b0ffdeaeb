//! What the benchmark drives: an [`AddressSpace`] plus the read-only probes
//! the report needs.
//!
//! Every timed fault, map, unmap and unmap_range goes through the
//! `AddressSpace` methods. The extra methods here are the benchmark's view
//! into the system under test: forking into a value it can snapshot, the
//! final region set for the oracle, and counters read between calls,
//! never inside one.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use bonsai::{AddressSpace, RangeMap};
use rcukit::{Collector, ReclaimBackend};
use rcukit_bench::baseline::LockedAddressSpace;

/// Monotonic nanoseconds since the start of one repetition.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock reading zero now.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since [`start`](Self::start).
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Contention counters of one `RangeMap` (all zero on other subjects).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Root-CAS commits that lost to a concurrent writer and rebuilt.
    pub cas_retries: u64,
    /// Speculative nodes those lost commits threw away.
    pub cas_wasted_nodes: u64,
    /// Range-lock acquisitions that waited for an overlapping holder.
    pub contended_acquires: u64,
}

impl Counters {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cas_retries: self.cas_retries - earlier.cas_retries,
            cas_wasted_nodes: self.cas_wasted_nodes - earlier.cas_wasted_nodes,
            contended_acquires: self.contended_acquires - earlier.contended_acquires,
        }
    }

    /// Field-by-field sum.
    pub fn add(&mut self, other: &Counters) {
        self.cas_retries += other.cas_retries;
        self.cas_wasted_nodes += other.cas_wasted_nodes;
        self.contended_acquires += other.contended_acquires;
    }
}

/// An address space the benchmark can replay, fork, check and probe.
pub trait Subject: AddressSpace + Sized + 'static {
    /// Forks the space. For `RangeMap` this is the call that
    /// `AddressSpace::fork` boxes; keeping the concrete type lets the
    /// oracle snapshot the child.
    fn fork_child(&self) -> Self;

    /// The regions in address order, or `None` when the subject cannot
    /// list them (the lock-based baseline).
    fn snapshot(&self) -> Option<Vec<(u64, u64)>>;

    /// The reclamation backend, if the subject has one.
    fn reclaim(&self) -> Option<&ReclaimBackend> {
        None
    }

    /// Contention counters (see [`Counters`]).
    fn counters(&self) -> Counters {
        Counters::default()
    }

    /// Largest arena chunk count among the pooled writer scratches.
    fn arena_chunks(&self) -> u64 {
        0
    }

    /// A fault replayed as pin, lookup and unpin through the public epoch
    /// API, stamping `marks` with `[pin start, pin end, lookup start,
    /// lookup end, unpin start, unpin end]` on `clock`.
    ///
    /// # Panics
    ///
    /// The default panics: only subjects with an epoch read side have
    /// these phases.
    fn traced_fault(&self, addr: u64, clock: &Clock, marks: &mut [u64; 6]) -> bool {
        let _ = (addr, clock, marks);
        panic!("traced faults need an epoch RangeMap subject")
    }
}

/// The system as shipped: a `RangeMap` on its default epoch backend.
pub fn epoch_range_map() -> RangeMap<()> {
    RangeMap::new(Collector::new())
}

impl Subject for RangeMap<()> {
    fn fork_child(&self) -> Self {
        RangeMap::fork(self)
    }

    fn snapshot(&self) -> Option<Vec<(u64, u64)>> {
        Some(self.to_vec().into_iter().map(|(s, e, ())| (s, e)).collect())
    }

    fn reclaim(&self) -> Option<&ReclaimBackend> {
        Some(self.backend())
    }

    fn counters(&self) -> Counters {
        Counters {
            cas_retries: self.cas_retries(),
            cas_wasted_nodes: self.cas_wasted_nodes(),
            contended_acquires: self.contended_acquires(),
        }
    }

    fn arena_chunks(&self) -> u64 {
        self.writer_arena_chunks() as u64
    }

    #[inline]
    fn traced_fault(&self, addr: u64, clock: &Clock, marks: &mut [u64; 6]) -> bool {
        marks[0] = clock.now();
        let guard = self.pin();
        marks[1] = clock.now();
        marks[2] = clock.now();
        let hit = self.lookup(addr, &guard).is_some();
        marks[3] = clock.now();
        marks[4] = clock.now();
        drop(guard);
        marks[5] = clock.now();
        hit
    }
}

/// The same-run reference: `rcukit_bench::baseline::LockedAddressSpace`
/// (one `RwLock<BTreeMap>`), forked through `AddressSpace::fork`.
pub struct Locked(Box<dyn AddressSpace>);

impl std::fmt::Debug for Locked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Locked")
            .field("regions", &self.0.regions())
            .finish()
    }
}

impl Locked {
    /// An empty locked address space.
    pub fn new() -> Self {
        Locked(Box::new(LockedAddressSpace::new()))
    }
}

impl Default for Locked {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace for Locked {
    fn fault(&self, addr: u64) -> bool {
        self.0.fault(addr)
    }
    fn map(&self, start: u64, end: u64) -> bool {
        self.0.map(start, end)
    }
    fn unmap(&self, start: u64) -> bool {
        self.0.unmap(start)
    }
    fn unmap_range(&self, start: u64, end: u64) -> usize {
        self.0.unmap_range(start, end)
    }
    fn regions(&self) -> usize {
        self.0.regions()
    }
    fn fork(&self) -> Box<dyn AddressSpace> {
        self.0.fork()
    }
}

impl Subject for Locked {
    fn fork_child(&self) -> Self {
        Locked(self.0.fork())
    }

    fn snapshot(&self) -> Option<Vec<(u64, u64)>> {
        None
    }
}

/// A deliberate defect, to prove the oracle fires (`--sabotage`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sabotage {
    /// One `unmap` reports success and unmaps nothing.
    DropUnmap,
    /// One fault returns the opposite of the truth.
    FlipFault,
}

impl Sabotage {
    /// Parses a `--sabotage` value.
    pub fn parse(s: &str) -> Result<Sabotage, String> {
        match s {
            "drop-unmap" => Ok(Sabotage::DropUnmap),
            "flip-fault" => Ok(Sabotage::FlipFault),
            other => Err(format!(
                "unknown sabotage {other:?} (drop-unmap|flip-fault)"
            )),
        }
    }
}

/// The call (counted from 0 over the space and all its forks) that a
/// [`Sabotaged`] space corrupts.
const SABOTAGED_CALL: u64 = 1000;

/// A `RangeMap` with one wrong answer in it: the [`SABOTAGED_CALL`]th
/// call of the sabotaged kind misbehaves.
#[derive(Debug)]
pub struct Sabotaged {
    inner: RangeMap<()>,
    kind: Sabotage,
    calls: Arc<AtomicU64>,
}

impl Sabotaged {
    /// A fresh epoch `RangeMap` carrying `kind`.
    pub fn new(kind: Sabotage) -> Self {
        Sabotaged {
            inner: epoch_range_map(),
            kind,
            calls: Arc::new(AtomicU64::new(0)),
        }
    }

    fn fires(&self, kind: Sabotage) -> bool {
        // ordering: Relaxed — a call counter that publishes nothing.
        self.kind == kind && self.calls.fetch_add(1, Relaxed) == SABOTAGED_CALL
    }
}

impl AddressSpace for Sabotaged {
    fn fault(&self, addr: u64) -> bool {
        self.inner.fault(addr) ^ self.fires(Sabotage::FlipFault)
    }
    fn map(&self, start: u64, end: u64) -> bool {
        AddressSpace::map(&self.inner, start, end)
    }
    fn unmap(&self, start: u64) -> bool {
        self.fires(Sabotage::DropUnmap) || AddressSpace::unmap(&self.inner, start)
    }
    fn unmap_range(&self, start: u64, end: u64) -> usize {
        AddressSpace::unmap_range(&self.inner, start, end)
    }
    fn regions(&self) -> usize {
        AddressSpace::regions(&self.inner)
    }
    fn fork(&self) -> Box<dyn AddressSpace> {
        Box::new(self.fork_child())
    }
}

impl Subject for Sabotaged {
    fn fork_child(&self) -> Self {
        Sabotaged {
            inner: self.inner.fork_child(),
            kind: self.kind,
            calls: self.calls.clone(),
        }
    }
    fn snapshot(&self) -> Option<Vec<(u64, u64)>> {
        self.inner.snapshot()
    }
    fn reclaim(&self) -> Option<&ReclaimBackend> {
        self.inner.reclaim()
    }
    fn counters(&self) -> Counters {
        self.inner.counters()
    }
    fn arena_chunks(&self) -> u64 {
        self.inner.arena_chunks()
    }
    fn traced_fault(&self, addr: u64, clock: &Clock, marks: &mut [u64; 6]) -> bool {
        self.inner.traced_fault(addr, clock, marks) ^ self.fires(Sabotage::FlipFault)
    }
}
