//! The paper's evaluation sweep: replay one deterministic address-space
//! workload against every backend across a range of thread counts.
//!
//! For every `(profile, thread count)` point the driver generates the
//! per-thread traces once, then replays the *identical* ops against each
//! backend — the RCU [`RangeMap`] on each of the four reclamation
//! backends (epoch, QSBR, hazard pointers, hybrid interval-based) and the
//! [`LockedAddressSpace`] baseline — timing the whole replay. One JSON record per `(profile,
//! threads, backend)` point goes to stdout as it completes, and the full
//! run is written as a `BENCH_addrspace.json` trajectory file.
//!
//! Replays are fixed-work (ops per thread), not fixed-duration, so a run
//! is exactly reproducible from its seed and directly comparable across
//! backends, machines, and repo history: only the elapsed time varies.
//!
//! The `stalled-reader` profile additionally parks one extra reader inside
//! the backend's read-side protection for the whole replay; its
//! `peak_unreclaimed_bytes` column is the bounded-garbage comparison (see
//! [`Profile::StalledReader`]).
//!
//! The `fork-storm` profile replays through a multi-tenant process
//! lifecycle instead of straight through: each thread runs
//! `forks_per_thread` fork/exec/exit cycles — `fork()` the youngest
//! lineage (timed per call), replay that lifecycle's chunk of the trace
//! against the child, keep a ring of `live_per_thread` live children,
//! exit the oldest — so hundreds of concurrent address spaces share
//! subtrees against one collector. Its records carry the fork count, the
//! peak live-space gauge, and fork-latency percentiles (see
//! [`Profile::ForkStorm`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use bonsai::{AddressSpace, RangeMap};
use rcukit::{ReclaimBackend, ReclaimKind};

use crate::baseline::LockedAddressSpace;
use crate::workload::{Op, Profile, Rng, WorkloadSpec};

/// Which address-space implementation a replay point runs against: the
/// RCU `RangeMap` on one of the four reclamation backends, or the locked
/// baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The Bonsai-tree `RangeMap`, epoch-based reclamation (the default
    /// and historical "bonsai" record).
    Bonsai,
    /// The Bonsai-tree `RangeMap`, quiescent-state-based reclamation.
    Qsbr,
    /// The Bonsai-tree `RangeMap`, hazard-pointer reclamation (bounded
    /// garbage under a stalled reader).
    Hp,
    /// The Bonsai-tree `RangeMap`, hybrid interval-based reclamation:
    /// grace-period-cheap reads that degrade gracefully — a stalled
    /// reader blocks only garbage born before its pin, so
    /// `peak_unreclaimed_bytes` stays bounded while `stall_events` /
    /// `degraded_ops` record the degradation.
    Hybrid,
    /// The `RwLock<BTreeMap>` baseline (lock-serialized faults).
    Locked,
}

impl Backend {
    /// All backends, in reporting order.
    pub const ALL: [Backend; 5] = [
        Backend::Bonsai,
        Backend::Qsbr,
        Backend::Hp,
        Backend::Hybrid,
        Backend::Locked,
    ];

    /// The backend's name as used by the CLI and the JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Bonsai => "bonsai",
            Backend::Qsbr => "qsbr",
            Backend::Hp => "hp",
            Backend::Hybrid => "hybrid",
            Backend::Locked => "locked",
        }
    }

    /// The reclamation backend driving this point's `RangeMap`, or `None`
    /// for the locked baseline.
    pub fn reclaim_kind(self) -> Option<ReclaimKind> {
        match self {
            Backend::Bonsai => Some(ReclaimKind::Epoch),
            Backend::Qsbr => Some(ReclaimKind::Qsbr),
            Backend::Hp => Some(ReclaimKind::Hp),
            Backend::Hybrid => Some(ReclaimKind::Hybrid),
            Backend::Locked => None,
        }
    }

    /// Parses a CLI backend name.
    pub fn parse(s: &str) -> Result<Backend, String> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Backend::ALL.map(Backend::name).into();
                format!("unknown backend {s:?} (expected {}|all)", names.join("|"))
            })
    }
}

/// Configuration for one sweep run.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Thread counts to scale across, e.g. `[1, 2, 4]`.
    pub threads: Vec<usize>,
    /// Profiles to run, e.g. all three.
    pub profiles: Vec<Profile>,
    /// Backends to compare.
    pub backends: Vec<Backend>,
    /// Operations each replaying thread performs.
    pub ops_per_thread: usize,
    /// Region slots per thread arena.
    pub slots_per_thread: u64,
    /// Maximum pages per mapped region.
    pub pages_per_slot: u64,
    /// Master seed for trace generation.
    pub seed: u64,
    /// Fork/exec/exit cycles per thread under the `fork-storm` profile
    /// (ignored by the others).
    pub forks_per_thread: usize,
    /// Live children each thread keeps before exiting the oldest, under
    /// the `fork-storm` profile (ignored by the others).
    pub live_per_thread: usize,
    /// Trajectory file path, or `None` for stdout-only.
    pub out: Option<String>,
}

impl SweepConfig {
    /// Validates the sweep shape and every workload spec it implies.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads.is_empty() {
            return Err("sweep needs at least one thread count".into());
        }
        if self.profiles.is_empty() {
            return Err("sweep needs at least one profile".into());
        }
        if self.backends.is_empty() {
            return Err("sweep needs at least one backend".into());
        }
        if self.forks_per_thread == 0 {
            return Err("forks per thread must be >= 1".into());
        }
        if self.live_per_thread == 0 {
            return Err("live children per thread must be >= 1".into());
        }
        for &threads in &self.threads {
            self.spec(self.profiles[0], threads).validate()?;
        }
        Ok(())
    }

    fn spec(&self, profile: Profile, threads: usize) -> WorkloadSpec {
        WorkloadSpec {
            profile,
            threads,
            ops_per_thread: self.ops_per_thread,
            slots_per_thread: self.slots_per_thread,
            pages_per_slot: self.pages_per_slot,
            seed: self.seed,
        }
    }
}

/// Per-replay operation tallies, summed over threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Fault ops replayed.
    pub faults: u64,
    /// Faults that found a mapped region.
    pub fault_hits: u64,
    /// Map ops replayed.
    pub maps: u64,
    /// Map ops the backend rejected — always 0 unless a backend is buggy
    /// (traces are overlap-free by construction).
    pub map_rejects: u64,
    /// Unmap ops replayed.
    pub unmaps: u64,
    /// Unmap ops that found nothing — always 0 unless a backend is buggy.
    pub unmap_misses: u64,
    /// Multi-region `unmap_range` ops replayed (spans that remove several
    /// regions and split/truncate straddlers).
    pub unmap_ranges: u64,
    /// Ranged unmaps that affected no region — always 0 unless a backend
    /// is buggy (generated spans always intersect their anchor region).
    pub unmap_range_misses: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.faults += other.faults;
        self.fault_hits += other.fault_hits;
        self.maps += other.maps;
        self.map_rejects += other.map_rejects;
        self.unmaps += other.unmaps;
        self.unmap_misses += other.unmap_misses;
        self.unmap_ranges += other.unmap_ranges;
        self.unmap_range_misses += other.unmap_range_misses;
    }
}

/// One measured `(profile, threads, backend)` point.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// Workload shape replayed.
    pub profile: Profile,
    /// Backend driven.
    pub backend: Backend,
    /// Replaying thread count.
    pub threads: usize,
    /// Wall-clock time for the whole replay.
    pub elapsed: Duration,
    /// Operation tallies across all threads.
    pub tally: Tally,
    /// Deferred retirements tagged by the reclamation backend (RCU
    /// backends only).
    pub retired: u64,
    /// Deferred retirements executed after the final grace period / scan;
    /// `retired == freed` is the no-leak check (`reclaim_ok` in the JSON).
    pub freed: u64,
    /// High-water mark of retired-but-not-yet-reclaimed bytes over the
    /// whole replay (RCU backends; 0 for locked). The bounded-garbage
    /// gauge the `stalled-reader` profile compares: grace-period backends
    /// grow it with the stalled window; hazard pointers and the hybrid
    /// backend keep it bounded.
    pub peak_unreclaimed_bytes: u64,
    /// Readers the hybrid backend's scan declared stalled after their
    /// blocked garbage aged past the domain budget (hybrid backend only;
    /// 0 elsewhere). Nonzero on the `stalled-reader` profile is the
    /// degradation protocol firing as designed.
    pub stall_events: u64,
    /// Retirements performed while at least one reader was flagged
    /// stalled — ops served in degraded (bounded-garbage) mode rather
    /// than blocking on the stalled grace period (hybrid backend only).
    pub degraded_ops: u64,
    /// Root-CAS commits that lost to a concurrent writer and rebuilt
    /// (bonsai backend; always 0 at `threads == 1` and for locked). The
    /// wasted-work telemetry the bounded backoff exists to curb.
    pub cas_retries: u64,
    /// Speculative copy-on-write nodes those failed commits discarded.
    pub cas_wasted_nodes: u64,
    /// Single-thread read-side latency in nanoseconds per op: the median
    /// of five timed passes of `fault` calls on one thread, against the
    /// replay's final state after the final `synchronize` — for the
    /// bonsai backend that is the full pin + lookup + unpin path whose
    /// per-op cost the ordering audit targets; for the locked backend,
    /// lock + lookup. Same address stream for every backend at a given
    /// `(profile, threads)` point.
    pub read_op_ns: f64,
    /// Fork-lifecycle metrics (`fork-storm` profile; all zeros elsewhere).
    pub fork: ForkMetrics,
}

/// Fork-latency and multi-tenancy metrics from a `fork-storm` replay.
/// All-zero for profiles that never fork.
#[derive(Clone, Copy, Debug, Default)]
pub struct ForkMetrics {
    /// Address spaces forked over the whole replay (threads ×
    /// `forks_per_thread`).
    pub forks: u64,
    /// Peak number of concurrently live *forked* spaces across all
    /// threads (the shared parent is not counted).
    pub live_spaces_peak: u64,
    /// Median per-`fork()` latency in nanoseconds — O(depth) structural
    /// sharing on the RCU backends vs. the locked baseline's O(n) deep
    /// copy.
    pub fork_p50_ns: u64,
    /// 90th-percentile fork latency in nanoseconds.
    pub fork_p90_ns: u64,
    /// 99th-percentile fork latency in nanoseconds.
    pub fork_p99_ns: u64,
    /// Slowest single fork in nanoseconds.
    pub fork_max_ns: u64,
}

impl PointResult {
    /// Total replayed operations.
    pub fn total_ops(&self) -> u64 {
        self.tally.faults + self.tally.maps + self.tally.unmaps + self.tally.unmap_ranges
    }

    /// The record as one JSON object (also the stdout progress line).
    pub fn to_json(&self) -> String {
        let secs = self.elapsed.as_secs_f64();
        let t = &self.tally;
        format!(
            "{{\"profile\":\"{}\",\"backend\":\"{}\",\"threads\":{},\
             \"total_ops\":{},\"elapsed_ms\":{:.3},\"ops_per_sec\":{:.0},\
             \"faults\":{},\"fault_hits\":{},\"fault_hit_rate\":{:.3},\"faults_per_sec\":{:.0},\
             \"maps\":{},\"map_rejects\":{},\"unmaps\":{},\"unmap_misses\":{},\
             \"unmap_ranges\":{},\"unmap_range_misses\":{},\
             \"mutations_per_sec\":{:.0},\
             \"retired\":{},\"freed\":{},\"reclaim_ok\":{},\
             \"peak_unreclaimed_bytes\":{},\
             \"stall_events\":{},\"degraded_ops\":{},\
             \"cas_retries\":{},\"cas_wasted_nodes\":{},\
             \"read_op_ns\":{:.2},\
             \"forks\":{},\"live_spaces_peak\":{},\
             \"fork_p50_ns\":{},\"fork_p90_ns\":{},\"fork_p99_ns\":{},\
             \"fork_max_ns\":{}}}",
            self.profile.name(),
            self.backend.name(),
            self.threads,
            self.total_ops(),
            secs * 1e3,
            self.total_ops() as f64 / secs,
            t.faults,
            t.fault_hits,
            t.fault_hits as f64 / t.faults.max(1) as f64,
            t.faults as f64 / secs,
            t.maps,
            t.map_rejects,
            t.unmaps,
            t.unmap_misses,
            t.unmap_ranges,
            t.unmap_range_misses,
            (t.maps + t.unmaps + t.unmap_ranges) as f64 / secs,
            self.retired,
            self.freed,
            self.retired == self.freed,
            self.peak_unreclaimed_bytes,
            self.stall_events,
            self.degraded_ops,
            self.cas_retries,
            self.cas_wasted_nodes,
            self.read_op_ns,
            self.fork.forks,
            self.fork.live_spaces_peak,
            self.fork.fork_p50_ns,
            self.fork.fork_p90_ns,
            self.fork.fork_p99_ns,
            self.fork.fork_max_ns,
        )
    }
}

/// Faults timed per read-microbench sample.
const READ_SAMPLE: usize = 20_000;
/// Samples the read microbench takes; it reports their median.
const READ_SAMPLES: usize = 5;

/// Single-thread read-side microbench: [`READ_SAMPLES`] timed passes of
/// [`READ_SAMPLE`] `fault` calls each against the post-replay address
/// space, returning the median pass's nanoseconds per op. Call it after
/// the point's final `synchronize`, so it times lookups and not the drain
/// of a garbage backlog.
///
/// Addresses are pre-drawn (seeded from the spec, so every backend at a
/// point sees the identical stream) and the hit count is kept live
/// through `black_box`, so the timed loop is exactly the backend's fault
/// path, called through the trait object as the replay calls it — for
/// bonsai, pin + lookup + unpin per call. The passes run on a
/// thread of their own, whose exit drops whatever per-thread reader
/// state (a cached QSBR handle, an epoch registration) the lookups set
/// up.
fn read_microbench(space: &dyn AddressSpace, spec: &WorkloadSpec) -> f64 {
    let mut rng = Rng::new(spec.seed ^ 0xB1C9_0DD5_EE75_11A7);
    let addrs: Vec<u64> = (0..READ_SAMPLE).map(|_| rng.below(spec.span())).collect();
    let mut samples: Vec<f64> = thread::scope(|s| {
        s.spawn(|| {
            (0..READ_SAMPLES)
                .map(|_| {
                    let started = Instant::now();
                    let mut hits = 0u64;
                    for &addr in &addrs {
                        if space.fault(addr) {
                            hits += 1;
                        }
                    }
                    let elapsed = started.elapsed();
                    std::hint::black_box(hits);
                    elapsed.as_nanos() as f64 / READ_SAMPLE as f64
                })
                .collect()
        })
        .join()
        .expect("read microbench panicked")
    });
    samples.sort_by(f64::total_cmp);
    samples[READ_SAMPLES / 2]
}

/// Replays one op slice against one address space, updating `tally` —
/// the inner loop shared by the straight-through replay (whole trace,
/// one space) and the fork-storm lifecycle (per-child chunks).
fn replay_ops(space: &dyn AddressSpace, ops: &[Op], tally: &mut Tally) {
    for op in ops {
        match *op {
            Op::Fault(addr) => {
                tally.faults += 1;
                if space.fault(addr) {
                    tally.fault_hits += 1;
                }
            }
            Op::Map(start, end) => {
                tally.maps += 1;
                if !space.map(start, end) {
                    tally.map_rejects += 1;
                }
            }
            Op::Unmap(start) => {
                tally.unmaps += 1;
                if !space.unmap(start) {
                    tally.unmap_misses += 1;
                }
            }
            Op::UnmapRange(start, end) => {
                tally.unmap_ranges += 1;
                if space.unmap_range(start, end) == 0 {
                    tally.unmap_range_misses += 1;
                }
            }
        }
    }
}

/// Runs `work(t)` for every `t in 0..threads` on its own thread, all
/// released together by a barrier, and returns the replay's wall time
/// with each worker's output in thread order.
///
/// Each worker timestamps its own start and finish; the wall time is
/// `max(finish) - min(start)`. Timing on the calling thread instead would
/// under-measure on oversubscribed boxes: workers can replay for
/// milliseconds before a barrier-released caller is rescheduled.
fn run_workers<T: Send>(threads: usize, work: impl Fn(usize) -> T + Sync) -> (Duration, Vec<T>) {
    let barrier = Barrier::new(threads);
    let timed: Vec<(Instant, Instant, T)> = thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    let out = work(t);
                    (started, Instant::now(), out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let start = timed.iter().map(|w| w.0).min();
    let finish = timed.iter().map(|w| w.1).max();
    let elapsed = start.zip(finish).map_or(Duration::ZERO, |(s, f)| f - s);
    (elapsed, timed.into_iter().map(|w| w.2).collect())
}

/// Replays one point's pre-generated traces against `space`, one thread
/// per trace — straight through, or through the fork-storm lifecycle on
/// profiles that fork — and returns wall time, summed tallies and fork
/// metrics.
///
/// The initial regions are mapped first, on a set-up thread that exits
/// before the replay starts. Mapping them on the calling thread instead
/// would leave its cached QSBR handle registered, online and silent for
/// the rest of the point: a stalled reader no profile asked for, which
/// stops every QSBR grace period until the final `synchronize`.
fn replay_point(
    cfg: &SweepConfig,
    spec: &WorkloadSpec,
    space: &dyn AddressSpace,
    traces: &[Vec<Op>],
) -> (Duration, Tally, ForkMetrics) {
    thread::scope(|s| {
        s.spawn(|| {
            for t in 0..spec.threads {
                for (start, end) in spec.initial_regions(t) {
                    assert!(space.map(start, end), "initial region overlap");
                }
            }
        });
    });
    if spec.profile.forks_processes() {
        return replay_fork_storm(space, traces, cfg.forks_per_thread, cfg.live_per_thread);
    }
    let (elapsed, tallies) = run_workers(spec.threads, |t| {
        let mut tally = Tally::default();
        replay_ops(space, &traces[t], &mut tally);
        tally
    });
    let mut tally = Tally::default();
    for t in &tallies {
        tally.add(t);
    }
    (elapsed, tally, ForkMetrics::default())
}

/// The `fork-storm` lifecycle replay: each thread runs `forks_per_thread`
/// fork/exec/exit cycles against its own lineage chain, all over one
/// shared collector.
///
/// Per cycle, a worker `fork()`s its *youngest* child (the first cycle
/// forks the shared parent) with the call timed in nanoseconds, replays
/// that lifecycle's contiguous chunk of the thread's trace against the
/// new child (the exec remap burst and run phase of
/// [`Profile::ForkStorm`]'s trace shape), pushes the child onto a ring of
/// at most `live_per_thread` live spaces, and exits (drops) the oldest
/// when the ring overflows. Chunks partition the trace in order and each
/// mutates only the newest lineage, so the generator's sequential state
/// model stays exact — zero rejects/misses still means a correct backend
/// — while every older child in the ring is a frozen snapshot sharing
/// subtrees with the live tip until its exit retires whatever it alone
/// still references.
///
/// The parent space is never mutated after its initial regions, so every
/// thread's chain (which also inherits the other threads' initial arenas)
/// sees deterministic state regardless of interleaving.
fn replay_fork_storm(
    space: &dyn AddressSpace,
    traces: &[Vec<Op>],
    forks_per_thread: usize,
    live_per_thread: usize,
) -> (Duration, Tally, ForkMetrics) {
    // Cross-thread live-space gauge: +1 per fork, -1 per exit, peak kept
    // via fetch_max. Relaxed everywhere — telemetry, no data published.
    let live_now = AtomicU64::new(0);
    let live_peak = AtomicU64::new(0);
    let (elapsed, outs) = run_workers(traces.len(), |t| {
        let trace = &traces[t];
        let mut tally = Tally::default();
        let mut fork_ns = Vec::with_capacity(forks_per_thread);
        let mut ring: VecDeque<Box<dyn AddressSpace>> =
            VecDeque::with_capacity(live_per_thread + 1);
        for f in 0..forks_per_thread {
            let fork_start = Instant::now();
            let child = match ring.back() {
                Some(tip) => tip.fork(),
                None => space.fork(),
            };
            fork_ns.push(fork_start.elapsed().as_nanos() as u64);
            let n = live_now.fetch_add(1, Relaxed) + 1;
            live_peak.fetch_max(n, Relaxed);
            let lo = f * trace.len() / forks_per_thread;
            let hi = (f + 1) * trace.len() / forks_per_thread;
            replay_ops(&*child, &trace[lo..hi], &mut tally);
            ring.push_back(child);
            if ring.len() > live_per_thread {
                drop(ring.pop_front());
                live_now.fetch_sub(1, Relaxed);
            }
        }
        // Exit every still-live child before the clock stops: the
        // storm's teardown (and its retirement burst) is part of the
        // measured lifecycle, not an afterthought.
        live_now.fetch_sub(ring.len() as u64, Relaxed);
        ring.clear();
        (tally, fork_ns)
    });
    let mut tally = Tally::default();
    let mut all_fork_ns = Vec::with_capacity(traces.len() * forks_per_thread);
    for (t, fork_ns) in &outs {
        tally.add(t);
        all_fork_ns.extend_from_slice(fork_ns);
    }
    all_fork_ns.sort_unstable();
    let pct = |p: usize| all_fork_ns[(all_fork_ns.len() - 1) * p / 100];
    let fork = ForkMetrics {
        forks: all_fork_ns.len() as u64,
        live_spaces_peak: live_peak.load(Relaxed),
        fork_p50_ns: pct(50),
        fork_p90_ns: pct(90),
        fork_p99_ns: pct(99),
        fork_max_ns: *all_fork_ns.last().expect("at least one fork per thread"),
    };
    (elapsed, tally, fork)
}

/// Runs `f` with one extra reader parked inside `backend`'s read-side
/// protection (the `stalled-reader` profile's adversary): a pinned epoch
/// guard, a registered-but-never-announcing QSBR thread, or a hazard
/// session protecting a pointer. The protection is held on the calling
/// thread — which never replays ops — and released before the caller's
/// final `synchronize`, so the drain cannot deadlock on it.
fn with_stalled_reader<R>(backend: &ReclaimBackend, f: impl FnOnce() -> R) -> R {
    match backend {
        ReclaimBackend::Epoch(c) => {
            let handle = c.register();
            let _pin = handle.pin();
            f()
        }
        ReclaimBackend::Qsbr(d) => {
            // Registered and online, but never announcing quiescence:
            // every grace period stalls behind it.
            let _handle = d.register();
            f()
        }
        ReclaimBackend::Hp(d) => {
            // A session squatting on a protected pointer mid-"traversal".
            // It occupies hazard slots but can only shield what it names —
            // the scan frees everything else, which is the bound.
            let parked = Box::into_raw(Box::new(0u64));
            let session = d.session();
            session.protect(0, parked.cast());
            let out = f();
            drop(session);
            // Safety: only this function ever saw the allocation.
            unsafe { drop(Box::from_raw(parked)) };
            out
        }
        ReclaimBackend::Hybrid(d) => {
            // A pin parked at its birth era for the whole replay. It can
            // only block garbage born at or before that era — everything
            // the replay itself creates and retires is freed regardless
            // (the interval rule), and once the blocked residue ages past
            // the domain budget the scan flags the pin stalled
            // (`stall_events`) and retirements count as `degraded_ops`.
            let _pin = d.pin();
            f()
        }
    }
}

/// Runs one `(profile, threads, backend)` point, draining before the read microbench.
fn run_point(
    cfg: &SweepConfig,
    profile: Profile,
    threads: usize,
    backend: Backend,
    traces: &[Vec<Op>],
) -> PointResult {
    let spec = cfg.spec(profile, threads);
    let reclaim = backend.reclaim_kind().map(ReclaimBackend::new);
    let rcu = reclaim
        .as_ref()
        .map(|r| RangeMap::<()>::with_backend(r.clone()));
    let locked = LockedAddressSpace::new();
    let space: &dyn AddressSpace = match &rcu {
        Some(map) => map,
        None => &locked,
    };
    let replay = || replay_point(cfg, &spec, space, traces);
    let (elapsed, tally, fork) = match &reclaim {
        Some(r) if profile.stalls_a_reader() => with_stalled_reader(r, replay),
        _ => replay(),
    };
    let stats = reclaim.map_or_else(Default::default, |r| {
        r.synchronize();
        r.stats()
    });
    PointResult {
        profile,
        backend,
        threads,
        elapsed,
        tally,
        retired: stats.objects_retired,
        freed: stats.objects_freed,
        peak_unreclaimed_bytes: stats.peak_unreclaimed_bytes,
        stall_events: stats.stall_events,
        degraded_ops: stats.degraded_ops,
        cas_retries: rcu.as_ref().map_or(0, |map| map.cas_retries()),
        cas_wasted_nodes: rcu.as_ref().map_or(0, |map| map.cas_wasted_nodes()),
        read_op_ns: read_microbench(space, &spec),
        fork,
    }
}

/// Runs the full sweep, printing each point's JSON record to stdout as it
/// completes. Call [`SweepConfig::validate`] first; this panics on an
/// invalid config.
pub fn run(cfg: &SweepConfig) -> Vec<PointResult> {
    cfg.validate().expect("invalid sweep config");
    let mut results = Vec::new();
    for &profile in &cfg.profiles {
        for &threads in &cfg.threads {
            // One trace set per point, shared verbatim by every backend —
            // the comparison is apples-to-apples by construction.
            let spec = cfg.spec(profile, threads);
            let traces: Vec<Vec<Op>> = (0..threads).map(|t| spec.thread_trace(t)).collect();
            for &backend in &cfg.backends {
                let point = run_point(cfg, profile, threads, backend, &traces);
                println!("{}", point.to_json());
                results.push(point);
            }
        }
    }
    results
}

/// Renders the whole run as the `BENCH_addrspace.json` trajectory document.
pub fn render_trajectory(cfg: &SweepConfig, results: &[PointResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    // The schema history (what each version added) is in BENCHMARKS.md.
    out.push_str("  \"schema\": \"rcukit-bench/addrspace-v7\",\n");
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!("  \"ops_per_thread\": {},\n", cfg.ops_per_thread));
    out.push_str(&format!(
        "  \"forks_per_thread\": {},\n",
        cfg.forks_per_thread
    ));
    out.push_str(&format!(
        "  \"live_per_thread\": {},\n",
        cfg.live_per_thread
    ));
    out.push_str(&format!(
        "  \"slots_per_thread\": {},\n",
        cfg.slots_per_thread
    ));
    out.push_str(&format!("  \"pages_per_slot\": {},\n", cfg.pages_per_slot));
    out.push_str("  \"results\": [\n");
    for (i, point) in results.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&point.to_json());
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Ceiling on an `hp` record's peak unreclaimed bytes. The scan threshold
/// plus the per-slot protections bound hazard-pointer garbage whatever a
/// stalled reader does, and a `stalled-reader` replay retires megabytes:
/// 256 KiB of hp garbage means the bound is broken, not noisy.
const HP_PEAK_BOUND: u64 = 256 << 10;

/// Ceiling on a `hybrid` record's peak unreclaimed bytes: the hybrid
/// domain's default garbage budget. A stalled reader may block at most
/// its pre-pin working set plus scan slack, never the stall window's
/// churn.
const HYBRID_PEAK_BOUND: u64 = 1 << 20;

/// Ceiling on any backend's peak unreclaimed bytes outside the
/// `stalled-reader` profile. With no reader parked, grace periods keep
/// completing on every backend, so a peak this high means reclamation
/// stopped for the run (some reader left online and silent).
const UNSTALLED_PEAK_BOUND: u64 = 10_000_000;

/// `profile/tN/backend`, the name a violation gives its record.
fn label(p: &PointResult) -> String {
    format!("{}/t{}/{}", p.profile.name(), p.threads, p.backend.name())
}

/// Checks a sweep's records against the contract every trajectory must
/// meet (listed in `BENCHMARKS.md`, "Record check") and returns every
/// violation, each naming its `profile/tN/backend` record.
pub fn check(cfg: &SweepConfig, results: &[PointResult]) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    // Pushes "<at>: <message>" onto `errs` unless `ok` holds.
    macro_rules! want {
        ($at:expr, $ok:expr, $($msg:tt)+) => {
            if !$ok {
                errs.push(format!("{}: {}", $at, format_args!($($msg)+)));
            }
        };
    }
    for p in results {
        let at = &label(p);
        let (t, f, peak) = (&p.tally, &p.fork, p.peak_unreclaimed_bytes);
        let configured = cfg.profiles.contains(&p.profile)
            && cfg.threads.contains(&p.threads)
            && cfg.backends.contains(&p.backend);
        want!(at, configured, "not a point of the configured sweep");
        let (ops, want_ops) = (p.total_ops(), (p.threads * cfg.ops_per_thread) as u64);
        want!(at, ops == want_ops, "replayed {ops} ops, want {want_ops}");
        for (field, n) in [
            ("map_rejects", t.map_rejects),
            ("unmap_misses", t.unmap_misses),
            ("unmap_range_misses", t.unmap_range_misses),
        ] {
            want!(at, n == 0, "{field} = {n} (must be 0)");
        }
        let (retired, freed) = (p.retired, p.freed);
        want!(at, retired == freed, "retired {retired} != freed {freed}");
        if p.backend.reclaim_kind().is_some() {
            want!(at, retired > 0, "writer churn retired nothing");
            want!(at, peak > 0, "retirements missing from the peak gauge");
        } else {
            want!(at, peak == 0, "locked backend reports a {peak} B peak");
        }
        let bound = match p.backend {
            Backend::Hp => HP_PEAK_BOUND,
            Backend::Hybrid => HYBRID_PEAK_BOUND,
            _ => u64::MAX,
        };
        want!(at, peak <= bound, "peak {peak} B exceeds {bound} B");
        let unstalled_ok = p.profile.stalls_a_reader() || peak < UNSTALLED_PEAK_BOUND;
        want!(at, unstalled_ok, "peak {peak} B with no stalled reader");
        let (stalls, degraded) = (p.stall_events, p.degraded_ops);
        if p.backend == Backend::Hybrid {
            want!(
                at,
                degraded == 0 || stalls > 0,
                "degraded ops without a stall"
            );
        } else {
            want!(at, stalls + degraded == 0, "stall telemetry off hybrid");
        }
        let (retries, wasted) = (p.cas_retries, p.cas_wasted_nodes);
        let cas_can_lose = p.threads > 1 && p.backend != Backend::Locked;
        want!(at, cas_can_lose || retries == 0, "{retries} CAS retries");
        want!(
            at,
            retries > 0 || wasted == 0,
            "wasted nodes without a retry"
        );
        let read = p.read_op_ns;
        want!(at, read > 0.0 && read < 1e6, "read_op_ns = {read}");
        let fields = [
            f.forks,
            f.live_spaces_peak,
            f.fork_p50_ns,
            f.fork_p90_ns,
            f.fork_p99_ns,
            f.fork_max_ns,
        ];
        if p.profile != Profile::ForkStorm {
            let zero = fields.iter().all(|&v| v == 0);
            want!(
                at,
                zero,
                "fork fields {fields:?} on a profile that never forks"
            );
            continue;
        }
        let forks = (p.threads * cfg.forks_per_thread) as u64;
        want!(at, f.forks == forks, "forks = {}, want {forks}", f.forks);
        let (live, live_peak) = (cfg.live_per_thread as u64, f.live_spaces_peak);
        let rings_full = p.threads as u64 * (live + 1);
        let in_range = 0 < live_peak && live_peak <= rings_full;
        want!(at, in_range, "live_spaces_peak = {live_peak}");
        // More forks than a ring holds: some ring filled and overflowed.
        let filled = cfg.forks_per_thread <= cfg.live_per_thread || live_peak > live;
        want!(at, filled, "no ring of {live} ever filled");
        let percentiles = &fields[2..];
        let monotone = 0 < f.fork_p50_ns && percentiles.windows(2).all(|w| w[0] <= w[1]);
        want!(at, monotone, "fork percentiles {percentiles:?}");
    }
    for &profile in &cfg.profiles {
        for &threads in &cfg.threads {
            let point: Vec<&PointResult> = results
                .iter()
                .filter(|p| p.profile == profile && p.threads == threads)
                .collect();
            for &backend in &cfg.backends {
                let n = point.iter().filter(|p| p.backend == backend).count();
                let at = format!("{}/t{threads}/{}", profile.name(), backend.name());
                want!(at, n == 1, "{n} records, want 1");
            }
            let Some(first) = point.first() else {
                continue;
            };
            let a = &first.tally;
            for p in &point[1..] {
                let b = &p.tally;
                let same = (a.faults, a.maps, a.unmaps, a.unmap_ranges)
                    == (b.faults, b.maps, b.unmaps, b.unmap_ranges)
                    // Hits depend on the interleaving above one thread.
                    && (threads > 1 || a.fault_hits == b.fault_hits);
                want!(label(p), same, "work differs from {}", first.backend.name());
            }
            let find = |backend| point.iter().find(|p| p.backend == backend);
            if let (true, Some(epoch)) = (profile.stalls_a_reader(), find(Backend::Bonsai)) {
                let epoch = epoch.peak_unreclaimed_bytes;
                for p in [Backend::Hp, Backend::Hybrid].into_iter().filter_map(find) {
                    let bytes = p.peak_unreclaimed_bytes;
                    want!(label(p), bytes < epoch, "peak {bytes} B >= epoch {epoch} B");
                }
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SweepConfig {
        SweepConfig {
            threads: vec![1, 2],
            profiles: vec![Profile::Metis, Profile::StalledReader, Profile::ForkStorm],
            backends: Backend::ALL.to_vec(),
            ops_per_thread: 1_000,
            slots_per_thread: 16,
            pages_per_slot: 8,
            seed: 7,
            forks_per_thread: 8,
            live_per_thread: 4,
            out: None,
        }
    }

    /// One record per configured point, meeting every check.
    fn clean_set(cfg: &SweepConfig) -> Vec<PointResult> {
        let mut out = Vec::new();
        for &profile in &cfg.profiles {
            for &threads in &cfg.threads {
                for &backend in &cfg.backends {
                    let ops = (threads * cfg.ops_per_thread) as u64;
                    let reclaims = backend.reclaim_kind().is_some();
                    let grace = matches!(backend, Backend::Bonsai | Backend::Qsbr);
                    let fork = ForkMetrics {
                        forks: (threads * cfg.forks_per_thread) as u64,
                        live_spaces_peak: (threads * cfg.live_per_thread + 1) as u64,
                        fork_p50_ns: 100,
                        fork_p90_ns: 200,
                        fork_p99_ns: 300,
                        fork_max_ns: 400,
                    };
                    out.push(PointResult {
                        profile,
                        backend,
                        threads,
                        elapsed: Duration::from_millis(1),
                        tally: Tally {
                            faults: ops - 3,
                            fault_hits: ops / 2,
                            maps: 1,
                            unmaps: 1,
                            unmap_ranges: 1,
                            ..Tally::default()
                        },
                        retired: 100 * reclaims as u64,
                        freed: 100 * reclaims as u64,
                        peak_unreclaimed_bytes: match (reclaims, grace) {
                            (false, _) => 0,
                            // A grace-period backend under a stalled reader.
                            (true, true) if profile.stalls_a_reader() => 50_000_000,
                            (true, _) => 4_096,
                        },
                        stall_events: 0,
                        degraded_ops: 0,
                        cas_retries: 0,
                        cas_wasted_nodes: 0,
                        read_op_ns: 100.0,
                        fork: if profile.forks_processes() {
                            fork
                        } else {
                            ForkMetrics::default()
                        },
                    });
                }
            }
        }
        out
    }

    /// `check` over a clean set with `seed` applied to the record `at`.
    fn seeded(at: &str, seed: impl FnOnce(&mut PointResult)) -> Result<(), Vec<String>> {
        let cfg = cfg();
        let mut results = clean_set(&cfg);
        seed(
            results
                .iter_mut()
                .find(|p| label(p) == at)
                .expect("record exists"),
        );
        check(&cfg, &results)
    }

    #[test]
    fn clean_set_passes() {
        let cfg = cfg();
        assert_eq!(check(&cfg, &clean_set(&cfg)), Ok(()));
    }

    /// One seeded violation per check class: `check` must report exactly
    /// that violation, against the seeded record.
    #[test]
    fn each_seeded_violation_is_reported_against_its_record() {
        type Seed = fn(&mut PointResult);
        let cases: [(&str, Seed, &str); 10] = [
            (
                "metis/t2/bonsai",
                |p| p.freed -= 1,
                "retired 100 != freed 99",
            ),
            (
                "metis/t1/locked",
                |p| p.tally.map_rejects = 1,
                "map_rejects = 1 (must be 0)",
            ),
            (
                "fork-storm/t2/qsbr",
                |p| p.tally.unmap_misses = 2,
                "unmap_misses = 2 (must be 0)",
            ),
            (
                "stalled-reader/t2/hp",
                |p| p.peak_unreclaimed_bytes = HP_PEAK_BOUND + 1,
                "peak 262145 B exceeds 262144 B",
            ),
            (
                "metis/t1/hybrid",
                |p| p.peak_unreclaimed_bytes = HYBRID_PEAK_BOUND + 1,
                "peak 1048577 B exceeds 1048576 B",
            ),
            (
                "metis/t2/qsbr",
                |p| p.peak_unreclaimed_bytes = UNSTALLED_PEAK_BOUND,
                "peak 10000000 B with no stalled reader",
            ),
            (
                "metis/t1/qsbr",
                |p| p.stall_events = 1,
                "stall telemetry off hybrid",
            ),
            (
                "fork-storm/t2/hp",
                |p| p.fork.live_spaces_peak = 4,
                "no ring of 4 ever filled",
            ),
            (
                "fork-storm/t1/locked",
                |p| p.fork.fork_p90_ns = 50,
                "fork percentiles [100, 50, 300, 400]",
            ),
            (
                "metis/t1/hp",
                |p| p.tally.fault_hits += 1,
                "work differs from bonsai",
            ),
        ];
        for (at, seed, violation) in cases {
            assert_eq!(seeded(at, seed), Err(vec![format!("{at}: {violation}")]));
        }
    }

    #[test]
    fn flags_missing_backend() {
        let cfg = cfg();
        let mut results = clean_set(&cfg);
        results.retain(|p| label(p) != "stalled-reader/t2/hybrid");
        let errs = check(&cfg, &results).unwrap_err();
        assert_eq!(errs, ["stalled-reader/t2/hybrid: 0 records, want 1"]);
    }

    #[test]
    fn flags_stalled_peak_not_below_epoch() {
        let errs = seeded("stalled-reader/t1/bonsai", |p| {
            p.peak_unreclaimed_bytes = 4_096;
        });
        let tail = "peak 4096 B >= epoch 4096 B";
        assert_eq!(
            errs,
            Err(vec![
                format!("stalled-reader/t1/hp: {tail}"),
                format!("stalled-reader/t1/hybrid: {tail}"),
            ])
        );
    }
}
