//! One repetition of a workload: set up a fresh space, replay every trace
//! closed-loop, check the results against the oracle, then drain.
//!
//! The untraced replay times every mutation, fork and exit and a fixed
//! 1-in-[`FAULT_SAMPLE`] subset of faults (chosen by fault index). The
//! traced replay runs the same ops but records a span around every public
//! call instead: each fault as a parent span with pin, lookup and unpin
//! children, each mutation, fork and exit as one span carrying the change
//! in CAS retries, retired objects, retired bytes and epoch across the
//! call. Counters are read outside the span's clock readings. On a
//! two-thread workload they are global to the map and collector, so one
//! span's delta also holds whatever the other thread did meanwhile.

use std::collections::VecDeque;
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use rcukit_bench::workload::{Op, WorkloadSpec};

use crate::affinity::pin_current_thread;
use crate::oracle::{self, Expected};
use crate::subject::{Clock, Counters, Subject};
use crate::workloads::{Shape, Workload};

/// One fault in this many (by the thread's fault index) is timed in the
/// untraced replay.
pub const FAULT_SAMPLE: u64 = 16;

/// Per-op latency samples in nanoseconds, one vector per op type.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    /// Sampled `fault` calls.
    pub fault: Vec<u64>,
    /// Every `map`.
    pub map: Vec<u64>,
    /// Every `unmap`.
    pub unmap: Vec<u64>,
    /// Every `unmap_range`.
    pub unmap_range: Vec<u64>,
    /// Every fork.
    pub fork: Vec<u64>,
    /// Every exit (dropping a child).
    pub exit: Vec<u64>,
}

impl Latencies {
    fn append(&mut self, mut other: Latencies) {
        self.fault.append(&mut other.fault);
        self.map.append(&mut other.map);
        self.unmap.append(&mut other.unmap);
        self.unmap_range.append(&mut other.unmap_range);
        self.fork.append(&mut other.fork);
        self.exit.append(&mut other.exit);
    }

    fn sort(&mut self) {
        for v in [
            &mut self.fault,
            &mut self.map,
            &mut self.unmap,
            &mut self.unmap_range,
            &mut self.fork,
            &mut self.exit,
        ] {
            v.sort_unstable();
        }
    }
}

/// The public call a [`CallSpan`] covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallName {
    /// `AddressSpace::map`.
    Map,
    /// `AddressSpace::unmap`.
    Unmap,
    /// `AddressSpace::unmap_range`.
    UnmapRange,
    /// Forking a child.
    Fork,
    /// Dropping a child.
    Exit,
}

impl CallName {
    /// The span name written to the span file.
    pub fn as_str(self) -> &'static str {
        match self {
            CallName::Map => "map",
            CallName::Unmap => "unmap",
            CallName::UnmapRange => "unmap_range",
            CallName::Fork => "fork",
            CallName::Exit => "exit",
        }
    }

    /// Whether the call is one of the trace's mutations.
    pub fn is_mutation(self) -> bool {
        matches!(self, CallName::Map | CallName::Unmap | CallName::UnmapRange)
    }
}

/// A traced fault: the parent span and its pin, lookup and unpin
/// children. `marks` are nanosecond offsets from `start`: pin start, pin
/// end, lookup start, lookup end, unpin start, unpin end, fault end.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpan {
    /// Index of the op in its thread's trace (the spans' shared id).
    pub op: u32,
    /// Fault start, nanoseconds on the repetition's clock.
    pub start: u64,
    /// Child boundaries and the fault's end, as offsets from `start`.
    pub marks: [u32; 7],
}

impl FaultSpan {
    /// Duration of the whole fault span.
    pub fn total(&self) -> u64 {
        self.marks[6] as u64
    }
    /// Duration of the pin child.
    pub fn pin(&self) -> u64 {
        (self.marks[1] - self.marks[0]) as u64
    }
    /// Duration of the lookup child.
    pub fn lookup(&self) -> u64 {
        (self.marks[3] - self.marks[2]) as u64
    }
    /// Duration of the unpin child.
    pub fn unpin(&self) -> u64 {
        (self.marks[5] - self.marks[4]) as u64
    }
}

/// A traced mutation, fork or exit, with counter deltas across the call.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    /// Trace op index for mutations; fork or exit index otherwise.
    pub id: u32,
    /// The call.
    pub name: CallName,
    /// Start, nanoseconds on the repetition's clock.
    pub start: u64,
    /// Duration in nanoseconds.
    pub dur: u32,
    /// Root-CAS retries of the mutated map across the call.
    pub cas_retries: u32,
    /// Objects retired to the collector across the call.
    pub retired: u32,
    /// Bytes retired to the collector across the call.
    pub retired_bytes: u32,
    /// Epochs the collector advanced across the call.
    pub epochs: u32,
}

/// One thread's spans, in the order they were recorded.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Fault spans.
    pub faults: Vec<FaultSpan>,
    /// Mutation, fork and exit spans.
    pub calls: Vec<CallSpan>,
}

/// Counters read at a span boundary.
#[derive(Clone, Copy)]
struct Reading {
    cas_retries: u64,
    retired: u64,
    retired_bytes: u64,
    epoch: u64,
}

fn read<S: Subject>(space: &S) -> Reading {
    let (retired, retired_bytes, epoch) = match space.reclaim() {
        Some(backend) => {
            let stats = backend.stats();
            let epoch = backend.as_epoch().map_or(0, |c| c.global_epoch());
            (stats.objects_retired, stats.bytes_retired, epoch)
        }
        None => (0, 0, 0),
    };
    Reading {
        cas_retries: space.counters().cas_retries,
        retired,
        retired_bytes,
        epoch,
    }
}

fn narrow(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// One replay thread's results.
#[derive(Default)]
struct ThreadOut {
    /// Clock readings bounding the thread's replay.
    started: u64,
    finished: u64,
    /// Time not spent on the replay between `started` and `finished`
    /// (fork-exit's final-state snapshot).
    paused: u64,
    ops: u64,
    mutations: u64,
    failed: u64,
    faults_seen: u64,
    lat: Latencies,
    spans: Spans,
    /// Counter deltas accumulated on forked children.
    child_counters: Counters,
    child_arena_chunks: u64,
    region_mismatches: u64,
}

impl ThreadOut {
    /// Runs `f` as the public call `name`, timing it (untraced) or
    /// recording its span (traced). `probe` is the space whose counters
    /// the span reads.
    #[inline(always)]
    fn call<S: Subject, R, const TRACED: bool>(
        &mut self,
        probe: &S,
        clock: &Clock,
        name: CallName,
        id: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        if TRACED {
            let before = read(probe);
            let start = clock.now();
            let r = f();
            let end = clock.now();
            let after = read(probe);
            self.spans.calls.push(CallSpan {
                id: id as u32,
                name,
                start,
                dur: narrow(end - start),
                cas_retries: narrow(after.cas_retries - before.cas_retries),
                retired: narrow(after.retired - before.retired),
                retired_bytes: narrow(after.retired_bytes - before.retired_bytes),
                epochs: narrow(after.epoch - before.epoch),
            });
            r
        } else {
            let start = clock.now();
            let r = f();
            let ns = clock.now() - start;
            match name {
                CallName::Map => self.lat.map.push(ns),
                CallName::Unmap => self.lat.unmap.push(ns),
                CallName::UnmapRange => self.lat.unmap_range.push(ns),
                CallName::Fork => self.lat.fork.push(ns),
                CallName::Exit => self.lat.exit.push(ns),
            }
            r
        }
    }

    /// Replays `ops` (trace indices from `first`) against `space`,
    /// checking each result against `expected`.
    fn replay<S: Subject, const TRACED: bool>(
        &mut self,
        space: &S,
        ops: &[Op],
        expected: &[u32],
        first: usize,
        clock: &Clock,
    ) {
        for (k, (op, &want)) in ops.iter().zip(expected).enumerate() {
            let id = first + k;
            let got = match *op {
                Op::Fault(addr) => {
                    let sampled = self.faults_seen.is_multiple_of(FAULT_SAMPLE);
                    self.faults_seen += 1;
                    if TRACED {
                        let mut m = [0u64; 6];
                        let start = clock.now();
                        let hit = space.traced_fault(addr, clock, &mut m);
                        let end = clock.now();
                        let off = |t: u64| narrow(t - start);
                        self.spans.faults.push(FaultSpan {
                            op: id as u32,
                            start,
                            marks: [
                                off(m[0]),
                                off(m[1]),
                                off(m[2]),
                                off(m[3]),
                                off(m[4]),
                                off(m[5]),
                                off(end),
                            ],
                        });
                        hit as u32
                    } else if sampled {
                        let start = clock.now();
                        let hit = space.fault(addr);
                        self.lat.fault.push(clock.now() - start);
                        hit as u32
                    } else {
                        space.fault(addr) as u32
                    }
                }
                Op::Map(start, end) => {
                    self.call::<S, _, TRACED>(space, clock, CallName::Map, id, || {
                        space.map(start, end)
                    }) as u32
                }
                Op::Unmap(start) => {
                    self.call::<S, _, TRACED>(space, clock, CallName::Unmap, id, || {
                        space.unmap(start)
                    }) as u32
                }
                Op::UnmapRange(start, end) => {
                    narrow(
                        self.call::<S, _, TRACED>(space, clock, CallName::UnmapRange, id, || {
                            space.unmap_range(start, end)
                        }) as u64,
                    )
                }
            };
            if !matches!(op, Op::Fault(_)) {
                self.mutations += 1;
            }
            if !oracle::matches(want, got) {
                self.failed += 1;
            }
        }
        self.ops += ops.len() as u64;
    }
}

/// Straight replay of one thread's whole trace against the shared space.
fn replay_thread<S: Subject, const TRACED: bool>(
    space: &S,
    trace: &[Op],
    expected: &[u32],
    barrier: &Barrier,
    clock: &Clock,
) -> ThreadOut {
    let mut out = ThreadOut::default();
    barrier.wait();
    out.started = clock.now();
    out.replay::<S, TRACED>(space, trace, expected, 0, clock);
    out.finished = clock.now();
    out
}

/// The fork/exit lifecycle on one thread (see [`Shape::ForkExit`]).
#[allow(clippy::too_many_arguments)]
fn fork_exit_thread<S: Subject, const TRACED: bool>(
    parent: &S,
    trace: &[Op],
    expected: &[u32],
    final_regions: &[(u64, u64)],
    forks: usize,
    live: usize,
    clock: &Clock,
) -> ThreadOut {
    let mut out = ThreadOut::default();
    let mut ring: VecDeque<S> = VecDeque::with_capacity(live + 1);
    let mut exits = 0;
    out.started = clock.now();
    for f in 0..forks {
        let child =
            out.call::<S, _, TRACED>(parent, clock, CallName::Fork, f, || match ring.back() {
                Some(tip) => tip.fork_child(),
                None => parent.fork_child(),
            });
        let (lo, hi) = (f * trace.len() / forks, (f + 1) * trace.len() / forks);
        let before = child.counters();
        out.replay::<S, TRACED>(&child, &trace[lo..hi], &expected[lo..hi], lo, clock);
        out.child_counters.add(&child.counters().since(&before));
        ring.push_back(child);
        if ring.len() > live {
            let oldest = ring.pop_front();
            out.call::<S, _, TRACED>(parent, clock, CallName::Exit, exits, || drop(oldest));
            exits += 1;
        }
    }
    // The youngest child has replayed the whole trace: check it against
    // the model, off the clock.
    let paused = clock.now();
    let tip = ring.back().expect("at least one fork");
    if let Some(regions) = tip.snapshot() {
        out.region_mismatches = oracle::region_mismatches(&regions, final_regions);
    }
    out.child_arena_chunks = tip.arena_chunks();
    let resumed = clock.now();
    out.paused = resumed - paused;
    // Exit every remaining child; the teardown is part of the lifecycle.
    while let Some(child) = ring.pop_front() {
        out.call::<S, _, TRACED>(parent, clock, CallName::Exit, exits, || drop(child));
        exits += 1;
    }
    out.finished = clock.now();
    out
}

/// Everything one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Map construction, initial maps and the set-up drain, in seconds.
    pub setup_s: f64,
    /// Throughput of the timed replay: each thread's ops over its own
    /// replay time, summed over threads.
    pub ops_per_sec: f64,
    /// Trace ops replayed.
    pub ops: u64,
    /// Of those, mutations.
    pub mutations: u64,
    /// Ops whose result differed from the model, plus initial maps that
    /// failed, plus regions in which the final state differs from it.
    pub failed: u64,
    /// Latency samples, sorted (untraced repetitions only).
    pub lat: Latencies,
    /// Per-thread spans (traced repetitions only).
    pub spans: Vec<Spans>,
    /// Contention counters accumulated over the replay.
    pub counters: Counters,
    /// Objects retired during the replay.
    pub retired: u64,
    /// Bytes retired during the replay.
    pub retired_bytes: u64,
    /// Epochs the collector advanced during the replay.
    pub epochs: u64,
    /// Objects retired but not reclaimed when the replay ended.
    pub pending_at_end: u64,
    /// The collector's high-water mark of unreclaimed bytes.
    pub peak_unreclaimed_bytes: u64,
    /// Arena chunks of the map mutated last.
    pub arena_chunks: u64,
    /// Duration of the final `ReclaimBackend::synchronize`, milliseconds.
    pub drain_ms: f64,
    /// Objects retired and freed after the final drain.
    pub retired_after_drain: u64,
    /// See `retired_after_drain`.
    pub freed_after_drain: u64,
}

impl Rep {
    /// Whether everything retired was reclaimed by the final drain.
    pub fn reclaim_ok(&self) -> bool {
        self.retired_after_drain == self.freed_after_drain
    }
}

/// Runs one repetition of `workload` on a space built by `make`.
///
/// Set-up (construction, the initial maps and a drain of their garbage)
/// runs on its own thread, which exits before the replay starts, so no
/// thread that set the map up holds reclamation state into the replay.
/// Replay thread `t` is pinned to the `t`th CPU of `cpus` and set-up to
/// the first (see `crate::affinity`).
pub fn run_rep<S: Subject>(
    workload: &Workload,
    spec: &WorkloadSpec,
    traces: &[Vec<Op>],
    expected: &Expected,
    make: &(dyn Fn() -> S + Sync),
    traced: bool,
    cpus: &[usize],
) -> Rep {
    let (space, setup_s, setup_failed) = thread::scope(|s| {
        s.spawn(|| {
            pin_current_thread(cpus, 0);
            let started = Instant::now();
            let space = make();
            let mut failed = 0;
            for t in 0..spec.threads {
                for (start, end) in spec.initial_regions(t) {
                    failed += !space.map(start, end) as u64;
                }
            }
            if let Some(backend) = space.reclaim() {
                backend.synchronize();
            }
            (space, started.elapsed().as_secs_f64(), failed)
        })
        .join()
        .expect("set-up thread panicked")
    });

    let stats_before = space.reclaim().map(|b| b.stats()).unwrap_or_default();
    let epoch_before = space
        .reclaim()
        .and_then(|b| b.as_epoch())
        .map_or(0, |c| c.global_epoch());
    let counters_before = space.counters();
    let barrier = Barrier::new(spec.threads);
    let clock = Clock::start();
    let outs: Vec<ThreadOut> = thread::scope(|s| {
        let handles: Vec<_> = match workload.shape {
            Shape::Replay => {
                let (space, barrier, clock) = (&space, &barrier, &clock);
                let handles: Vec<_> = (0..spec.threads)
                    .map(|t| {
                        let (trace, want) = (&traces[t], &expected.results[t]);
                        s.spawn(move || {
                            pin_current_thread(cpus, t);
                            if traced {
                                replay_thread::<S, true>(space, trace, want, barrier, clock)
                            } else {
                                replay_thread::<S, false>(space, trace, want, barrier, clock)
                            }
                        })
                    })
                    .collect();
                handles
            }
            Shape::ForkExit { forks, live } => {
                let (space, clock) = (&space, &clock);
                let (trace, want) = (&traces[0], &expected.results[0]);
                let fin = &expected.final_regions;
                vec![s.spawn(move || {
                    pin_current_thread(cpus, 0);
                    if traced {
                        fork_exit_thread::<S, true>(space, trace, want, fin, forks, live, clock)
                    } else {
                        fork_exit_thread::<S, false>(space, trace, want, fin, forks, live, clock)
                    }
                })]
            }
        };
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });

    let mut rep = Rep {
        setup_s,
        failed: setup_failed,
        ..Rep::default()
    };

    let stats_after = space.reclaim().map(|b| b.stats()).unwrap_or_default();
    let epoch_after = space
        .reclaim()
        .and_then(|b| b.as_epoch())
        .map_or(0, |c| c.global_epoch());
    rep.retired = stats_after.objects_retired - stats_before.objects_retired;
    rep.retired_bytes = stats_after.bytes_retired - stats_before.bytes_retired;
    rep.epochs = epoch_after - epoch_before;
    rep.pending_at_end = stats_after.outstanding();
    rep.peak_unreclaimed_bytes = stats_after.peak_unreclaimed_bytes;
    rep.counters = space.counters().since(&counters_before);
    rep.arena_chunks = space.arena_chunks();

    for out in outs {
        let busy_ns = out.finished - out.started - out.paused;
        rep.ops_per_sec += out.ops as f64 * 1e9 / busy_ns.max(1) as f64;
        rep.ops += out.ops;
        rep.mutations += out.mutations;
        rep.failed += out.failed + out.region_mismatches;
        rep.counters.add(&out.child_counters);
        rep.arena_chunks = rep.arena_chunks.max(out.child_arena_chunks);
        rep.lat.append(out.lat);
        if traced {
            rep.spans.push(out.spans);
        }
    }
    rep.lat.sort();

    if workload.shape == Shape::Replay {
        if let Some(regions) = space.snapshot() {
            rep.failed += oracle::region_mismatches(&regions, &expected.final_regions);
        }
    }

    if let Some(backend) = space.reclaim() {
        let started = Instant::now();
        backend.synchronize();
        rep.drain_ms = started.elapsed().as_secs_f64() * 1e3;
        let stats = backend.stats();
        rep.retired_after_drain = stats.objects_retired;
        rep.freed_after_drain = stats.objects_freed;
    }
    drop(space);
    rep
}
