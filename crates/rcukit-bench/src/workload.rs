//! Address-space workload generator.
//!
//! Produces deterministic page-fault/mmap/munmap traces shaped like the
//! paper's evaluation workloads (Section 6): `metis`, an mmap-heavy
//! MapReduce-style mix; `psearchy`, a fault-heavy indexing-style mix;
//! `uniform`, a no-locality microbenchmark; and `writers`, a fault-free
//! pure-mutation mix that stresses the range-locked parallel-writer path
//! (N mutating threads on disjoint arenas). A trace is a pure function of
//! `(spec, thread_id)` — same seed, same trace — so the identical workload
//! can be replayed against the RCU `RangeMap` and the locked baseline, and
//! across repo history.
//!
//! # Address layout
//!
//! The modeled address space is split into one *arena* per thread, each
//! holding `slots_per_thread` region slots of `pages_per_slot` pages.
//! Mutations (`Map`/`Unmap`) stay inside the generating thread's own arena
//! — mirroring Metis/Psearchy, where each core mostly allocates its own
//! buffers — which also keeps traces valid by construction: a replayed
//! `Map` never overlaps another thread's region, so backend `map` calls
//! only fail on a real bug. Faults target the thread's own arena with
//! probability `locality` and the whole shared span otherwise (the
//! cross-core reads of one shared address space that the paper scales).
//!
//! # Generator state machine
//!
//! Each thread's generator tracks the exact extent of each of its slots'
//! regions, starting from the replayer's initial state (even slots mapped,
//! full width). A `Map` picks a random unmapped slot and maps
//! 1..=`pages_per_slot` pages from its start; an `Unmap` picks a random
//! mapped slot and removes its region exactly. A fraction of unmaps
//! (one in eight) becomes a multi-region [`Op::UnmapRange`] span that
//! either removes the anchor region or truncates it mid-region (kernel
//! `munmap` splitting a VMA) and clears up to one following slot — spans
//! stay inside the generating thread's arena, so traces remain valid by
//! construction and replayed `unmap_range` calls always affect at least
//! one region. When the wanted kind is impossible (all slots mapped /
//! none mapped) the op degrades to its dual, keeping the mapped fraction
//! near one half.

/// Page size used by the modeled address space.
pub const PAGE: u64 = 0x1000;

/// One operation in a replayable trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Translate `addr`; a hit means a mapped region contains it.
    Fault(u64),
    /// Map the half-open range `[start, end)`.
    Map(u64, u64),
    /// Unmap the region starting at `start`.
    Unmap(u64),
    /// Unmap every byte in `[start, end)` — a multi-region `munmap` that
    /// removes regions inside the span and splits/truncates straddlers.
    /// Generated spans always intersect at least one region, so a replay
    /// observing zero affected regions indicates a backend bug.
    UnmapRange(u64, u64),
}

/// One phase of a profile: an op mix and fault locality applied over a
/// contiguous share of each thread's trace. Single-phase profiles have one
/// entry covering the whole trace; phase-structured profiles (Metis' map →
/// reduce shift) switch mid-trace at deterministic op indices, so the
/// *same* replayed run exercises an allocation-heavy regime and then a
/// fault-heavy one against whatever state the first phase left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Share of the trace this phase covers, in parts per 1024. A
    /// profile's phases sum to exactly 1024.
    pub ops_ppk: u32,
    /// `(fault, map, unmap)` mix in parts per 1024. Sums to 1024.
    pub mix: (u32, u32, u32),
    /// Probability (parts per 1024) that a fault targets the generating
    /// thread's own arena rather than the whole span.
    pub locality: u32,
}

/// A named workload shape: one or more [`Phase`]s of op mix + locality.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Metis (MapReduce) shape: mmap-heavy — the map phase continually
    /// allocates and frees buffers while reducers fault on shared data.
    Metis,
    /// Metis with its phase structure made explicit: an allocation-heavy
    /// *map* phase (the workers building per-core buffers), then a
    /// fault-heavy *reduce* phase reading mostly-shared intermediate data
    /// (lower locality). The plain `metis` profile blends the two into one
    /// stationary mix; this one switches mid-trace.
    MetisPhased,
    /// Psearchy (parallel indexing) shape: fault-heavy — long scans of
    /// mostly-stable mappings with rare allocation.
    Psearchy,
    /// Read-heavy microbenchmark: ~99% faults with token mutation
    /// (0.5%/0.5% map/unmap) to keep grace periods turning over. The
    /// near-pure read-side point of the sweep — the regime where per-op
    /// pin+lookup cost dominates and the ordering audit's fence-only hot
    /// path shows up directly in `read_op_ns`.
    ReadHeavy,
    /// Uniform microbenchmark: moderate churn, no locality; every fault
    /// address is drawn from the whole span.
    Uniform,
    /// Contended-writer microbenchmark: no faults at all — every op is a
    /// map/unmap in the thread's own arena. With N threads this is N
    /// writers mutating one shared address space on disjoint spans: the
    /// workload the range-locked writer path exists for (and the one the
    /// old single-writer mutex serialized completely).
    Writers,
    /// Adversarial reclamation stress: a mutation-heavy churn trace during
    /// which the *harness* (not the trace) parks one extra reader inside
    /// the backend's read-side protection for the whole replay — a pinned
    /// epoch guard, a registered-but-silent QSBR thread, or a hazard
    /// session holding a protected pointer. The trace itself just turns
    /// garbage over; the point of the profile is the
    /// `peak_unreclaimed_bytes` column: grace-period backends (epoch,
    /// QSBR) accumulate garbage in proportion to the stalled window
    /// (scale it with `ops`), while the hazard-pointer backend's peak
    /// stays bounded by construction.
    StalledReader,
    /// Multi-tenant process-lifecycle stress: each replaying thread runs
    /// repeated fork/exec/exit cycles against one shared collector — the
    /// harness `fork()`s a child address space off the thread's parent
    /// space (timed; the O(depth) structural-sharing snapshot vs. the
    /// baseline's O(n) deep copy), replays a chunk of this trace against
    /// the child (the *exec* remap burst, then the *run* fault phase
    /// below), keeps a bounded ring of live children per thread, and
    /// `exit`s the oldest — so hundreds of concurrent address spaces
    /// share subtrees with their parents while churning and retiring.
    /// The trace itself is the per-child lifecycle; the fork/exit
    /// structure lives in the harness, like `stalled-reader`'s parked
    /// reader.
    ForkStorm,
}

impl Profile {
    /// All profiles, in reporting order.
    pub const ALL: [Profile; 8] = [
        Profile::Metis,
        Profile::MetisPhased,
        Profile::Psearchy,
        Profile::ReadHeavy,
        Profile::Uniform,
        Profile::Writers,
        Profile::StalledReader,
        Profile::ForkStorm,
    ];

    /// The profile's name as used by the CLI and the JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Metis => "metis",
            Profile::MetisPhased => "metis-phased",
            Profile::Psearchy => "psearchy",
            Profile::ReadHeavy => "read-heavy",
            Profile::Uniform => "uniform",
            Profile::Writers => "writers",
            Profile::StalledReader => "stalled-reader",
            Profile::ForkStorm => "fork-storm",
        }
    }

    /// Parses a CLI profile name.
    pub fn parse(s: &str) -> Result<Profile, String> {
        Profile::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Profile::ALL.map(Profile::name).into();
                format!("unknown profile {s:?} (expected {}|all)", names.join("|"))
            })
    }

    /// Whether the harness parks a stalled reader inside read-side
    /// protection for the whole replay of this profile.
    pub fn stalls_a_reader(self) -> bool {
        matches!(self, Profile::StalledReader)
    }

    /// Whether the harness drives fork/exec/exit process lifecycles for
    /// this profile (each thread's trace replayed in chunks against forked
    /// child spaces instead of straight through against one space).
    pub fn forks_processes(self) -> bool {
        matches!(self, Profile::ForkStorm)
    }

    /// The profile's phases, in trace order. `ops_ppk` sums to 1024.
    pub fn phases(self) -> &'static [Phase] {
        match self {
            Profile::Metis => &[Phase {
                ops_ppk: 1024,
                mix: (512, 256, 256),
                locality: 921, // ~0.9: cores chew their own buffers
            }],
            Profile::MetisPhased => &[
                // Map phase: the workers allocate and free buffers hard,
                // faulting mostly into their own arenas.
                Phase {
                    ops_ppk: 512,
                    mix: (256, 384, 384),
                    locality: 921,
                },
                // Reduce phase: long fault scans over mostly-shared
                // intermediate data — rare mutation, low locality.
                Phase {
                    ops_ppk: 512,
                    mix: (922, 51, 51),
                    locality: 205, // ~0.2: reducers read other cores' output
                },
            ],
            Profile::Psearchy => &[Phase {
                ops_ppk: 1024,
                mix: (1004, 10, 10),
                locality: 819, // ~0.8: per-core index + shared corpus
            }],
            Profile::ReadHeavy => &[Phase {
                ops_ppk: 1024,
                mix: (1014, 5, 5), // ~99% / 0.5% / 0.5%
                locality: 819,     // ~0.8: per-core working set + shared reads
            }],
            Profile::Uniform => &[Phase {
                ops_ppk: 1024,
                mix: (922, 51, 51),
                locality: 0,
            }],
            Profile::Writers => &[Phase {
                ops_ppk: 1024,
                mix: (0, 512, 512),
                locality: 1024, // no faults; vacuous
            }],
            Profile::StalledReader => &[Phase {
                ops_ppk: 1024,
                // Mutation-heavy: the profile exists to retire garbage
                // while the harness's parked reader blocks (or, for HP,
                // fails to block) its reclamation.
                mix: (256, 384, 384),
                locality: 819,
            }],
            Profile::ForkStorm => &[
                // Exec: the fresh child tears down and rebuilds mappings
                // hard — a remap burst over the inherited (shared) image.
                Phase {
                    ops_ppk: 256,
                    mix: (102, 461, 461),
                    locality: 1024, // the child works its own arena
                },
                // Run: the process mostly faults over its now-private
                // mappings, with residual churn keeping retirement going.
                Phase {
                    ops_ppk: 768,
                    mix: (819, 102, 103),
                    locality: 819,
                },
            ],
        }
    }

    /// `(fault, map, unmap)` mix in parts per 1024, summed over the whole
    /// trace: exact for single-phase profiles, the `ops_ppk`-weighted
    /// blend (rounded down per component) for phase-structured ones.
    pub fn mix(self) -> (u32, u32, u32) {
        let mut acc = (0u32, 0u32, 0u32);
        for p in self.phases() {
            acc.0 += p.ops_ppk * p.mix.0;
            acc.1 += p.ops_ppk * p.mix.1;
            acc.2 += p.ops_ppk * p.mix.2;
        }
        (acc.0 / 1024, acc.1 / 1024, acc.2 / 1024)
    }

    /// Trace-wide fault locality (parts per 1024): exact for single-phase
    /// profiles, the blend for phase-structured ones.
    pub fn locality(self) -> u32 {
        let acc: u32 = self.phases().iter().map(|p| p.ops_ppk * p.locality).sum();
        acc / 1024
    }
}

/// Deterministic xorshift64* PRNG.
///
/// Streams are keyed by seed only; distinct thread traces use distinct
/// derived seeds (see [`WorkloadSpec::thread_trace`]).
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator; the seed is forced odd so the state is nonzero.
    pub fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, bound)`. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Bernoulli draw with probability `ppk / 1024`.
    pub fn chance(&mut self, ppk: u32) -> bool {
        (self.next_u64() & 1023) < ppk as u64
    }
}

/// Full description of one generated workload. Traces are pure functions
/// of this struct, so two replays of the same spec see identical ops.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// The workload shape.
    pub profile: Profile,
    /// Number of replaying threads (one arena each).
    pub threads: usize,
    /// Operations generated per thread.
    pub ops_per_thread: usize,
    /// Region slots per thread arena.
    pub slots_per_thread: u64,
    /// Maximum pages per mapped region (slot width).
    pub pages_per_slot: u64,
    /// Master seed; thread `t` draws from a seed derived from `(seed, t)`.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Validates the spec, returning a human-readable complaint on error.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be >= 1".into());
        }
        if self.ops_per_thread == 0 {
            return Err("ops per thread must be >= 1".into());
        }
        if self.slots_per_thread < 2 {
            return Err("slots per thread must be >= 2 (the generator keeps ~half mapped)".into());
        }
        if self.pages_per_slot == 0 {
            return Err("pages per slot must be >= 1".into());
        }
        // Oversized inputs must be a usage error, not a wrapped-to-zero
        // panic deep in release-mode address arithmetic.
        self.pages_per_slot
            .checked_mul(PAGE)
            .and_then(|slot| slot.checked_mul(self.slots_per_thread))
            .and_then(|arena| arena.checked_mul(self.threads as u64))
            .ok_or("threads * slots * pages * PAGE overflows the u64 address space")?;
        Ok(())
    }

    /// Bytes covered by one slot.
    pub fn slot_bytes(&self) -> u64 {
        self.pages_per_slot * PAGE
    }

    /// Bytes covered by one thread arena.
    pub fn arena_bytes(&self) -> u64 {
        self.slots_per_thread * self.slot_bytes()
    }

    /// Total bytes of modeled address space across all arenas.
    pub fn span(&self) -> u64 {
        self.threads as u64 * self.arena_bytes()
    }

    /// Start address of thread `t`'s slot `s`.
    pub fn slot_start(&self, thread: usize, slot: u64) -> u64 {
        thread as u64 * self.arena_bytes() + slot * self.slot_bytes()
    }

    /// The regions every arena starts out with: even slots mapped at full
    /// width. The replayer must apply these (for every thread) before
    /// replaying any trace; the generator assumes this initial state.
    pub fn initial_regions(&self, thread: usize) -> Vec<(u64, u64)> {
        (0..self.slots_per_thread)
            .step_by(2)
            .map(|s| {
                let start = self.slot_start(thread, s);
                (start, start + self.slot_bytes())
            })
            .collect()
    }

    /// Of the unmap ops, this fraction (parts per 1024) become multi-region
    /// [`Op::UnmapRange`] spans. Kept small enough that the realized
    /// map/unmap mix stays within the documented profile ratios (a ranged
    /// span can clear more than one slot per op).
    const RANGED_UNMAP_PPK: u32 = 128;

    /// Generates thread `t`'s trace. Pure: same spec and thread, same ops.
    pub fn thread_trace(&self, thread: usize) -> Vec<Op> {
        debug_assert!(self.validate().is_ok() && thread < self.threads);
        // SplitMix-style seed derivation keeps per-thread streams disjoint
        // even for adjacent seeds/thread ids.
        let derived = (self.seed ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x243F_6A88_85A3_08D3);
        let mut rng = Rng::new(derived);
        let phases = self.profile.phases();
        debug_assert_eq!(phases.iter().map(|p| p.ops_ppk).sum::<u32>(), 1024);
        // Deterministic phase boundaries in op counts: phase `i` ends at
        // `cumulative_ppk(i) * ops / 1024` (the last boundary is exactly
        // `ops`), so the same spec always switches mix at the same index.
        let mut cumulative_ppk = 0u64;
        let boundary = |cum: u64| (cum * self.ops_per_thread as u64 / 1024) as usize;
        let mut phase_idx = 0usize;
        cumulative_ppk += phases[0].ops_ppk as u64;
        let mut phase_end = boundary(cumulative_ppk);

        // Exact end address of each slot's region, `None` when unmapped —
        // the generator mirrors the replayed state precisely, which is
        // what lets it emit mid-region truncating spans that stay valid.
        let mut extents: Vec<Option<u64>> = (0..self.slots_per_thread)
            .map(|s| {
                s.is_multiple_of(2)
                    .then(|| self.slot_start(thread, s) + self.slot_bytes())
            })
            .collect();
        let mut mapped_count = extents.iter().filter(|e| e.is_some()).count() as u64;
        let mut trace = Vec::with_capacity(self.ops_per_thread);

        for i in 0..self.ops_per_thread {
            while i >= phase_end && phase_idx + 1 < phases.len() {
                phase_idx += 1;
                cumulative_ppk += phases[phase_idx].ops_ppk as u64;
                phase_end = boundary(cumulative_ppk);
            }
            let (fault_ppk, map_ppk, _) = phases[phase_idx].mix;
            let locality_ppk = phases[phase_idx].locality;
            let roll = (rng.next_u64() & 1023) as u32;
            if roll < fault_ppk {
                let addr = if rng.chance(locality_ppk) {
                    self.slot_start(thread, 0) + rng.below(self.arena_bytes())
                } else {
                    rng.below(self.span())
                };
                trace.push(Op::Fault(addr));
                continue;
            }
            // Degrade to the dual when the wanted mutation is impossible.
            let want_map = roll < fault_ppk + map_ppk;
            let do_map = if mapped_count == 0 {
                true
            } else if mapped_count == self.slots_per_thread {
                false
            } else {
                want_map
            };
            if do_map {
                let slot = Self::pick_slot(&extents, &mut rng, false);
                let start = self.slot_start(thread, slot);
                let pages = 1 + rng.below(self.pages_per_slot);
                trace.push(Op::Map(start, start + pages * PAGE));
                extents[slot as usize] = Some(start + pages * PAGE);
                mapped_count += 1;
            } else {
                let slot = Self::pick_slot(&extents, &mut rng, true);
                let start = self.slot_start(thread, slot);
                if rng.chance(Self::RANGED_UNMAP_PPK) {
                    let op =
                        self.ranged_unmap(thread, slot, &mut extents, &mut mapped_count, &mut rng);
                    trace.push(op);
                } else {
                    trace.push(Op::Unmap(start));
                    extents[slot as usize] = None;
                    mapped_count -= 1;
                }
            }
        }
        trace
    }

    /// Builds a multi-region unmap span anchored at mapped `slot`: with
    /// even odds (when the region is more than one page) the span starts
    /// mid-region — truncating it, the kernel's VMA-split case — otherwise
    /// at the region start, removing it; and it extends over up to one
    /// following slot (clamped to the arena), clearing any region there.
    /// The anchor region is always affected, so the replayed
    /// `unmap_range` must never report zero affected regions.
    fn ranged_unmap(
        &self,
        thread: usize,
        slot: u64,
        extents: &mut [Option<u64>],
        mapped_count: &mut u64,
        rng: &mut Rng,
    ) -> Op {
        let start = self.slot_start(thread, slot);
        let end = extents[slot as usize].expect("ranged unmap anchor must be mapped");
        let pages = (end - start) / PAGE;
        let cut = if pages > 1 && rng.chance(512) {
            // Truncate: keep [start, cut), clear [cut, …).
            start + PAGE * (1 + rng.below(pages - 1))
        } else {
            start
        };
        if cut == start {
            extents[slot as usize] = None;
            *mapped_count -= 1;
        } else {
            extents[slot as usize] = Some(cut);
        }
        // Extend over 0 or 1 following slots, staying inside the arena.
        let span_slots = (slot + 1 + rng.below(2)).min(self.slots_per_thread);
        for s in slot + 1..span_slots {
            if extents[s as usize].take().is_some() {
                *mapped_count -= 1;
            }
        }
        let hi = self.slot_start(thread, 0) + span_slots * self.slot_bytes();
        Op::UnmapRange(cut, hi)
    }

    /// Picks a uniformly random slot whose mapped-state equals `state`.
    /// The caller guarantees at least one exists.
    fn pick_slot(extents: &[Option<u64>], rng: &mut Rng, state: bool) -> u64 {
        loop {
            let slot = rng.below(extents.len() as u64);
            if extents[slot as usize].is_some() == state {
                return slot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(profile: Profile) -> WorkloadSpec {
        WorkloadSpec {
            profile,
            threads: 4,
            ops_per_thread: 100_000,
            slots_per_thread: 64,
            pages_per_slot: 16,
            seed: 42,
        }
    }

    #[test]
    fn same_seed_same_trace() {
        for profile in Profile::ALL {
            let s = spec(profile);
            for t in 0..s.threads {
                assert_eq!(s.thread_trace(t), s.thread_trace(t), "{profile:?}/{t}");
            }
        }
    }

    #[test]
    fn different_seeds_and_threads_diverge() {
        let a = spec(Profile::Uniform);
        let mut b = a.clone();
        b.seed = 43;
        assert_ne!(a.thread_trace(0), b.thread_trace(0));
        assert_ne!(a.thread_trace(0), a.thread_trace(1));
    }

    #[test]
    fn mix_ratios_within_tolerance() {
        for profile in Profile::ALL {
            let s = spec(profile);
            let trace = s.thread_trace(0);
            let total = trace.len() as f64;
            let faults = trace.iter().filter(|o| matches!(o, Op::Fault(_))).count() as f64;
            let maps = trace.iter().filter(|o| matches!(o, Op::Map(..))).count() as f64;
            let unmaps = trace
                .iter()
                .filter(|o| matches!(o, Op::Unmap(_) | Op::UnmapRange(..)))
                .count() as f64;
            let (f, m, u) = profile.mix();
            // Map/unmap can trade places when a wanted kind is impossible
            // (and a ranged unmap can clear more than one slot), so their
            // tolerance is shared; 2% absolute on 100k ops is wide enough
            // for the RNG, tight enough to catch a mix regression.
            assert!(
                (faults / total - f as f64 / 1024.0).abs() < 0.02,
                "{profile:?} fault ratio {faults}/{total}"
            );
            assert!(
                (maps / total - m as f64 / 1024.0).abs() < 0.02,
                "{profile:?} map ratio {maps}/{total}"
            );
            assert!(
                (unmaps / total - u as f64 / 1024.0).abs() < 0.02,
                "{profile:?} unmap ratio {unmaps}/{total}"
            );
        }
    }

    /// The phased profile must actually shift its mix at the midpoint:
    /// the map phase is allocation-heavy (fault share ~25%), the reduce
    /// phase fault-heavy (~90%) — and locality drops with it, so the
    /// reduce phase's faults roam the shared span.
    #[test]
    fn metis_phased_shifts_mix_and_locality_mid_trace() {
        let s = spec(Profile::MetisPhased);
        let trace = s.thread_trace(0);
        let half = trace.len() / 2; // ops_ppk 512/512 → boundary at ops/2
        let fault_share = |ops: &[Op]| {
            ops.iter().filter(|o| matches!(o, Op::Fault(_))).count() as f64 / ops.len() as f64
        };
        let map_phase = fault_share(&trace[..half]);
        let reduce_phase = fault_share(&trace[half..]);
        assert!(
            (map_phase - 0.25).abs() < 0.02,
            "map-phase fault share {map_phase}"
        );
        assert!(
            (reduce_phase - 0.90).abs() < 0.02,
            "reduce-phase fault share {reduce_phase}"
        );
        // Locality shift: thread 0's own arena is [0, arena_bytes); with 4
        // threads a whole-span draw lands outside it 3/4 of the time, so
        // outside-share ≈ (1 - locality) * 0.75 per phase.
        let outside_share = |ops: &[Op]| {
            let arena = s.arena_bytes();
            let faults: Vec<_> = ops
                .iter()
                .filter_map(|o| match o {
                    Op::Fault(a) => Some(*a),
                    _ => None,
                })
                .collect();
            faults.iter().filter(|&&a| a >= arena).count() as f64 / faults.len() as f64
        };
        assert!(outside_share(&trace[..half]) < 0.2, "map phase roamed");
        assert!(
            outside_share(&trace[half..]) > 0.4,
            "reduce phase stayed local"
        );
    }

    /// Phase metadata is consistent: every profile's phases sum to 1024
    /// ppk, and the blended mix/locality match the single-phase values
    /// exactly for single-phase profiles.
    #[test]
    fn phase_tables_are_consistent() {
        for profile in Profile::ALL {
            let phases = profile.phases();
            assert_eq!(
                phases.iter().map(|p| p.ops_ppk).sum::<u32>(),
                1024,
                "{profile:?}"
            );
            for p in phases {
                assert_eq!(p.mix.0 + p.mix.1 + p.mix.2, 1024, "{profile:?}");
            }
            if phases.len() == 1 {
                assert_eq!(profile.mix(), phases[0].mix);
                assert_eq!(profile.locality(), phases[0].locality);
            }
        }
        assert_eq!(Profile::parse("metis-phased"), Ok(Profile::MetisPhased));
        assert_eq!(Profile::MetisPhased.name(), "metis-phased");
    }

    /// Ranged unmaps must actually occur — and exercise both the
    /// truncating (mid-region) and removing (region-start) shapes.
    #[test]
    fn ranged_unmaps_cover_truncation_and_removal() {
        let s = spec(Profile::Writers);
        let mut truncating = 0usize;
        let mut removing = 0usize;
        for t in 0..s.threads {
            for op in s.thread_trace(t) {
                if let Op::UnmapRange(lo, _) = op {
                    let rel = lo - s.slot_start(t, 0);
                    if rel.is_multiple_of(s.slot_bytes()) {
                        removing += 1;
                    } else {
                        truncating += 1;
                    }
                }
            }
        }
        assert!(
            truncating > 0,
            "no mid-region (VMA-splitting) spans generated"
        );
        assert!(removing > 0, "no region-start spans generated");
    }

    /// The writers profile is pure mutation: no faults at all.
    #[test]
    fn writers_profile_has_no_faults() {
        let s = spec(Profile::Writers);
        let trace = s.thread_trace(0);
        assert!(
            !trace.iter().any(|o| matches!(o, Op::Fault(_))),
            "writers profile generated a fault"
        );
        assert!(trace.iter().any(|o| matches!(o, Op::UnmapRange(..))));
    }

    /// Replaying a trace against an exact extent model must never map an
    /// already-mapped slot, unmap an unmapped one, or emit a ranged span
    /// that misses every region: traces are valid by construction, so
    /// backend `map`/`unmap`/`unmap_range` failures indicate real bugs.
    #[test]
    fn traces_are_valid_against_the_initial_state() {
        for profile in Profile::ALL {
            let s = spec(profile);
            for t in 0..s.threads {
                let arena_base = s.slot_start(t, 0);
                let arena_end = arena_base + s.arena_bytes();
                let mut extents: Vec<Option<u64>> = (0..s.slots_per_thread)
                    .map(|x| {
                        x.is_multiple_of(2)
                            .then(|| s.slot_start(t, x) + s.slot_bytes())
                    })
                    .collect();
                for op in s.thread_trace(t) {
                    match op {
                        Op::Fault(addr) => assert!(addr < s.span()),
                        Op::Map(start, end) => {
                            let rel = start - arena_base;
                            assert!(rel.is_multiple_of(s.slot_bytes()));
                            let slot = (rel / s.slot_bytes()) as usize;
                            assert!(end - start <= s.slot_bytes());
                            assert!(extents[slot].is_none(), "{profile:?}: double map");
                            extents[slot] = Some(end);
                        }
                        Op::Unmap(start) => {
                            let rel = start - arena_base;
                            assert!(rel.is_multiple_of(s.slot_bytes()));
                            let slot = (rel / s.slot_bytes()) as usize;
                            assert!(extents[slot].is_some(), "{profile:?}: unmap of unmapped");
                            extents[slot] = None;
                        }
                        Op::UnmapRange(lo, hi) => {
                            // Arena-local, slot-aligned end, non-empty.
                            assert!(lo < hi, "{profile:?}: empty span");
                            assert!(lo >= arena_base && hi <= arena_end);
                            assert!((hi - arena_base).is_multiple_of(s.slot_bytes()));
                            // The anchor region must exist and be affected:
                            // `lo` lies strictly below its current end.
                            let slot = ((lo - arena_base) / s.slot_bytes()) as usize;
                            let anchor_start = s.slot_start(t, slot as u64);
                            let end = extents[slot].unwrap_or_else(|| {
                                panic!("{profile:?}: ranged span anchored on unmapped slot")
                            });
                            assert!(lo < end, "{profile:?}: span misses the anchor region");
                            if lo > anchor_start {
                                // Truncation keeps the head piece.
                                extents[slot] = Some(lo);
                            } else {
                                extents[slot] = None;
                            }
                            // Following slots inside the span are cleared
                            // entirely (regions never straddle slots).
                            let hi_slot = ((hi - arena_base) / s.slot_bytes()) as usize;
                            for e in extents.iter_mut().take(hi_slot).skip(slot + 1) {
                                *e = None;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let good = spec(Profile::Metis);
        assert!(good.validate().is_ok());
        for bad in [
            WorkloadSpec {
                threads: 0,
                ..good.clone()
            },
            WorkloadSpec {
                ops_per_thread: 0,
                ..good.clone()
            },
            WorkloadSpec {
                slots_per_thread: 1,
                ..good.clone()
            },
            WorkloadSpec {
                pages_per_slot: 0,
                ..good.clone()
            },
            WorkloadSpec {
                pages_per_slot: u64::MAX / PAGE + 1,
                ..good.clone()
            },
            WorkloadSpec {
                slots_per_thread: u64::MAX / PAGE,
                ..good.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn uniform_profile_has_no_locality() {
        // With locality 0 every fault draws from the whole span; check a
        // healthy share actually lands outside thread 0's own arena.
        let s = spec(Profile::Uniform);
        let arena = s.arena_bytes();
        let outside = s
            .thread_trace(0)
            .iter()
            .filter(|o| matches!(o, Op::Fault(a) if *a >= arena))
            .count();
        let faults = s
            .thread_trace(0)
            .iter()
            .filter(|o| matches!(o, Op::Fault(_)))
            .count();
        assert!(outside as f64 > 0.6 * faults as f64);
    }
}
