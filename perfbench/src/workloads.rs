//! The benchmark's named workloads.
//!
//! Each is a closed loop: every replaying thread issues its next op when
//! the previous one returns. Traces come from `rcukit_bench::workload`, a
//! pure function of `(profile, threads, sizes, seed)`, so `--seed` alone
//! decides the inputs: thread `t` replays `WorkloadSpec::thread_trace(t)`
//! of the spec built here with that seed.

use rcukit_bench::workload::{Profile, WorkloadSpec};

/// How a workload drives its address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// One shared space; each thread replays its whole trace straight
    /// through against it.
    Replay,
    /// The fork-storm lifecycle on one thread: fork the youngest child
    /// (the first fork forks the parent), replay that child's contiguous
    /// chunk of the trace, and exit (drop) the oldest child once more than
    /// `live` are alive. Every remaining child exits at the end.
    ForkExit {
        /// Forks per replay; the trace is cut into this many chunks.
        forks: usize,
        /// Live children kept before the oldest exits.
        live: usize,
    },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Trace profile (op mix and fault locality).
    pub profile: Profile,
    /// Replaying threads; one arena each.
    pub threads: usize,
    /// Trace ops per thread, replayed once per repetition.
    pub ops_per_thread: usize,
    /// Region slots per thread arena.
    pub slots_per_thread: u64,
    /// Pages per slot (largest region).
    pub pages_per_slot: u64,
    /// Straight replay or fork/exit lifecycle.
    pub shape: Shape,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fault-scan",
        why: "Page faults walk a ~17-level tree beside rare writers: the read side \
              (pin, walk, unpin) does nearly all the work.",
        profile: Profile::Psearchy,
        threads: 2,
        ops_per_thread: 500_000,
        // Half of 2 x 65536 slots start mapped and the mix keeps it near
        // half: ~65k regions, close to Linux's default vm.max_map_count.
        slots_per_thread: 65_536,
        pages_per_slot: 4,
        shape: Shape::Replay,
    },
    Workload {
        name: "mmap-churn",
        why: "Writers on disjoint arenas of a shallow tree meet at the root CAS: \
              range lock, path copy, retirement and grace periods dominate.",
        profile: Profile::Metis,
        threads: 2,
        ops_per_thread: 100_000,
        slots_per_thread: 64,
        pages_per_slot: 16,
        shape: Shape::Replay,
    },
    Workload {
        name: "fork-exit",
        why: "The only workload with shared subtrees: fork refcounts, copy-on-write of \
              shared nodes and the release cascade at exit.",
        profile: Profile::ForkStorm,
        threads: 1,
        ops_per_thread: 4096 * 48,
        slots_per_thread: 64,
        pages_per_slot: 16,
        shape: Shape::ForkExit {
            forks: 4096,
            live: 64,
        },
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The trace spec for `seed`.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            profile: self.profile,
            threads: self.threads,
            ops_per_thread: self.ops_per_thread,
            slots_per_thread: self.slots_per_thread,
            pages_per_slot: self.pages_per_slot,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_spec_is_valid() {
        for w in &WORKLOADS {
            w.spec(1).validate().unwrap();
            assert!(
                w.threads <= 2,
                "{}: the benchmark box has two cores",
                w.name
            );
            if let Shape::ForkExit { forks, live } = w.shape {
                assert_eq!(w.threads, 1);
                // p99 of the fork latencies needs >= 10 samples beyond it.
                assert!(forks >= 4096 && live >= 1);
                assert_eq!(w.ops_per_thread % forks, 0);
            }
        }
    }

    #[test]
    fn fault_scan_maps_about_max_map_count_regions() {
        let w = Workload::find("fault-scan").unwrap();
        let spec = w.spec(1);
        let regions: usize = (0..w.threads).map(|t| spec.initial_regions(t).len()).sum();
        assert_eq!(regions, 65_536);
    }
}
