//! The differential oracle: a sequential `BTreeMap` model of each thread's
//! trace.
//!
//! Arenas are disjoint and a thread mutates only its own, so the thread's
//! own op order alone decides every result inside its arena, however the
//! threads interleave. Running each trace through the model before the
//! timed replay gives the expected result of every mutation and of every
//! own-arena fault, and the expected final region set. Faults into another
//! thread's arena race with that thread's writers and are not checked.

use std::collections::BTreeMap;

use rcukit_bench::workload::{Op, WorkloadSpec};

/// Expected-result marker for an op whose result is not checked.
pub const UNCHECKED: u32 = u32::MAX;

/// A sequential region map with [`bonsai::AddressSpace`] semantics:
/// half-open `[start, end)` regions keyed by start.
#[derive(Clone, Debug, Default)]
pub struct Model {
    regions: BTreeMap<u64, u64>,
}

impl Model {
    /// A model holding `regions`.
    pub fn with_regions(regions: &[(u64, u64)]) -> Self {
        let mut model = Model::default();
        for &(start, end) in regions {
            assert!(model.map(start, end), "initial regions overlap");
        }
        model
    }

    /// Whether a region contains `addr`.
    pub fn fault(&self, addr: u64) -> bool {
        self.regions
            .range(..=addr)
            .next_back()
            .is_some_and(|(_, &end)| addr < end)
    }

    /// Maps `[start, end)` unless it overlaps a region.
    pub fn map(&mut self, start: u64, end: u64) -> bool {
        let overlaps_pred = self
            .regions
            .range(..=start)
            .next_back()
            .is_some_and(|(_, &e)| e > start);
        let overlaps_succ = self
            .regions
            .range(start..)
            .next()
            .is_some_and(|(&s, _)| s < end);
        if start >= end || overlaps_pred || overlaps_succ {
            return false;
        }
        self.regions.insert(start, end);
        true
    }

    /// Removes the region starting exactly at `start`.
    pub fn unmap(&mut self, start: u64) -> bool {
        self.regions.remove(&start).is_some()
    }

    /// Clears `[start, end)`, truncating and splitting straddlers; returns
    /// the number of regions removed or truncated.
    pub fn unmap_range(&mut self, start: u64, end: u64) -> usize {
        let mut affected = 0;
        if let Some((&s, &e)) = self.regions.range(..start).next_back() {
            if e > start {
                self.regions.insert(s, start);
                if e > end {
                    self.regions.insert(end, e);
                }
                affected += 1;
            }
        }
        let inside: Vec<(u64, u64)> = self
            .regions
            .range(start..end)
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in inside {
            self.regions.remove(&s);
            if e > end {
                self.regions.insert(end, e);
            }
            affected += 1;
        }
        affected
    }

    /// The regions in address order.
    pub fn regions(&self) -> Vec<(u64, u64)> {
        self.regions.iter().map(|(&s, &e)| (s, e)).collect()
    }
}

/// What a correct replay of one workload's traces must produce.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Per thread, per op: the expected result (`0`/`1` for faults, maps
    /// and unmaps, the affected count for `unmap_range`), or
    /// [`UNCHECKED`].
    pub results: Vec<Vec<u32>>,
    /// The region set after every trace has been replayed.
    pub final_regions: Vec<(u64, u64)>,
}

/// Runs each thread's trace through its own sequential model.
///
/// Fails if a trace is invalid against the model — a mutation the
/// generator promised to succeed would not — since the replay could then
/// not tell a backend bug from a bad input.
pub fn expect(spec: &WorkloadSpec, traces: &[Vec<Op>]) -> Result<Expected, String> {
    let mut results = Vec::with_capacity(traces.len());
    let mut final_regions = Vec::new();
    for (t, trace) in traces.iter().enumerate() {
        let mut model = Model::with_regions(&spec.initial_regions(t));
        let arena = spec.slot_start(t, 0)..spec.slot_start(t, 0) + spec.arena_bytes();
        let mut expected = Vec::with_capacity(trace.len());
        for (i, op) in trace.iter().enumerate() {
            let result = match *op {
                Op::Fault(addr) if arena.contains(&addr) => model.fault(addr) as u32,
                Op::Fault(_) => UNCHECKED,
                Op::Map(start, end) => model.map(start, end) as u32,
                Op::Unmap(start) => model.unmap(start) as u32,
                Op::UnmapRange(start, end) => model.unmap_range(start, end) as u32,
            };
            if result == 0 && !matches!(op, Op::Fault(_)) {
                return Err(format!(
                    "thread {t} op {i} ({op:?}) has no effect on the model"
                ));
            }
            expected.push(result);
        }
        results.push(expected);
        // Arenas are laid out in thread order, so concatenation is sorted.
        final_regions.extend(model.regions());
    }
    Ok(Expected {
        results,
        final_regions,
    })
}

/// Whether an op's observed result matches the model's.
#[inline]
pub fn matches(expected: u32, observed: u32) -> bool {
    expected == UNCHECKED || expected == observed
}

/// Number of regions in exactly one of two address-ordered region lists
/// (the size of their symmetric difference).
pub fn region_mismatches(actual: &[(u64, u64)], expected: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0);
    while i < actual.len() && j < expected.len() {
        match actual[i].cmp(&expected[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                i += 1;
                diff += 1;
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                diff += 1;
            }
        }
    }
    diff + (actual.len() - i + expected.len() - j) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcukit_bench::workload::Profile;

    #[test]
    fn model_mirrors_address_space_semantics() {
        let mut m = Model::default();
        assert!(m.map(0x1000, 0x3000));
        assert!(!m.map(0x2000, 0x4000));
        assert!(m.map(0x3000, 0x4000));
        assert!(m.map(0x5000, 0x8000));
        assert!(m.fault(0x2fff) && !m.fault(0x4000));
        assert_eq!(m.unmap_range(0x2000, 0x6000), 3);
        assert_eq!(m.regions(), vec![(0x1000, 0x2000), (0x6000, 0x8000)]);
        assert_eq!(m.unmap_range(0x2000, 0x6000), 0);
        assert_eq!(m.unmap_range(0x6800, 0x7000), 1);
        assert_eq!(
            m.regions(),
            vec![(0x1000, 0x2000), (0x6000, 0x6800), (0x7000, 0x8000)]
        );
        assert!(m.unmap(0x1000) && !m.unmap(0x1000));
    }

    #[test]
    fn every_generated_op_is_checked_and_effective() {
        let spec = WorkloadSpec {
            profile: Profile::Metis,
            threads: 2,
            ops_per_thread: 20_000,
            slots_per_thread: 64,
            pages_per_slot: 16,
            seed: 7,
        };
        let traces: Vec<_> = (0..2).map(|t| spec.thread_trace(t)).collect();
        let exp = expect(&spec, &traces).unwrap();
        let checked_faults = traces[0]
            .iter()
            .zip(&exp.results[0])
            .filter(|(op, &r)| matches!(op, Op::Fault(_)) && r != UNCHECKED)
            .count();
        // Locality ~0.9 plus half the cross draws land in the own arena.
        assert!(checked_faults > 8_000, "{checked_faults}");
        assert!(exp.final_regions.windows(2).all(|w| w[0].1 <= w[1].0));
    }

    #[test]
    fn symmetric_difference_counts_both_sides() {
        let a = [(1, 2), (3, 4), (5, 6)];
        let b = [(1, 2), (3, 5), (5, 6), (7, 8)];
        assert_eq!(region_mismatches(&a, &a), 0);
        assert_eq!(region_mismatches(&a, &b), 3);
        assert_eq!(region_mismatches(&[], &b), 4);
    }
}
