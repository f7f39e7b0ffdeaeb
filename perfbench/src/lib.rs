//! Closed-loop benchmark of the bonsai `RangeMap` address space.
//!
//! The benchmark drives the system as shipped — `bonsai::RangeMap` on its
//! default epoch backend — through the `bonsai::AddressSpace` trait, on
//! three named workloads ([`workloads::WORKLOADS`]). One run replays one
//! workload's seed-determined traces for a fixed time, checks every result
//! against a sequential model ([`oracle`]), and prints the end-to-end
//! metrics, or, with tracing on, the per-layer ones ([`report`]). See
//! `README.md` next to this crate for the command line and the metrics.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affinity;
pub mod bench;
pub mod oracle;
pub mod percentile;
pub mod replay;
pub mod report;
pub mod subject;
pub mod workloads;
