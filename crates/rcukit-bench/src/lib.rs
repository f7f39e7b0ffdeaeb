//! Benchmark harness for the ASPLOS'12 Bonsai-tree reproduction.
//!
//! The binary (`rcukit-bench`) runs the paper's evaluation [`sweep`]: a
//! deterministic address-space workload ([`workload`]) replayed against
//! the RCU `RangeMap` on every reclamation backend and the lock-serialized
//! [`baseline`] across a range of thread counts, emitting a
//! `BENCH_addrspace.json` trajectory and checking it with
//! [`sweep::check`].
//!
//! The harness is a library so the sweep can be smoke-tested in-process;
//! see `BENCHMARKS.md` at the repo root for the CLI and output schema.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unsafe_op_in_unsafe_fn)]

pub mod baseline;
pub mod config;
pub mod sweep;
pub mod workload;
