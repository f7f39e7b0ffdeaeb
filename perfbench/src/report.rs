//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metrics `BENCHMARK.json`
//! declares, in its order. A `--trace 0` run reports exactly the first, a
//! `--trace 1` run exactly the second; everything else a run knows (the
//! fork/exit latencies on workloads without forks, sample counts, the
//! failure ratio) goes to the human-readable lines above the result.

/// A declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Largest tolerated worsening, as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: f64,
    /// The end-to-end metric this one should move, and on which workload
    /// (per-layer metrics only).
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

/// End-to-end metrics, all measured with tracing off. Every bound is
/// 0.25: on the two-CPU box the benchmark was sized on, run medians of
/// the same code drift by up to ~14% (IQR over median, `fault-scan`
/// `ops_per_sec`) as the host's load changes.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("ops_per_sec", "ops/s", "higher", 0.25),
    e2e("fault_p50_ns", "ns", "lower", 0.25),
    e2e("fault_p99_ns", "ns", "lower", 0.25),
    e2e("map_p50_ns", "ns", "lower", 0.25),
    e2e("map_p99_ns", "ns", "lower", 0.25),
    e2e("unmap_p50_ns", "ns", "lower", 0.25),
    e2e("unmap_p99_ns", "ns", "lower", 0.25),
    e2e("unmap_range_p50_ns", "ns", "lower", 0.25),
    e2e("unmap_range_p99_ns", "ns", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics, from the traced run unless noted.
pub const PER_LAYER: [MetricDef; 27] = [
    layer(
        "rcukit.pin_ns.p50",
        "ns",
        "lower",
        "fault_p50_ns; fault-scan most, then mmap-churn",
    ),
    layer(
        "rcukit.pin_ns.p99",
        "ns",
        "lower",
        "fault_p99_ns; fault-scan most, then mmap-churn",
    ),
    layer(
        "rcukit.unpin_ns.p50",
        "ns",
        "lower",
        "fault_p50_ns; fault-scan most, then mmap-churn",
    ),
    layer(
        "rcukit.unpin_ns.p99",
        "ns",
        "lower",
        "fault_p99_ns; fault-scan most, then mmap-churn",
    ),
    layer(
        "range_map.lookup_ns.p50",
        "ns",
        "lower",
        "fault_p50_ns; fault-scan (deep tree), little on mmap-churn",
    ),
    layer(
        "range_map.lookup_ns.p99",
        "ns",
        "lower",
        "fault_p99_ns; fault-scan (deep tree), little on mmap-churn",
    ),
    layer(
        "rcukit.retired_per_mutation",
        "obj/mutation",
        "lower",
        "map_p50_ns, unmap_p50_ns; mmap-churn",
    ),
    layer(
        "rcukit.bytes_retired_per_mutation",
        "B/mutation",
        "lower",
        "map_p50_ns, unmap_p50_ns; mmap-churn",
    ),
    layer(
        "rcukit.epochs_per_kop",
        "epochs/kop",
        "lower",
        "ops_per_sec; mmap-churn",
    ),
    layer(
        "range_map.cas_retries_per_kmut",
        "retries/kmut",
        "lower",
        "map_p99_ns, ops_per_sec; mmap-churn; exactly 0 on fork-exit",
    ),
    layer(
        "range_map.cas_wasted_nodes_per_kmut",
        "nodes/kmut",
        "lower",
        "map_p99_ns, ops_per_sec; mmap-churn; exactly 0 on fork-exit",
    ),
    layer(
        "range_map.contended_acquires",
        "count",
        "lower",
        "map_p99_ns, ops_per_sec; mmap-churn; exactly 0 on fork-exit",
    ),
    layer(
        "rcukit.retired_per_exit",
        "obj/exit",
        "lower",
        "exit_p50_ns; fork-exit (0 where nothing exits)",
    ),
    layer(
        "rcukit.peak_unreclaimed_bytes",
        "B",
        "lower",
        "none gated; memory cost, all workloads",
    ),
    layer(
        "rcukit.pending_at_end",
        "objects",
        "lower",
        "none gated; memory cost, all workloads",
    ),
    layer(
        "range_map.arena_chunks",
        "chunks",
        "lower",
        "none gated; memory cost, all workloads",
    ),
    layer(
        "proc.hwm_delta_kib",
        "KiB",
        "lower",
        "none gated; memory cost, all workloads",
    ),
    layer(
        "rcukit.drain_ms",
        "ms",
        "lower",
        "none (teardown); all workloads",
    ),
    layer(
        "baseline.ops_per_sec",
        "ops/s",
        "higher",
        "none; same-run LockedAddressSpace reference, all workloads",
    ),
    layer(
        "baseline.fault_p50_ns",
        "ns",
        "lower",
        "none; same-run LockedAddressSpace reference, all workloads",
    ),
    layer(
        "baseline.map_p50_ns",
        "ns",
        "lower",
        "none; same-run LockedAddressSpace reference, all workloads",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        "higher",
        "none; traced / untraced ops_per_sec, all workloads",
    ),
    layer(
        "trace.fault_uncovered_ratio",
        "ratio",
        "lower",
        "none; fault span time outside pin/lookup/unpin, all workloads",
    ),
    layer(
        "fork_p50_ns",
        "ns",
        "lower",
        "end-to-end on fork-exit, tracing off (0 where nothing forks)",
    ),
    layer(
        "fork_p99_ns",
        "ns",
        "lower",
        "end-to-end on fork-exit, tracing off (0 where nothing forks)",
    ),
    layer(
        "exit_p50_ns",
        "ns",
        "lower",
        "end-to-end on fork-exit, tracing off (0 where nothing exits)",
    ),
    layer(
        "exit_p99_ns",
        "ns",
        "lower",
        "end-to-end on fork-exit, tracing off (0 where nothing exits)",
    ),
];

/// A measured value with the line explaining it.
#[derive(Clone, Debug)]
pub struct Value {
    /// The number.
    pub value: f64,
    /// How it was taken (sample counts, repetitions).
    pub how: String,
}

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Ops attempted over every repetition.
    pub attempted: u64,
    /// Ops whose result differed from the model (see `replay::Rep`).
    pub failed: u64,
    /// Repetitions whose final drain left retired objects unfreed.
    pub unreclaimed_reps: u64,
    /// Every measured value by name, in the order measured.
    pub values: Vec<(String, Value)>,
}

impl Report {
    /// Records a value.
    pub fn set(&mut self, name: &str, value: f64, how: impl Into<String>) {
        assert!(value.is_finite(), "{name} is not finite");
        self.values.push((
            name.to_string(),
            Value {
                value,
                how: how.into(),
            },
        ));
    }

    /// Looks a value up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.value)
    }

    /// Whether every op matched the model and every drain reclaimed
    /// everything retired.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.unreclaimed_reps == 0
    }

    /// Failed ops over attempted ops.
    pub fn op_failure_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable lines: every value with its unit and how it was
    /// taken.
    pub fn lines(&self) -> Vec<String> {
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .find(|d| d.name == name)
                .map_or("", |d| d.unit)
        };
        let mut lines: Vec<String> = self
            .values
            .iter()
            .map(|(name, v)| format!("{name} = {} {} ({})", v.value, unit(name), v.how))
            .collect();
        lines.push(format!(
            "op_failure_ratio = {} ({} failed of {} attempted; {} repetitions left garbage after the drain)",
            self.op_failure_ratio(),
            self.failed,
            self.attempted,
            self.unreclaimed_reps
        ));
        lines
    }

    /// The one-line JSON result holding exactly `defs`.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with every digit `Display` gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The benchmark's self-description: workloads with their parameters and
/// per-layer metrics with what each should move. Committed as
/// `perfbench/metrics.json`; a test keeps the two equal.
pub fn describe() -> String {
    use crate::workloads::{Shape, WORKLOADS};
    let mut out = String::from("{\n  \"workloads\": [\n");
    let ws: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let shape = match w.shape {
                Shape::Replay => "\"replay\"".to_string(),
                Shape::ForkExit { forks, live } => {
                    format!("{{\"fork_exit\": {{\"forks\": {forks}, \"live\": {live}}}}}")
                }
            };
            format!(
                "    {{\"name\": \"{}\", \"profile\": \"{}\", \"threads\": {}, \"ops_per_thread\": {}, \
                 \"slots_per_thread\": {}, \"pages_per_slot\": {}, \"shape\": {shape}, \
                 \"seed\": \"--seed is the WorkloadSpec seed; thread t replays thread_trace(t)\", \
                 \"why\": \"{}\"}}",
                w.name, w.profile.name(), w.threads, w.ops_per_thread, w.slots_per_thread, w.pages_per_slot, w.why
            )
        })
        .collect();
    out.push_str(&ws.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let ls: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"moves\": \"{}\"}}",
                d.name, d.moves
            )
        })
        .collect();
    out.push_str(&ls.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_holds_exactly_the_requested_metrics() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.set("ops_per_sec", 1234.5, "x");
        r.set("setup_s", 2.0, "x");
        r.set("extra", 1.0, "x");
        let defs = [END_TO_END[0], END_TO_END[9]];
        assert_eq!(
            r.to_json(&defs).unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_sec\": {\"value\": 1234.5, \"unit\": \"ops/s\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        assert!(r.to_json(&END_TO_END).is_err());
        r.failed = 1;
        assert!(!r.correct());
        assert!((r.op_failure_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn committed_description_is_current() {
        assert_eq!(include_str!("../metrics.json"), describe());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
