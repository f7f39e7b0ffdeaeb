//! One benchmark run.
//!
//! A run is split across [`PROCESSES`] fresh processes of the benchmark
//! binary, started one after another. Each process is a *measurement*: it
//! generates the inputs from the seed, computes the oracle, repeats the
//! workload for its share of the time, and reduces every repetition to
//! scalar values ([`measure`]). The parent merges what its processes
//! measured and reports, per metric, the median over all repetitions
//! ([`report`]).
//!
//! Why several processes: the address-space layout a process is given
//! (ASLR) moves some latencies by up to 30% for the whole life of the
//! process, while repetitions inside one process agree with each other.
//! One process per run would report its layout; the median over
//! repetitions from several processes reports the system. On a two-CPU
//! VM, ten processes rather than five lowered the spread of `fork-exit`
//! run medians (quartile distance over median) from 0.05-0.10
//! to 0.02-0.09.
//!
//! Why only the calmer repetitions: on a VM the hypervisor takes the CPUs
//! away now and then (steal time in `/proc/stat`). A repetition that loses
//! a replay thread's CPU runs slower, and on `mmap-churn` its faults run
//! *faster*, because the starved thread's writers stop invalidating the
//! tree's top nodes: across repetitions, 14-22 ticks of steal went with
//! fault p50s of 210-260 ns against 320-500 ns at 0-2 ticks. Each metric is
//! therefore the median over the repetitions with no more steal than the
//! median repetition.

use std::collections::BTreeSet;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use rcukit_bench::workload::{Op, WorkloadSpec};

use crate::affinity::allowed_cpus;
use crate::oracle;
use crate::percentile::{median, nearest_rank};
use crate::replay::{run_rep, CallName, CallSpan, FaultSpan, Rep, Spans, FAULT_SAMPLE};
use crate::report::{Report, PER_LAYER};
use crate::subject::{epoch_range_map, Locked, Sabotage, Sabotaged};
use crate::workloads::Workload;

/// Processes one run is split across.
pub const PROCESSES: usize = 10;

/// Fewest repetitions of each kind a process makes, however short its
/// share of the time.
pub const MIN_REPS: usize = 2;

/// Ops per thread whose spans are written to the span file.
pub const SPAN_WINDOW: u32 = 4096;

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// How long to keep repeating, in seconds.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the
    /// end-to-end one.
    pub trace: bool,
    /// A deliberate defect to check the oracle with.
    pub sabotage: Option<Sabotage>,
}

/// Which replay a repetition was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Untraced, on the epoch `RangeMap`: the end-to-end numbers.
    Plain,
    /// Traced, on the epoch `RangeMap`: the per-layer numbers.
    Traced,
    /// Untraced, on the lock-based baseline.
    Baseline,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Plain => "plain",
            Kind::Traced => "traced",
            Kind::Baseline => "baseline",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        [Kind::Plain, Kind::Traced, Kind::Baseline]
            .into_iter()
            .find(|k| k.as_str() == s)
    }
}

/// One value one repetition measured.
#[derive(Clone, Debug, PartialEq)]
pub struct RepValue {
    /// The replay it came from.
    pub kind: Kind,
    /// Metric name (the per-layer name for traced values, the unprefixed
    /// end-to-end name for baseline ones).
    pub name: String,
    /// The value.
    pub value: f64,
    /// Samples behind a percentile; 0 for other values.
    pub samples: usize,
    /// Host steal during the repetition, in clock ticks over all CPUs.
    pub steal: u64,
}

/// What one or more processes measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Measured {
    /// Every repetition's values.
    pub values: Vec<RepValue>,
    /// Ops attempted over every repetition.
    pub attempted: u64,
    /// Ops whose result differed from the model (see `replay::Rep`).
    pub failed: u64,
    /// Repetitions whose final drain left retired objects unfreed.
    pub unreclaimed_reps: u64,
    /// VmHWM growth over each process's first repetition, in KiB.
    pub hwm_delta_kib: Vec<f64>,
    /// Processes merged in.
    pub processes: usize,
}

impl Measured {
    /// The line protocol a measuring process prints for its parent.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "counts {} {} {} {}\n",
            self.attempted, self.failed, self.unreclaimed_reps, self.processes
        );
        for kib in &self.hwm_delta_kib {
            out.push_str(&format!("hwm {kib}\n"));
        }
        for v in &self.values {
            out.push_str(&format!(
                "v {} {} {} {} {}\n",
                v.kind.as_str(),
                v.name,
                v.value,
                v.samples,
                v.steal
            ));
        }
        out
    }

    /// Parses [`to_text`](Self::to_text) output.
    pub fn parse(text: &str) -> Result<Measured, String> {
        let bad = |line: &str| format!("unreadable measurement line {line:?}");
        let mut m = Measured::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                ["counts", a, b, c, d] => {
                    let n = |s: &str| s.parse::<u64>().map_err(|_| bad(line));
                    m.attempted += n(a)?;
                    m.failed += n(b)?;
                    m.unreclaimed_reps += n(c)?;
                    m.processes += n(d)? as usize;
                }
                ["hwm", kib] => m.hwm_delta_kib.push(kib.parse().map_err(|_| bad(line))?),
                ["v", kind, name, value, samples, steal] => m.values.push(RepValue {
                    kind: Kind::parse(kind).ok_or_else(|| bad(line))?,
                    name: name.to_string(),
                    value: value.parse().map_err(|_| bad(line))?,
                    samples: samples.parse().map_err(|_| bad(line))?,
                    steal: steal.parse().map_err(|_| bad(line))?,
                }),
                _ => return Err(bad(line)),
            }
        }
        if m.processes == 0 {
            return Err("the measurement printed no counts".into());
        }
        Ok(m)
    }

    /// Adds another measurement's repetitions and counts.
    pub fn merge(&mut self, other: Measured) {
        self.values.extend(other.values);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.unreclaimed_reps += other.unreclaimed_reps;
        self.hwm_delta_kib.extend(other.hwm_delta_kib);
        self.processes += other.processes;
    }

    fn push(&mut self, kind: Kind, name: &str, value: f64, samples: usize) {
        self.values.push(RepValue {
            kind,
            name: name.to_string(),
            value,
            samples,
            steal: 0,
        });
    }
}

/// Inputs shared by every repetition of a process.
struct Inputs {
    spec: WorkloadSpec,
    traces: Vec<Vec<Op>>,
    expected: oracle::Expected,
    cpus: Vec<usize>,
}

impl Inputs {
    fn rep(&self, cfg: &Config, kind: Kind) -> Rep {
        let (w, traced) = (cfg.workload, kind == Kind::Traced);
        let (spec, traces, want, cpus) = (&self.spec, &self.traces, &self.expected, &self.cpus);
        match (kind, cfg.sabotage) {
            (Kind::Baseline, _) => run_rep(w, spec, traces, want, &Locked::new, false, cpus),
            (_, None) => run_rep(w, spec, traces, want, &epoch_range_map, traced, cpus),
            (_, Some(s)) => run_rep(
                w,
                spec,
                traces,
                want,
                &move || Sabotaged::new(s),
                traced,
                cpus,
            ),
        }
    }
}

/// One measuring process: repeats the workload for `cfg.seconds` (at
/// least [`MIN_REPS`] times) and reduces each repetition to values. With
/// `cfg.trace`, every untraced repetition is followed by a traced one and
/// a baseline one, and the last traced repetition's spans are written to
/// `spans_out`.
///
/// `Err` means no result can be reported: bad input, or a percentile with
/// too few samples beyond it.
pub fn measure(cfg: &Config, spans_out: Option<&Path>) -> Result<Measured, String> {
    let spec = cfg.workload.spec(cfg.seed);
    spec.validate()?;
    let traces: Vec<Vec<Op>> = (0..spec.threads).map(|t| spec.thread_trace(t)).collect();
    let expected = oracle::expect(&spec, &traces)?;
    let inputs = Inputs {
        spec,
        traces,
        expected,
        cpus: allowed_cpus(),
    };
    let hwm = Hwm::reset();

    let mut m = Measured {
        processes: 1,
        ..Measured::default()
    };
    let kinds: &[Kind] = if cfg.trace {
        &[Kind::Plain, Kind::Traced, Kind::Baseline]
    } else {
        &[Kind::Plain]
    };
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut last_spans = None;
    let mut round = 0;
    while round < MIN_REPS || Instant::now() < deadline {
        for &kind in kinds {
            if kind == Kind::Traced {
                last_spans = None;
            }
            let steal_before = steal_ticks();
            let rep = inputs.rep(cfg, kind);
            let steal = steal_ticks().saturating_sub(steal_before);
            if round == 0 && kind == Kind::Plain {
                m.hwm_delta_kib.extend(hwm.delta_kib().map(|k| k as f64));
            }
            m.attempted += rep.ops;
            m.failed += rep.failed;
            m.unreclaimed_reps += !rep.reclaim_ok() as u64;
            let first = m.values.len();
            rep_values(kind, &rep, &mut m)?;
            for v in &mut m.values[first..] {
                v.steal = steal;
            }
            if kind == Kind::Traced {
                last_spans = Some(rep.spans);
            }
        }
        round += 1;
    }
    if let (Some(path), Some(spans)) = (spans_out, last_spans) {
        write_spans(path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(m)
}

/// Pushes the `p`th percentile of `sorted` (nothing when it is empty: the
/// op type is absent).
fn push_pct(
    m: &mut Measured,
    kind: Kind,
    name: &str,
    sorted: &[u64],
    p: u32,
) -> Result<(), String> {
    if sorted.is_empty() {
        return Ok(());
    }
    let q = nearest_rank(sorted, p).map_err(|e| format!("{name}: {e}"))?;
    m.push(kind, name, q.value as f64, q.samples);
    Ok(())
}

/// Reduces one repetition to its values.
fn rep_values(kind: Kind, rep: &Rep, m: &mut Measured) -> Result<(), String> {
    m.push(kind, "ops_per_sec", rep.ops_per_sec, 0);
    if kind != Kind::Traced {
        let lat = &rep.lat;
        let ops: [(&str, &[u64]); 6] = [
            ("fault", &lat.fault),
            ("map", &lat.map),
            ("unmap", &lat.unmap),
            ("unmap_range", &lat.unmap_range),
            ("fork", &lat.fork),
            ("exit", &lat.exit),
        ];
        for (op, sorted) in ops {
            for p in [50, 99] {
                push_pct(m, kind, &format!("{op}_p{p}_ns"), sorted, p)?;
            }
        }
        m.push(kind, "setup_s", rep.setup_s, 0);
        return Ok(());
    }

    let faults: Vec<&FaultSpan> = rep.spans.iter().flat_map(|s| &s.faults).collect();
    if faults.is_empty() {
        return Err("the traced replay recorded no faults".into());
    }
    type Child = fn(&FaultSpan) -> u64;
    let children: [(&str, Child); 3] = [
        ("rcukit.pin_ns", FaultSpan::pin),
        ("rcukit.unpin_ns", FaultSpan::unpin),
        ("range_map.lookup_ns", FaultSpan::lookup),
    ];
    for (name, child) in children {
        let mut v: Vec<u64> = faults.iter().map(|s| child(s)).collect();
        v.sort_unstable();
        for p in [50, 99] {
            push_pct(m, kind, &format!("{name}.p{p}"), &v, p)?;
        }
    }
    let total: u64 = faults.iter().map(|s| s.total()).sum();
    let covered: u64 = faults
        .iter()
        .map(|s| s.pin() + s.lookup() + s.unpin())
        .sum();
    let uncovered = (total - covered) as f64 / total.max(1) as f64;
    m.push(kind, "trace.fault_uncovered_ratio", uncovered, 0);

    // What mutations retired: the replay's total less what forks and
    // exits retired across their spans (exact on fork-exit's one thread).
    let calls = || rep.spans.iter().flat_map(|s| &s.calls);
    let by_others = |f: fn(&CallSpan) -> u32| -> u64 {
        calls()
            .filter(|c| !c.name.is_mutation())
            .map(|c| f(c) as u64)
            .sum()
    };
    let per_mutation = |v: u64| v as f64 / rep.mutations.max(1) as f64;
    let (exits, exit_retired) = calls()
        .filter(|c| c.name == CallName::Exit)
        .fold((0u64, 0u64), |(n, r), c| (n + 1, r + c.retired as u64));
    let counters = &rep.counters;
    let values = [
        (
            "rcukit.retired_per_mutation",
            per_mutation(rep.retired.saturating_sub(by_others(|c| c.retired))),
        ),
        (
            "rcukit.bytes_retired_per_mutation",
            per_mutation(
                rep.retired_bytes
                    .saturating_sub(by_others(|c| c.retired_bytes)),
            ),
        ),
        (
            "rcukit.epochs_per_kop",
            rep.epochs as f64 * 1e3 / rep.ops.max(1) as f64,
        ),
        (
            "range_map.cas_retries_per_kmut",
            per_mutation(counters.cas_retries) * 1e3,
        ),
        (
            "range_map.cas_wasted_nodes_per_kmut",
            per_mutation(counters.cas_wasted_nodes) * 1e3,
        ),
        (
            "range_map.contended_acquires",
            counters.contended_acquires as f64,
        ),
        (
            "rcukit.peak_unreclaimed_bytes",
            rep.peak_unreclaimed_bytes as f64,
        ),
        ("rcukit.pending_at_end", rep.pending_at_end as f64),
        ("range_map.arena_chunks", rep.arena_chunks as f64),
        ("rcukit.drain_ms", rep.drain_ms),
    ];
    for (name, value) in values {
        m.push(kind, name, value, 0);
    }
    if exits > 0 {
        m.push(
            kind,
            "rcukit.retired_per_exit",
            exit_retired as f64 / exits as f64,
            0,
        );
    }
    Ok(())
}

/// Host steal time so far, in clock ticks summed over CPUs (`/proc/stat`);
/// 0 where it cannot be read.
fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// A metric's value over the repetitions of one kind.
struct Stat {
    /// Median over the calm repetitions.
    value: f64,
    /// Repetitions with no more steal than the median repetition.
    calm: usize,
    /// Repetitions that measured the metric.
    reps: usize,
    /// Samples per repetition behind a percentile (0 otherwise).
    samples: usize,
}

/// Median of `name` over the repetitions of `kind` with no more host steal
/// than the median repetition (see the module docs).
fn stat(m: &Measured, kind: Kind, name: &str) -> Option<Stat> {
    let hits: Vec<&RepValue> = m
        .values
        .iter()
        .filter(|v| v.kind == kind && v.name == name)
        .collect();
    let samples = hits.iter().map(|v| v.samples).max()?;
    let steals: Vec<f64> = hits.iter().map(|v| v.steal as f64).collect();
    let cut = median(&steals);
    let calm: Vec<f64> = hits
        .iter()
        .filter(|v| v.steal as f64 <= cut)
        .map(|v| v.value)
        .collect();
    Some(Stat {
        value: median(&calm),
        calm: calm.len(),
        reps: hits.len(),
        samples,
    })
}

/// How a value was taken, for the human-readable line.
fn how(m: &Measured, name: &str, st: &Stat) -> String {
    let mut how = format!(
        "median of the {} calmest of {} repetitions in {} processes",
        st.calm, st.reps, m.processes
    );
    let samples = st.samples;
    if samples > 0 {
        let p = if name.contains("p99") { 99 } else { 50 };
        how.push_str(&format!(
            "; nearest-rank p{p} of {samples} samples per repetition"
        ));
    }
    if name.starts_with("fault_") {
        how.push_str(&format!("; 1 in {FAULT_SAMPLE} faults timed"));
    }
    how
}

/// Per-layer metrics that only a workload with forks and exits measures;
/// the others report them as 0.
const FORK_EXIT_ONLY: [&str; 5] = [
    "fork_p50_ns",
    "fork_p99_ns",
    "exit_p50_ns",
    "exit_p99_ns",
    "rcukit.retired_per_exit",
];

/// Reduces a merged measurement to the reported values: every end-to-end
/// metric whose op type the workload has and, with `trace`, every
/// per-layer metric.
pub fn report(m: &Measured, trace: bool) -> Result<Report, String> {
    let mut r = Report {
        attempted: m.attempted,
        failed: m.failed,
        unreclaimed_reps: m.unreclaimed_reps,
        ..Report::default()
    };
    let plain: BTreeSet<&str> = m
        .values
        .iter()
        .filter(|v| v.kind == Kind::Plain)
        .map(|v| v.name.as_str())
        .collect();
    for name in plain {
        let st = stat(m, Kind::Plain, name).expect("measured");
        r.set(name, st.value, how(m, name, &st));
    }
    if !trace {
        return Ok(r);
    }
    for name in PER_LAYER.iter().map(|d| d.name) {
        if r.get(name).is_some() {
            continue;
        }
        let (value, how) = match name {
            "trace.overhead_ratio" => {
                let traced = stat(m, Kind::Traced, "ops_per_sec")
                    .ok_or("no traced repetitions")?
                    .value;
                let plain = r.get("ops_per_sec").ok_or("no untraced repetitions")?;
                let how = format!("median traced ops/s {traced:.0} over median untraced ops/s {plain:.0}");
                (traced / plain, how)
            }
            "proc.hwm_delta_kib" if m.hwm_delta_kib.is_empty() => {
                (0.0, "unavailable: /proc/self/status could not be read".to_string())
            }
            "proc.hwm_delta_kib" => (
                median(&m.hwm_delta_kib),
                format!(
                    "VmHWM growth over the first repetition after input generation, median of {} processes",
                    m.hwm_delta_kib.len()
                ),
            ),
            _ => {
                let (kind, key, what) = match name.strip_prefix("baseline.") {
                    Some(key) => (Kind::Baseline, key, "LockedAddressSpace"),
                    None => (Kind::Traced, name, "traced"),
                };
                match stat(m, kind, key) {
                    Some(st) => (st.value, format!("{what}: {}", how(m, key, &st))),
                    None if FORK_EXIT_ONLY.contains(&name) => {
                        (0.0, "not measured: this workload has no forks or exits".to_string())
                    }
                    None => return Err(format!("{name} was not measured")),
                }
            }
        };
        r.set(name, value, how);
    }
    Ok(r)
}

/// Writes the spans of the first [`SPAN_WINDOW`] ops of each thread (and
/// the forks and exits among them) as tab-separated lines. Spans of one
/// op share the `id` column; a child names its parent in `parent`.
fn write_spans(path: &Path, spans: &[Spans]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    writeln!(
        out,
        "id\tspan\tparent\tstart_ns\tend_ns\tcas_retries\tretired\tretired_bytes\tepochs"
    )?;
    for (t, s) in spans.iter().enumerate() {
        for f in s.faults.iter().filter(|f| f.op < SPAN_WINDOW) {
            let id = format!("t{t}.op{}", f.op);
            let at = |i: usize| f.start + f.marks[i] as u64;
            writeln!(out, "{id}\tfault\t-\t{}\t{}\t-\t-\t-\t-", f.start, at(6))?;
            for (name, a, b) in [("pin", 0, 1), ("lookup", 2, 3), ("unpin", 4, 5)] {
                writeln!(out, "{id}\t{name}\tfault\t{}\t{}\t-\t-\t-\t-", at(a), at(b))?;
            }
        }
        for c in &s.calls {
            let id = if c.name.is_mutation() {
                if c.id >= SPAN_WINDOW {
                    break;
                }
                format!("t{t}.op{}", c.id)
            } else {
                format!("t{t}.{}{}", c.name.as_str(), c.id)
            };
            writeln!(
                out,
                "{id}\t{}\t-\t{}\t{}\t{}\t{}\t{}\t{}",
                c.name.as_str(),
                c.start,
                c.start + c.dur as u64,
                c.cas_retries,
                c.retired,
                c.retired_bytes,
                c.epochs
            )?;
        }
    }
    out.flush()
}

/// Resident-set high-water mark, reset after the inputs are generated so
/// the growth it reports belongs to the replay.
struct Hwm {
    base_kib: Option<u64>,
}

impl Hwm {
    fn status_kib(key: &str) -> Option<u64> {
        let status = fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with(key))?;
        line[key.len()..]
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    }

    /// Resets VmHWM to the current RSS (writing `5` to
    /// `/proc/self/clear_refs`) and records it. Where the reset is not
    /// permitted, growth is measured from the current RSS anyway.
    fn reset() -> Hwm {
        let _ = fs::write("/proc/self/clear_refs", "5");
        Hwm {
            base_kib: Self::status_kib("VmRSS:"),
        }
    }

    fn delta_kib(&self) -> Option<u64> {
        Some(Self::status_kib("VmHWM:")?.saturating_sub(self.base_kib?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_round_trip_and_merge() {
        let mut a = Measured {
            attempted: 10,
            failed: 1,
            processes: 1,
            hwm_delta_kib: vec![512.0],
            ..Measured::default()
        };
        a.push(Kind::Plain, "ops_per_sec", 1234.5678, 0);
        a.push(Kind::Baseline, "fault_p50_ns", 99.0, 6000);
        let parsed = Measured::parse(&a.to_text()).unwrap();
        assert_eq!(parsed, a);
        let mut b = parsed.clone();
        b.merge(parsed);
        assert_eq!(
            (b.attempted, b.failed, b.processes, b.values.len()),
            (20, 2, 2, 4)
        );
        assert!(Measured::parse("").is_err());
        assert!(Measured::parse("counts 1 0 0 1\nv nope x 1 0\n").is_err());
    }

    #[test]
    fn report_takes_medians_over_all_processes() {
        let mut m = Measured::default();
        for (i, v) in [3.0, 1.0, 2.0].into_iter().enumerate() {
            let mut one = Measured {
                processes: 1,
                attempted: 5,
                ..Measured::default()
            };
            one.push(Kind::Plain, "ops_per_sec", v, 0);
            one.push(Kind::Plain, "fault_p99_ns", 10.0 * (i as f64 + 1.0), 2000);
            m.merge(one);
        }
        let r = report(&m, false).unwrap();
        assert_eq!(r.get("ops_per_sec"), Some(2.0));
        assert_eq!(r.get("fault_p99_ns"), Some(20.0));
        assert_eq!(r.attempted, 15);
        // Per-layer metrics need traced repetitions.
        assert!(report(&m, true).is_err());
    }

    #[test]
    fn stolen_repetitions_are_left_out() {
        let mut m = Measured {
            processes: 1,
            ..Measured::default()
        };
        for (value, steal) in [(1.0, 0), (2.0, 0), (100.0, 10), (200.0, 20)] {
            m.push(Kind::Plain, "ops_per_sec", value, 0);
            m.values.last_mut().unwrap().steal = steal;
        }
        let st = stat(&m, Kind::Plain, "ops_per_sec").unwrap();
        assert_eq!((st.value, st.calm, st.reps), (1.5, 2, 4));
        // Without steal every repetition counts.
        for v in &mut m.values {
            v.steal = 0;
        }
        assert_eq!(stat(&m, Kind::Plain, "ops_per_sec").unwrap().value, 51.0);
    }
}
