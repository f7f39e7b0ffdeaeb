//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit and how it was taken, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! `metrics` that `BENCHMARK.json` declares for the mode (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`). Exits 0 when every op matched
//! the model and every drain reclaimed all garbage, 1 when not (the result
//! is still printed), and 2 on bad arguments or an unreportable run.
//!
//! The run is split across `bench::PROCESSES` child processes of this
//! binary (`--child`), run one after another, each measuring for its
//! share of `--seconds`; the parent merges their repetitions.
//!
//! `--sabotage drop-unmap|flip-fault` replays on a `RangeMap` with one
//! wrong answer in it, to show that the oracle fails the run.
//! `--describe` prints the workload and metric description instead.

use std::env;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::bench::{self, Config, Measured, PROCESSES};
use perfbench::report::{describe, END_TO_END, PER_LAYER};
use perfbench::subject::Sabotage;
use perfbench::workloads::Workload;

const USAGE: &str = "usage: perfbench --workload <fault-scan|mmap-churn|fork-exit> --seed <u64> \
                     --seconds <secs> --trace <0|1> [--sabotage drop-unmap|flip-fault] | --describe";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut sabotage) =
        (None, None, None, None, None);
    let mut it = args.iter().filter(|a| *a != "--child");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value:?} must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                })
            }
            "--sabotage" => sabotage = Some(Sabotage::parse(value)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sabotage,
    })
}

/// Where the traced run writes its spans: next to the executable, inside
/// the build directory.
fn spans_path(cfg: &Config) -> Option<PathBuf> {
    let exe = env::current_exe().ok()?;
    let name = format!("{}-seed{}.tsv", cfg.workload.name, cfg.seed);
    Some(exe.parent()?.join("perfbench-spans").join(name))
}

/// Runs the measuring processes one after another and merges them.
fn measure_in_children(args: &[String], cfg: &Config) -> Result<Measured, String> {
    let exe = env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let share = (cfg.seconds / PROCESSES as f64).to_string();
    let mut merged = Measured::default();
    for _ in 0..PROCESSES {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--seconds")
            .expect("parsed");
        child_args[at + 1] = share.clone();
        child_args.push("--child".into());
        let out = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a measuring process: {e}"))?;
        if !out.status.success() {
            return Err(format!("a measuring process failed ({})", out.status));
        }
        let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
        merged.merge(Measured::parse(&text)?);
    }
    Ok(merged)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.iter().any(|a| a == "--describe") {
        print!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spans = if cfg.trace { spans_path(&cfg) } else { None };
    if args.iter().any(|a| a == "--child") {
        return match bench::measure(&cfg, spans.as_deref()) {
            Ok(m) => {
                print!("{}", m.to_text());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let defs: &[_] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let result = measure_in_children(&args, &cfg).and_then(|m| {
        let report = bench::report(&m, cfg.trace)?;
        let json = report.to_json(defs)?;
        Ok((report, json))
    });
    let (report, json) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {} trace {} ({} CPUs available)",
        cfg.workload.name,
        cfg.seed,
        cfg.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in report.lines() {
        println!("# {line}");
    }
    if let Some(path) = spans {
        println!("# spans of the last traced repetition: {}", path.display());
    }
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: results differ from the model or garbage was left after the drain");
        ExitCode::from(1)
    }
}
