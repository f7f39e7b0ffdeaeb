//! CLI parsing for the evaluation sweep: deterministic trace replay
//! against every backend across thread counts, emitting a
//! `BENCH_addrspace.json` trajectory.
//!
//! Parsing is pure (`&[String] -> Result<SweepConfig, String>`) so
//! validation is unit-testable; `main` only turns errors into usage text
//! and exit codes.

use crate::sweep::{Backend, SweepConfig};
use crate::workload::Profile;

/// Usage text printed on any parse error.
pub const USAGE: &str = "usage:
  rcukit-bench [threads=1,2,4]
               [profile=metis|metis-phased|psearchy|read-heavy|uniform|writers|\
stalled-reader|fork-storm|all]
               [backend=bonsai|qsbr|hp|hybrid|locked|all] [ops=N] [slots=N]
               [pages=N] [seed=N] [forks=N] [live=N] [out=PATH|-]";

/// Parses an argument list (without the program name).
pub fn parse(args: &[String]) -> Result<SweepConfig, String> {
    let mut cfg = SweepConfig {
        threads: vec![1, 2, 4],
        profiles: Profile::ALL.to_vec(),
        backends: Backend::ALL.to_vec(),
        ops_per_thread: 200_000,
        slots_per_thread: 64,
        pages_per_slot: 16,
        seed: 42,
        forks_per_thread: 256,
        live_per_thread: 64,
        out: Some("BENCH_addrspace.json".to_string()),
    };
    for arg in args {
        match arg.split_once('=') {
            Some(("threads", v)) => {
                cfg.threads = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| num(s, "threads"))
                    .collect::<Result<_, _>>()?;
            }
            Some(("profile", v)) => {
                cfg.profiles = if v == "all" {
                    Profile::ALL.to_vec()
                } else {
                    vec![Profile::parse(v)?]
                };
            }
            Some(("backend", v)) => {
                cfg.backends = match v {
                    "all" => Backend::ALL.to_vec(),
                    one => vec![Backend::parse(one)?],
                };
            }
            Some(("ops", v)) => cfg.ops_per_thread = num(v, "ops")?,
            Some(("slots", v)) => cfg.slots_per_thread = num(v, "slots")?,
            Some(("pages", v)) => cfg.pages_per_slot = num(v, "pages")?,
            Some(("seed", v)) => cfg.seed = num(v, "seed")?,
            Some(("forks", v)) => cfg.forks_per_thread = num(v, "forks")?,
            Some(("live", v)) => cfg.live_per_thread = num(v, "live")?,
            Some(("out", v)) => cfg.out = (v != "-").then(|| v.to_string()),
            _ => return Err(format!("unknown argument: {arg}")),
        }
    }
    cfg.validate()?;
    Ok(cfg)
}

fn num<T: std::str::FromStr>(v: &str, key: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{key}: bad value {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<SweepConfig, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_are_valid() {
        let cfg = parse_strs(&[]).expect("defaults must parse");
        assert_eq!(cfg.threads, vec![1, 2, 4]);
        assert_eq!(cfg.profiles.len(), 8);
        assert_eq!(cfg.backends.len(), 5);
        assert_eq!(cfg.forks_per_thread, 256);
        assert_eq!(cfg.live_per_thread, 64);
        assert_eq!(cfg.out.as_deref(), Some("BENCH_addrspace.json"));
    }

    #[test]
    fn sweep_parses_fork_storm_knobs() {
        let cfg = parse_strs(&["profile=fork-storm", "forks=128", "live=32"]).unwrap();
        assert_eq!(cfg.profiles, vec![Profile::ForkStorm]);
        assert_eq!(cfg.forks_per_thread, 128);
        assert_eq!(cfg.live_per_thread, 32);
        assert!(parse_strs(&["forks=0"]).is_err());
        assert!(parse_strs(&["live=0"]).is_err());
    }

    #[test]
    fn sweep_rejects_zero_threads() {
        assert!(parse_strs(&["threads=0"]).is_err());
        assert!(parse_strs(&["threads=2,0"]).is_err());
    }

    #[test]
    fn sweep_rejects_empty_sweep() {
        assert!(parse_strs(&["threads="]).is_err());
        assert!(parse_strs(&["threads=,"]).is_err());
    }

    #[test]
    fn sweep_rejects_degenerate_workloads() {
        assert!(parse_strs(&["ops=0"]).is_err());
        assert!(parse_strs(&["slots=1"]).is_err());
        assert!(parse_strs(&["pages=0"]).is_err());
    }

    #[test]
    fn sweep_parses_selections() {
        let cfg =
            parse_strs(&["threads=2,8", "profile=psearchy", "backend=locked", "out=-"]).unwrap();
        assert_eq!(cfg.threads, vec![2, 8]);
        assert_eq!(cfg.profiles, vec![Profile::Psearchy]);
        assert_eq!(cfg.backends, vec![Backend::Locked]);
        assert_eq!(cfg.out, None);
    }

    #[test]
    fn rejects_unknown_arguments() {
        assert!(parse_strs(&["bogus"]).is_err());
        assert!(parse_strs(&["profile=none"]).is_err());
        assert!(parse_strs(&["backend=none"]).is_err());
    }
}
