//! In-process smoke test of the evaluation sweep: a tiny run against every
//! backend must pass the sweep's record check ([`sweep::check`]) and
//! render a well-formed JSON trajectory document.

use rcukit_bench::sweep::{self, Backend, PointResult, SweepConfig};
use rcukit_bench::workload::Profile;

fn tiny_config() -> SweepConfig {
    SweepConfig {
        threads: vec![1, 2],
        profiles: vec![
            Profile::Metis,
            Profile::MetisPhased,
            Profile::Psearchy,
            Profile::ReadHeavy,
            Profile::Writers,
            Profile::StalledReader,
            Profile::ForkStorm,
        ],
        backends: Backend::ALL.to_vec(),
        ops_per_thread: 5_000,
        slots_per_thread: 16,
        pages_per_slot: 8,
        seed: 7,
        forks_per_thread: 64,
        live_per_thread: 16,
        out: None,
    }
}

/// Runs `cfg` and requires the records to pass the sweep's own contract
/// check ([`sweep::check`]), which covers every per-record field and the
/// cross-backend identical-work comparison.
fn run_checked(cfg: &SweepConfig) -> Vec<PointResult> {
    let results = sweep::run(cfg);
    if let Err(violations) = sweep::check(cfg, &results) {
        panic!("sweep contract violated:\n{}", violations.join("\n"));
    }
    results
}

#[test]
fn sweep_runs_every_backend_over_identical_work() {
    let cfg = tiny_config();
    let results = run_checked(&cfg);
    assert_eq!(
        results.len(),
        cfg.threads.len() * cfg.profiles.len() * cfg.backends.len()
    );
}

/// The acceptance test for bounded garbage: under the `stalled-reader`
/// profile one reader sits inside its read-side protection for the whole
/// replay. Epoch reclamation cannot advance past the stalled reader's
/// epoch, so its peak unreclaimed footprint scales with the stall window
/// (here: with the number of ops replayed under the stall). Hazard
/// pointers only ever defer what the scan threshold plus the per-slot
/// protections can hold, so the peak stays flat no matter how long the
/// stall lasts. The hybrid interval-based backend is bounded for a
/// different reason: a pin can only block garbage born at or before its
/// reservation, so everything the replay itself creates and retires is
/// freed regardless of the stalled reader.
#[test]
fn stalled_reader_peak_grows_with_window_on_epoch_but_not_hp_or_hybrid() {
    // Every backend still reclaims everything once the stall lifts
    // (`run_checked` covers reclaim_ok / retired > 0).
    fn stalled(ops: usize) -> Vec<PointResult> {
        run_checked(&SweepConfig {
            threads: vec![2],
            profiles: vec![Profile::StalledReader],
            backends: vec![Backend::Bonsai, Backend::Hp, Backend::Hybrid],
            ops_per_thread: ops,
            slots_per_thread: 16,
            pages_per_slot: 8,
            seed: 7,
            forks_per_thread: 1,
            live_per_thread: 1,
            out: None,
        })
    }

    let short = stalled(2_000);
    let long = stalled(8_000);
    let (epoch_short, hp_short, hybrid_short) = (&short[0], &short[1], &short[2]);
    let (epoch_long, hp_long, hybrid_long) = (&long[0], &long[1], &long[2]);
    assert_eq!(epoch_short.backend, Backend::Bonsai);
    assert_eq!(hp_short.backend, Backend::Hp);
    assert_eq!(hybrid_short.backend, Backend::Hybrid);

    // Epoch garbage accumulates for the whole window: quadrupling the ops
    // must at least double the peak (conservative to keep this robust).
    assert!(
        epoch_long.peak_unreclaimed_bytes >= 2 * epoch_short.peak_unreclaimed_bytes,
        "epoch peak must scale with the stall window: \
         short={} long={}",
        epoch_short.peak_unreclaimed_bytes,
        epoch_long.peak_unreclaimed_bytes,
    );
    // The HP peak is bounded by construction (scan threshold + slots), so
    // it must not track the window and must sit far below the epoch peak.
    assert!(
        hp_long.peak_unreclaimed_bytes <= 4 * hp_short.peak_unreclaimed_bytes.max(4096),
        "hp peak must not scale with the stall window: short={} long={}",
        hp_short.peak_unreclaimed_bytes,
        hp_long.peak_unreclaimed_bytes,
    );
    assert!(
        hp_long.peak_unreclaimed_bytes * 4 < epoch_long.peak_unreclaimed_bytes,
        "hp peak ({}) must sit well below the epoch peak ({})",
        hp_long.peak_unreclaimed_bytes,
        epoch_long.peak_unreclaimed_bytes,
    );
    // The hybrid backend degrades gracefully: the stalled pin blocks only
    // pre-pin garbage, so the peak must neither track the window nor
    // approach the epoch backend's runaway growth.
    assert!(
        hybrid_long.peak_unreclaimed_bytes <= 4 * hybrid_short.peak_unreclaimed_bytes.max(4096),
        "hybrid peak must not scale with the stall window: short={} long={}",
        hybrid_short.peak_unreclaimed_bytes,
        hybrid_long.peak_unreclaimed_bytes,
    );
    assert!(
        hybrid_long.peak_unreclaimed_bytes * 4 < epoch_long.peak_unreclaimed_bytes,
        "hybrid peak ({}) must sit well below the epoch peak ({})",
        hybrid_long.peak_unreclaimed_bytes,
        epoch_long.peak_unreclaimed_bytes,
    );
}

#[test]
fn trajectory_document_is_well_formed_json() {
    let cfg = tiny_config();
    let results = sweep::run(&cfg);
    let doc = sweep::render_trajectory(&cfg, &results);

    let value = json::parse(&doc).expect("trajectory must parse as JSON");
    let top = match value {
        json::Value::Object(pairs) => pairs,
        other => panic!("expected top-level object, got {other:?}"),
    };
    assert_eq!(
        lookup(&top, "schema"),
        Some(&json::Value::String("rcukit-bench/addrspace-v7".into()))
    );
    assert_eq!(lookup(&top, "seed"), Some(&json::Value::Number(7.0)));
    assert_eq!(
        lookup(&top, "forks_per_thread"),
        Some(&json::Value::Number(64.0))
    );
    assert_eq!(
        lookup(&top, "live_per_thread"),
        Some(&json::Value::Number(16.0))
    );
    match lookup(&top, "results") {
        Some(json::Value::Array(records)) => {
            assert_eq!(records.len(), results.len());
            for record in records {
                let json::Value::Object(fields) = record else {
                    panic!("record must be an object");
                };
                for key in [
                    "profile",
                    "backend",
                    "threads",
                    "ops_per_sec",
                    "unmap_ranges",
                    "unmap_range_misses",
                    "reclaim_ok",
                    "peak_unreclaimed_bytes",
                    "stall_events",
                    "degraded_ops",
                    "cas_retries",
                    "cas_wasted_nodes",
                    "read_op_ns",
                    "forks",
                    "live_spaces_peak",
                    "fork_p50_ns",
                    "fork_p90_ns",
                    "fork_p99_ns",
                    "fork_max_ns",
                ] {
                    assert!(lookup(fields, key).is_some(), "record missing {key}");
                }
            }
        }
        other => panic!("results must be an array, got {other:?}"),
    }
}

fn lookup<'a>(pairs: &'a [(String, json::Value)], key: &str) -> Option<&'a json::Value> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A minimal recursive-descent JSON parser, here only to prove the emitted
/// document is well-formed without adding a dependency.
mod json {
    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {pos}", c as char))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("truncated escape")?;
                    *pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                }
                _ => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut pairs = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            expect(b, pos, b':')?;
            pairs.push((key, parse_value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}
