//! `BENCHMARK.json` at the repository root declares the workloads and
//! metrics this crate reports; keep the two in step.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::WORKLOADS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

#[test]
fn every_workload_is_declared_with_its_reason() {
    let json = benchmark_json();
    for w in &WORKLOADS {
        let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
        assert!(json.contains(&entry), "missing {entry}");
    }
}

#[test]
fn every_metric_is_declared_with_its_unit() {
    let json = benchmark_json();
    for d in &END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            d.name, d.unit, d.better, d.bound
        );
        assert!(json.contains(&entry), "missing {entry}");
    }
    for d in &PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name, d.unit, d.better
        );
        assert!(json.contains(&entry), "missing {entry}");
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
