//! The oracle must fail the command when the system under test gives one
//! wrong answer. Each test runs the benchmark binary on a `RangeMap` with
//! a deliberate defect (`--sabotage`) and checks the exit code, the
//! result line and the printed failure ratio; the control runs it clean.

use std::process::Command;

/// Runs the benchmark briefly; returns its exit code and standard output.
fn perfbench(workload: &str, sabotage: Option<&str>) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.1",
        "--trace",
        "0",
    ]);
    if let Some(kind) = sabotage {
        cmd.args(["--sabotage", kind]);
    }
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    (out.status.code().expect("exited, not killed"), stdout)
}

/// The number after `key` in `text` (e.g. `"failed": 3` or `= 0.25`).
fn number_after(text: &str, key: &str) -> f64 {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("{key:?} missing from:\n{text}"))
        + key.len();
    let digits: String = text[at..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == 'e' || *c == '-')
        .collect();
    digits
        .parse()
        .unwrap_or_else(|e| panic!("{key:?} -> {digits:?}: {e}"))
}

fn assert_oracle_fired(workload: &str, sabotage: &str) {
    let (code, stdout) = perfbench(workload, Some(sabotage));
    assert_eq!(
        code, 1,
        "{workload} --sabotage {sabotage} must fail the run:\n{stdout}"
    );
    let result = stdout.lines().last().expect("a result line");
    assert!(result.contains("\"correct\": false"), "{result}");
    assert!(number_after(result, "\"failed\":") > 0.0, "{result}");
    assert!(
        number_after(&stdout, "op_failure_ratio =") > 0.0,
        "{stdout}"
    );
}

#[test]
fn a_dropped_unmap_fails_the_run() {
    // Two threads: the unmapped-nothing region survives into the final
    // state, and later maps on its slot are rejected.
    assert_oracle_fired("mmap-churn", "drop-unmap");
}

#[test]
fn a_flipped_fault_fails_the_run() {
    // One thread, one arena: every fault is an own-arena fault the model
    // predicts, so the flipped one is always caught.
    assert_oracle_fired("fork-exit", "flip-fault");
}

#[test]
fn a_dropped_unmap_in_a_forked_child_fails_the_run() {
    // The last child's final state is compared against the model.
    assert_oracle_fired("fork-exit", "drop-unmap");
}

#[test]
fn the_unsabotaged_system_passes() {
    let (code, stdout) = perfbench("mmap-churn", None);
    assert_eq!(code, 0, "{stdout}");
    let result = stdout.lines().last().expect("a result line");
    assert!(result.contains("\"correct\": true"), "{result}");
    assert_eq!(number_after(result, "\"failed\":"), 0.0);
    assert_eq!(number_after(&stdout, "op_failure_ratio ="), 0.0);
}

#[test]
fn bad_arguments_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
