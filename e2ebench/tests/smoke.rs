//! Tiny-size smoke runs of the benchmark binary: every workload, untraced
//! and traced, must pass its parity gate and print every metric
//! `BENCHMARK.json` names, each with its unit.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
///
/// A deliberately small reader for the file's fixed layout: each metric is
/// one `{"name": ..., "unit": ..., ...}` object on its own line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.lines()
        .filter(|line| line.contains("\"name\""))
        .map(|line| (field(line, "name"), field(line, "unit")))
        .collect()
}

/// The string value of `key` on a one-line JSON object.
fn field(line: &str, key: &str) -> String {
    let pattern = format!("\"{key}\": \"");
    let after = &line[line.find(&pattern).expect(key) + pattern.len()..];
    after[..after.find('"').expect("closing quote")].to_string()
}

/// Runs the binary at tiny scale and returns its stdout.
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_megis-e2ebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, trace: u8, section: &str) {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{last}");
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
        let rest = &last[at + entry.len()..];
        let value = &rest[..rest.find(',').expect("value ends")];
        assert!(value.parse::<f64>().is_ok(), "{name} = {value}");
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
            "{name} unit"
        );
    }
    assert_eq!(
        last.matches("\"value\": ").count(),
        metrics.len(),
        "{workload}: only the declared metrics"
    );
    // The human-readable table names each metric's clock.
    for (name, _) in &metrics {
        let row = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name.as_str()))
            .unwrap_or_else(|| panic!("{name} row"));
        assert!(
            ["measured-host", "modeled-device", "count"]
                .iter()
                .any(|clock| row.contains(clock)),
            "{row}"
        );
    }
}

/// One test, so the runs go one at a time: the traced run's layer-closure
/// gate times millisecond spans, which concurrent runs on a small host
/// would distort.
#[test]
fn every_run_prints_every_declared_metric() {
    for workload in ["cohort", "large_db", "cohort_faults"] {
        check(workload, 0, "end_to_end");
        check(workload, 1, "per_layer");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_megis-e2ebench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
