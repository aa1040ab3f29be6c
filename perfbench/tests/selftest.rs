//! The benchmark's self-test at smoke size: every metric `BENCHMARK.json`
//! names is emitted with its unit, and a corrupted expected digest is
//! reported as a failure instead of passing.

use std::path::{Path, PathBuf};
use std::process::Command;

use mapg::fuzz::{parse_json, JsonValue};

const WORKLOADS: [&str; 4] = [
    "paper-suite",
    "paper-suite-par",
    "membound-observed",
    "computebound-manycore",
];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs the benchmark at smoke size and returns its parsed last line.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "smoke"])
        .arg("--out")
        .arg(out_dir("results"))
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    parse_json(last).unwrap_or_else(|e| panic!("{workload}: last line is not JSON: {e}\n{last}"))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let manifest = parse_json(&text).expect("BENCHMARK.json is JSON");
    let Some(JsonValue::Array(metrics)) = manifest.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(JsonValue::as_str)
                    .expect(key)
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn count(result: &JsonValue, key: &str) -> u64 {
    result.get(key).and_then(JsonValue::as_u64).expect(key)
}

fn assert_emits(result: &JsonValue, metrics: &[(String, String)], what: &str) {
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{what}"
    );
    assert!(count(result, "attempted") >= 1, "{what}");
    assert_eq!(count(result, "failed"), 0, "{what}");
    let Some(JsonValue::Object(emitted)) = result.get("metrics") else {
        panic!("{what}: no metrics object");
    };
    let names: Vec<&str> = emitted.iter().map(|(name, _)| name.as_str()).collect();
    let declared_names: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, declared_names, "{what}: emitted metrics");
    for (name, unit) in metrics {
        let metric = &emitted.iter().find(|(n, _)| n == name).expect("emitted").1;
        assert_eq!(
            metric.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str())
        );
        let value = metric.get("value").and_then(JsonValue::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        assert_emits(&run(workload, 5, false, &[]), &end_to_end, workload);
        assert_emits(&run(workload, 5, true, &[]), &per_layer, workload);
    }
}

/// Copies the recorded expectations with the value of the line starting
/// with `key` replaced by a digest no run produces.
fn corrupted(key: &str, name: &str) -> PathBuf {
    let text = std::fs::read_to_string(manifest_dir().join("expected.txt")).expect("expected.txt");
    let mut hits = 0;
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if line.starts_with(&format!("{key} ")) {
                hits += 1;
                format!("{key} 0x0123456789abcdef")
            } else {
                line.to_owned()
            }
        })
        .collect();
    assert_eq!(hits, 1, "{key} names one recorded line");
    let path = out_dir(name);
    std::fs::write(&path, lines.join("\n")).expect("write the corrupted copy");
    path
}

#[test]
fn a_corrupted_digest_is_a_failure() {
    // Seed 19 picks input 19 % 16 = 3.
    let cases = [
        ("smoke suite R-F2", 0, "paper-suite"),
        (
            "smoke computebound-manycore input7",
            7,
            "computebound-manycore",
        ),
        ("smoke membound-observed input3", 19, "membound-observed"),
    ];
    for (key, seed, workload) in cases {
        let path = corrupted(key, &format!("corrupt-{workload}.txt"));
        for trace in [false, true] {
            let result = run(
                workload,
                seed,
                trace,
                &["--expected", path.to_str().expect("UTF-8")],
            );
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(false),
                "{workload} trace={trace} passed with a corrupted digest"
            );
            assert!(count(&result, "failed") >= 1, "{workload} trace={trace}");
            assert!(count(&result, "failed") <= count(&result, "attempted"));
        }
    }
}
