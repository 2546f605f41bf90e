//! End-to-end checks of the benchmark binary: its printed metric names
//! match `BENCHMARK.json`, another seed keeps the names, and a wrong
//! expected output is counted as a failure.

use std::process::Command;

use tevot_obs::json::{self, Json};

const WORKLOADS: [&str; 3] = ["sweep_train", "serve_open", "dfs_replay"];

/// Runs the benchmark briefly and returns its last stdout line, parsed.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    json::parse(stdout.lines().last().expect("a result line")).expect("JSON result")
}

fn metric_names(result: &Json) -> Vec<String> {
    match result.get("metrics") {
        Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

fn benchmark_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse");
    let entries = doc.get(section).and_then(Json::as_arr).expect("metric list");
    entries
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect()
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no {key}"))
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let (end_to_end, per_layer) = (benchmark_names("end_to_end"), benchmark_names("per_layer"));
    for workload in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let result = run(workload, 1, trace, &[]);
            assert_eq!(&metric_names(&result), want, "{workload} trace={trace}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload} trace={trace}");
            assert_eq!(count(&result, "failed"), 0);
            assert!(count(&result, "attempted") >= 1);
        }
    }
}

#[test]
fn another_seed_keeps_the_metric_names() {
    let a = run("dfs_replay", 1, false, &[]);
    let b = run("dfs_replay", 2, false, &[]);
    assert_eq!(metric_names(&a), metric_names(&b));
    let accuracy = |r: &Json| {
        r.get("metrics").and_then(|m| m.get("accuracy")).and_then(|a| a.get("value")).cloned()
    };
    assert_ne!(accuracy(&a), accuracy(&b), "other inputs give another simulated outcome");
}

#[test]
fn a_wrong_expected_output_counts_as_failed() {
    for workload in WORKLOADS {
        let result = run(workload, 1, false, &["--corrupt-expected"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{workload}");
        assert!(count(&result, "failed") > 0, "{workload}");
        let ok = result.get("metrics").and_then(|m| m.get("ok_ratio")).and_then(|v| v.get("value"));
        assert!(ok.and_then(Json::as_f64).is_some_and(|v| v < 1.0), "{workload}");
    }
}
