//! Smoke test of the benchmark at tiny scale (20k rows per table): every
//! workload in both modes prints every metric `BENCHMARK.json` declares,
//! with its unit, and the answer and determinism checks pass.

use std::process::{Command, Output};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `[...]` array following `"key":` in `text`.
fn section<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let open = start + text[start..].find('[').expect("array");
    let close = open + text[open..].find(']').expect("closed array");
    &text[open + 1..close]
}

/// The string value of `"field": "..."` in `obj`.
fn field(obj: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = obj.find(&tag)? + tag.len();
    let end = start + obj[start..].find('"')?;
    Some(obj[start..end].to_string())
}

/// `(name, unit)` of every entry of a metric section, or names only.
fn declared(key: &str) -> Vec<(String, Option<String>)> {
    section(BENCHMARK_JSON, key)
        .split('{')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit"))))
        .collect()
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aqp-wallbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn run(workload: &str, trace: &str) -> Output {
    bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--rows",
        "20000",
        "--trace",
        trace,
    ])
}

/// The value of metric `name` in the result line, after checking its unit.
fn value(result: &str, name: &str, unit: &str) -> f64 {
    let tag = format!("\"{name}\": {{\"value\": ");
    let start = result
        .find(&tag)
        .unwrap_or_else(|| panic!("{name} missing in {result}"))
        + tag.len();
    let end = start + result[start..].find('}').expect("metric object closes");
    let (number, rest) = result[start..end].split_once(',').expect("value, unit");
    assert_eq!(rest.trim(), format!("\"unit\": \"{unit}\""), "{name}");
    let v: f64 = number
        .parse()
        .unwrap_or_else(|e| panic!("{name}: {number}: {e}"));
    assert!(v.is_finite(), "{name} = {v}");
    v
}

/// Run one workload in one mode and return `(name, value)` of every
/// metric of `section`.
fn check(workload: &str, trace: &str, section: &str) -> Vec<(String, f64)> {
    let out = run(workload, trace);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, "),
        "{result}\n{stderr}"
    );
    assert!(result.contains("\"failed\": 0,"), "{result}\n{stderr}");
    let metrics = declared(section);
    assert_eq!(
        result.matches("{\"value\": ").count(),
        metrics.len(),
        "{result}"
    );
    metrics
        .into_iter()
        .map(|(name, unit)| {
            let v = value(result, &name, &unit.expect("metric has a unit"));
            (name, v)
        })
        .collect()
}

#[test]
fn declares_the_three_workloads() {
    let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["dashboard", "tail_fallback", "exact_scan"]);
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for (workload, _) in declared("workloads") {
        let metrics = check(&workload, "0", "end_to_end");
        let get = |n: &str| metrics.iter().find(|(m, _)| m == n).expect(n).1;
        assert_eq!(get("correct_share"), 1.0, "{workload}");
        assert!(
            get("queries_per_s") > 0.0 && get("setup_s") > 0.0,
            "{workload}"
        );
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for (workload, _) in declared("workloads") {
        let metrics = check(&workload, "1", "per_layer");
        let get = |n: &str| metrics.iter().find(|(m, _)| m == n).expect(n).1;
        assert!(get("exec.exact_ms") > 0.0, "{workload}");
        if workload == "exact_scan" {
            // No samples: error estimation and the diagnostic never run.
            for n in [
                "stats.bootstrap_ms",
                "stats.closed_form_us",
                "stats.resamples_per_query",
            ] {
                assert_eq!(get(n), 0.0, "{n}");
            }
            assert_eq!(get("diagnostics.run_ms"), 0.0);
        } else {
            assert!(get("exec.collect_sample_ms") > 0.0, "{workload}");
            assert!(get("diagnostics.run_ms") > 0.0, "{workload}");
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
