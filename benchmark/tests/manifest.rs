//! The PR-11 failure was a manifest the driver refused. These tests hold
//! `BENCHMARK.json` to the contract, and hold the binary to the manifest:
//! the metric names a run prints are exactly the names the manifest declares.

use std::collections::BTreeSet;
use std::process::Command;

use ssi_benchmark::manifest::{self, END_TO_END, PER_LAYER};
use ssi_benchmark::scenario::WORKLOADS;
use ssi_benchmark::suite::parse_result_line;

fn manifest_text() -> String {
    std::fs::read_to_string(manifest::manifest_path()).expect("BENCHMARK.json at the repo root")
}

#[test]
fn benchmark_json_meets_the_contract_and_matches_the_catalogue() {
    let summary = manifest::check_file().expect("BENCHMARK.json is valid");
    assert!(summary.contains("6 workloads"), "{summary}");
    let (end_to_end, per_layer) = manifest::check(&manifest_text()).unwrap();
    assert!(end_to_end.len() <= 16 && end_to_end.contains("setup_s"));
    assert!(per_layer.len() <= 128);
    for must_keep in ["txn_per_s", "txn_p50_us", "setup_s"] {
        assert!(end_to_end.contains(must_keep), "{must_keep} is must-keep");
    }
}

#[test]
fn contract_violations_are_caught() {
    let good = manifest_text();
    manifest::check(&good).expect("the shipped manifest passes");
    let broken = [
        // An extra top-level key.
        good.replacen("\"paths\"", "\"notes\": 1, \"paths\"", 1),
        // A path outside the benchmark's directory.
        good.replacen("[\"benchmark\"]", "[\"crates/bench\"]", 1),
        good.replacen("benchmark/Cargo.toml", "Cargo.toml/../crates/x", 1),
        good.replacen("\"run_seconds\": 10", "\"run_seconds\": 61", 1),
        good.replacen("\"run_seconds\": 10", "\"run_seconds\": 9.5", 1),
        // A bound over the 0.25 cap, and a missing one.
        good.replacen("\"bound\": 0.25", "\"bound\": 0.3", 1),
        good.replacen(", \"bound\": 0.25", "", 1),
        good.replacen("\"bound\": 0.1}", "\"bound\": 0}", 1),
        // A name with a character outside [A-Za-z0-9_.-], and a reused one.
        good.replacen("core.begin.p50_ns", "core begin p50", 1),
        good.replacen("core.begin.p99_ns", "core.begin.p50_ns", 1),
        // An end-to-end metric may not also be a per-layer one.
        good.replacen("core.begin.p50_ns", "txn_per_s", 1),
        good.replacen("smallbank_ssi_hot", "smallbank_ssi_warm", 1),
        good.replacen("setup_s", "set_up_s", 1),
    ];
    for (i, text) in broken.iter().enumerate() {
        assert_ne!(*text, good, "case {i} did not change the manifest");
        assert!(manifest::check(text).is_err(), "case {i} passed the check");
    }
}

fn smoke(workload: &str, traced: bool) -> BTreeSet<String> {
    // 2 s: long enough for 1000 latency samples a slice in a debug build.
    let output = Command::new(env!("CARGO_BIN_EXE_ssi-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("run ssi-benchmark");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload}: {}\n{stderr}",
        output.status
    );
    let result = parse_result_line(stdout.lines().last().expect("a result line")).unwrap();
    assert!(result.correct, "{workload}: {stderr}");
    assert!(
        result.attempted >= 1 && result.failed == 0,
        "{workload}: {stderr}"
    );
    if traced {
        assert_eq!(result.metrics["obs.probes_built"].0, 1.0, "{stderr}");
        for (name, unit, _) in PER_LAYER {
            assert_eq!(result.metrics[name].1, unit, "unit of {name}");
        }
    } else {
        for e in &END_TO_END {
            let (value, unit) = &result.metrics[e.name];
            assert!(
                *value > 0.0 && unit == e.unit,
                "{workload} {}: {value} {unit}",
                e.name
            );
        }
    }
    result.metrics.into_keys().collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let (end_to_end, per_layer) = manifest::check(&manifest_text()).unwrap();
    for scenario in WORKLOADS {
        assert_eq!(smoke(scenario.name, false), end_to_end, "{}", scenario.name);
        assert_eq!(smoke(scenario.name, true), per_layer, "{}", scenario.name);
    }
}

#[test]
fn unknown_workloads_and_flags_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "smallbank_si_mem", "--trace", "2"],
        &["--seed"],
        &["bogus"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_ssi-benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
