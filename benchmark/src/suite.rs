//! All six workloads from one command: `run`, `trace` and `noise` start one
//! child process per workload (so peak memory is per workload, and a crash in
//! one does not lose the rest), read each child's result line, and print
//! every metric by name with its unit.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::Json;
use crate::manifest::END_TO_END;
use crate::scenario::WORKLOADS;
use crate::stats::{median, quartiles};

/// A child's result line, parsed.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit), in name order.
    pub metrics: BTreeMap<String, (f64, String)>,
}

pub fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let doc = Json::parse(line)?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("result has no {key}"));
    let count = |key: &str| -> Result<u64, String> {
        field(key)?
            .as_f64()
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| n as u64)
            .ok_or_else(|| format!("{key} is not a whole number"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), (value, unit.to_string()))),
                _ => Err(format!("metric {name} lacks a value or a unit")),
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: field("correct")?
            .as_bool()
            .ok_or("correct is not a boolean")?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Runs one workload in a child process of this same binary.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output ({})", output.status))?;
    let result = parse_result_line(line).map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload}: {} with correct={}",
            output.status, result.correct
        ));
    }
    Ok(result)
}

fn print_result(workload: &str, result: &ChildResult) {
    println!(
        "{workload} attempted {} failed {} correct {}",
        result.attempted, result.failed, result.correct
    );
    for (name, (value, unit)) in &result.metrics {
        println!("{workload} {name} {value} {unit}");
    }
}

/// `run` (untraced, end-to-end metrics) or `trace` (traced, per-layer).
pub fn run_all(seed: u64, seconds: f64, traced: bool) -> Result<(), String> {
    let mut results = Vec::new();
    for scenario in WORKLOADS {
        let result = run_child(scenario.name, seed, seconds, traced)?;
        print_result(scenario.name, &result);
        results.push((scenario.name, result));
    }
    if traced {
        print_predictions(&results);
    }
    Ok(())
}

/// The dominant-layer predictions the workloads were built on; a traced run
/// says which of them hold. A prediction that fails is a finding about the
/// system or the benchmark, not an error.
fn print_predictions(results: &[(&str, ChildResult)]) {
    let value = |workload: &str, metric: &str| -> f64 {
        results
            .iter()
            .find(|(w, _)| *w == workload)
            .and_then(|(_, r)| r.metrics.get(metric))
            .map_or(f64::NAN, |(v, _)| *v)
    };
    let largest_share = |workload: &str, metric: &str| {
        ["begin", "get", "put", "scan", "commit"]
            .iter()
            .all(|op| value(workload, &format!("core.{op}.share")) <= value(workload, metric))
    };
    let wal_counters = [
        "wal.records_per_fsync",
        "wal.fsyncs_per_txn",
        "wal.bytes_per_txn",
    ];
    let predictions = [
        (
            "core.commit.share is the largest core share on smallbank_ssi_wal",
            largest_share("smallbank_ssi_wal", "core.commit.share"),
        ),
        (
            "core.scan.share is the largest core share on sibench_ssi_mem",
            largest_share("sibench_ssi_mem", "core.scan.share"),
        ),
        (
            "client.share >= 0.9 on smallbank_ssi_tcp",
            value("smallbank_ssi_tcp", "client.share") >= 0.9,
        ),
        (
            "wal counters are 0 off smallbank_ssi_wal",
            results
                .iter()
                .filter(|(w, _)| *w != "smallbank_ssi_wal")
                .all(|(w, _)| wal_counters.iter().all(|m| value(w, m) == 0.0)),
        ),
        (
            "obs.trace_overhead_share <= 0.10 on every workload",
            results
                .iter()
                .all(|(w, _)| value(w, "obs.trace_overhead_share") <= 0.10),
        ),
    ];
    for (what, holds) in predictions {
        println!(
            "prediction: {what}: {}",
            if holds { "holds" } else { "FAILS" }
        );
    }
}

/// `noise N`: N untraced rounds of all six workloads, each round on its own
/// seed. Prints, per (workload, metric): the median, the quartiles, the
/// quartile spread as a share of the median — what each bound in
/// `BENCHMARK.json` must be at least twice — and the medians of the even and
/// the odd rounds, two sets interleaved in time that must agree within the
/// bound.
pub fn noise(rounds: usize, seed: u64, seconds: f64) -> Result<(), String> {
    if rounds < 4 {
        return Err("noise needs at least 4 rounds (two sets of two)".to_string());
    }
    let mut samples: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for round in 0..rounds {
        for scenario in WORKLOADS {
            let result = run_child(scenario.name, seed + round as u64, seconds, false)?;
            for (name, (value, _)) in result.metrics {
                samples
                    .entry((scenario.name, name))
                    .or_default()
                    .push(value);
            }
        }
        eprintln!("noise: round {} of {rounds} done", round + 1);
    }
    println!("| workload | metric | median | q1 | q3 | spread | set A | set B | A vs B | bound |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for scenario in WORKLOADS {
        for metric in &END_TO_END {
            let values = &samples[&(scenario.name, metric.name.to_string())];
            let [q1, q2, q3] = quartiles(values);
            let set = |parity: usize| -> f64 {
                let picked: Vec<f64> = values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == parity)
                    .map(|(_, v)| *v)
                    .collect();
                median(&picked)
            };
            let (a, b) = (set(0), set(1));
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {} |",
                scenario.name,
                metric.name,
                q2,
                q1,
                q3,
                (q3 - q1) / q2,
                a,
                b,
                (b - a).abs() / a,
                metric.bound
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let result = crate::single::RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![("txn_per_s", 1.5e5, "1/s"), ("setup_s", 0.8127, "s")],
            notes: vec![],
        };
        let parsed = parse_result_line(&result.to_json()).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1234, 0));
        assert_eq!(parsed.metrics["txn_per_s"], (150000.0, "1/s".to_string()));
        assert_eq!(parsed.metrics["setup_s"], (0.8127, "s".to_string()));
    }

    #[test]
    fn malformed_result_lines_are_refused() {
        assert!(parse_result_line("{}").is_err());
        assert!(parse_result_line(
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#
        )
        .is_err());
        assert!(parse_result_line(
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1}}}"#
        )
        .is_err());
    }
}
