//! The metric catalogue, and the check that `BENCHMARK.json` agrees with it
//! and with the contract the driver validates the file against. A manifest
//! the driver refuses means the repo has no benchmark, so the check runs as
//! `ssi-benchmark check-manifest` and as a test.

use std::collections::BTreeSet;
use std::path::PathBuf;

use crate::json::Json;
use crate::scenario::WORKLOADS;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. One bound serves all six workloads, so
    /// each is the loosest the noise study (README.md) found necessary, up to
    /// the contract's cap of 0.25.
    pub bound: f64,
}

/// Seconds one run measures. 136 driver runs of set-up + warm-up + this must
/// fit in 3420 s; the issue's 2 s + 15 s window is shrunk uniformly to fit.
pub const RUN_SECONDS: u32 = 10;

/// What a user of the system sees, per workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric, in print order. A traced
/// run prints all of them on every workload; one that does not apply (a WAL
/// counter without a log, a client span when embedded) reads 0.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    // Spans around the embedded calls: percentiles of one call, and the
    // call's summed time as a share of summed transaction time.
    ("core.begin.p50_ns", "ns", "lower"),
    ("core.begin.p99_ns", "ns", "lower"),
    ("core.begin.share", "share", "lower"),
    ("core.get.p50_ns", "ns", "lower"),
    ("core.get.p99_ns", "ns", "lower"),
    ("core.get.share", "share", "lower"),
    ("core.put.p50_ns", "ns", "lower"),
    ("core.put.p99_ns", "ns", "lower"),
    ("core.put.share", "share", "lower"),
    ("core.scan.p50_ns", "ns", "lower"),
    ("core.scan.p99_ns", "ns", "lower"),
    ("core.scan.share", "share", "lower"),
    ("core.commit.p50_ns", "ns", "lower"),
    ("core.commit.p99_ns", "ns", "lower"),
    ("core.commit.share", "share", "lower"),
    ("core.purge.p50_ns", "ns", "lower"),
    ("core.purge.p99_ns", "ns", "lower"),
    ("core.purge.share", "share", "lower"),
    // Engine counters and the engine's own sampled histogram.
    ("core.ssi_tax", "share", "lower"),
    ("core.commit_section_p50_ns", "ns", "lower"),
    ("core.retries_per_txn", "1/txn", "lower"),
    ("core.aborts_per_commit", "1/txn", "lower"),
    ("core.abort.write-conflict", "count", "lower"),
    ("core.abort.unsafe", "count", "lower"),
    ("core.abort.deadlock", "count", "lower"),
    ("core.abort.other", "count", "lower"),
    ("core.purged_versions_per_pass", "count", "higher"),
    ("storage.versions_per_key", "count", "lower"),
    ("storage.probe_read_ns", "ns", "lower"),
    ("storage.probe_install_ns", "ns", "lower"),
    ("storage.probe_scan_row_ns", "ns", "lower"),
    ("lock.requests_per_txn", "1/txn", "lower"),
    ("lock.probe_acquire_release_ns", "ns", "lower"),
    ("lock.wait_share", "share", "lower"),
    ("lock.deadlocks_per_txn", "1/txn", "lower"),
    ("lock.timeouts", "count", "lower"),
    ("wal.records_per_fsync", "count", "higher"),
    ("wal.fsyncs_per_txn", "1/txn", "lower"),
    ("wal.bytes_per_txn", "B/txn", "lower"),
    ("wal.fsync_p50_us", "us", "lower"),
    ("wal.probe_submit_seal_ns", "ns", "lower"),
    ("wal.probe_fsync_us", "us", "lower"),
    ("wal.tax", "share", "lower"),
    ("wal.recovery_s", "s", "lower"),
    // Round trips through the TCP client, and the server's own counters.
    ("client.begin.p50_us", "us", "lower"),
    ("client.get.p50_us", "us", "lower"),
    ("client.put.p50_us", "us", "lower"),
    ("client.scan.p50_us", "us", "lower"),
    ("client.commit.p50_us", "us", "lower"),
    ("client.share", "share", "lower"),
    // Not end-to-end: on the shared sandbox its quartile spread reaches the
    // 0.25 a bound may be at most, so it is reported here, un-gated.
    ("client.txn_p99_us", "us", "lower"),
    ("server.ping_rtt_p50_us", "us", "lower"),
    ("server.roundtrips_per_txn", "1/txn", "lower"),
    ("server.probe_proto_roundtrip_ns", "ns", "lower"),
    ("server.wire_tax", "share", "lower"),
    ("server.busy_rejections", "count", "lower"),
    ("server.malformed_frames", "count", "lower"),
    // The instrument itself.
    ("obs.txn_self_share", "share", "lower"),
    ("obs.sampled_txns", "count", "higher"),
    ("obs.trace_overhead_share", "share", "lower"),
    ("obs.probes_built", "count", "higher"),
];

pub fn manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// The benchmark's directory as the manifest's `paths` names it.
const PATHS: [&str; 1] = ["benchmark"];

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&s.len())
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&s.len()) && s.chars().all(ok)
}

fn keys<'a>(v: &'a Json, what: &str, expected: &[&str]) -> Result<&'a Json, String> {
    let obj = v
        .as_obj()
        .ok_or_else(|| format!("{what} is not an object"))?;
    let found: Vec<&str> = obj.keys().map(String::as_str).collect();
    let mut wanted = expected.to_vec();
    wanted.sort_unstable();
    if found != wanted {
        return Err(format!(
            "{what} has keys {found:?}, contract says {wanted:?}"
        ));
    }
    Ok(v)
}

fn text<'a>(v: &'a Json, what: &str, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}.{key} is not a string"))
}

fn list<'a>(
    v: &'a Json,
    key: &str,
    range: std::ops::RangeInclusive<usize>,
) -> Result<&'a [Json], String> {
    let items = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{key} is not a list"))?;
    if !range.contains(&items.len()) {
        return Err(format!(
            "{key} has {} entries, contract allows {range:?}",
            items.len()
        ));
    }
    Ok(items)
}

/// Checks the manifest text field for field. Returns the metric names it
/// declares as `(end_to_end, per_layer)`.
pub fn check(text_in: &str) -> Result<(BTreeSet<String>, BTreeSet<String>), String> {
    if text_in.len() > 64 * 1024 {
        return Err(format!("manifest is {} bytes, over 64 KiB", text_in.len()));
    }
    let doc = Json::parse(text_in)?;
    keys(
        &doc,
        "manifest",
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
    )?;

    let paths = list(&doc, "paths", 1..=16)?;
    let paths: Vec<&str> = paths.iter().filter_map(Json::as_str).collect();
    if paths != PATHS {
        return Err(format!("paths is {paths:?}, expected {PATHS:?}"));
    }

    let command = list(&doc, "command", 1..=32)?;
    for (i, arg) in command.iter().enumerate() {
        let arg = arg
            .as_str()
            .ok_or_else(|| format!("command[{i}] is not a string"))?;
        if arg.len() > 200 || arg.starts_with('/') || arg.split('/').any(|p| p == "..") {
            return Err(format!("command[{i}] {arg:?} breaks the contract"));
        }
        // An argument that names a file must name one under `paths`.
        if arg.contains('/') && !PATHS.iter().any(|p| arg.starts_with(&format!("{p}/"))) {
            return Err(format!("command[{i}] {arg:?} is outside {PATHS:?}"));
        }
    }

    let seconds = doc.get("run_seconds").and_then(Json::as_f64);
    if !seconds.is_some_and(|s| s.fract() == 0.0 && (1.0..=60.0).contains(&s)) {
        return Err(format!(
            "run_seconds {seconds:?} is not a whole number in 1..=60"
        ));
    }

    let mut names = BTreeSet::new();
    let mut unique = |name: &str| -> Result<(), String> {
        if !is_name(name) {
            return Err(format!("{name:?} is not a valid name"));
        }
        if !names.insert(name.to_string()) {
            return Err(format!("name {name:?} is used twice"));
        }
        Ok(())
    };

    let workloads = list(&doc, "workloads", 2..=8)?;
    let mut declared = Vec::new();
    for w in workloads {
        keys(w, "workload", &["name", "why"])?;
        let name = text(w, "workload", "name")?;
        let why = text(w, "workload", "why")?;
        unique(name)?;
        if why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "why of {name} is not one line of at most 200 characters"
            ));
        }
        declared.push((name, why));
    }
    let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|s| (s.name, s.why)).collect();
    if declared != expected {
        return Err(format!(
            "workloads are {declared:?}, the benchmark runs {expected:?}"
        ));
    }

    let mut end_to_end = BTreeSet::new();
    for m in list(&doc, "end_to_end", 1..=16)? {
        keys(m, "end_to_end metric", &["name", "unit", "better", "bound"])?;
        let name = text(m, "metric", "name")?;
        unique(name)?;
        let known = END_TO_END
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("end_to_end metric {name} is not one the benchmark prints"))?;
        if text(m, name, "unit")? != known.unit || text(m, name, "better")? != known.better {
            return Err(format!("{name}: unit/better differ from the benchmark's"));
        }
        let bound = m.get("bound").and_then(Json::as_f64);
        if !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            return Err(format!("{name}: bound {bound:?} is not in (0, 0.25]"));
        }
        end_to_end.insert(name.to_string());
    }
    if !end_to_end.contains("setup_s") {
        return Err("end_to_end has no setup_s".to_string());
    }

    let mut per_layer = BTreeSet::new();
    for m in list(&doc, "per_layer", 1..=128)? {
        keys(m, "per_layer metric", &["name", "unit", "better"])?;
        let name = text(m, "metric", "name")?;
        unique(name)?;
        let unit = text(m, name, "unit")?;
        let better = text(m, name, "better")?;
        if !is_unit(unit) || !matches!(better, "higher" | "lower") {
            return Err(format!("{name}: bad unit {unit:?} or better {better:?}"));
        }
        if !PER_LAYER.contains(&(name, unit, better)) {
            return Err(format!(
                "per_layer metric {name} ({unit}, {better}) is not in the catalogue"
            ));
        }
        per_layer.insert(name.to_string());
    }
    Ok((end_to_end, per_layer))
}

/// Reads and checks the repository's `BENCHMARK.json`, and that it declares
/// exactly the metrics the benchmark prints.
pub fn check_file() -> Result<String, String> {
    let path = manifest_path();
    let text_in = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (end_to_end, per_layer) = check(&text_in)?;
    if text_in != render() {
        return Err(format!(
            "{} differs from what `ssi-benchmark print-manifest` renders from the catalogue",
            path.display()
        ));
    }
    let printed_e2e: BTreeSet<String> = END_TO_END.iter().map(|e| e.name.to_string()).collect();
    let printed_layer: BTreeSet<String> = PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect();
    if end_to_end != printed_e2e {
        return Err(format!(
            "end_to_end declares {end_to_end:?}, the benchmark prints {printed_e2e:?}"
        ));
    }
    if per_layer != printed_layer {
        let diff: Vec<_> = per_layer.symmetric_difference(&printed_layer).collect();
        return Err(format!("per_layer and the catalogue differ in {diff:?}"));
    }
    Ok(format!(
        "{}: {} workloads, {} end-to-end and {} per-layer metrics",
        path.display(),
        WORKLOADS.len(),
        end_to_end.len(),
        per_layer.len()
    ))
}

/// Renders the manifest from the catalogue: `ssi-benchmark print-manifest`
/// regenerates the file after a metric or a bound changes, and the check
/// requires the file to equal it, so the two cannot drift.
pub fn render() -> String {
    let q = |s: &str| format!("\"{}\"", crate::json::escape(s));
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "ssi-benchmark",
        "--",
    ];
    let mut out = String::from("{\n");
    out += &format!(
        "  \"command\": [{}],\n",
        command.iter().map(|a| q(a)).collect::<Vec<_>>().join(", ")
    );
    out += &format!("  \"paths\": [{}],\n", q(PATHS[0]));
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|s| format!("    {{\"name\": {}, \"why\": {}}}", q(s.name), q(s.why)))
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(e.name),
                q(e.unit),
                q(e.better),
                e.bound
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(n),
                q(u),
                q(b)
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    out
}
