//! One workload, one process: what the driver's
//! `--workload W --seed N --seconds S --trace 0|1` runs.
//!
//! `--trace 0` sets the system up at least [`MIN_SETUPS`] times (reporting the
//! median as `setup_s`), measures with no span recorded, and prints the
//! end-to-end metrics. `--trace 1` runs the layer probes, measures with
//! spans in alternate slices for 0.6 of the time, spends the other 0.4 on the
//! workload's reference scenario (see [`Scenario::reference`]), and prints
//! the per-layer metrics. End-to-end numbers never come from a traced run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use serializable_si::AbortReason;

use crate::json::escape;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::runner::{measure, Measurement, Plan, SAMPLE_EVERY};
use crate::scenario::{set_up, Scenario, Verified, CLIENTS};
use crate::spans::{write_jsonl, SpanKind, SpanSummary};
use crate::stats::{median, ratio};

/// Set-ups timed per untraced run: at least [`MIN_SETUPS`], and more — up to
/// [`MAX_SETUPS`] — until [`SETUP_BUDGET`] is spent, so that sibench's
/// sub-millisecond set-up is a median of hundreds. The first set-up pays for
/// fresh pages from the kernel and the rest reuse the allocator's, so the
/// median is the steady cost; the last one is the system the run measures.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 501;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Share of a traced run's `--seconds` spent on the workload itself; the
/// rest goes to its reference scenario.
const TRACED_MAIN_SHARE: f64 = 0.6;

pub struct RunArgs {
    pub scenario: Scenario,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why `correct` is false, and other remarks for a human (stderr).
    pub notes: Vec<String>,
}

impl RunResult {
    /// The result line of the driver's contract.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    escape(name),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where the benchmark writes: log directories while a durable workload
/// runs, and the trace files. Inside the checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One measured pass plus its checks.
struct Pass {
    measurement: Measurement,
    checks: Result<Verified, String>,
}

/// Sets up (repeatedly, when `time_setup`), measures, checks. Returns the
/// pass and the median set-up time.
fn pass(scenario: Scenario, plan: &Plan, time_setup: bool) -> Result<(Pass, f64), String> {
    let scratch = out_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let first = Instant::now();
    let mut setup_times = Vec::new();
    let (env, clients) = loop {
        let started = Instant::now();
        let ready = set_up(scenario, &scratch)?;
        setup_times.push(started.elapsed().as_secs_f64());
        let n = setup_times.len();
        if !time_setup || n == MAX_SETUPS || (n >= MIN_SETUPS && first.elapsed() >= SETUP_BUDGET) {
            break ready;
        }
        let (env, clients) = ready;
        drop(clients);
        env.discard()?;
    };
    let measurement = measure(&env, clients, plan)?;
    let checks = env.verify_and_tear_down(measurement.ledger, measurement.round_trips);
    Ok((
        Pass {
            measurement,
            checks,
        },
        median(&setup_times),
    ))
}

fn verdict(result: &mut RunResult, scenario: Scenario, pass: &Pass) {
    let m = &pass.measurement;
    let per_slice: Vec<String> = m
        .slices
        .iter()
        .map(|s| format!("{:.0}/{:.1}/{:.1}", s.per_s, s.p50_us, s.p99_us))
        .collect();
    result.notes.push(format!(
        "{}: txn/s / p50 us / p99 us by slice: {}",
        scenario.name,
        per_slice.join(" ")
    ));
    result.attempted += m.attempted;
    result.failed += m.failed;
    if let Some(e) = &m.first_error {
        result.correct = false;
        result.notes.push(format!(
            "{}: {} transactions failed, first: {e}",
            scenario.name, m.failed
        ));
    }
    if let Err(e) = &pass.checks {
        result.correct = false;
        result
            .notes
            .push(format!("{}: check failed: {e}", scenario.name));
    }
}

pub fn run_single(args: &RunArgs) -> Result<RunResult, String> {
    let mut result = RunResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: vec![format!(
            "{}: closed loop, {} clients, seed {}, {} s, flush policy: {}",
            args.scenario.name,
            CLIENTS,
            args.seed,
            args.seconds,
            args.scenario.flush_policy()
        )],
    };
    if args.traced {
        traced(args, &mut result)?;
    } else {
        let plan = Plan::new(args.seed, args.seconds, false);
        let (pass, setup_s) = pass(args.scenario, &plan, true)?;
        verdict(&mut result, args.scenario, &pass);
        let m = &pass.measurement;
        let samples = m.completed();
        result.notes.push(format!(
            "{}: {samples} latency samples in {} slices",
            args.scenario.name, plan.slices
        ));
        let values = [
            m.best_per_s(),
            m.lower_quartile_of(|s| s.p50_us),
            m.rss_peak_mb,
            setup_s,
        ];
        result.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, v, e.unit))
            .collect();
    }
    if let Some((name, value, _)) = result.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    Ok(result)
}

/// Builds and runs the `layer-probes` binary. `None` when it does not build
/// or fails: a refactor that changes a layer's signature must not take the
/// span- and counter-derived ledger down with it.
fn run_probes() -> Option<BTreeMap<String, f64>> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut command = Command::new(cargo);
    command.args(["run", "--offline", "--quiet", "--bin", "layer-probes"]);
    command.args([
        "--manifest-path",
        concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"),
    ]);
    // Same profile as this binary, so a test run does not trigger a second,
    // release, build of the whole tree.
    if !cfg!(debug_assertions) {
        command.arg("--release");
    }
    let output = command.output().ok()?;
    if !output.status.success() {
        return None;
    }
    let stdout = String::from_utf8(output.stdout).ok()?;
    let probes: BTreeMap<String, f64> = stdout
        .lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect();
    Some(probes)
}

fn traced(args: &RunArgs, result: &mut RunResult) -> Result<(), String> {
    let scenario = args.scenario;
    let probes = run_probes();

    let plan = Plan::new(args.seed, args.seconds * TRACED_MAIN_SHARE, true);
    let (main, _) = pass(scenario, &plan, false)?;
    verdict(result, scenario, &main);
    let m = &main.measurement;

    let trace_path = out_dir().join(format!("trace-{}.jsonl", scenario.name));
    let write = std::fs::File::create(&trace_path)
        .map(std::io::BufWriter::new)
        .and_then(|mut out| {
            write_jsonl(&m.spans, &mut out)?;
            std::io::Write::flush(&mut out)
        });
    write.map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let skipped: u64 = m.spans.iter().map(|b| b.skipped_txns).sum();
    result.notes.push(format!(
        "{}: spans in {} ({skipped} sampled transactions skipped on a full buffer)",
        scenario.name,
        trace_path.display()
    ));

    let mut values: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|(n, _, _)| (*n, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        *values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue")) = value;
    };

    // Spans. Purge is always a call on the embedded handle.
    let summary = SpanSummary::of(&m.spans);
    let calls = [
        SpanKind::Begin,
        SpanKind::Get,
        SpanKind::Put,
        SpanKind::Scan,
        SpanKind::Commit,
    ];
    if scenario.wire {
        for kind in calls {
            set(
                &format!("client.{}.p50_us", kind.label()),
                summary.p50_ns(kind) / 1e3,
            );
        }
        let client_share = calls.iter().map(|&k| summary.share(k)).sum::<f64>()
            + summary.share(SpanKind::Rollback);
        set("client.share", client_share);
    }
    for kind in calls.into_iter().chain([SpanKind::Purge]) {
        if scenario.wire && kind != SpanKind::Purge {
            continue;
        }
        let label = kind.label();
        set(&format!("core.{label}.p50_ns"), summary.p50_ns(kind));
        set(&format!("core.{label}.p99_ns"), summary.p99_ns(kind));
        // Every purge pass in a traced period is recorded but only one
        // transaction in SAMPLE_EVERY, and purge runs between transactions:
        // its share is scaled to, and relative to rather than part of, the
        // time of all transactions.
        let scale = if kind == SpanKind::Purge {
            SAMPLE_EVERY as f64
        } else {
            1.0
        };
        set(&format!("core.{label}.share"), summary.share(kind) / scale);
    }
    set("client.txn_p99_us", m.median_of(|s| s.p99_us));
    set("obs.txn_self_share", summary.txn_self_share());
    set("obs.sampled_txns", summary.txns as f64);
    let quiet_per_s = m.quiet_per_s;
    set(
        "obs.trace_overhead_share",
        1.0 - ratio(m.recording_per_s, quiet_per_s),
    );

    // Engine counters, between two quiescent snapshots (after load, after
    // the last client stopped): warm-up and window together, so every ratio
    // uses a denominator from the same interval.
    let (b, a) = (&m.before, &m.after);
    let reasons = |picked: &[AbortReason]| -> f64 {
        picked
            .iter()
            .map(|r| a.txn.abort_reasons[r.index()] - b.txn.abort_reasons[r.index()])
            .sum::<u64>() as f64
    };
    let committed = (a.txn.committed - b.txn.committed) as f64;
    // A withdrawal the program refuses ends in a rollback the engine counts
    // as an abort; it is program logic, not concurrency control.
    let user_rollbacks = reasons(&[AbortReason::UserRollback]);
    let cc_aborts = (a.txn.aborted - b.txn.aborted) as f64 - user_rollbacks;
    let client_txns = committed + user_rollbacks;
    let write_conflict = reasons(&[AbortReason::WriteConflict]);
    let unsafe_aborts = reasons(&[
        AbortReason::PivotIn,
        AbortReason::PivotOut,
        AbortReason::UnsafeAtCommit,
        AbortReason::BasicFlagCheck,
        AbortReason::DoomedByPeer,
    ]);
    let deadlock = reasons(&[AbortReason::LockDeadlock]);
    set(
        "core.retries_per_txn",
        ratio(m.retries as f64, m.completed() as f64),
    );
    set("core.aborts_per_commit", ratio(cc_aborts, committed));
    set("core.abort.write-conflict", write_conflict);
    set("core.abort.unsafe", unsafe_aborts);
    set("core.abort.deadlock", deadlock);
    set(
        "core.abort.other",
        cc_aborts - write_conflict - unsafe_aborts - deadlock,
    );
    set(
        "core.commit_section_p50_ns",
        a.latency.commit_section.p50_ns as f64,
    );
    set(
        "core.purged_versions_per_pass",
        ratio(
            (a.gc.purged_versions - b.gc.purged_versions) as f64,
            (a.gc.purge_runs - b.gc.purge_runs) as f64,
        ),
    );
    let (keys, versions) = a
        .tables
        .iter()
        .fold((0, 0), |(k, v), t| (k + t.keys, v + t.versions));
    set(
        "storage.versions_per_key",
        ratio(versions as f64, keys as f64),
    );
    let lock_requests = (a.locks.requests - b.locks.requests) as f64;
    set("lock.requests_per_txn", ratio(lock_requests, client_txns));
    set(
        "lock.wait_share",
        ratio((a.locks.waits - b.locks.waits) as f64, lock_requests),
    );
    set(
        "lock.deadlocks_per_txn",
        ratio((a.locks.deadlocks - b.locks.deadlocks) as f64, client_txns),
    );
    set(
        "lock.timeouts",
        (a.locks.timeouts - b.locks.timeouts) as f64,
    );
    let fsyncs = (a.wal.fsyncs - b.wal.fsyncs) as f64;
    set(
        "wal.records_per_fsync",
        ratio((a.wal.records - b.wal.records) as f64, fsyncs),
    );
    set("wal.fsyncs_per_txn", ratio(fsyncs, client_txns));
    set(
        "wal.bytes_per_txn",
        ratio((a.wal.bytes - b.wal.bytes) as f64, client_txns),
    );
    set("wal.fsync_p50_us", a.latency.fsync.p50_ns as f64 / 1e3);
    set("server.ping_rtt_p50_us", m.ping_rtt_p50_us);
    set(
        "server.roundtrips_per_txn",
        ratio((m.round_trips - m.pings) as f64, client_txns),
    );
    if let Ok(verified) = &main.checks {
        set("wal.recovery_s", verified.recovery_s);
        set(
            "server.busy_rejections",
            verified.server_busy_rejections as f64,
        );
        set(
            "server.malformed_frames",
            verified.server_malformed_frames as f64,
        );
    }

    // Probes: single-threaded costs of the layer crates' own entry points.
    set("obs.probes_built", f64::from(u8::from(probes.is_some())));
    match &probes {
        None => result.notes.push("probes_built 0".to_string()),
        Some(probes) => {
            for (name, value) in probes {
                set(name, *value);
            }
        }
    }

    // The reference scenario, untraced, in the same process: the tax this
    // workload's distinguishing layer levies on throughput.
    drop(main);
    if let Some((metric, reference)) = scenario.reference() {
        let plan = Plan::new(args.seed, args.seconds * (1.0 - TRACED_MAIN_SHARE), false);
        let (reference_pass, _) = pass(reference, &plan, false)?;
        verdict(result, reference, &reference_pass);
        set(
            metric,
            1.0 - ratio(quiet_per_s, reference_pass.measurement.quiet_per_s),
        );
    }

    result.metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| (*name, values[name], *unit))
        .collect();
    Ok(())
}
