//! The closed loop: each client runs its next transaction only after the
//! previous one was acknowledged, with no think time.
//!
//! A *transaction* is one program driven to commit, retried on a retryable
//! abort up to [`MAX_ATTEMPTS`] times; its latency runs from the first
//! attempt to the commit acknowledgement. It has *failed* when the attempts
//! are exhausted or an error is not retryable. A withdrawal the program
//! itself refuses ends in rollback and counts as completed.
//!
//! The measured window is cut into equal slices (1 s each in every run the
//! driver makes), so one scheduler stall on the shared sandbox moves one slice
//! and not the result: throughput is that of the best slice and the latency
//! median the lower quartile over slices (see [`Measurement::best_per_s`]).
//! In a traced run tracing alternates every 50 ms: odd periods record spans
//! for every 16th transaction and even periods record none. The difference
//! in throughput between the two halves, interleaved a hundred times, is the
//! tracing overhead.
//!
//! Client 0 calls `Database::purge` once per slice, mid-slice, between two of
//! its transactions: version reclamation runs in every workload, inside the
//! window but outside any transaction's latency, on the one reclamation API
//! certain to survive. By time and not by commit count: a pass sweeps every
//! chain (~100 ms on SmallBank's 300k rows here), so "every 4096 commits"
//! would have client 0 purging four fifths of the time in memory and once a
//! second on the log. One pass per slice loads every slice and every
//! workload alike.

use std::time::Duration;

use serializable_si::{Database, MetricsSnapshot};

use crate::backend::{Backend, Recorded, Txn, TxnError, TxnResult};
use crate::programs::{OpGen, Outcome, Program, TxnOp};
use crate::scenario::{Clients, Env};
use crate::spans::{now_ns, NoSpans, Recorder, SpanBuf, SpanKind};
use crate::stats::{median, percentile, quartiles, ratio};

pub const MAX_ATTEMPTS: u32 = 16;
/// One transaction in this many is recorded as spans in a traced period.
pub const SAMPLE_EVERY: u64 = 16;
/// Spans a thread can hold: 64 MB of address space per thread, touched only
/// as far as it fills.
const SPAN_CAPACITY: usize = 1 << 20;

/// Outcome of [`run_txn`].
#[derive(Debug, PartialEq, Eq)]
pub struct TxnRun {
    pub attempts: u32,
    /// Change to the summed tables on success; the reason on failure.
    pub result: Result<i64, String>,
}

fn attempt<B: Backend, R: Recorder>(
    backend: &mut B,
    op: &TxnOp,
    recorder: &mut R,
) -> TxnResult<i64> {
    let txn = recorder.span(SpanKind::Begin, B::LAYER, || backend.begin())?;
    let mut txn = Recorded {
        inner: txn,
        layer: B::LAYER,
        recorder,
    };
    // On an error the handle is dropped here, which rolls back on both
    // backends.
    match op.execute(&mut txn)? {
        Outcome::Commit { delta } => txn.commit().map(|()| delta),
        Outcome::Refuse => txn.rollback().map(|()| 0),
    }
}

/// Pause between a retryable abort and the next attempt: 0.4 µs doubling to
/// 13 µs of spinning, then 50 µs doubling to 13 ms of sleep. An immediate
/// retry re-reads the state that caused the abort — with two clients on two
/// shared cores, a committer descheduled between stamping its versions and
/// publishing its timestamp makes every retry inside that gap fail the same
/// way, and sixteen of them fit in 50 µs. The pause is part of the
/// transaction's latency.
fn back_off(failed_attempts: u32) {
    if failed_attempts <= 6 {
        let until = now_ns() + (200 << failed_attempts);
        while now_ns() < until {
            std::hint::spin_loop();
        }
    } else {
        std::thread::sleep(Duration::from_micros(50 << (failed_attempts - 7)));
    }
}

/// Drives one program to commit.
pub fn run_txn<B: Backend, R: Recorder>(backend: &mut B, op: &TxnOp, recorder: &mut R) -> TxnRun {
    let mut attempts = 0;
    loop {
        attempts += 1;
        let result = match attempt(backend, op, recorder) {
            Ok(delta) => Ok(delta),
            Err(TxnError::Retryable(_)) if attempts < MAX_ATTEMPTS => {
                back_off(attempts);
                continue;
            }
            Err(TxnError::Retryable(e)) => Err(format!("{attempts} attempts exhausted: {e}")),
            Err(TxnError::Fatal(e)) => Err(e),
        };
        return TxnRun { attempts, result };
    }
}

/// When a run warms up and measures, on the [`now_ns`] clock.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: usize,
    pub traced: bool,
}

impl Plan {
    /// `seconds` of measurement in up to ten slices of about a second, after
    /// a warm-up of 2/15 of that (the 2 s + 15 s of the issue, scaled).
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Plan {
        let slices = (seconds.round() as usize).clamp(1, 10);
        Plan {
            seed,
            warmup: Duration::from_secs_f64(seconds * 2.0 / 15.0),
            slice: Duration::from_secs_f64(seconds / slices as f64),
            slices,
            traced,
        }
    }

    fn window(&self) -> Duration {
        self.slice * self.slices as u32
    }

    /// Whether spans are recorded `into_window_ns` after the window opened.
    fn records_at(&self, into_window_ns: u64) -> bool {
        self.traced && (into_window_ns / TRACE_PERIOD.as_nanos() as u64) % 2 == 1
    }

    /// Seconds of the window during which spans are recorded.
    fn recording_s(&self) -> f64 {
        if !self.traced {
            return 0.0;
        }
        let (window, period) = (self.window().as_nanos(), TRACE_PERIOD.as_nanos());
        let full = window / period;
        let partial = if full % 2 == 1 { window % period } else { 0 };
        ((full / 2) * period + partial) as f64 / 1e9
    }
}

/// How often a traced run switches span recording on or off.
const TRACE_PERIOD: Duration = Duration::from_millis(50);

struct ClientReport {
    /// Latencies (ns) of the transactions that completed in each slice.
    latencies: Vec<Vec<u32>>,
    /// Of those, how many began while spans were being recorded.
    while_recording: u64,
    failed: u64,
    first_error: Option<String>,
    retries: u64,
    /// Sum of committed deltas, warm-up included: what the tables must show.
    ledger: i64,
    spans: SpanBuf,
}

fn client_loop<B: Backend>(
    client: usize,
    backend: &mut B,
    program: Program,
    purge: Option<&Database>,
    plan: &Plan,
    start_ns: u64,
) -> ClientReport {
    let measure_ns = start_ns + plan.warmup.as_nanos() as u64;
    let slice_ns = plan.slice.as_nanos() as u64;
    let end_ns = measure_ns + slice_ns * plan.slices as u64;
    // Room for 400k transactions per second per client, allocated and touched
    // up front: no push reallocates or takes a page fault inside the window,
    // and the buffers are the same constant part of `rss_peak_mb` on every
    // workload instead of one that grows with throughput.
    let per_slice = (plan.slice.as_secs_f64() * 400_000.0) as usize + 1024;
    let mut report = ClientReport {
        latencies: (0..plan.slices)
            .map(|_| {
                // Ones, not zeroes: a zeroed allocation comes straight from
                // the kernel's zero page and is not resident until written.
                let mut touched = vec![1u32; per_slice];
                touched.clear();
                touched
            })
            .collect(),
        while_recording: 0,
        failed: 0,
        first_error: None,
        retries: 0,
        ledger: 0,
        spans: SpanBuf::with_capacity(client, if plan.traced { SPAN_CAPACITY } else { 0 }),
    };
    let mut ops = OpGen::new(program, plan.seed, client);
    let slice_at = |t: u64| -> Option<usize> {
        (measure_ns..end_ns)
            .contains(&t)
            .then(|| ((t - measure_ns) / slice_ns) as usize)
    };

    while now_ns() < start_ns {
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut seq = 0u64;
    // Mid-slice, counted back from the first slice into the warm-up.
    let mut next_purge_ns = measure_ns + slice_ns / 2;
    while next_purge_ns >= start_ns + slice_ns {
        next_purge_ns -= slice_ns;
    }
    loop {
        let begun = now_ns();
        if begun >= end_ns {
            break;
        }
        let op = ops.next_op();
        seq += 1;
        let recording = begun >= measure_ns && plan.records_at(begun - measure_ns);
        let sampled = recording && seq.is_multiple_of(SAMPLE_EVERY) && report.spans.open_txn();
        let run = if sampled {
            run_txn(backend, &op, &mut report.spans)
        } else {
            run_txn(backend, &op, &mut NoSpans)
        };
        let done = now_ns();
        if sampled {
            report.spans.close_txn(begun, done);
        }
        let slice = slice_at(done);
        match run.result {
            Ok(delta) => {
                report.ledger += delta;
                if let Some(slice) = slice {
                    report.retries += u64::from(run.attempts - 1);
                    let latency = u32::try_from(done - begun).unwrap_or(u32::MAX);
                    report.latencies[slice].push(latency);
                    report.while_recording += u64::from(recording);
                }
                if let Some(db) = purge.filter(|_| done >= next_purge_ns) {
                    next_purge_ns += slice_ns;
                    if recording {
                        report.spans.span(SpanKind::Purge, "core", || db.purge());
                    } else {
                        db.purge();
                    }
                }
            }
            Err(e) => {
                // Failures anywhere in the run count: a workload on which
                // transactions fail is not a valid workload.
                report.failed += 1;
                report.first_error.get_or_insert(e);
            }
        }
    }
    report
}

/// One slice of the measured window, both clients together.
#[derive(Clone, Copy, Debug)]
pub struct SliceStats {
    pub txns: u64,
    pub per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Everything one pass over a scenario measured.
pub struct Measurement {
    /// Transactions that completed inside the window, plus every failure.
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Extra attempts of the transactions that completed inside the window.
    pub retries: u64,
    pub ledger: i64,
    /// Request frames the wire clients sent (0 when embedded), of which
    /// `pings` were the round-trip floor measurement before the run.
    pub round_trips: u64,
    pub pings: u64,
    pub slices: Vec<SliceStats>,
    /// Transactions per second while spans were and were not being recorded
    /// (the latter is the whole window in an untraced run).
    pub recording_per_s: f64,
    pub quiet_per_s: f64,
    pub spans: Vec<SpanBuf>,
    /// Engine counters with no client running: after load, and after the
    /// last client stopped. The difference covers warm-up and window.
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    /// Median `Client::ping` round trip (µs) before the run; 0 when embedded
    /// or untraced.
    pub ping_rtt_p50_us: f64,
    /// `VmHWM` right after the window closed, before the checks run.
    pub rss_peak_mb: f64,
}

impl Measurement {
    /// Median over the slices.
    pub fn median_of(&self, field: impl Fn(&SliceStats) -> f64) -> f64 {
        let values: Vec<f64> = self.slices.iter().map(field).collect();
        median(&values)
    }

    /// Lower quartile over the slices (the minimum with fewer than four):
    /// for latencies, where interference only ever adds. Not the minimum:
    /// the disk has lucky seconds of its own, and on the log workload the
    /// fastest slice's median spreads twice as wide as the quartile's.
    pub fn lower_quartile_of(&self, field: impl Fn(&SliceStats) -> f64) -> f64 {
        let values: Vec<f64> = self.slices.iter().map(field).collect();
        if values.len() < 4 {
            values.into_iter().fold(f64::INFINITY, f64::min)
        } else {
            quartiles(&values)[0]
        }
    }

    /// Throughput of the best slice. Interference on the shared sandbox —
    /// a neighbour, the scheduler, the disk — only ever takes throughput
    /// away, for seconds at a time; the fastest second is the one least
    /// touched by it, as the minimum is for a timed loop. Over ten runs its
    /// quartile spread is a third to a half of the median slice's.
    pub fn best_per_s(&self) -> f64 {
        self.slices.iter().map(|s| s.per_s).fold(0.0, f64::max)
    }

    /// Transactions completed inside the window.
    pub fn completed(&self) -> u64 {
        self.slices.iter().map(|s| s.txns).sum()
    }
}

fn drive<B: Backend + Send>(
    backends: &mut [B],
    program: Program,
    db: &Database,
    plan: &Plan,
) -> Vec<ClientReport> {
    // Far enough ahead that every thread is parked on the start line.
    let start_ns = now_ns() + 20_000_000;
    std::thread::scope(|scope| {
        let handles: Vec<_> = backends
            .iter_mut()
            .enumerate()
            .map(|(client, backend)| {
                let purge = (client == 0).then_some(db);
                scope.spawn(move || client_loop(client, backend, program, purge, plan, start_ns))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

const PINGS: u64 = 400;

/// Median `Client::ping` round trip in µs; `None` when embedded.
fn ping_rtt_p50_us(clients: &mut Clients) -> Result<Option<f64>, String> {
    let Clients::Wire(wires) = clients else {
        return Ok(None);
    };
    let wire = &mut wires[0];
    let mut rtts = Vec::with_capacity(PINGS as usize);
    for _ in 0..PINGS {
        let sent = now_ns();
        wire.client.ping().map_err(|e| format!("ping: {e}"))?;
        rtts.push((now_ns() - sent) as f64 / 1e3);
        wire.round_trips += 1;
    }
    Ok(Some(median(&rtts)))
}

/// `VmHWM` of this process in MB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs the plan against a set-up system. The clients are consumed (their
/// connections close) so the caller can go on to [`Env::verify_and_tear_down`].
pub fn measure(env: &Env, mut clients: Clients, plan: &Plan) -> Result<Measurement, String> {
    let ping_rtt_p50_us = if plan.traced {
        ping_rtt_p50_us(&mut clients)?
    } else {
        None
    };
    let program = env.scenario.program;
    let before = env.db.metrics();
    let (reports, round_trips) = match &mut clients {
        Clients::Embedded(backends) => (drive(backends, program, &env.db, plan), 0),
        Clients::Wire(backends) => {
            let reports = drive(backends, program, &env.db, plan);
            (reports, backends.iter().map(|w| w.round_trips).sum())
        }
    };
    drop(clients);
    let rss_peak_mb = rss_peak_mb()?;
    let after = env.db.metrics();

    let mut slices = Vec::with_capacity(plan.slices);
    for slice in 0..plan.slices {
        let mut latencies: Vec<u32> = reports
            .iter()
            .flat_map(|r| r.latencies[slice].iter().copied())
            .collect();
        latencies.sort_unstable();
        let pct = |p| {
            percentile(&latencies, p)
                .map(|ns| f64::from(ns) / 1e3)
                .map_err(|e| format!("slice {slice} of {}: {e}", env.scenario.name))
        };
        slices.push(SliceStats {
            txns: latencies.len() as u64,
            per_s: latencies.len() as f64 / plan.slice.as_secs_f64(),
            p50_us: pct(0.5)?,
            p99_us: pct(0.99)?,
        });
    }
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let completed: u64 = slices.iter().map(|s| s.txns).sum();
    let while_recording: u64 = reports.iter().map(|r| r.while_recording).sum();
    let recording_s = plan.recording_s();
    let mut measurement = Measurement {
        attempted: failed,
        failed,
        first_error: reports.iter().find_map(|r| r.first_error.clone()),
        retries: reports.iter().map(|r| r.retries).sum(),
        ledger: reports.iter().map(|r| r.ledger).sum(),
        round_trips,
        pings: if ping_rtt_p50_us.is_some() { PINGS } else { 0 },
        slices,
        recording_per_s: ratio(while_recording as f64, recording_s),
        quiet_per_s: (completed - while_recording) as f64
            / (plan.window().as_secs_f64() - recording_s),
        spans: reports.into_iter().map(|r| r.spans).collect(),
        before,
        after,
        ping_rtt_p50_us: ping_rtt_p50_us.unwrap_or(0.0),
        rss_peak_mb,
    };
    measurement.attempted += measurement.completed();
    Ok(measurement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TableIx;
    use std::collections::VecDeque;

    /// A backend whose commits fail as scripted.
    struct Scripted {
        commits: VecDeque<TxnResult<()>>,
        begun: u32,
        rolled_back: u32,
    }

    struct ScriptedTxn<'a>(&'a mut Scripted);

    impl Backend for Scripted {
        const LAYER: &'static str = "core";
        type Txn<'a> = ScriptedTxn<'a>;
        fn begin(&mut self) -> TxnResult<ScriptedTxn<'_>> {
            self.begun += 1;
            Ok(ScriptedTxn(self))
        }
    }

    impl Txn for ScriptedTxn<'_> {
        fn get(&mut self, _: TableIx, _: &[u8]) -> TxnResult<Option<i64>> {
            Ok(Some(500))
        }
        fn put(&mut self, _: TableIx, _: &[u8], _: i64) -> TxnResult<()> {
            Ok(())
        }
        fn scan(&mut self, _: TableIx, _: &mut dyn FnMut(&[u8], i64)) -> TxnResult<()> {
            Ok(())
        }
        fn commit(self) -> TxnResult<()> {
            self.0.commits.pop_front().unwrap_or(Ok(()))
        }
        fn rollback(self) -> TxnResult<()> {
            self.0.rolled_back += 1;
            Ok(())
        }
    }

    fn scripted(commits: Vec<TxnResult<()>>) -> Scripted {
        Scripted {
            commits: commits.into(),
            begun: 0,
            rolled_back: 0,
        }
    }

    const DEPOSIT: TxnOp = TxnOp::DepositChecking {
        customer: 1,
        amount: 7,
    };

    #[test]
    fn retryable_errors_are_retried_and_fatal_ones_are_not() {
        let retry = || Err(TxnError::Retryable("unsafe".into()));
        let mut b = scripted(vec![retry(), retry(), Ok(())]);
        let run = run_txn(&mut b, &DEPOSIT, &mut NoSpans);
        assert_eq!((run.attempts, run.result, b.begun), (3, Ok(7), 3));

        let mut b = scripted(vec![retry(), Err(TxnError::Fatal("closed".into())), Ok(())]);
        let run = run_txn(&mut b, &DEPOSIT, &mut NoSpans);
        assert_eq!((run.attempts, run.result), (2, Err("closed".to_string())));
    }

    #[test]
    fn attempts_are_bounded() {
        let mut b = scripted(
            (0..100)
                .map(|_| Err(TxnError::Retryable("write-conflict".into())))
                .collect(),
        );
        let run = run_txn(&mut b, &DEPOSIT, &mut NoSpans);
        assert_eq!(run.attempts, MAX_ATTEMPTS);
        assert!(run.result.unwrap_err().contains("attempts exhausted"));
        assert_eq!(b.begun, MAX_ATTEMPTS);
    }

    #[test]
    fn engine_and_client_errors_classify_as_the_sdk_says() {
        use serializable_si::server::{ClientError, ErrorCode};
        use serializable_si::{Error, TxnId};
        let retryable = |e: TxnError| matches!(e, TxnError::Retryable(_));
        assert!(retryable(Error::unsafe_abort(TxnId(1)).into()));
        assert!(retryable(Error::update_conflict(TxnId(1)).into()));
        assert!(retryable(Error::deadlock(TxnId(1)).into()));
        assert!(retryable(Error::LockTimeout.into()));
        assert!(!retryable(Error::TransactionClosed.into()));
        assert!(!retryable(Error::NoSuchTable("t".into()).into()));
        let server = |code| ClientError::Server {
            code,
            message: String::new(),
        };
        assert!(retryable(server(ErrorCode::Aborted).into()));
        assert!(retryable(server(ErrorCode::Busy).into()));
        assert!(!retryable(server(ErrorCode::TxnClosed).into()));
        assert!(!retryable(ClientError::Protocol("shape").into()));
    }

    #[test]
    fn a_refused_withdrawal_rolls_back_and_completes() {
        let mut b = scripted(vec![]);
        let op = TxnOp::TransactSavings {
            customer: 1,
            amount: -501,
        };
        let run = run_txn(&mut b, &op, &mut NoSpans);
        assert_eq!((run.attempts, run.result, b.rolled_back), (1, Ok(0), 1));
    }

    #[test]
    fn sampled_transactions_record_begin_ops_and_commit_under_one_root() {
        let mut b = scripted(vec![Err(TxnError::Retryable("unsafe".into()))]);
        let mut spans = SpanBuf::with_capacity(0, 64);
        assert!(spans.open_txn());
        let run = run_txn(&mut b, &DEPOSIT, &mut spans);
        spans.close_txn(0, now_ns());
        assert_eq!(run.attempts, 2);
        let kinds: Vec<_> = spans.spans().iter().map(|s| s.kind).collect();
        use SpanKind::*;
        // lookup get, balance get, put, commit — twice — then the root.
        assert_eq!(
            kinds,
            [Begin, Get, Get, Put, Commit, Begin, Get, Get, Put, Commit, Txn]
        );
    }

    #[test]
    fn plan_scales_the_issue_windows() {
        let plan = Plan::new(1, 15.0, false);
        assert_eq!((plan.slices, plan.warmup), (10, Duration::from_secs(2)));
        assert_eq!(plan.slice, Duration::from_millis(1500));
        // The driver's 10 s, and the 6 s + 4 s a traced run splits it into.
        for seconds in [10.0, 6.0, 4.0] {
            let plan = Plan::new(1, seconds, false);
            assert_eq!(
                (plan.slices as f64, plan.slice),
                (seconds, Duration::from_secs(1))
            );
        }
        assert_eq!(Plan::new(1, 0.5, false).slices, 1);
    }

    #[test]
    fn recording_alternates_and_its_time_adds_up() {
        let ms = |n: u64| n * 1_000_000;
        let traced = Plan::new(1, 6.0, true);
        assert!(!traced.records_at(ms(49)) && traced.records_at(ms(50)));
        assert!(traced.records_at(ms(99)) && !traced.records_at(ms(100)));
        assert_eq!(traced.recording_s(), 3.0);
        // 0.33 s: periods 0..=5 whole, 30 ms of period 6; odd ones record.
        let short = Plan {
            slice: Duration::from_millis(330),
            slices: 1,
            ..traced
        };
        assert_eq!(short.recording_s(), 0.15);
        let odd_tail = Plan {
            slice: Duration::from_millis(280),
            ..short
        };
        assert!((odd_tail.recording_s() - 0.13).abs() < 1e-12);
        let untraced = Plan::new(1, 6.0, false);
        assert!(!untraced.records_at(ms(50)));
        assert_eq!(untraced.recording_s(), 0.0);
    }
}
