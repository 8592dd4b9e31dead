//! Integration tests for the engine-wide observability surface:
//! `Database::metrics()` snapshot consistency under concurrent load,
//! clean-path zero preservation, trace-ring overflow accounting, and the
//! Prometheus text exposition.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ssi_core::{AbortReason, Database, EventKind, IsolationLevel, Options};

/// Under an 8-thread contended SSI workload, every snapshot taken while
/// the load runs must be internally consistent: counters only move
/// forward between snapshots, `committed + aborted <= started` (the
/// difference is in-flight transactions), and the per-reason abort
/// provenance sums exactly to the abort counter.
#[test]
fn snapshot_consistency_under_load() {
    let db = Database::open(
        Options::default().with_isolation(IsolationLevel::SerializableSnapshotIsolation),
    );
    let table = db.create_table("hot").unwrap();
    let mut setup = db.begin();
    for k in 0u64..64 {
        setup.put(&table, &k.to_be_bytes(), &[0u8; 16]).unwrap();
    }
    setup.commit().unwrap();

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0u64..8 {
            let db = db.clone();
            let table = table.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut n = t;
                while !stop.load(Ordering::Relaxed) {
                    // Read two hot keys, overwrite a third: enough rw
                    // overlap to produce pivot and write-conflict aborts.
                    let mut txn = db.begin();
                    let r = (|| {
                        txn.get(&table, &(n % 64).to_be_bytes())?;
                        txn.get(&table, &((n + 7) % 64).to_be_bytes())?;
                        txn.put(&table, &((n * 13) % 64).to_be_bytes(), &[1u8; 16])?;
                        txn.commit()
                    })();
                    // Aborts are the point of the workload; any abort
                    // must carry provenance.
                    if let Err(e) = r {
                        assert!(e.abort_reason().is_some(), "abort without reason: {e}");
                    }
                    n += 1;
                }
            });
        }

        let mut prev = db.metrics();
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(5));
            let snap = db.metrics();
            // Monotone counters.
            assert!(snap.txn.started >= prev.txn.started);
            assert!(snap.txn.committed >= prev.txn.committed);
            assert!(snap.txn.aborted >= prev.txn.aborted);
            for i in 0..snap.txn.abort_reasons.len() {
                assert!(snap.txn.abort_reasons[i] >= prev.txn.abort_reasons[i]);
            }
            // Outcomes never exceed starts (the gap is in-flight txns).
            assert!(
                snap.txn.committed + snap.txn.aborted <= snap.txn.started,
                "committed {} + aborted {} > started {}",
                snap.txn.committed,
                snap.txn.aborted,
                snap.txn.started
            );
            // Provenance is complete: per-reason aborts sum to the
            // aborted counter. Both values come from the same snapshot
            // pass but not one atomic read, so allow the reason sum to
            // lead or trail by in-flight aborts between the two loads —
            // it must catch up once the load stops (checked below).
            let by_reason: u64 = snap.txn.abort_reasons.iter().sum();
            let lo = snap.txn.aborted.min(by_reason);
            let hi = snap.txn.aborted.max(by_reason);
            assert!(
                hi - lo <= 64,
                "reason sum {by_reason} diverged from aborted {}",
                snap.txn.aborted
            );
            prev = snap;
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesced: provenance must account for every abort exactly.
    let snap = db.metrics();
    let by_reason: u64 = snap.txn.abort_reasons.iter().sum();
    assert_eq!(by_reason, snap.txn.aborted);
    assert_eq!(snap.txn.committed + snap.txn.aborted, snap.txn.started);
    assert!(snap.txn.committed > 0, "workload made no progress");
    assert_eq!(snap.health, "healthy");
    // Only SSI-plausible reasons fired: no deadlocks or lock timeouts in
    // a lock-free-read workload, no degraded-mode rejections.
    for reason in [
        AbortReason::LockTimeout,
        AbortReason::DegradedRejected,
        AbortReason::UserRollback,
    ] {
        assert_eq!(snap.txn.abort_reasons[reason.index()], 0, "{reason} fired");
    }
}

/// A database that only ever commits cleanly reports zero aborts, zero
/// abort reasons, zero lock deadlocks, zero GC activity and zero WAL
/// counters — instrumentation must not invent activity.
#[test]
fn clean_path_preserves_zeros() {
    let db = Database::open(Options::default());
    let table = db.create_table("t").unwrap();
    for k in 0u64..32 {
        let mut txn = db.begin();
        txn.put(&table, &k.to_be_bytes(), b"v").unwrap();
        txn.commit().unwrap();
    }
    let snap = db.metrics();
    assert_eq!(snap.txn.started, 32);
    assert_eq!(snap.txn.committed, 32);
    assert_eq!(snap.txn.aborted, 0);
    assert_eq!(snap.txn.abort_reasons, [0; AbortReason::COUNT]);
    assert_eq!(snap.locks.deadlocks, 0);
    assert_eq!(snap.locks.timeouts, 0);
    assert_eq!(snap.gc.purge_runs, 0);
    assert_eq!(snap.gc.purged_versions, 0);
    assert_eq!(snap.gc.pruned_inline_versions, 0);
    assert!(!snap.wal.enabled);
    assert_eq!(snap.wal.records, 0);
    assert_eq!(snap.wal.fsyncs, 0);
    assert!(!snap.trace_enabled);
    assert_eq!(snap.trace_dropped, 0);
    assert_eq!(snap.health, "healthy");
    let table_metrics = &snap.tables[0];
    assert_eq!(table_metrics.name, "t");
    assert_eq!(table_metrics.keys, 32);
}

/// With tracing enabled at a small capacity, overflow keeps the newest
/// events, counts every dropped one, and draining resets the ring.
#[test]
fn trace_ring_overflow_drops_oldest_and_counts() {
    let capacity = 64;
    let db = Database::open(Options::default().with_tracing(capacity));
    let table = db.create_table("t").unwrap();
    // Each commit emits at least TxnBegin + TxnCommit: 256 transactions
    // overflow a 64-slot ring many times over.
    for k in 0u64..256 {
        let mut txn = db.begin();
        txn.put(&table, &k.to_be_bytes(), b"v").unwrap();
        txn.commit().unwrap();
    }
    let snap = db.metrics();
    assert!(snap.trace_enabled);
    assert!(snap.trace_dropped > 0, "overflow must be counted");

    let batch = db.drain_trace().expect("tracing is enabled");
    assert!(batch.events.len() <= capacity);
    assert!(!batch.events.is_empty());
    assert_eq!(batch.dropped, snap.trace_dropped);
    // Oldest events were dropped: everything retained is from the tail
    // of the run. The last commit (key 255) must still be present, the
    // first (key 0) long gone.
    let commit_ts: Vec<u64> = batch
        .events
        .iter()
        .filter(|e| e.kind == EventKind::TxnCommit)
        .map(|e| e.a)
        .collect();
    assert!(!commit_ts.is_empty());
    let started = db.metrics().txn.started;
    assert!(
        commit_ts.iter().all(|&txn_id| txn_id > started / 2),
        "retained commits should be recent: {commit_ts:?}"
    );
    // Timestamps come out sorted.
    assert!(batch.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // Drain resets: an immediately following drain is empty with a
    // fresh drop counter.
    let empty = db.drain_trace().unwrap();
    assert!(empty.events.is_empty());
    assert_eq!(empty.dropped, 0);
    assert_eq!(db.metrics().trace_dropped, 0);

    // JSONL rendering: one line per event, each a JSON object.
    let jsonl = batch.to_jsonl();
    assert_eq!(jsonl.lines().count(), batch.events.len());
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with("{\"ts_ns\":") && l.ends_with('}')));
}

/// Golden test for the Prometheus exposition of a live snapshot: every
/// metric family the module documents is present, well-formed and
/// consistent with the snapshot's own numbers.
#[test]
fn render_text_golden() {
    let db = Database::open(Options::default());
    let table = db.create_table("gold").unwrap();
    let mut txn = db.begin();
    txn.put(&table, b"k", b"v").unwrap();
    txn.commit().unwrap();

    let snap = db.metrics();
    let text = snap.render_text();

    // Exact golden lines (counters whose values this scenario pins).
    for line in [
        format!("ssi_txn_started_total {}", snap.txn.started).as_str(),
        format!("ssi_txn_committed_total {}", snap.txn.committed).as_str(),
        "ssi_txn_aborted_total 0",
        "# TYPE ssi_txn_suspended gauge",
        "ssi_txn_suspended 0",
        "ssi_txn_siread_row_registrations_total 0",
        "ssi_txn_siread_range_registrations_total 0",
        "# TYPE ssi_txn_siread_rows gauge",
        "ssi_txn_siread_rows 0",
        "# TYPE ssi_txn_siread_ranges gauge",
        "ssi_txn_siread_ranges 0",
        "ssi_txn_aborts_by_reason_total{reason=\"write-conflict\"} 0",
        "ssi_txn_aborts_by_reason_total{reason=\"pivot-out\"} 0",
        "ssi_txn_aborts_by_reason_total{reason=\"user-rollback\"} 0",
        "ssi_gc_purge_runs_total 0",
        "ssi_gc_pruned_inline_versions_total 0",
        "ssi_wal_enabled 0",
        "ssi_wal_fsyncs_total 0",
        "ssi_lock_deadlocks_total 0",
        "ssi_table_keys{table=\"gold\"} 1",
        "ssi_table_versions{table=\"gold\"} 1",
        "ssi_health_info{state=\"healthy\"} 1",
        "ssi_trace_enabled 0",
        "ssi_trace_dropped_total 0",
    ] {
        assert!(
            text.contains(line),
            "missing golden line: {line}\n---\n{text}"
        );
    }
    // Every reason label appears exactly once.
    for reason in AbortReason::ALL {
        let needle = format!("reason=\"{}\"", reason.label());
        assert_eq!(text.matches(&needle).count(), 1, "{needle}");
    }
    // Every latency family exposes the full summary shape.
    for op in [
        "commit",
        "commit_section",
        "read",
        "scan",
        "fsync",
        "checkpoint",
        "gc_pass",
    ] {
        for suffix in [
            "{quantile=\"0.5\"}",
            "{quantile=\"0.99\"}",
            "{quantile=\"0.999\"}",
            "_max",
            "_mean",
            "_count",
            "_sample_every",
        ] {
            let needle = format!("ssi_latency_{op}_ns{suffix}");
            assert!(text.contains(&needle), "missing {needle}");
        }
    }
    // Well-formed exposition: every non-comment line is `name[{labels}] value`.
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(line.starts_with("# TYPE ssi_"), "bad comment: {line}");
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(name.starts_with("ssi_"), "bad metric name: {line}");
        assert!(value.parse::<u64>().is_ok(), "non-numeric value: {line}");
    }
}
