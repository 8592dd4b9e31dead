//! The unified metrics snapshot.
//!
//! [`MetricsSnapshot`] is a plain-data aggregation of every counter the
//! engine keeps — transaction manager, per-reason abort provenance, WAL,
//! garbage collection, lock manager, per-table storage, health, and the
//! in-engine latency histograms. It is assembled by `Database::metrics()`
//! (the engine crate owns the sources; this crate owns the shape) and can
//! be rendered as Prometheus-style text exposition ([`render_text`]) or as
//! a single JSON object ([`to_json`]) with no serialization dependency.
//!
//! [`render_text`]: MetricsSnapshot::render_text
//! [`to_json`]: MetricsSnapshot::to_json

use ssi_common::AbortReason;

use crate::hist::LatencyHistogram;

/// Quantile summary of one latency histogram, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Recorded samples (after sampling; multiply by `sample_every` to
    /// estimate the underlying occurrence count).
    pub count: u64,
    /// Sampling factor of the recorder that produced this histogram.
    pub sample_every: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
    pub mean_ns: u64,
}

impl HistSummary {
    /// Summarizes a merged histogram.
    pub fn of(hist: &LatencyHistogram, sample_every: u64) -> HistSummary {
        HistSummary {
            count: hist.count(),
            sample_every,
            p50_ns: hist.p50().as_nanos() as u64,
            p99_ns: hist.p99().as_nanos() as u64,
            p999_ns: hist.p999().as_nanos() as u64,
            max_ns: hist.max().as_nanos() as u64,
            mean_ns: hist.mean().as_nanos() as u64,
        }
    }
}

/// Transaction-manager counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnMetrics {
    pub started: u64,
    pub committed: u64,
    pub aborted: u64,
    pub suspended: u64,
    pub cleaned: u64,
    /// Gauge: committed transactions on the suspended list right now.
    pub suspended_now: u64,
    pub publish_parks: u64,
    pub watermark_sweeps: u64,
    /// Row SIREADs registered on version chains, flushed per transaction
    /// at finish.
    pub siread_row_registrations: u64,
    /// Ranges registered (one per Serializable-SI or S2PL scan of a table or
    /// of a secondary index), flushed per transaction at finish.
    pub siread_range_registrations: u64,
    /// Gauge: row SIREAD registrations held by committed transactions
    /// awaiting cleanup.
    pub siread_rows_now: u64,
    /// Gauge: range SIREAD registrations held by committed transactions
    /// awaiting cleanup.
    pub siread_ranges_now: u64,
    /// Aborts by [`AbortReason`], indexed by `AbortReason::index()`.
    /// Sums to `aborted`.
    pub abort_reasons: [u64; AbortReason::COUNT],
}

/// Garbage-collection counters: purge passes (full ones and the slices
/// committers run) and the pruning writers do on long chains. `purged_versions +
/// pruned_inline_versions` is every version reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcMetrics {
    pub purge_runs: u64,
    /// Versions reclaimed by purge passes.
    pub purged_versions: u64,
    pub purged_chains: u64,
    /// Versions reclaimed by writers, outside any pass.
    pub pruned_inline_versions: u64,
}

/// Write-ahead-log counters. All zero when durability is disabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalMetrics {
    /// Whether a WAL is attached at all.
    pub enabled: bool,
    pub records: u64,
    pub bytes: u64,
    pub fsyncs: u64,
    pub seal_batches: u64,
    pub io_failures: u64,
}

/// Lock-manager counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockMetrics {
    pub requests: u64,
    pub waits: u64,
    pub deadlocks: u64,
    pub timeouts: u64,
}

/// Per-table storage occupancy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableMetrics {
    pub name: String,
    /// Live key chains.
    pub keys: u64,
    /// Total versions across all chains (including dead ones awaiting GC).
    pub versions: u64,
}

/// Network-service-layer counters (the `ssi-server` crate). All zero — and
/// `enabled` false — for an embedded database; a server merges its own
/// counters into the snapshot before rendering, so one exposition covers
/// engine and service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Whether a server populated these counters at all.
    pub enabled: bool,
    /// Connections accepted by the listener.
    pub connections_accepted: u64,
    /// Connections refused at accept time (connection cap reached or the
    /// server was draining).
    pub connections_rejected: u64,
    /// Currently live sessions (gauge).
    pub connections_active: u64,
    /// Request frames decoded and dispatched.
    pub requests: u64,
    /// Requests shed with a typed busy error by admission control.
    pub busy_rejections: u64,
    /// Frames rejected as structurally invalid (bad opcode, truncated
    /// fields, length prefix over the cap).
    pub malformed_frames: u64,
    /// Idle sessions harvested by the reaper (their open transactions were
    /// rolled back).
    pub sessions_reaped: u64,
    /// Open interactive transactions rolled back because their connection
    /// went away (disconnect, reap, or drain) before commit/rollback.
    pub disconnect_rollbacks: u64,
}

/// In-engine latency summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyMetrics {
    /// Whole `Transaction::commit()` call.
    pub commit: HistSummary,
    /// The serialized commit section (begin_commit → finalize).
    pub commit_section: HistSummary,
    /// Point reads (`get`).
    pub read: HistSummary,
    /// Range scans.
    pub scan: HistSummary,
    /// WAL fsync batches.
    pub fsync: HistSummary,
    /// Checkpoints.
    pub checkpoint: HistSummary,
    /// Garbage-collection passes.
    pub gc_pass: HistSummary,
}

/// One serializable snapshot of every engine metric.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub txn: TxnMetrics,
    pub gc: GcMetrics,
    pub wal: WalMetrics,
    pub locks: LockMetrics,
    /// Service-layer counters; zero/disabled for an embedded database.
    pub server: ServerMetrics,
    pub tables: Vec<TableMetrics>,
    /// Health state: `"healthy"`, `"degraded:<reason>"` or `"closed"`.
    pub health: String,
    pub latency: LatencyMetrics,
    /// Trace events dropped so far (0 when tracing is off).
    pub trace_dropped: u64,
    pub trace_enabled: bool,
}

impl MetricsSnapshot {
    /// Renders a Prometheus-style text exposition: `# TYPE` headers,
    /// `ssi_`-prefixed metric names, labels for per-reason and per-table
    /// breakdowns, quantile labels for latency summaries.
    pub fn render_text(&self) -> String {
        fn counter(out: &mut String, name: &str, value: u64) {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        let mut out = String::new();
        counter(&mut out, "ssi_txn_started_total", self.txn.started);
        counter(&mut out, "ssi_txn_committed_total", self.txn.committed);
        counter(&mut out, "ssi_txn_aborted_total", self.txn.aborted);
        counter(&mut out, "ssi_txn_suspended_total", self.txn.suspended);
        counter(&mut out, "ssi_txn_cleaned_total", self.txn.cleaned);
        out.push_str(&format!(
            "# TYPE ssi_txn_suspended gauge\nssi_txn_suspended {}\n",
            self.txn.suspended_now
        ));
        counter(
            &mut out,
            "ssi_txn_publish_parks_total",
            self.txn.publish_parks,
        );
        counter(
            &mut out,
            "ssi_txn_watermark_sweeps_total",
            self.txn.watermark_sweeps,
        );
        counter(
            &mut out,
            "ssi_txn_siread_row_registrations_total",
            self.txn.siread_row_registrations,
        );
        counter(
            &mut out,
            "ssi_txn_siread_range_registrations_total",
            self.txn.siread_range_registrations,
        );
        out.push_str(&format!(
            "# TYPE ssi_txn_siread_rows gauge\nssi_txn_siread_rows {}\n",
            self.txn.siread_rows_now
        ));
        out.push_str(&format!(
            "# TYPE ssi_txn_siread_ranges gauge\nssi_txn_siread_ranges {}\n",
            self.txn.siread_ranges_now
        ));

        out.push_str("# TYPE ssi_txn_aborts_by_reason_total counter\n");
        for reason in AbortReason::ALL {
            out.push_str(&format!(
                "ssi_txn_aborts_by_reason_total{{reason=\"{}\"}} {}\n",
                reason.label(),
                self.txn.abort_reasons[reason.index()]
            ));
        }

        counter(&mut out, "ssi_gc_purge_runs_total", self.gc.purge_runs);
        counter(
            &mut out,
            "ssi_gc_purged_versions_total",
            self.gc.purged_versions,
        );
        counter(
            &mut out,
            "ssi_gc_purged_chains_total",
            self.gc.purged_chains,
        );
        counter(
            &mut out,
            "ssi_gc_pruned_inline_versions_total",
            self.gc.pruned_inline_versions,
        );

        out.push_str(&format!(
            "# TYPE ssi_wal_enabled gauge\nssi_wal_enabled {}\n",
            self.wal.enabled as u64
        ));
        counter(&mut out, "ssi_wal_records_total", self.wal.records);
        counter(&mut out, "ssi_wal_bytes_total", self.wal.bytes);
        counter(&mut out, "ssi_wal_fsyncs_total", self.wal.fsyncs);
        counter(
            &mut out,
            "ssi_wal_seal_batches_total",
            self.wal.seal_batches,
        );
        counter(&mut out, "ssi_wal_io_failures_total", self.wal.io_failures);

        counter(&mut out, "ssi_lock_requests_total", self.locks.requests);
        counter(&mut out, "ssi_lock_waits_total", self.locks.waits);
        counter(&mut out, "ssi_lock_deadlocks_total", self.locks.deadlocks);
        counter(&mut out, "ssi_lock_timeouts_total", self.locks.timeouts);

        out.push_str(&format!(
            "# TYPE ssi_server_enabled gauge\nssi_server_enabled {}\n",
            self.server.enabled as u64
        ));
        counter(
            &mut out,
            "ssi_server_connections_accepted_total",
            self.server.connections_accepted,
        );
        counter(
            &mut out,
            "ssi_server_connections_rejected_total",
            self.server.connections_rejected,
        );
        out.push_str(&format!(
            "# TYPE ssi_server_connections_active gauge\nssi_server_connections_active {}\n",
            self.server.connections_active
        ));
        counter(&mut out, "ssi_server_requests_total", self.server.requests);
        counter(
            &mut out,
            "ssi_server_busy_rejections_total",
            self.server.busy_rejections,
        );
        counter(
            &mut out,
            "ssi_server_malformed_frames_total",
            self.server.malformed_frames,
        );
        counter(
            &mut out,
            "ssi_server_sessions_reaped_total",
            self.server.sessions_reaped,
        );
        counter(
            &mut out,
            "ssi_server_disconnect_rollbacks_total",
            self.server.disconnect_rollbacks,
        );

        out.push_str("# TYPE ssi_table_keys gauge\n");
        for t in &self.tables {
            out.push_str(&format!(
                "ssi_table_keys{{table=\"{}\"}} {}\n",
                t.name, t.keys
            ));
        }
        out.push_str("# TYPE ssi_table_versions gauge\n");
        for t in &self.tables {
            out.push_str(&format!(
                "ssi_table_versions{{table=\"{}\"}} {}\n",
                t.name, t.versions
            ));
        }

        out.push_str(&format!(
            "# TYPE ssi_health_info gauge\nssi_health_info{{state=\"{}\"}} 1\n",
            self.health
        ));

        for (op, h) in self.latency_summaries() {
            let name = format!("ssi_latency_{op}_ns");
            out.push_str(&format!("# TYPE {name} summary\n"));
            out.push_str(&format!("{name}{{quantile=\"0.5\"}} {}\n", h.p50_ns));
            out.push_str(&format!("{name}{{quantile=\"0.99\"}} {}\n", h.p99_ns));
            out.push_str(&format!("{name}{{quantile=\"0.999\"}} {}\n", h.p999_ns));
            out.push_str(&format!("{name}_max {}\n", h.max_ns));
            out.push_str(&format!("{name}_mean {}\n", h.mean_ns));
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_sample_every {}\n", h.sample_every));
        }

        out.push_str(&format!(
            "# TYPE ssi_trace_enabled gauge\nssi_trace_enabled {}\n",
            self.trace_enabled as u64
        ));
        counter(&mut out, "ssi_trace_dropped_total", self.trace_dropped);
        out
    }

    /// Renders the snapshot as one JSON object (hand-rolled; the workspace
    /// carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"txn\":{{\"started\":{},\"committed\":{},\"aborted\":{},\"suspended\":{},\
             \"cleaned\":{},\"suspended_now\":{},\"publish_parks\":{},\"watermark_sweeps\":{},\
             \"siread_row_registrations\":{},\"siread_range_registrations\":{},\
             \"siread_rows_now\":{},\"siread_ranges_now\":{},\"abort_reasons\":{{",
            self.txn.started,
            self.txn.committed,
            self.txn.aborted,
            self.txn.suspended,
            self.txn.cleaned,
            self.txn.suspended_now,
            self.txn.publish_parks,
            self.txn.watermark_sweeps,
            self.txn.siread_row_registrations,
            self.txn.siread_range_registrations,
            self.txn.siread_rows_now,
            self.txn.siread_ranges_now,
        ));
        for (i, reason) in AbortReason::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                reason.label(),
                self.txn.abort_reasons[reason.index()]
            ));
        }
        out.push_str("}},");
        out.push_str(&format!(
            "\"gc\":{{\"purge_runs\":{},\"purged_versions\":{},\"purged_chains\":{},\
             \"pruned_inline_versions\":{}}},",
            self.gc.purge_runs,
            self.gc.purged_versions,
            self.gc.purged_chains,
            self.gc.pruned_inline_versions,
        ));
        out.push_str(&format!(
            "\"wal\":{{\"enabled\":{},\"records\":{},\"bytes\":{},\"fsyncs\":{},\
             \"seal_batches\":{},\"io_failures\":{}}},",
            self.wal.enabled,
            self.wal.records,
            self.wal.bytes,
            self.wal.fsyncs,
            self.wal.seal_batches,
            self.wal.io_failures,
        ));
        out.push_str(&format!(
            "\"locks\":{{\"requests\":{},\"waits\":{},\"deadlocks\":{},\"timeouts\":{}}},",
            self.locks.requests, self.locks.waits, self.locks.deadlocks, self.locks.timeouts,
        ));
        out.push_str(&format!(
            "\"server\":{{\"enabled\":{},\"connections_accepted\":{},\
             \"connections_rejected\":{},\"connections_active\":{},\"requests\":{},\
             \"busy_rejections\":{},\"malformed_frames\":{},\"sessions_reaped\":{},\
             \"disconnect_rollbacks\":{}}},",
            self.server.enabled,
            self.server.connections_accepted,
            self.server.connections_rejected,
            self.server.connections_active,
            self.server.requests,
            self.server.busy_rejections,
            self.server.malformed_frames,
            self.server.sessions_reaped,
            self.server.disconnect_rollbacks,
        ));
        out.push_str("\"tables\":[");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"keys\":{},\"versions\":{}}}",
                t.name, t.keys, t.versions
            ));
        }
        out.push_str("],");
        out.push_str(&format!("\"health\":\"{}\",", self.health));
        out.push_str("\"latency\":{");
        for (i, (op, h)) in self.latency_summaries().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{op}\":{{\"count\":{},\"sample_every\":{},\"p50_ns\":{},\"p99_ns\":{},\
                 \"p999_ns\":{},\"max_ns\":{},\"mean_ns\":{}}}",
                h.count, h.sample_every, h.p50_ns, h.p99_ns, h.p999_ns, h.max_ns, h.mean_ns
            ));
        }
        out.push_str("},");
        out.push_str(&format!(
            "\"trace\":{{\"enabled\":{},\"dropped\":{}}}",
            self.trace_enabled, self.trace_dropped
        ));
        out.push('}');
        out
    }

    /// (name, summary) pairs for every latency histogram, in a stable order.
    pub fn latency_summaries(&self) -> [(&'static str, HistSummary); 7] {
        [
            ("commit", self.latency.commit),
            ("commit_section", self.latency.commit_section),
            ("read", self.latency.read),
            ("scan", self.latency.scan),
            ("fsync", self.latency.fsync),
            ("checkpoint", self.latency.checkpoint),
            ("gc_pass", self.latency.gc_pass),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            health: "healthy".to_string(),
            ..MetricsSnapshot::default()
        };
        snap.txn.started = 10;
        snap.txn.committed = 7;
        snap.txn.aborted = 3;
        snap.txn.suspended_now = 2;
        snap.txn.siread_rows_now = 5;
        snap.txn.siread_ranges_now = 1;
        snap.txn.abort_reasons[AbortReason::PivotOut.index()] = 2;
        snap.txn.abort_reasons[AbortReason::WriteConflict.index()] = 1;
        snap.tables.push(TableMetrics {
            name: "accounts".to_string(),
            keys: 100,
            versions: 130,
        });
        let mut hist = LatencyHistogram::default();
        hist.record(Duration::from_micros(5));
        hist.record(Duration::from_micros(9));
        snap.latency.commit = HistSummary::of(&hist, 64);
        snap
    }

    #[test]
    fn render_text_exposes_counters_labels_and_quantiles() {
        let text = sample_snapshot().render_text();
        assert!(text.contains("ssi_txn_started_total 10"));
        assert!(text.contains("# TYPE ssi_txn_suspended gauge\nssi_txn_suspended 2\n"));
        assert!(text.contains("# TYPE ssi_txn_siread_rows gauge\nssi_txn_siread_rows 5\n"));
        assert!(text.contains("ssi_txn_siread_row_registrations_total 0"));
        assert!(text.contains("# TYPE ssi_txn_siread_ranges gauge\nssi_txn_siread_ranges 1\n"));
        assert!(text.contains("ssi_txn_siread_range_registrations_total 0"));
        assert!(text.contains("ssi_txn_aborts_by_reason_total{reason=\"pivot-out\"} 2"));
        assert!(text.contains("ssi_txn_aborts_by_reason_total{reason=\"lock-deadlock\"} 0"));
        assert!(text.contains("ssi_table_keys{table=\"accounts\"} 100"));
        assert!(text.contains("ssi_health_info{state=\"healthy\"} 1"));
        assert!(text.contains("ssi_latency_commit_ns{quantile=\"0.99\"}"));
        assert!(text.contains("ssi_latency_commit_ns_sample_every 64"));
    }

    #[test]
    fn json_is_structurally_balanced_and_complete() {
        let json = sample_snapshot().to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"txn\":",
            "\"gc\":",
            "\"wal\":",
            "\"locks\":",
            "\"server\":",
            "\"tables\":",
            "\"health\":",
            "\"latency\":",
            "\"trace\":",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.contains("\"pruned_inline_versions\":0"));
        assert!(json.contains("\"suspended_now\":2"));
        assert!(json.contains(
            "\"siread_row_registrations\":0,\"siread_range_registrations\":0,\
             \"siread_rows_now\":5,\"siread_ranges_now\":1"
        ));
        assert!(json.contains("\"pivot-out\":2"));
        assert!(json.contains("\"name\":\"accounts\""));
    }

    #[test]
    fn abort_reason_array_matches_taxonomy_size() {
        let snap = MetricsSnapshot::default();
        assert_eq!(snap.txn.abort_reasons.len(), AbortReason::COUNT);
    }
}
