//! Observability for the SSI reproduction: abort provenance, in-engine
//! latency histograms, a unified metrics snapshot, and a lock-free event
//! trace.
//!
//! The engine's central empirical questions — how often does SSI abort,
//! *why*, and what does that cost — are answered here. This crate owns the
//! measurement primitives; `ssi-core` threads them through the engine and
//! exposes them as `Database::metrics()` / `Database::drain_trace()`.
//!
//! # Metric catalogue
//!
//! [`MetricsSnapshot`] carries every counter below (all monotonic since
//! `Database` open unless marked as a gauge):
//!
//! **Transactions** ([`TxnMetrics`])
//! - `started` / `committed` / `aborted` — lifecycle totals;
//!   `committed + aborted <= started` always (in-flight txns account for
//!   the difference).
//! - `abort_reasons` — aborts broken down by
//!   [`AbortReason`](ssi_common::AbortReason); the per-reason counts sum
//!   exactly to `aborted`. Reasons: `write-conflict` (first-committer-wins),
//!   `lock-deadlock` / `lock-timeout` (S2PL lock waits), `pivot-in` /
//!   `pivot-out` (SSI dangerous structure detected while acquiring the in-
//!   or out-edge), `unsafe-at-commit` (enhanced-variant commit-time ordering
//!   test), `basic-flag-check` (basic-variant conflict-flag test at commit),
//!   `doomed-by-peer` (marked for death by a concurrent transaction's
//!   victim selection), `degraded-rejected` (engine in degraded mode),
//!   `user-rollback` (explicit rollback / drop without commit),
//!   `unique-violation` (a second live claim of a unique index key).
//! - `suspended` / `cleaned` — commits that entered the suspended list
//!   (some active transaction was still concurrent with them) and entries
//!   reclaimed from it; `suspended_now` is the gauge of its current length
//!   (`ssi_txn_suspended` in the text exposition).
//! - `publish_parks` — publication waits that parked the thread; only a
//!   durable commit waits for publication, so in memory it stays 0 (see
//!   `ssi-core`).
//! - `watermark_sweeps` — lock-free refreshes of the begin watermark the
//!   commit epilogue and the GC horizon share (64 atomic loads each; about
//!   one per commit while transactions have registry shards to themselves).
//! - `siread_row_registrations` — SIREADs a Serializable-SI point read
//!   registered on the row's version chain (row granularity), counted per
//!   transaction and added when it finishes; `siread_range_registrations` —
//!   range registrations, one per Serializable-SI or S2PL scan of a table's
//!   keys or of a secondary index's entries, whatever the scan listed,
//!   counted the same way (everything else is a lock request, see
//!   **Locks**).
//!   `siread_rows_now` and `siread_ranges_now` are the gauges of what
//!   committed transactions still hold of each while suspended
//!   (`ssi_txn_siread_rows`, `ssi_txn_siread_ranges`).
//!
//! **Garbage collection** ([`GcMetrics`]) — `purge_runs`,
//! `purged_versions`, `purged_chains` count what purge passes did, full
//! ones and committers' slices alike; `pruned_inline_versions` counts the versions writers
//! dropped from long chains on their way in, outside any pass.
//! `purged_versions + pruned_inline_versions` is every version reclaimed.
//!
//! **WAL** ([`WalMetrics`]) — `records`, `bytes`, `fsyncs`, `seal_batches`,
//! `io_failures` (the first one poisons the log); plus an `enabled` gauge
//! (durability may be off).
//!
//! **Locks** ([`LockMetrics`]) — `requests` (lock-table requests, one per
//! key of a batch: every EXCLUSIVE and SHARED lock — an S2PL transaction's
//! own wait target and a writer's wait for one included — and the SIREADs on
//! pages and on rows that have no version chain yet), `waits`, `deadlocks`,
//! `timeouts` (meaningful for the S2PL baseline and `get_for_update`).
//!
//! **Storage** ([`TableMetrics`], gauges) — per-table live `keys` and total
//! `versions` (dead versions awaiting GC included).
//!
//! **Health** — `"healthy"`, `"degraded:<reason>"` or `"closed"`.
//!
//! **Latency** ([`LatencyMetrics`], [`HistSummary`]) — log-bucketed
//! histograms (p50/p99/p999/max/mean, ≤ ~6 % quantile underestimate) for:
//! `commit` (whole `Transaction::commit()`), `commit_section` (the
//! serialized begin-commit → finalize window), `read`, `scan`, `fsync`
//! (WAL batch fsync), `checkpoint`, and `gc_pass`. Hot-path histograms are
//! recorded behind [`SampledHist`] — a 1-in-2^shift power-of-two sampling
//! gate whose skip path is one thread-local increment and a mask test —
//! so the clean path stays within benchmark noise. Rare events (fsync,
//! checkpoint, GC) record every occurrence.
//!
//! # Event catalogue
//!
//! The trace ([`Trace`], drained as a [`TraceBatch`]) records typed events,
//! each with a monotonic nanosecond timestamp:
//!
//! | event | payload | emitted when |
//! |---|---|---|
//! | `txn_begin` | txn, begin_ts | a transaction enters the registry |
//! | `txn_commit` | txn, commit_ts | a commit finalizes |
//! | `txn_abort` | txn, reason | an abort finalizes (reason label) |
//! | `conflict_edge` | reader, writer | an rw-antidependency is recorded |
//! | `pivot_detected` | pivot, victim | a dangerous structure is found |
//! | `wal_seal` | commits, bytes | a group-commit batch seals |
//! | `wal_fsync` | duration_ns, failed | a WAL fsync returns |
//! | `wal_rotate` | retired_seq | the WAL rotates segments |
//! | `checkpoint` | phase, seq | a checkpoint starts / finishes |
//! | `gc_pass` | versions, chains, duration_ns | a GC pass completes |
//! | `health` | state, previous | the health state transitions |
//!
//! Rings are bounded and lock-free: writers claim a slot with one
//! `fetch_add` and publish with a seqlock stamp pair; when a ring wraps the
//! oldest events are overwritten and counted in [`TraceBatch::dropped`].
//! Tracing is default-off (`Options::with_tracing(capacity)` enables it);
//! a disabled [`TraceHandle`] makes every emit site a single branch.

pub mod hist;
pub mod recorder;
pub mod snapshot;
pub mod trace;

pub use hist::LatencyHistogram;
pub use recorder::{EngineMetrics, SampledHist};
pub use snapshot::{
    GcMetrics, HistSummary, LatencyMetrics, LockMetrics, MetricsSnapshot, ServerMetrics,
    TableMetrics, TxnMetrics, WalMetrics,
};
pub use trace::{EventKind, Trace, TraceBatch, TraceEvent, TraceHandle};
