//! The embedded database: catalog + lock manager + transaction manager +
//! write-ahead log, wired together by [`Options`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ssi_common::{DegradedReason, Error, IsolationLevel, Result, TableId, Timestamp};
use ssi_lock::LockManager;
use ssi_obs::{
    EngineMetrics, EventKind, GcMetrics, HistSummary, LatencyMetrics, LockMetrics, MetricsSnapshot,
    TableMetrics, Trace, TraceBatch, TraceHandle, TxnMetrics, WalMetrics,
};
use ssi_storage::{Catalog, Index, IndexKeySpec, PageMap, PurgeStats, Table, SHARD_COUNT};
use ssi_wal::{
    CheckpointStats, Checkpointer, PoisonCause, Recovered, StdVfs, SyncPolicy, Vfs, WalStats,
    WalWriter,
};

use crate::health::{DbHealth, HealthCell};
use crate::manager::{GcPin, TransactionManager};
use crate::options::{Durability, LockGranularity, Options};
use crate::txn::Transaction;
use crate::verify::HistoryRecorder;

/// Handle to a table, cheap to clone and pass to transaction operations.
#[derive(Clone)]
pub struct TableRef {
    pub(crate) table: Arc<Table>,
}

impl TableRef {
    /// Table id.
    pub fn id(&self) -> TableId {
        self.table.id()
    }

    /// Table name.
    pub fn name(&self) -> &str {
        self.table.name()
    }

    /// Number of distinct keys currently stored (including tombstoned ones).
    pub fn key_count(&self) -> usize {
        self.table.key_count()
    }

    /// Total number of row versions stored across all chains (stats; the
    /// figure version GC shrinks).
    pub fn version_count(&self) -> usize {
        self.table.version_count()
    }
}

impl std::fmt::Debug for TableRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TableRef({})", self.table.name())
    }
}

/// Handle to a secondary index (paired with its base table), cheap to clone
/// and pass to [`Transaction::index_scan`](crate::Transaction::index_scan).
#[derive(Clone)]
pub struct IndexRef {
    pub(crate) index: Arc<Index>,
    pub(crate) table: TableRef,
}

impl IndexRef {
    /// Index id (drawn from the same id space as tables).
    pub fn id(&self) -> TableId {
        self.index.id()
    }

    /// Index name.
    pub fn name(&self) -> &str {
        self.index.name()
    }

    /// The base table the index covers.
    pub fn table(&self) -> &TableRef {
        &self.table
    }

    /// True for unique indexes.
    pub fn unique(&self) -> bool {
        self.index.unique()
    }

    /// Number of distinct resident entries (stale ones included until GC).
    pub fn entry_count(&self) -> usize {
        self.index.entry_count()
    }
}

impl std::fmt::Debug for IndexRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IndexRef({})", self.index.name())
    }
}

/// The durability half of a database: the on-disk redo log plus the
/// bookkeeping checkpoints need. Present only when
/// [`crate::DurabilityOptions::mode`] is not [`Durability::Off`].
pub(crate) struct DurableState {
    pub(crate) wal: Arc<WalWriter>,
    pub(crate) dir: PathBuf,
    /// Storage backend all durable I/O goes through (checkpoints included);
    /// the production default is one pointer hop over `std::fs`.
    vfs: Arc<dyn Vfs>,
    /// Serializes checkpoint runs (rotation + snapshot + truncation).
    checkpoint_lock: Mutex<()>,
    /// Serializes durable `create_table` calls so the create record can be
    /// appended to the log *before* the table is published in the catalog
    /// (log-first: a table no writer can reach yet cannot produce commits
    /// recovery would fail to resolve).
    create_lock: Mutex<()>,
    checkpoint_every_bytes: Option<u64>,
    /// Error of the most recent failed automatic checkpoint, kept so
    /// background failures are observable (auto-checkpointing must not
    /// fail the unrelated commit that triggered it). Cleared by the next
    /// successful checkpoint.
    auto_checkpoint_error: Mutex<Option<String>>,
    /// What recovery found when the database was opened.
    recovered: Recovered,
    /// OS advisory lock on the durable directory; held for the lifetime of
    /// this database so a second open of the same directory fails instead
    /// of interleaving log appends (dropped — and released — with us).
    _dir_lock: std::fs::File,
}

/// Internal shared state of a database.
pub(crate) struct DbInner {
    pub(crate) options: Options,
    pub(crate) catalog: Catalog,
    pub(crate) locks: LockManager,
    pub(crate) txns: TransactionManager,
    pub(crate) pages: Option<PageMap>,
    pub(crate) history: Option<HistoryRecorder>,
    pub(crate) durable: Option<DurableState>,
    /// Health state machine (`Healthy → Degraded → Closed`).
    pub(crate) health: HealthCell,
    /// Engine-wide observability: sampled latency recorders plus the
    /// (optional) event trace. Shared with the WAL.
    pub(crate) metrics: Arc<EngineMetrics>,
    /// Write commits since the last automatic purge slice (see
    /// [`crate::Options::purge_every_commits`]).
    commits_since_purge: AtomicU64,
    /// Single-flight gate for automatic purge slices, and the first storage
    /// shard of the next one: the committer that wins the `try_lock` runs
    /// the slice and advances the cursor, everyone else skips instead of
    /// queueing behind a slice already in progress.
    purge_lock: Mutex<usize>,
}

/// Storage shards of every table one automatic purge slice covers: four
/// slices sweep the catalog once.
const PURGE_SLICE: usize = SHARD_COUNT / 4;

impl DbInner {
    /// Takes a checkpoint: rotates the log at the published clock, writes a
    /// fuzzy snapshot of every table at the cut timestamp, and truncates
    /// the covered log segments (protocol in the `ssi-wal` crate docs).
    pub(crate) fn checkpoint(&self) -> Result<CheckpointStats> {
        let durable = self
            .durable
            .as_ref()
            .ok_or_else(|| Error::Durability("durability is disabled".to_string()))?;
        let guard = durable.checkpoint_lock.lock();
        self.checkpoint_locked(durable, guard)
    }

    /// The checkpoint body; `_serialize` is the held run-serialization
    /// guard (blocking from [`DbInner::checkpoint`], opportunistic from
    /// [`DbInner::maybe_auto_checkpoint`]).
    fn checkpoint_locked(
        &self,
        durable: &DurableState,
        _serialize: parking_lot::MutexGuard<'_, ()>,
    ) -> Result<CheckpointStats> {
        // Pin the reclamation horizon for the whole run, *before* the cut
        // is read: the fuzzy snapshot streams every table at the cut
        // timestamp while commits — and purges — continue, so versions
        // visible at the cut must stay reachable until the snapshot has
        // renamed into place. The pin is at the current clock, which is
        // `<=` the cut (the cut is read later from the same monotone
        // clock) and `>=` every purge horizon already computed, so neither
        // a future nor an in-flight purge can steal a version the snapshot
        // still has to stream. Dropped (unpinning) when this returns.
        let _pin = self.txns.pin_gc_horizon();
        // Exclude in-flight creates for the whole run: a create that has
        // appended its record to the current segment but not yet published
        // its table in the catalog would otherwise be cut off — the
        // rotation prunes the segment holding the only create record while
        // the snapshot (taken from the catalog) misses the table, and
        // post-checkpoint commits to it become unresolvable at recovery.
        // Lock order is checkpoint_lock -> create_lock; the create path
        // takes only create_lock, so there is no cycle.
        let _creates_quiesced = durable.create_lock.lock();
        self.metrics.trace.emit(EventKind::Checkpoint, 0, 0, 0);
        let t0 = std::time::Instant::now();
        let (cut_ts, old_seq) = durable
            .wal
            .rotate(|| self.txns.current_ts())
            .map_err(|e| self.log_failure("log rotation failed", e))?;
        // The snapshot persists tables and rows but not index definitions,
        // and the truncation below prunes the segments holding their
        // original create records: re-log every definition into the fresh
        // segment so recovery can re-register (and backfill) the indexes.
        // Creates are quiesced (`create_lock` held), so this set is
        // complete and no concurrent create can interleave.
        for index in self.catalog.indexes() {
            durable
                .wal
                .append_create_index(
                    index.id(),
                    index.table_id(),
                    index.name(),
                    index.unique(),
                    index.spec().encode(),
                )
                .map_err(|e| {
                    self.log_failure(format_args!("re-logging index {}", index.name()), e)
                })?;
        }
        let stats = Checkpointer::with_vfs(durable.vfs.clone(), &durable.dir)
            .run(&self.catalog, cut_ts, old_seq)
            .map_err(|e| Error::Durability(format!("checkpoint at ts {cut_ts} failed: {e}")))?;
        self.metrics.checkpoint.record(t0.elapsed());
        self.metrics
            .trace
            .emit(EventKind::Checkpoint, 1, old_seq, 0);
        *durable.auto_checkpoint_error.lock() = None;
        Ok(stats)
    }

    /// Auto-checkpoint trigger, called after durable commits: runs a
    /// checkpoint once the log grew past the configured threshold. The
    /// committer that wins the `try_lock` runs it; everyone else skips
    /// instead of queueing behind a checkpoint already in progress. A
    /// failure must not fail the unrelated commit that triggered it, but
    /// is not swallowed either: it is retained for
    /// [`Database::auto_checkpoint_error`] (cleared by the next success),
    /// so persistent failures — which would otherwise grow the log
    /// unboundedly in silence — stay observable.
    pub(crate) fn maybe_auto_checkpoint(&self) {
        let Some(durable) = &self.durable else { return };
        let Some(limit) = durable.checkpoint_every_bytes else {
            return;
        };
        if durable.wal.epoch_bytes() >= limit {
            if let Some(guard) = durable.checkpoint_lock.try_lock() {
                if let Err(e) = self.checkpoint_locked(durable, guard) {
                    *durable.auto_checkpoint_error.lock() = Some(e.to_string());
                }
            }
        }
    }

    /// `Healthy → Degraded{reason}`, counting the transition in
    /// [`crate::ManagerStats::degraded_transitions`] exactly once (the CAS
    /// loser observes an incident already recorded).
    pub(crate) fn degrade(&self, reason: DegradedReason) {
        if self.health.degrade(reason) {
            self.txns
                .stats()
                .degraded_transitions
                .fetch_add(1, Ordering::Relaxed);
            // Degrades only ever leave Healthy (code 0), so the CAS winner
            // knows both sides of the transition.
            self.metrics.trace.emit(
                EventKind::Health,
                crate::health::reason_code(reason) as u64,
                0,
                0,
            );
        }
    }

    /// Degrades the database if its log is poisoned, mapping the recorded
    /// poison cause onto a degradation reason.
    pub(crate) fn degrade_from_wal(&self) {
        let Some(cause) = self.durable.as_ref().and_then(|d| d.wal.poison_cause()) else {
            return;
        };
        self.degrade(match cause {
            PoisonCause::Io => DegradedReason::WalPoisoned,
            PoisonCause::OutOfSpace => DegradedReason::OutOfSpace,
            PoisonCause::Panic => DegradedReason::WalLeaderPanic,
        });
    }

    /// The error for a failed log operation. Every failed append, segment
    /// creation or fsync poisons the log, so the database degrades here,
    /// not at the next commit that trips over it.
    pub(crate) fn log_failure(&self, what: impl std::fmt::Display, e: ssi_wal::WalError) -> Error {
        self.degrade_from_wal();
        Error::Durability(format!("{what}: {e}"))
    }

    /// Runs one version-GC pass over `count` storage shards of every table,
    /// from shard `first` on (wrapping), at the pinned safe horizon
    /// ([`TransactionManager::gc_horizon`]), and records it once: in
    /// [`crate::manager::ManagerStats`], the `gc_pass` histogram and a
    /// `GcPass` trace event. Both reclamation drivers come through here —
    /// `Database::purge` with every shard, committers with a slice.
    fn purge_shards(&self, first: usize, count: usize) -> PurgeStats {
        let t0 = std::time::Instant::now();
        let horizon = self.txns.gc_horizon();
        let mut stats = PurgeStats::at(horizon);
        for table in self.catalog.tables() {
            for shard in first..first + count {
                stats.merge(&table.purge_shard(shard, horizon));
            }
        }
        self.txns.stats().record_purge(&stats);
        let elapsed = t0.elapsed();
        self.metrics.gc_pass.record(elapsed);
        self.metrics.trace.emit(
            EventKind::GcPass,
            stats.versions,
            stats.chains,
            elapsed.as_nanos() as u64,
        );
        stats
    }

    /// Automatic purge trigger, called after write commits on the same
    /// steady-state path as suspended-cleanup: once
    /// [`crate::Options::purge_every_commits`] write commits have
    /// accumulated, the committer that wins the `try_lock` purges the next
    /// [`PURGE_SLICE`] shards of every table and moves the cursor on;
    /// everyone else keeps committing. The counter resets when a slice
    /// actually starts, so a skipped trigger (slice already running)
    /// retries on the next commit instead of waiting a whole period.
    pub(crate) fn maybe_auto_purge(&self) {
        let Some(every) = self.options.purge_every_commits else {
            return;
        };
        let n = self.commits_since_purge.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= every.get() {
            if let Some(mut cursor) = self.purge_lock.try_lock() {
                self.commits_since_purge.store(0, Ordering::Relaxed);
                self.purge_shards(*cursor, PURGE_SLICE);
                *cursor = (*cursor + PURGE_SLICE) % SHARD_COUNT;
            }
        }
    }
}

impl Drop for DbInner {
    fn drop(&mut self) {
        // Close ordering — the two steps below must stay in this order:
        //
        // 1. Final `sync()`: in buffered mode the tail of the log may only
        //    be in the OS page cache — push it to the device so reopening
        //    loses nothing. (No transaction can be in flight: handles hold
        //    an `Arc` to this struct, and the engine runs no thread of its
        //    own.)
        // 2. Only then do the fields drop, releasing the WAL directory
        //    lock (`DurableState::_dir_lock`). Because step 1
        //    happens-before that release, a fast reopen of the same
        //    directory can never race the old incarnation's last fsync.
        if let Some(durable) = &self.durable {
            let _ = durable.wal.sync();
        }
    }
}

/// An embedded multi-version database offering snapshot isolation, strict
/// two-phase locking and Serializable Snapshot Isolation.
///
/// ```
/// use ssi_core::{Database, Options};
/// use ssi_common::IsolationLevel;
///
/// let db = Database::open(Options::default());
/// let accounts = db.create_table("accounts").unwrap();
///
/// let mut txn = db.begin();
/// txn.put(&accounts, b"alice", b"100").unwrap();
/// txn.commit().unwrap();
///
/// let mut reader = db.begin_with(IsolationLevel::SnapshotIsolation);
/// assert_eq!(reader.get(&accounts, b"alice").unwrap().as_deref(), Some(b"100".as_slice()));
/// reader.commit().unwrap();
/// ```
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
}

impl Database {
    /// Opens a database with the given options.
    ///
    /// With durability enabled this recovers from the configured directory;
    /// failures there are process-fatal here — use [`Database::try_open`]
    /// to handle them.
    pub fn open(options: Options) -> Self {
        Self::try_open(options).expect("failed to open database")
    }

    /// Opens a database with the given options, surfacing durability
    /// errors.
    ///
    /// When [`crate::DurabilityOptions::mode`] is not [`Durability::Off`],
    /// the configured directory is created if missing and *recovered* if
    /// not: the newest valid checkpoint snapshot is loaded, every whole
    /// commit record beyond it is replayed, and the commit/begin clocks
    /// resume past the highest recovered timestamp — so a reopened
    /// database continues exactly where the durable prefix ended.
    pub fn try_open(options: Options) -> Result<Self> {
        let pages = match options.granularity {
            LockGranularity::Row => None,
            LockGranularity::Page { pages } => Some(PageMap::new(pages)),
        };
        let history = if options.record_history {
            Some(HistoryRecorder::new())
        } else {
            None
        };
        let catalog = Catalog::new();
        let txns = TransactionManager::new();
        let trace = match options.trace_capacity {
            Some(capacity) => TraceHandle::enabled(Arc::new(Trace::new(capacity))),
            None => TraceHandle::disabled(),
        };
        let metrics = Arc::new(EngineMetrics::new(options.latency_sample_shift, trace));
        // The manager emits txn lifecycle events; install the handle before
        // the first transaction can begin.
        txns.set_trace(metrics.trace.clone());
        let durable = match options.durability.mode {
            Durability::Off => None,
            mode => {
                let dir = options.durability.dir.clone().ok_or_else(|| {
                    Error::Durability("durability enabled but no directory configured".to_string())
                })?;
                let vfs: Arc<dyn Vfs> = options
                    .durability
                    .vfs
                    .clone()
                    .map_or_else(StdVfs::handle, |h| h.0);
                let io = |what: &'static str| {
                    let dir = dir.display().to_string();
                    move |e: std::io::Error| Error::Durability(format!("{what} ({dir}): {e}"))
                };
                let wal_err = |what: &'static str| {
                    let dir = dir.display().to_string();
                    move |e: ssi_wal::WalError| Error::Durability(format!("{what} ({dir}): {e}"))
                };
                vfs.create_dir_all(&dir).map_err(io("create durable dir"))?;
                // Exclusive ownership of the directory across the whole
                // recover + append lifecycle: a second opener gets an error
                // here instead of interleaving frames into the same segment.
                let dir_lock = ssi_wal::lock_dir(&dir).map_err(wal_err("lock durable dir"))?;
                let recovered = ssi_wal::recover_into_with(vfs.as_ref(), &dir, &catalog)
                    .map_err(wal_err("recovery failed"))?;
                txns.restore_clock(recovered.max_commit_ts);
                let policy = match mode {
                    Durability::Buffered => SyncPolicy::Never,
                    Durability::GroupCommit => SyncPolicy::GroupCommit,
                    Durability::Off => unreachable!(),
                };
                let wal = Arc::new(
                    WalWriter::open_with(vfs.clone(), &dir, recovered.next_segment_seq, policy)
                        .map_err(wal_err("open log segment"))?,
                );
                // Fsync latency + WAL seal/fsync/rotate trace events flow
                // through the shared recorders.
                wal.set_obs(metrics.clone());
                Some(DurableState {
                    wal,
                    dir,
                    vfs,
                    checkpoint_lock: Mutex::new(()),
                    create_lock: Mutex::new(()),
                    checkpoint_every_bytes: options.durability.checkpoint_every_bytes,
                    auto_checkpoint_error: Mutex::new(None),
                    recovered,
                    _dir_lock: dir_lock,
                })
            }
        };
        let inner = DbInner {
            locks: LockManager::new(options.lock.clone()),
            txns,
            catalog,
            pages,
            history,
            durable,
            health: HealthCell::default(),
            metrics,
            options,
            commits_since_purge: AtomicU64::new(0),
            purge_lock: Mutex::new(0),
        };
        Ok(Database {
            inner: Arc::new(inner),
        })
    }

    /// Opens a database with default options (Serializable SI, row-level
    /// locking, durability off).
    pub fn open_default() -> Self {
        Self::open(Options::default())
    }

    /// The options the database was opened with.
    pub fn options(&self) -> &Options {
        &self.inner.options
    }

    /// Current health: `Healthy`, `Degraded{reason}` (writes fail fast,
    /// snapshot reads keep serving) or `Closed`. Degradation is one-way
    /// and first-cause-wins; see [`crate::health`].
    pub fn health(&self) -> DbHealth {
        self.inner.health.get()
    }

    /// Closes the database: syncs the durable tail (best-effort — a
    /// poisoned log has nothing more to promise) and moves health to
    /// `Closed`, after which new write transactions fail fast. Existing
    /// handles keep serving snapshot reads.
    pub fn close(&self) {
        if let Some(durable) = &self.inner.durable {
            let _ = durable.wal.sync();
        }
        self.inner.health.close();
    }

    /// Creates a table.
    ///
    /// With durability enabled the creation is *logged first* and only
    /// then published in the catalog (serialized by a create lock so the
    /// logged id is the id the catalog assigns). The ordering matters: the
    /// moment a table is reachable through [`Database::table`], writers
    /// can produce fsync-acknowledged commits against it, so its create
    /// record must already be in the log or recovery could not resolve
    /// those commits. A failed append leaves no table behind; a logged
    /// create whose process dies before any commit merely replays as an
    /// empty table. The record becomes durable together with the first
    /// fsynced commit (or checkpoint) that follows it.
    pub fn create_table(&self, name: &str) -> Result<TableRef> {
        if let Some(err) = self.inner.health.write_block_error() {
            return Err(err);
        }
        let table = match &self.inner.durable {
            None => self.inner.catalog.create_table(name)?,
            Some(durable) => {
                let _serialize = durable.create_lock.lock();
                if self.inner.catalog.table(name).is_ok() {
                    return Err(Error::TableExists(name.to_string()));
                }
                let id = self.inner.catalog.next_table_id();
                durable.wal.append_create_table(id, name).map_err(|e| {
                    self.inner
                        .log_failure(format_args!("logging create_table({name})"), e)
                })?;
                let table = self.inner.catalog.create_table(name)?;
                debug_assert_eq!(table.id(), id, "create serialization violated");
                table
            }
        };
        Ok(TableRef { table })
    }

    /// Creates a secondary index on `table` and backfills it from the
    /// table's committed state, atomically with respect to concurrent
    /// writers. With durability enabled the definition is *logged first*
    /// exactly like [`Database::create_table`]; index entries themselves
    /// are never logged — recovery rebuilds them by backfill over the
    /// replayed version chains.
    pub fn create_index(
        &self,
        name: &str,
        table: &TableRef,
        unique: bool,
        spec: IndexKeySpec,
    ) -> Result<IndexRef> {
        if let Some(err) = self.inner.health.write_block_error() {
            return Err(err);
        }
        let index = match &self.inner.durable {
            None => self
                .inner
                .catalog
                .create_index(name, &table.table, unique, spec)?,
            Some(durable) => {
                let _serialize = durable.create_lock.lock();
                if self.inner.catalog.index(name).is_ok() {
                    return Err(Error::TableExists(name.to_string()));
                }
                let id = self.inner.catalog.next_table_id();
                durable
                    .wal
                    .append_create_index(id, table.id(), name, unique, spec.encode())
                    .map_err(|e| {
                        self.inner
                            .log_failure(format_args!("logging create_index({name})"), e)
                    })?;
                let index = self
                    .inner
                    .catalog
                    .create_index(name, &table.table, unique, spec)?;
                debug_assert_eq!(index.id(), id, "create serialization violated");
                index
            }
        };
        Ok(IndexRef {
            index,
            table: table.clone(),
        })
    }

    /// Looks up a secondary index by name.
    pub fn index(&self, name: &str) -> Result<IndexRef> {
        let index = self.inner.catalog.index(name)?;
        let table = self.inner.catalog.table_by_id(index.table_id())?;
        Ok(IndexRef {
            index,
            table: TableRef { table },
        })
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Result<TableRef> {
        Ok(TableRef {
            table: self.inner.catalog.table(name)?,
        })
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.catalog.table_names()
    }

    /// Begins a transaction at the database's default isolation level.
    pub fn begin(&self) -> Transaction {
        self.begin_with(self.inner.options.default_isolation)
    }

    /// Begins a transaction at an explicit isolation level.
    pub fn begin_with(&self, isolation: IsolationLevel) -> Transaction {
        Transaction::new(self.inner.clone(), isolation, false)
    }

    /// Begins a transaction at the default isolation level, failing fast
    /// with [`Error::Closed`] when the database has been closed.
    ///
    /// [`Database::begin`] never fails — a closed database still serves its
    /// committed in-memory state, so a read-only transaction begun after
    /// `close()` is harmless and writes fail typed at the first operation.
    /// Service layers want the opposite contract: a session request racing
    /// shutdown should be rejected up front instead of beginning work that
    /// is doomed to fail halfway through. This is that check-first entry
    /// point; it is what the `ssi-server` crate uses for every `begin`
    /// request.
    pub fn try_begin(&self) -> Result<Transaction> {
        self.try_begin_with(self.inner.options.default_isolation)
    }

    /// Begins a transaction at an explicit isolation level, failing fast
    /// with [`Error::Closed`] when the database has been closed (see
    /// [`Database::try_begin`]).
    pub fn try_begin_with(&self, isolation: IsolationLevel) -> Result<Transaction> {
        if self.inner.health.get() == DbHealth::Closed {
            return Err(Error::Closed);
        }
        Ok(Transaction::new(self.inner.clone(), isolation, false))
    }

    /// Begins a transaction that the application promises is read-only.
    ///
    /// When [`Options::read_only_queries_at_si`] is set and the requested
    /// level is Serializable SI, the transaction is silently run at plain SI
    /// (Sec. 3.8): it takes no SIREAD locks and can never abort with the
    /// "unsafe" error, at the cost of the whole mix no longer being
    /// guaranteed serializable with respect to such queries.
    pub fn begin_read_only(&self) -> Transaction {
        let requested = self.inner.options.default_isolation;
        let effective = if self.inner.options.read_only_queries_at_si
            && requested == IsolationLevel::SerializableSnapshotIsolation
        {
            IsolationLevel::SnapshotIsolation
        } else {
            requested
        };
        Transaction::new(self.inner.clone(), effective, true)
    }

    /// The lock manager (exposed for statistics and tests).
    pub fn lock_manager(&self) -> &LockManager {
        &self.inner.locks
    }

    /// The transaction manager (exposed for statistics and tests).
    pub fn transaction_manager(&self) -> &TransactionManager {
        &self.inner.txns
    }

    /// SIREAD registrations kept in storage — on the version chains of every
    /// table, and on the range lists of every table and secondary index (see
    /// [`ssi_storage::Table::siread_holder_count`]): the storage-side
    /// counterpart of the lock manager's `grant_count`, for leak checks.
    /// Walks every chain.
    pub fn siread_holder_count(&self) -> usize {
        let tables = self.inner.catalog.tables();
        tables.iter().map(|t| t.siread_holder_count()).sum()
    }

    /// Takes a checkpoint now: snapshots every table at the published
    /// clock and truncates the redo log segments the snapshot covers.
    /// Errors when durability is off.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        self.inner.checkpoint()
    }

    /// Counters of the durability log (records, bytes, fsyncs, batches);
    /// `None` when durability is off.
    pub fn durability_stats(&self) -> Option<&WalStats> {
        self.inner.durable.as_ref().map(|d| d.wal.stats())
    }

    /// One consistent-enough snapshot of every engine metric: transaction
    /// counters with per-reason abort provenance, GC, WAL, lock-manager and
    /// per-table storage counters, health, and the in-engine latency
    /// histograms. Counters are read individually (relaxed), so the
    /// snapshot is not a linearizable cut — but each counter is monotone
    /// and the cross-counter invariants (`committed + aborted <= started`,
    /// per-reason aborts summing to `aborted`) hold for any interleaving.
    pub fn metrics(&self) -> MetricsSnapshot {
        let s = self.inner.txns.stats();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let txn = TxnMetrics {
            started: load(&s.started),
            committed: load(&s.committed),
            aborted: load(&s.aborted),
            suspended: load(&s.suspended),
            cleaned: load(&s.cleaned),
            suspended_now: self.inner.txns.suspended_len() as u64,
            publish_parks: load(&s.publish_parks),
            watermark_sweeps: load(&s.watermark_sweeps),
            siread_row_registrations: load(&s.siread_row_registrations),
            siread_range_registrations: load(&s.siread_range_registrations),
            siread_rows_now: load(&s.siread_rows_now),
            siread_ranges_now: load(&s.siread_ranges_now),
            abort_reasons: s.abort_reason_counts(),
        };
        let gc = GcMetrics {
            purge_runs: load(&s.purge_runs),
            purged_versions: load(&s.purged_versions),
            purged_chains: load(&s.purged_chains),
            pruned_inline_versions: load(&s.pruned_inline_versions),
        };
        let wal = match self.durability_stats() {
            None => WalMetrics::default(),
            Some(w) => WalMetrics {
                enabled: true,
                records: load(&w.records),
                bytes: load(&w.bytes),
                fsyncs: load(&w.fsyncs),
                seal_batches: load(&w.seal_batches),
                io_failures: load(&w.io_failures),
            },
        };
        let (requests, waits, deadlocks, timeouts) = self.inner.locks.stats().snapshot();
        let locks = LockMetrics {
            requests,
            waits,
            deadlocks,
            timeouts,
        };
        let tables = self
            .inner
            .catalog
            .tables()
            .iter()
            .map(|t| TableMetrics {
                name: t.name().to_string(),
                keys: t.key_count() as u64,
                versions: t.version_count() as u64,
            })
            .collect();
        let health = match self.health() {
            DbHealth::Healthy => "healthy".to_string(),
            DbHealth::Degraded { reason } => format!("degraded:{reason}"),
            DbHealth::Closed => "closed".to_string(),
        };
        let m = &self.inner.metrics;
        let summarize = |h: &ssi_obs::SampledHist| HistSummary::of(&h.snapshot(), h.sample_every());
        let latency = LatencyMetrics {
            commit: summarize(&m.commit),
            commit_section: summarize(&m.commit_section),
            read: summarize(&m.read),
            scan: summarize(&m.scan),
            fsync: summarize(&m.fsync),
            checkpoint: summarize(&m.checkpoint),
            gc_pass: summarize(&m.gc_pass),
        };
        MetricsSnapshot {
            txn,
            gc,
            wal,
            locks,
            // An embedded database has no service layer; `ssi-server`
            // overlays its own counters before rendering.
            server: ssi_obs::ServerMetrics::default(),
            tables,
            health,
            latency,
            trace_dropped: m.trace.dropped(),
            trace_enabled: m.trace.is_enabled(),
        }
    }

    /// Drains the event trace: all buffered events in timestamp order plus
    /// the drop count, resetting the rings. `None` unless the database was
    /// opened with [`Options::with_tracing`].
    pub fn drain_trace(&self) -> Option<TraceBatch> {
        self.inner.metrics.trace.drain()
    }

    /// What crash recovery found when this database was opened; `None`
    /// when durability is off.
    pub fn recovery_info(&self) -> Option<&Recovered> {
        self.inner.durable.as_ref().map(|d| &d.recovered)
    }

    /// Error of the most recent failed *automatic* checkpoint, if the
    /// failure has not been superseded by a successful one. Automatic
    /// checkpoints run piggybacked on commits and must not fail them, so
    /// their errors surface here instead.
    pub fn auto_checkpoint_error(&self) -> Option<String> {
        self.inner
            .durable
            .as_ref()
            .and_then(|d| d.auto_checkpoint_error.lock().clone())
    }

    /// The history recorder, if the database was opened with
    /// [`Options::record_history`].
    pub fn history(&self) -> Option<&HistoryRecorder> {
        self.inner.history.as_ref()
    }

    /// Garbage-collects row versions no snapshot can see anymore: one GC
    /// pass over every table at the pinned safe horizon (the clamped
    /// begin-watermark, capped by the oldest live pin — see
    /// [`TransactionManager::gc_horizon`]). Safe to call concurrently with
    /// readers, writers, checkpoints and automatic slices; with
    /// [`crate::Options::purge_every_commits`] set, committers run the same
    /// pass a quarter of the shards at a time. Returns what was reclaimed.
    /// Writers already prune, at the same horizon, the chains they find
    /// long (`gc.pruned_inline_versions`); a pass is for what no writer
    /// comes back to — cold rows, tombstoned keys, aborted leftovers.
    pub fn purge(&self) -> PurgeStats {
        self.inner.purge_shards(0, SHARD_COUNT)
    }

    /// Pins the version-GC horizon at the current published clock for the
    /// lifetime of the returned guard: no purge (manual or automatic) and
    /// no pruning writer reclaims a version that a snapshot at or after the pinned timestamp
    /// can read. Intended for long out-of-band scans over versions an
    /// ordinary transaction snapshot would protect anyway — checkpoints
    /// take the same pin internally around their fuzzy table snapshot.
    pub fn pin_purge_horizon(&self) -> GcPin<'_> {
        self.inner.txns.pin_gc_horizon()
    }

    /// Test/bench escape hatch: purges at an explicit horizon, bypassing
    /// the safe-horizon computation and the pins. Reclaims versions that
    /// live snapshots may still need if misused — the TOCTOU regression
    /// test uses it to demonstrate exactly that failure.
    #[doc(hidden)]
    pub fn purge_at(&self, horizon: Timestamp) -> PurgeStats {
        self.inner.catalog.purge_old_versions(horizon)
    }

    /// Test-only fault injection: poisons the write-ahead log exactly as a
    /// failed fsync would. Every parked committer wakes with an error and
    /// every later durability wait fails. Errors when durability is off.
    #[doc(hidden)]
    pub fn poison_wal(&self) -> Result<()> {
        let durable = self
            .inner
            .durable
            .as_ref()
            .ok_or_else(|| Error::Durability("durability is disabled".to_string()))?;
        durable.wal.poison();
        self.inner.degrade_from_wal();
        Ok(())
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.inner.catalog.len())
            .field("isolation", &self.inner.options.default_isolation)
            .field("granularity", &self.inner.options.granularity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_create_and_lookup_tables() {
        let db = Database::open_default();
        let t = db.create_table("accounts").unwrap();
        assert_eq!(t.name(), "accounts");
        assert_eq!(db.table("accounts").unwrap().id(), t.id());
        assert!(db.table("missing").is_err());
        assert_eq!(db.table_names(), vec!["accounts"]);
        assert_eq!(t.key_count(), 0);
    }

    #[test]
    fn begin_read_only_downgrades_when_configured() {
        let opts = Options {
            read_only_queries_at_si: true,
            ..Options::default()
        };
        let db = Database::open(opts);
        let q = db.begin_read_only();
        assert_eq!(q.isolation(), IsolationLevel::SnapshotIsolation);
        let u = db.begin();
        assert_eq!(u.isolation(), IsolationLevel::SerializableSnapshotIsolation);
    }

    #[test]
    fn begin_read_only_keeps_level_when_not_configured() {
        let db = Database::open_default();
        let q = db.begin_read_only();
        assert_eq!(q.isolation(), IsolationLevel::SerializableSnapshotIsolation);
    }

    #[test]
    fn auto_purge_runs_on_commit_cadence_and_reports_stats() {
        let db = Database::open(Options::default().with_auto_purge(8));
        let t = db.create_table("t").unwrap();
        for i in 0..64u64 {
            let mut txn = db.begin();
            txn.put(&t, b"hot", &i.to_be_bytes()).unwrap();
            txn.commit().unwrap();
        }
        let stats = db.transaction_manager().stats();
        assert!(
            stats.purge_runs.load(Ordering::Relaxed) >= 1,
            "commit cadence must have triggered purges"
        );
        assert!(stats.purged_versions.load(Ordering::Relaxed) > 0);
        assert!(
            t.version_count() < 64,
            "hot-key chain must have been trimmed, got {}",
            t.version_count()
        );
    }

    #[test]
    fn purge_respects_a_held_pin() {
        let db = Database::open_default();
        let t = db.create_table("t").unwrap();
        let mut txn = db.begin();
        txn.put(&t, b"k", b"v0").unwrap();
        txn.commit().unwrap();

        let pin = db.pin_purge_horizon();
        for i in 0..10u64 {
            let mut txn = db.begin();
            txn.put(&t, b"k", &i.to_be_bytes()).unwrap();
            txn.commit().unwrap();
        }
        // Everything committed after the pin — and the version visible *at*
        // the pin — must survive a purge while the pin is held.
        let stats = db.purge();
        assert!(stats.horizon <= pin.ts(), "horizon passed the pin");
        assert_eq!(stats.versions, 0);
        assert_eq!(t.version_count(), 11);

        drop(pin);
        let stats = db.purge();
        assert!(stats.horizon > 0);
        assert_eq!(stats.versions, 10, "unpinned purge trims to the newest");
        assert_eq!(t.version_count(), 1);
    }

    #[test]
    fn history_recorder_only_present_when_enabled() {
        assert!(Database::open_default().history().is_none());
        assert!(Database::open(Options::default().with_history())
            .history()
            .is_some());
    }
}
