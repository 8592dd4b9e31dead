//! Transaction handles: lifecycle, commit and rollback.
//!
//! The data-access operations (`get`, `put`, `delete`, `scan`, …) live in
//! [`crate::access`]; this module owns the bookkeeping every operation needs
//! (held locks, write set, recorded reads) and the commit/rollback protocol
//! of Figs. 3.1 and 3.2.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ssi_common::{AbortReason, Error, IsolationLevel, Result, Timestamp, TxnId};
use ssi_lock::{FxBuildHasher, LockKey, LockMode, LockOutcome, ModeSet};
use ssi_storage::{RangeHandle, RowHandle, Table, Version};

use crate::db::{DbInner, DurableState};
use crate::manager::HeldSireads;
use crate::options::Durability;
use crate::ssi;
use crate::txn_shared::TxnShared;
use crate::verify::{CommittedTxn, ReadRecord, WriteRecordEntry};

/// Local (handle-side) transaction state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LocalState {
    Active,
    Committed,
    Aborted,
}

/// A version installed by this transaction, remembered for commit stamping
/// or rollback.
pub(crate) struct WriteRecord {
    pub(crate) table: Arc<Table>,
    /// The key, shared with the table's maps ([`ssi_storage::Installed::key`]).
    pub(crate) key: Arc<[u8]>,
    pub(crate) version: Arc<Version>,
}

/// A transaction handle.
///
/// A handle is owned by a single thread; all shared state lives in the
/// [`TxnShared`] record so that concurrent transactions (and the Serializable
/// SI machinery) can inspect it. Dropping an active handle rolls the
/// transaction back.
pub struct Transaction {
    pub(crate) db: Arc<DbInner>,
    pub(crate) shared: Arc<TxnShared>,
    state: LocalState,
    /// Locks held, by key, with the set of modes acquired. Keys share their
    /// bytes with the lock table (and, for scanned rows, with the storage
    /// index), so the set is Fx-hashed like the lock table itself.
    pub(crate) locks: HashMap<LockKey, ModeSet, FxBuildHasher>,
    /// Rows this transaction registered an SIREAD on, one handle per new
    /// registration (row granularity; see `ssi_storage::table`, § SIREAD on
    /// the row). Its length is also the count flushed into
    /// `ManagerStats::siread_row_registrations` at finish.
    pub(crate) siread_rows: Vec<RowHandle>,
    /// How many of those registrations this transaction's own writes have
    /// dropped since (Sec. 3.7.3). The handles stay in `siread_rows`;
    /// releasing through them is a no-op.
    pub(crate) siread_rows_upgraded: usize,
    /// Ranges this transaction scanned, of a table's keys or of a secondary
    /// index's entries: one handle per scan that registered (row
    /// granularity; see `ssi_storage::range`). SIREAD ranges at Serializable
    /// SI, released with `siread_rows`; `Shared` ranges at S2PL, released at
    /// commit or abort before the locks. Its length is the count flushed
    /// into `ManagerStats::siread_range_registrations` at finish.
    pub(crate) ranges: Vec<RangeHandle>,
    /// Versions installed by this transaction.
    pub(crate) writes: Vec<WriteRecord>,
    /// Reads recorded for the serializability verifier (only when the
    /// database was opened with history recording).
    pub(crate) reads: Vec<ReadRecord>,
    /// Index-space writes recorded for the verifier: one entry per
    /// secondary-index entry this transaction's row writes add or shadow,
    /// keyed by `(index id, entry bytes)` so they flow through the MVSG
    /// exactly like row writes. Only populated with history recording on.
    pub(crate) index_writes: Vec<WriteRecordEntry>,
    /// The newest commit this transaction's reads rely on: the largest
    /// commit timestamp among the versions and tombstones its point reads
    /// returned, raised to the snapshot (the clock, at a level without one)
    /// by a read that found nothing and by every scan — an absence can be
    /// a tombstone a purge has already unlinked. Under group commit a
    /// commit without writes waits for the log to cover it.
    pub(crate) read_upto: Timestamp,
    /// Whether the application declared the transaction read-only.
    read_only: bool,
}

impl Transaction {
    pub(crate) fn new(db: Arc<DbInner>, isolation: IsolationLevel, read_only: bool) -> Self {
        let shared = db.txns.begin(isolation);
        Transaction {
            db,
            shared,
            state: LocalState::Active,
            locks: HashMap::default(),
            siread_rows: Vec::new(),
            siread_rows_upgraded: 0,
            ranges: Vec::new(),
            writes: Vec::new(),
            reads: Vec::new(),
            index_writes: Vec::new(),
            read_upto: 0,
            read_only,
        }
    }

    /// The transaction's id.
    pub fn id(&self) -> TxnId {
        self.shared.id()
    }

    /// The isolation level this transaction runs at.
    pub fn isolation(&self) -> IsolationLevel {
        self.shared.isolation()
    }

    /// True while the transaction can still execute operations.
    pub fn is_active(&self) -> bool {
        self.state == LocalState::Active
    }

    /// True if the application declared this transaction read-only when
    /// beginning it.
    pub fn is_declared_read_only(&self) -> bool {
        self.read_only
    }

    /// The snapshot timestamp, if one has been assigned yet. Snapshot
    /// assignment is deferred until the first operation that needs it
    /// (Sec. 4.5).
    pub fn snapshot_ts(&self) -> Option<Timestamp> {
        self.shared.begin_ts()
    }

    /// Ensures the transaction is still usable, aborting it if it has been
    /// selected as a victim by another transaction.
    pub(crate) fn check_active(&mut self) -> Result<()> {
        match self.state {
            LocalState::Active => {}
            _ => return Err(Error::TransactionClosed),
        }
        if self.shared.is_doomed() {
            self.abort_internal(AbortReason::DoomedByPeer);
            return Err(Error::abort_with_reason(
                AbortReason::DoomedByPeer,
                self.shared.id(),
            ));
        }
        Ok(())
    }

    /// Acquires a lock and records it in the transaction's lock set.
    pub(crate) fn acquire(&mut self, key: LockKey, mode: LockMode) -> Result<LockOutcome> {
        let outcome = self.db.locks.lock(self.shared.id(), &key, mode)?;
        if outcome.newly_acquired {
            self.locks.entry(key).or_insert(ModeSet::EMPTY).insert(mode);
        }
        Ok(outcome)
    }

    /// Runs an operation body, aborting the transaction if it fails with a
    /// retryable concurrency-control error.
    pub(crate) fn run_op<T>(&mut self, body: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.check_active()?;
        match body(self) {
            Ok(v) => Ok(v),
            Err(e) => {
                self.abort_internal(e.rollback_provenance());
                Err(e)
            }
        }
    }

    /// Commits the transaction.
    ///
    /// For Serializable SI transactions this is where the commit-time unsafe
    /// check of Fig. 3.2 runs; on failure the transaction is rolled back and
    /// an [`Error::Aborted`] of kind `Unsafe` is returned. After a
    /// successful check, all versions written become visible atomically, the
    /// write set is sealed into the redo log when durability is on (waiting
    /// for a covering fsync under [`crate::Durability::GroupCommit`], as a
    /// commit without writes does for the newest commit it read), locks
    /// are released — except SIREADs, in the lock table, on the rows' chains
    /// or on a range list, which stay in place while the transaction is
    /// suspended (Sec. 3.3) — and eligible suspended transactions are cleaned
    /// up (Sec. 4.6.1).
    ///
    /// A write commit has one body, with or without a log (see
    /// [`crate::manager`], § The commit pipeline): it enters the
    /// `Committing` window (running the unsafe check), allocates its
    /// timestamp, finalizes (`Committing → Committed`), stamps its versions
    /// committed, submits its redo record when logging, and deposits the
    /// timestamp for ordered publication. The commit is visible once it has
    /// settled: no reader ever meets a version that can still roll back.
    /// If finalize fails, the timestamp is published empty and the
    /// transaction aborts. In memory nobody waits for a committer held
    /// inside the window — later committers only deposit, and readers read
    /// the committed version beneath — but until it deposits, new snapshots
    /// do not cover any later commit. The only durable-specific step is the
    /// wait for the log afterwards, which waits for the clock to cover the
    /// commit's timestamp first.
    pub fn commit(self) -> Result<()> {
        // Whole-commit latency, including aborted attempts (sampled).
        let metrics = self.db.metrics.clone();
        let t0 = metrics.commit.start();
        let result = self.commit_inner();
        metrics.commit.finish(t0);
        result
    }

    fn commit_inner(mut self) -> Result<()> {
        if self.state != LocalState::Active {
            return Err(Error::TransactionClosed);
        }
        if self.shared.is_doomed() {
            self.abort_internal(AbortReason::DoomedByPeer);
            return Err(Error::abort_with_reason(
                AbortReason::DoomedByPeer,
                self.shared.id(),
            ));
        }
        let is_ssi = self.shared.isolation() == IsolationLevel::SerializableSnapshotIsolation;
        let has_writes = !self.writes.is_empty();

        // Encode the redo record *ahead of* the commit point: the write-set
        // deep copies and buffer growth happen here, outside the ordered-
        // publication window, so a large write set never stalls the
        // publication of successor timestamps. Only the timestamp patch and
        // one CRC pass remain inside the window (`settle_writes`). Dropped
        // unused if the commit check fails.
        let prepared = match &self.db.durable {
            Some(_) if has_writes => Some(ssi_wal::PreparedCommit::from_parts(
                self.shared.id(),
                self.writes
                    .iter()
                    .map(|w| (w.table.id(), &w.key[..], w.version.value())),
            )),
            _ => None,
        };

        // --- commit point ---------------------------------------------------
        // Commit-section latency (entry into the commit point through the
        // deposit; sampled, recorded for successful sections only).
        let section_t0 = self.db.metrics.commit_section.start();
        let settled = if has_writes {
            self.settle_writes(is_ssi, prepared)
        } else if is_ssi {
            // No writes: nothing to stamp, so the commit is a single
            // settling step.
            ssi::commit_read_only(&self.db.txns, &self.db.options.ssi, &self.shared)
        } else {
            // Read-only transactions do not advance the clock — their
            // "commit time" is the current instant, which is all the
            // overlap bookkeeping needs.
            let ts = self.db.txns.current_ts();
            self.shared.mark_committed(ts);
            Ok(ts)
        };
        let commit_ts = match settled {
            Ok(ts) => ts,
            Err(e) => {
                self.abort_internal(e.rollback_provenance());
                return Err(e);
            }
        };
        self.db.metrics.commit_section.finish(section_t0);

        // --- durability (real log: seal + group-commit fsync) ---------------
        // An I/O failure here is remembered and returned after the
        // in-memory bookkeeping completes: the transaction *is* committed in
        // memory, only its persistence is uncertain (see
        // `Error::Durability`). So is a panic of a flush this committer
        // leads: it resumes after the epilogue, since unwinding from here
        // would roll back a published commit.
        let mut durability_error = None;
        let mut leader_panic = None;
        if has_writes {
            if let Some(durable) = &self.db.durable {
                durability_error = self.wait_durable(durable, commit_ts, &mut leader_panic);
            }
        }

        // --- history recording (verifier) -----------------------------------
        if let Some(history) = &self.db.history {
            history.record(CommittedTxn {
                id: self.shared.id(),
                begin_ts: self.shared.begin_ts().unwrap_or(commit_ts),
                commit_ts,
                reads: std::mem::take(&mut self.reads),
                writes: self
                    .writes
                    .iter()
                    .map(|w| WriteRecordEntry {
                        table: w.table.id(),
                        key: w.key.to_vec(),
                        tombstone: w.version.is_tombstone(),
                    })
                    .chain(std::mem::take(&mut self.index_writes))
                    .collect(),
            });
        }

        // --- lock release / suspension --------------------------------------
        // SIREADs outlive the commit while the transaction is suspended
        // (Sec. 3.3): the lock-table keys move out of the lock set into the
        // suspended record, bytes still shared with the lock table, and the
        // row and range handles go with them. Every other mode is released
        // now, an S2PL transaction's ranges first: a writer they blocked
        // that is granted the holder's lock name finds them gone.
        let id = self.shared.id();
        self.flush_siread_counts();
        if !is_ssi {
            self.release_ranges();
        }
        let mut sireads = HeldSireads::default();
        for (key, modes) in std::mem::take(&mut self.locks) {
            for mode in modes.iter().filter(|mode| *mode != LockMode::SiRead) {
                self.db.locks.unlock(id, &key, mode);
            }
            if modes.contains(LockMode::SiRead) {
                sireads.locks.push(key);
            }
        }
        sireads.live_rows = self.siread_rows.len() - self.siread_rows_upgraded;
        let rows = std::mem::take(&mut self.siread_rows);
        if sireads.live_rows > 0 {
            sireads.rows = rows;
        }
        sireads.ranges = std::mem::take(&mut self.ranges);
        debug_assert!(is_ssi || sireads.is_empty());
        let (_, out_conflict) = self.shared.conflict_flags();
        let suspend = is_ssi && (!sireads.is_empty() || out_conflict);

        // The epilogue (Sec. 4.6.1, eager cleanup): suspend or reclaim this
        // transaction and reclaim whatever its departure made reclaimable.
        self.db
            .txns
            .finish_commit(&self.shared, sireads, suspend, &self.db.locks);
        if has_writes && self.shared.begin_ts().is_none() {
            self.db.txns.note_snapshotless_commit();
        }

        self.writes.clear();
        self.state = LocalState::Committed;
        if has_writes {
            // Maintenance piggybacked on write commits, after the commit is
            // fully visible: a version-GC slice on its commit cadence and
            // checkpoints on log growth. Both are single-flight try-locks —
            // a committer either runs one or skips, never queues.
            self.db.maybe_auto_purge();
            self.db.maybe_auto_checkpoint();
        } else if let Some(durable) = &self.db.durable {
            // A commit without writes must not acknowledge what it read
            // before the log does: a value (or an absence) whose writer's
            // fsync can still fail. It waits — after the epilogue, holding
            // no lock — only when the newest commit its reads relied on is
            // not yet durable, which is rare for a reader of settled rows.
            // Waiting for the whole snapshot instead would fail every such
            // commit once one fsync failed, since later snapshots all cover
            // the lost commit: a degraded database could serve no reads.
            if self.db.options.durability.mode == Durability::GroupCommit
                && self.read_upto > durable.wal.durable_ts()
            {
                durability_error = self.wait_durable(durable, self.read_upto, &mut leader_panic);
            }
        }
        if let Some(panic) = leader_panic {
            resume_unwind(panic);
        }
        match durability_error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// The write commit up to its deposit: the `Committing` window is
    /// entered — the unsafe check runs on entry and the timestamp is
    /// allocated strictly *after* it, the ordering that lets SSI checks
    /// bound a neighbour's commit timestamp without waiting for publication
    /// — then finalized, the versions are stamped, the redo record is
    /// submitted and the timestamp deposited. On failure the caller rolls
    /// back; a timestamp already allocated has been published empty, since
    /// one never deposited would stall the publication chain for every
    /// successor.
    fn settle_writes(
        &self,
        is_ssi: bool,
        prepared: Option<ssi_wal::PreparedCommit>,
    ) -> Result<Timestamp> {
        let commit_ts = if is_ssi {
            ssi::begin_commit(&self.db.txns, &self.db.options.ssi, &self.shared)?
        } else {
            // Non-SSI levels have no commit-time check; they share the
            // window so an SSI marker that meets one of their versions can
            // bound its commit timestamp.
            self.shared
                .enter_committing(false)
                .map_err(|_| Error::unsafe_abort(self.shared.id()))?;
            let ts = self.db.txns.allocate_commit_ts();
            self.shared.set_pending_commit_ts(ts);
            ts
        };
        self.db.txns.fire_commit_pause(self.shared.id());
        if let Err(e) = self.finalize_window(is_ssi) {
            self.db.txns.publish_commit_ts(commit_ts);
            return Err(e);
        }
        for w in &self.writes {
            w.version.mark_committed(commit_ts);
        }
        // Redo logging, step 1 of the protocol in `ssi-wal`: park the
        // pre-encoded write set in the log's pending buffer *before* the
        // timestamp is deposited for publication, so whoever advances the
        // clock past `commit_ts` can rely on the record being present and
        // the log file staying timestamp-ordered.
        if let Some(durable) = &self.db.durable {
            durable
                .wal
                .submit_prepared(commit_ts, prepared.expect("prepared when logging"));
        }
        self.db.txns.publish_commit_ts(commit_ts);
        Ok(commit_ts)
    }

    /// Blocks until the log covers `ts` on the device: waits for the clock
    /// to cover it, so every record up to it is submitted, seals the
    /// ordered prefix and waits (in group-commit mode) for an fsync — its
    /// own, if elected to lead the flush, or a neighbour's. A failure (it
    /// poisoned the log) degrades the database, so later writers fail fast
    /// instead of piling onto it, and comes back as the error to report.
    /// A panic of a flush this caller leads (a `Vfs` unwound; the log has
    /// poisoned itself) is kept in
    /// `leader_panic` for the caller to resume once its bookkeeping is done.
    fn wait_durable(
        &self,
        durable: &DurableState,
        ts: Timestamp,
        leader_panic: &mut Option<Box<dyn Any + Send>>,
    ) -> Option<Error> {
        self.db.txns.wait_for_publication(ts);
        let result = catch_unwind(AssertUnwindSafe(|| {
            durable
                .wal
                .seal_upto(ts)
                .and_then(|()| durable.wal.wait_durable(ts))
        }))
        .unwrap_or_else(|panic| {
            *leader_panic = Some(panic);
            Err(ssi_wal::WalError::poisoned())
        });
        let e = result.err()?;
        Some(self.db.log_failure(format_args!("log up to ts {ts}"), e))
    }

    /// Settles the `Committing` window as committed, re-running the
    /// variant's cheap re-checks (see [`crate::ssi::finalize_commit`]).
    fn finalize_window(&self, is_ssi: bool) -> Result<()> {
        if is_ssi {
            ssi::finalize_commit(&self.db.options.ssi, &self.shared)
        } else {
            // Non-SSI windows have no re-check; only a doom, by an SSI
            // marker that picked this transaction as its victim, fails one.
            self.shared
                .finalize_commit(false)
                .map_err(|_| Error::abort_with_reason(AbortReason::DoomedByPeer, self.shared.id()))
        }
    }

    /// Adds this transaction's row and range SIREAD registrations to the
    /// engine-wide counters: once, at finish, so the read path shares no
    /// atomic.
    fn flush_siread_counts(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        let stats = self.db.txns.stats();
        if !self.siread_rows.is_empty() {
            let registered = self.siread_rows.len() as u64;
            stats
                .siread_row_registrations
                .fetch_add(registered, Relaxed);
        }
        if !self.ranges.is_empty() {
            let registered = self.ranges.len() as u64;
            stats
                .siread_range_registrations
                .fetch_add(registered, Relaxed);
        }
    }

    /// Releases every range this transaction registered.
    fn release_ranges(&mut self) {
        for range in self.ranges.drain(..) {
            range.release();
        }
    }

    /// Rolls the transaction back, undoing all of its writes.
    pub fn rollback(mut self) {
        self.abort_internal(AbortReason::UserRollback);
    }

    /// Internal rollback shared by [`Transaction::rollback`], failed
    /// operations and the `Drop` implementation. `reason` is the typed
    /// provenance recorded against the per-reason abort counters.
    pub(crate) fn abort_internal(&mut self, reason: AbortReason) {
        if self.state != LocalState::Active {
            return;
        }
        // Row SIREADs first: a chain this transaction's rolled-back insert
        // leaves empty can then be unmapped on the spot. Ranges go before
        // the locks, as at commit.
        self.flush_siread_counts();
        for row in std::mem::take(&mut self.siread_rows) {
            row.release_siread(self.shared.id());
        }
        self.release_ranges();
        for w in &self.writes {
            w.version.mark_aborted();
            w.table.unlink_version(&w.key, &w.version);
        }
        self.writes.clear();
        self.index_writes.clear();

        let locks = std::mem::take(&mut self.locks);
        for (key, modes) in locks {
            for mode in modes.iter() {
                self.db.locks.unlock(self.shared.id(), &key, mode);
            }
        }

        self.shared.mark_aborted();
        self.db
            .txns
            .finish_abort(&self.shared, reason, &self.db.locks);
        self.state = LocalState::Aborted;
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if self.state == LocalState::Active {
            self.abort_internal(AbortReason::UserRollback);
        }
    }
}

impl std::fmt::Debug for Transaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.shared.id())
            .field("isolation", &self.shared.isolation())
            .field("state", &self.state)
            .field("locks", &self.locks.len())
            .field("siread_rows", &self.siread_rows.len())
            .field("ranges", &self.ranges.len())
            .field("writes", &self.writes.len())
            .finish()
    }
}
