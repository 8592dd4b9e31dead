//! Transaction handles: lifecycle, commit and rollback.
//!
//! The data-access operations (`get`, `put`, `delete`, `scan`, …) live in
//! [`crate::access`]; this module owns the bookkeeping every operation needs
//! (held locks, write set, recorded reads) and the commit/rollback protocol
//! of Figs. 3.1 and 3.2.

use std::collections::HashMap;
use std::sync::Arc;

use ssi_common::{AbortReason, Error, IsolationLevel, Result, Timestamp, TxnId};
use ssi_lock::{FxBuildHasher, LockKey, LockMode, LockOutcome, ModeSet};
use ssi_storage::{RangeHandle, RowHandle, Table, Version};

use crate::db::DbInner;
use crate::manager::{CommitPhase, HeldSireads};
use crate::ssi;
use crate::txn_shared::{TxnShared, TxnStatus};
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
    pub(crate) key: Vec<u8>,
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
    /// granularity; see `ssi_storage::range`). Released with `siread_rows`;
    /// its length is the count flushed into
    /// `ManagerStats::siread_range_registrations` at finish.
    pub(crate) siread_ranges: Vec<RangeHandle>,
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
    /// Creators of provisionally stamped versions this transaction read
    /// speculatively. Every one of them must settle (commit) before this
    /// transaction may finalize its own commit; if any aborts, this
    /// transaction is doomed with it.
    pub(crate) speculative_deps: Vec<Arc<TxnShared>>,
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
            siread_ranges: Vec::new(),
            writes: Vec::new(),
            reads: Vec::new(),
            index_writes: Vec::new(),
            speculative_deps: Vec::new(),
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
            let reason = self.shared.doom_reason();
            self.abort_internal(reason);
            return Err(Error::abort_with_reason(reason, self.shared.id()));
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
    /// for a covering fsync under [`crate::Durability::GroupCommit`]), locks
    /// are released — except SIREADs, in the lock table, on the rows' chains
    /// or on a range list, which stay in place while the transaction is
    /// suspended (Sec. 3.3) — and eligible suspended transactions are cleaned
    /// up (Sec. 4.6.1).
    ///
    /// The commit pipeline (see [`crate::manager`]) is wait-free on the
    /// read side: a writer enters the `Committing` window (running its
    /// unsafe check), allocates its timestamp, stamps its write set
    /// *provisionally*, deposits the timestamp for ordered publication —
    /// and never waits for the snapshot clock to catch up. Readers who
    /// encounter a provisional version at or below their snapshot take it
    /// speculatively, registering a commit dependency on the writer; the
    /// writer settles those dependencies when it finalizes (or dooms the
    /// dependents if it aborts out of the window). A committer with
    /// speculative reads of its own must wait for *its* dependencies to
    /// settle before finalizing — see [`Transaction::wait_for_dependencies`].
    ///
    /// Durable mode opts out of speculation entirely: the WAL's seal order
    /// requires commits to become visible in timestamp order, so durable
    /// commits finalize before stamping and keep the ordered-publication
    /// wait on the commit path (never on the read path).
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
            let reason = self.shared.doom_reason();
            self.abort_internal(reason);
            return Err(Error::abort_with_reason(reason, self.shared.id()));
        }
        let is_ssi = self.shared.isolation() == IsolationLevel::SerializableSnapshotIsolation;
        let has_writes = !self.writes.is_empty();

        // Encode the redo record *ahead of* the commit point: the write-set
        // deep copies and buffer growth happen here, outside the ordered-
        // publication window, so a large write set never stalls the
        // publication of successor timestamps. Only the timestamp patch and
        // one CRC pass remain inside the window (submit below). Dropped
        // unused if the commit check fails.
        let mut prepared = match &self.db.durable {
            Some(_) if has_writes => Some(ssi_wal::PreparedCommit::from_parts(
                self.shared.id(),
                self.writes
                    .iter()
                    .map(|w| (w.table.id(), w.key.as_slice(), w.version.value())),
            )),
            _ => None,
        };

        // --- commit point ---------------------------------------------------
        // Commit-section latency (entry into the commit point through the
        // settled stamps; sampled, recorded for successful sections only).
        let section_t0 = self.db.metrics.commit_section.start();
        let commit_ts = if has_writes {
            // Writers open a `Committing` window: the unsafe check runs on
            // entry and the timestamp is allocated strictly *after* entry —
            // that ordering is what lets SSI checks bound a neighbour's
            // commit timestamp without waiting for publication.
            let entered = if is_ssi {
                ssi::begin_commit(&self.db.txns, &self.db.options.ssi, &self.shared)
            } else {
                // Non-SSI levels have no commit-time check; they share the
                // window so readers can resolve their provisional stamps.
                match self.shared.enter_committing(false) {
                    Ok(()) => {
                        let ts = self.db.txns.allocate_commit_ts();
                        self.shared.set_pending_commit_ts(ts);
                        Ok(ts)
                    }
                    Err(_) => Err(Error::unsafe_abort(self.shared.id())),
                }
            };
            match entered {
                Ok(ts) => ts,
                Err(e) => {
                    self.abort_internal(e.rollback_provenance());
                    return Err(e);
                }
            }
        } else {
            // No writes: nothing to stamp, so the commit is a single
            // settling step — but only after any speculative reads have
            // been confirmed, since a read-only answer derived from a
            // rolled-back version must not be returned as committed.
            if let Err(e) = self.wait_for_dependencies() {
                self.abort_internal(e.rollback_provenance());
                return Err(e);
            }
            let settled = if is_ssi {
                ssi::commit_read_only(&self.db.txns, &self.db.options.ssi, &self.shared)
            } else {
                // Read-only transactions do not advance the clock — their
                // "commit time" is the current instant, which is all the
                // overlap bookkeeping needs.
                let ts = self.db.txns.current_ts();
                self.shared.mark_committed(ts);
                Ok(ts)
            };
            match settled {
                Ok(ts) => ts,
                Err(e) => {
                    self.abort_internal(e.rollback_provenance());
                    return Err(e);
                }
            }
        };

        let mut durability_error = None;
        if has_writes {
            if self.db.durable.is_some() {
                // Durable mode: no speculation. The WAL requires commits to
                // become visible in timestamp order, so settle the outcome
                // *before* stamping — versions go straight from uncommitted
                // to committed, and a reader never sees a stampable window.
                // The timestamp was allocated but not yet deposited, so a
                // failure here must still deposit it — an allocated-but-
                // never-deposited timestamp would stall the publication
                // chain for every successor.
                let settled = self
                    .wait_for_dependencies()
                    .and_then(|()| self.finalize_window(is_ssi));
                if let Err(e) = settled {
                    self.db.txns.publish_commit_ts(commit_ts);
                    self.abort_internal(e.rollback_provenance());
                    return Err(e);
                }
                // Redo logging, step 1 of the protocol in `ssi-wal`: park
                // the pre-encoded write set in the log's pending buffer
                // *before* the timestamp is deposited for publication, so
                // whoever advances the clock past `commit_ts` can rely on
                // the record being present and the log file staying
                // timestamp-ordered.
                if let Some(durable) = &self.db.durable {
                    durable
                        .wal
                        .submit_prepared(commit_ts, prepared.take().expect("prepared above"));
                }
                for w in &self.writes {
                    w.version.mark_committed(commit_ts);
                }
                self.db.txns.publish_commit_ts(commit_ts);
            } else {
                // Speculative pipeline: stamp provisionally, deposit the
                // timestamp (never waiting for publication), then settle.
                for w in &self.writes {
                    w.version.mark_provisional(commit_ts);
                }
                self.db
                    .txns
                    .fire_commit_pause(self.shared.id(), CommitPhase::PreDeposit);
                self.db.txns.publish_commit_ts(commit_ts);
                self.db
                    .txns
                    .fire_commit_pause(self.shared.id(), CommitPhase::PreFinalize);
                if let Err(e) = self.wait_for_dependencies() {
                    self.abort_internal(e.rollback_provenance());
                    return Err(e);
                }
                if let Err(e) = self.finalize_window(is_ssi) {
                    self.abort_internal(e.rollback_provenance());
                    return Err(e);
                }
                // Settle the stamps: plain committed timestamps that decode
                // without the creator-word lookup.
                for w in &self.writes {
                    w.version.mark_committed(commit_ts);
                }
            }
            // The word is settled (`Committed`), so dependents who re-check
            // see the commit; anyone registered before the flip is drained
            // here and simply dropped — registration was their guarantee of
            // learning the outcome, and the outcome is now readable.
            drop(self.shared.take_dependents());
        }
        self.db.metrics.commit_section.finish(section_t0);

        // --- durability (real log: seal + group-commit fsync) ---------------
        // Sealing appends the ordered prefix, so first make sure the clock
        // covers `commit_ts` (deposit alone no longer guarantees it);
        // `wait_durable` then blocks (in GroupCommit mode) until an fsync —
        // ours or a neighbour's — covers our timestamp. An I/O failure here
        // is remembered and returned after the in-memory bookkeeping
        // completes: the transaction *is* committed in memory, only its
        // persistence is uncertain (see `Error::Durability`).
        if has_writes {
            if let Some(durable) = &self.db.durable {
                self.db.txns.wait_for_publication(commit_ts);
                let result = durable
                    .wal
                    .seal_upto(commit_ts)
                    .and_then(|()| durable.wal.wait_durable(commit_ts));
                if let Err(e) = result {
                    // A lost durability promise degrades the database:
                    // later writers fail fast instead of piling onto a
                    // poisoned log. This committer still reports the
                    // classic durability error — its commit *is* applied
                    // in memory, only persistence is uncertain.
                    if durable.wal.is_poisoned() {
                        self.db.degrade_from_wal();
                    }
                    durability_error = Some(Error::Durability(format!("commit {commit_ts}: {e}")));
                }
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
                        key: w.key.clone(),
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
        // now.
        let id = self.shared.id();
        let mut sireads = HeldSireads::default();
        for (key, modes) in std::mem::take(&mut self.locks) {
            for mode in modes.iter().filter(|mode| *mode != LockMode::SiRead) {
                self.db.locks.unlock(id, &key, mode);
            }
            if modes.contains(LockMode::SiRead) {
                sireads.locks.push(key);
            }
        }
        self.flush_siread_counts();
        sireads.live_rows = self.siread_rows.len() - self.siread_rows_upgraded;
        let rows = std::mem::take(&mut self.siread_rows);
        if sireads.live_rows > 0 {
            sireads.rows = rows;
        }
        sireads.ranges = std::mem::take(&mut self.siread_ranges);
        debug_assert!(is_ssi || sireads.is_empty());
        let (_, out_conflict) = self.shared.conflict_flags();
        let suspend = is_ssi && (!sireads.is_empty() || out_conflict);

        // The epilogue (Sec. 4.6.1, eager cleanup): suspend or reclaim this
        // transaction and reclaim whatever its departure made reclaimable.
        self.db
            .txns
            .finish_commit(&self.shared, sireads, suspend, &self.db.locks);

        self.writes.clear();
        self.state = LocalState::Committed;
        if has_writes {
            // Background maintenance piggybacked on write commits, after the
            // commit is fully visible: version GC on its commit cadence and
            // checkpoints on log growth. Both are single-flight try-locks —
            // a committer either runs one pass or skips, never queues.
            self.db.maybe_auto_purge();
            self.db.maybe_auto_checkpoint();
        }
        match durability_error {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Settles the `Committing` window as committed, re-running the
    /// variant's cheap re-checks (see [`crate::ssi::finalize_commit`]).
    fn finalize_window(&self, is_ssi: bool) -> Result<()> {
        if is_ssi {
            ssi::finalize_commit(&self.db.options.ssi, &self.shared)
        } else {
            // Non-SSI windows only fail if a dependency cascade doomed us
            // mid-window (a creator we read speculatively rolled back).
            self.shared
                .finalize_commit(false)
                .map_err(|_| Error::abort_with_reason(self.shared.doom_reason(), self.shared.id()))
        }
    }

    /// Blocks until every commit dependency (creator of a speculatively
    /// read version) settles. Returns an error if any of them aborted — the
    /// speculative read was of data that never committed — or if this
    /// transaction was doomed while waiting.
    ///
    /// Dependencies always point at transactions that entered their commit
    /// window *before* this one took the speculative read, so the wait
    /// graph is acyclic and the earliest unsettled window can always make
    /// progress. The spin budget is the manager's shared one (zero on
    /// single-core hosts).
    fn wait_for_dependencies(&self) -> Result<()> {
        if self.speculative_deps.is_empty() {
            return Ok(());
        }
        let spin_limit = self.db.txns.spin_limit();
        for dep in &self.speculative_deps {
            let mut spins = 0u32;
            loop {
                match dep.status() {
                    TxnStatus::Committed => break,
                    TxnStatus::Aborted => {
                        return Err(Error::abort_with_reason(
                            AbortReason::DependencyCascade,
                            self.shared.id(),
                        ));
                    }
                    TxnStatus::Active | TxnStatus::Committing => {
                        if self.shared.is_doomed() {
                            return Err(Error::abort_with_reason(
                                self.shared.doom_reason(),
                                self.shared.id(),
                            ));
                        }
                        if spins < spin_limit {
                            spins += 1;
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
            }
        }
        Ok(())
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
        if !self.siread_ranges.is_empty() {
            let registered = self.siread_ranges.len() as u64;
            stats
                .siread_range_registrations
                .fetch_add(registered, Relaxed);
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
        // leaves empty can then be unmapped on the spot.
        self.flush_siread_counts();
        for row in std::mem::take(&mut self.siread_rows) {
            row.release_siread(self.shared.id());
        }
        for range in std::mem::take(&mut self.siread_ranges) {
            range.release();
        }
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
        // Dependency cascade: anyone who speculatively read one of the
        // versions just unlinked must not commit. The word is already
        // `Aborted` (stored before this drain), so late registrants learn
        // the outcome from `register_commit_dependent` itself; everyone who
        // registered earlier is doomed here.
        let dependents = self.shared.take_dependents();
        if !dependents.is_empty() {
            let stats = self.db.txns.stats();
            for dep in dependents {
                dep.set_doom_reason(AbortReason::DependencyCascade);
                dep.doom();
                stats
                    .dependency_cascade_aborts
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
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
            .field("siread_ranges", &self.siread_ranges.len())
            .field("writes", &self.writes.len())
            .finish()
    }
}
