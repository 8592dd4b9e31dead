//! Data-access operations of a [`Transaction`]: point reads, writes,
//! deletes, locking reads and predicate (range) scans, dispatched on the
//! transaction's isolation level.
//!
//! The Serializable SI paths follow Figs. 3.4–3.7 of the thesis:
//!
//! * `get` takes the row's SIREAD, performs the ordinary snapshot read, and
//!   registers a conflict with every writer either reveals: the creator of
//!   every newer version it skipped and, where the SIREAD is a lock, any
//!   EXCLUSIVE holder;
//! * `put`/`delete` take the EXCLUSIVE lock, apply first-committer-wins and
//!   register conflicts with the SIREAD holders that overlap the writer: the
//!   row's readers and the scans whose range contains the key (phantom
//!   handling, Sec. 3.5);
//! * `scan` is a predicate read. At row granularity its SIREAD is the
//!   predicate itself: the scan registers its bounds with the table before it
//!   lists the first page, and then reads every row exactly as a
//!   snapshot-isolation scan does, marking a conflict with the creator of
//!   every newer version it skipped. A later insert into, update of or delete
//!   from the range finds the registration when it installs its version (see
//!   "Why scans stay consistent" in `ssi_storage::table`). It works a page at
//!   a time: the storage cursor lists the page's keys without reading them,
//!   and each row is then read exactly once.
//!
//! ## Phantoms at every level: one range per scan
//!
//! S2PL protects its scans against phantoms with the same registration, in
//! the blocking `Shared` mode (`ssi_storage::range`): the scan registers its
//! bounds before it lists, then reads each listed row under a SHARED record
//! lock. A key that holds a version is on one of the scan's pages, so its
//! writer and the scanner meet on the row's record lock. A key that holds
//! none — new to the table, or left mapped without a version by a rolled-back
//! insert somebody read, which the scan skips without a lock — is *linked* by
//! its next install, whose critical section reports the `Shared` ranges that
//! contain it; the writer — at any level, RC and SI included — then undoes
//! the install as a rollback would (the version is marked aborted and
//! unlinked) and waits for each holder *through the lock manager*, outside
//! every storage lock, before it installs again. It never waits with a
//! version in the chain, so a scanner that lists its range again meanwhile
//! skips the key and cannot deadlock against it. The holder's name is a
//! per-transaction lock target an S2PL transaction holds EXCLUSIVE from
//! before its first range until it commits or aborts
//! ([`LockKey::transaction`]); the writer requests it SHARED and lets go at
//! once, so the wait is in the wait-for graph, deadlock detection and the
//! timeout like any other. Updates and deletes of keys that hold a version
//! never wait on a range. An index scan and a fresh index entry do the same
//! in entry space.
//!
//! This is a predicate lock (Eswaran et al., CACM 1976) where the InnoDB
//! prototype had next-key locks, and it blocks differently:
//!
//! * it covers the whole range from the scan's start until its holder
//!   finishes, where a next-key lock covered only what the scan had passed;
//! * it stops at the scan's bounds, where a next-key lock reached the
//!   neighbouring key, so an insert just past the range no longer waits;
//! * a link racing the listing of the same key can end in a detected,
//!   retryable `lock-deadlock` — the scanner waits for the key's EXCLUSIVE
//!   lock, the writer for the scanner — which is the only new deadlock;
//! * a scan that registers while an insert waits is not queued behind it:
//!   the insert's next attempt finds it and waits again, so an unbroken
//!   stream of overlapping scans holds the insert back for as long as it
//!   lasts, where a gap lock request queued the insert ahead of later scans;
//! * at page granularity nothing changes: page locks cover rows and gaps
//!   alike, and nothing registers a range.
//!
//! ## Where an SIREAD lives
//!
//! An SIREAD never blocks and is never waited for; it only has to be found
//! by the next writer of what it covers. So it is kept wherever that writer
//! already looks:
//!
//! * **a row, at row granularity: on the row's version chain.** A point read
//!   registers the transaction there in the critical section that reads the
//!   version, and the install of the row's next version is handed everyone
//!   registered (`ssi_storage::table`, § SIREAD on the row). Such a read
//!   builds no lock name, visits no lock table and adds nothing to
//!   `Transaction::locks`; the transaction keeps one storage handle per new
//!   registration (`Transaction::siread_rows`), and the handles travel with
//!   the suspended transaction until `TransactionManager` releases them;
//! * **a range, at row granularity: on the table, or on the secondary
//!   index, that was scanned.** One registration per scan — bounds and
//!   holder — made before the scan lists anything, whatever it then lists;
//!   every install of a version compares its key with the live ranges of its
//!   table, and every entry it adds to an index with the live ranges of that
//!   index, in the critical section that makes the version or the entry
//!   reachable (`ssi_storage::range`). A key or an entry that appears later
//!   is covered by lying in the range, so there is nothing to hand on when a
//!   gap is split and nothing to sweep for after the scan. The transaction
//!   keeps one handle per registration (`Transaction::ranges`), released
//!   with the row handles. A writer still takes the row's EXCLUSIVE lock in
//!   the lock table (it is what blocks the next writer), and passes the
//!   chain's holders, the range holders and whatever the lock table reported
//!   to `mark_write_conflicts`;
//! * **the rest: in the lock table**, by the lock-then-read protocol. That
//!   is a page (page granularity has many rows under one name, so neither a
//!   chain nor a range of keys can stand for it), and a row whose key has no
//!   chain yet — a `get` of a missing key, which the key's first insert meets
//!   through its EXCLUSIVE request.
//!
//! One narrowing against the lock table: a chain or a range list shows a
//! reader the writers that have *installed*, not a transaction that merely
//! holds the EXCLUSIVE lock (`get_for_update`, or a `put` between its lock
//! grant and its install). No conflict is lost by that. If the holder goes on
//! to write the row, its install finds the reader and records the same edge;
//! if it never does, the row did not change and the reader missed nothing.
//!
//! ## Secondary-index protocol
//!
//! Index predicates move the Sec. 3.5 phantom machinery into *entry
//! space*: `(index id, encoded entry)` instead of `(table id, row key)`,
//! but the protocol shape is identical.
//!
//! * **Writes** (`index_maintenance`, run before the version is
//!   installed): unique indexes serialize the claims of one index key — a
//!   write whose extracted key *changes* (insert or rename, never a same-key
//!   overwrite) — under an EXCLUSIVE *marker* lock on `(index id, index
//!   key)` and check the latest committed state under it: a duplicate claim
//!   aborts with the typed [`AbortReason::UniqueViolation`] at every
//!   isolation level, because a constraint, unlike serializability, cannot
//!   be traded away. Index scans are found later, by the install: adding the
//!   entry reports the holders of the SIREAD ranges that contain it and,
//!   when the entry is new to the index, of the `Shared` ones, which the
//!   writer waits for as it does for a table's (`ssi_storage::index`,
//!   § Range registrations in entry space).
//! * **Reads** (`do_index_scan`): at Serializable SI and at S2PL the scan
//!   registers its entry range with the index first, then lists the entries
//!   and reads each claiming row with the level's row protocol — at
//!   Serializable SI a point SIREAD on the row's chain, so a rename away or
//!   a delete is found there, at S2PL a SHARED record lock — and
//!   re-extracts from the row's *current* value to filter entries staled by
//!   renames and deletes (stale entries linger until GC).
//! * **History**: index reads and writes are recorded under the index's id
//!   (reads only for entries that pass the filter; absences as gap
//!   records), so the MVSG verifier checks index predicates like any other
//!   item — see `verify.rs`.

use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ssi_common::{AbortReason, Bytes, Error, IsolationLevel, Result, Timestamp, TxnId};
use ssi_lock::{LockKey, LockMode, ModeSet};
use ssi_storage::{
    as_ref_bound, clone_bound, decode_entry, encode_entry, entry_range, Index, RangeHandle,
    RangeMode, Siread, VisibleRead,
};

use crate::db::{IndexRef, TableRef};
use crate::options::LockGranularity;
use crate::ssi::{self, CallerRole};
use crate::txn::{Transaction, WriteRecord};
use crate::verify::{ReadRecord, WriteRecordEntry};

impl Transaction {
    // ------------------------------------------------------------------
    // Public operations
    // ------------------------------------------------------------------

    /// Reads the value of `key`, or `None` if it does not exist (for this
    /// transaction's snapshot / isolation level). The value is a refcounted
    /// handle to the stored version's payload — the snapshot read path
    /// performs no byte copy.
    pub fn get(&mut self, table: &TableRef, key: &[u8]) -> Result<Option<Bytes>> {
        let t0 = self.db.metrics.read.start();
        let result = self.run_op(|txn| txn.do_get(table, key));
        self.db.metrics.read.finish(t0);
        result
    }

    /// Reads `key` with the intention to update it: the EXCLUSIVE lock is
    /// acquired *before* the value is read, and the latest committed value
    /// is returned (the behaviour of `SELECT … FOR UPDATE` in the InnoDB
    /// prototype, Sec. 4.5). Under SI/SSI the first-committer-wins check is
    /// applied exactly as for a write.
    pub fn get_for_update(&mut self, table: &TableRef, key: &[u8]) -> Result<Option<Bytes>> {
        self.run_op(|txn| txn.do_get_for_update(table, key))
    }

    /// Writes `value` for `key` (insert or update).
    pub fn put(&mut self, table: &TableRef, key: &[u8], value: &[u8]) -> Result<()> {
        // The one copy of the payload: the version stores this handle.
        let value = Bytes::from(value);
        self.run_op(|txn| txn.do_write(table, key, Some(value)))
    }

    /// Deletes `key` (installs a tombstone version).
    pub fn delete(&mut self, table: &TableRef, key: &[u8]) -> Result<()> {
        self.run_op(|txn| txn.do_write(table, key, None))
    }

    /// Range scan over `[lower, upper]` bounds, returning visible rows in
    /// key order.
    pub fn scan(
        &mut self,
        table: &TableRef,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Bytes)>> {
        let table = table.clone();
        let lower: Bound<Vec<u8>> = clone_bound(lower);
        let upper: Bound<Vec<u8>> = clone_bound(upper);
        let t0 = self.db.metrics.scan.start();
        let result =
            self.run_op(move |txn| txn.do_scan(&table, as_ref_bound(&lower), as_ref_bound(&upper)));
        self.db.metrics.scan.finish(t0);
        result
    }

    /// Range scan over a secondary index: returns `(primary key, row
    /// value)` pairs for every visible row whose extracted index key lies
    /// within the given bounds (which are *raw index keys*, not entry
    /// bytes), ordered by `(index key, primary key)`.
    ///
    /// Resident entries whose visible row version no longer extracts to
    /// them (stale until version GC reclaims the shadowed version) are
    /// filtered out by re-extraction; under SSI their *row* read is still
    /// recorded and SIREAD-locked, so a later rewrite of the row conflicts
    /// with this scan exactly as a newer version would.
    pub fn index_scan(
        &mut self,
        index: &IndexRef,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Bytes)>> {
        let index = index.clone();
        let lower: Bound<Vec<u8>> = clone_bound(lower);
        let upper: Bound<Vec<u8>> = clone_bound(upper);
        let t0 = self.db.metrics.scan.start();
        let result = self.run_op(move |txn| {
            txn.do_index_scan(&index, as_ref_bound(&lower), as_ref_bound(&upper))
        });
        self.db.metrics.scan.finish(t0);
        result
    }

    /// [`Transaction::index_scan`] over exactly one index key: every
    /// visible row whose extracted key equals `index_key`, in primary-key
    /// order.
    pub fn index_lookup(
        &mut self,
        index: &IndexRef,
        index_key: &[u8],
    ) -> Result<Vec<(Vec<u8>, Bytes)>> {
        self.index_scan(
            index,
            Bound::Included(index_key),
            Bound::Included(index_key),
        )
    }

    /// Scans all keys starting with `prefix`.
    pub fn scan_prefix(
        &mut self,
        table: &TableRef,
        prefix: &[u8],
    ) -> Result<Vec<(Vec<u8>, Bytes)>> {
        match prefix_upper_bound(prefix) {
            Some(upper) => self.scan(
                table,
                Bound::Included(prefix),
                Bound::Excluded(upper.as_slice()),
            ),
            None => self.scan(table, Bound::Included(prefix), Bound::Unbounded),
        }
    }

    // ------------------------------------------------------------------
    // Lock-name helpers
    // ------------------------------------------------------------------

    /// Lock name of a row: its record, or its page at page granularity.
    /// Accepts a borrowed key or an `Arc<[u8]>` the lock can share.
    fn lock_target(&self, table: &TableRef, key: impl AsRef<[u8]> + Into<Arc<[u8]>>) -> LockKey {
        match &self.db.pages {
            Some(pages) => LockKey::page(table.id(), pages.page_of(key.as_ref())),
            None => LockKey::record(table.id(), key),
        }
    }

    fn row_granularity(&self) -> bool {
        matches!(self.db.options.granularity, LockGranularity::Row)
    }

    // ------------------------------------------------------------------
    // Conflict-marking helpers (Serializable SI)
    // ------------------------------------------------------------------

    /// Marks `self --rw--> writer` for every transaction in `writers`
    /// (this transaction is the reader).
    fn mark_read_conflicts(&self, writers: &[TxnId]) -> Result<()> {
        for w in writers {
            if *w == self.shared.id() {
                continue;
            }
            match self.db.txns.find(*w) {
                Some(writer) => ssi::mark_conflict(
                    &self.db.txns,
                    &self.db.options.ssi,
                    &self.shared,
                    &writer,
                    CallerRole::Reader,
                )?,
                // The creator committed without SIREAD locks or outgoing
                // conflicts and has already been retired (a pure update).
                // Its own flags are irrelevant now, but this reader's
                // outgoing conflict must still be recorded — the reader may
                // be the pivot of a dangerous structure whose outgoing
                // transaction is exactly such a pure writer.
                None => ssi::mark_conflict_with_retired_writer(
                    &self.db.txns,
                    &self.db.options.ssi,
                    &self.shared,
                )?,
            }
        }
        Ok(())
    }

    /// Marks `reader --rw--> self` for every SIREAD holder in `readers`
    /// (this transaction is the writer). Only readers that overlap this
    /// transaction count (Fig. 3.5: "has not committed or committed after
    /// this transaction began").
    fn mark_write_conflicts<'r>(&self, readers: impl IntoIterator<Item = &'r TxnId>) -> Result<()> {
        let my_begin = self.shared.begin_ts().unwrap_or(Timestamp::MAX);
        for r in readers {
            if *r == self.shared.id() {
                continue;
            }
            if let Some(reader) = self.db.txns.find(*r) {
                let overlaps = match reader.commit_ts() {
                    None => true,
                    Some(commit) => commit > my_begin,
                };
                if overlaps {
                    ssi::mark_conflict(
                        &self.db.txns,
                        &self.db.options.ssi,
                        &reader,
                        &self.shared,
                        CallerRole::Writer,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Takes SIREAD on the pages of a predicate read's rows (page
    /// granularity) in one lock-table pass (never blocks; see
    /// [`ssi_lock::LockManager::lock_siread_batch`]), moves the newly
    /// acquired keys into the lock set and registers the conflicts with the
    /// EXCLUSIVE holders found (Fig. 3.4's lock step, applied to a batch).
    fn acquire_sireads(&mut self, keys: Vec<LockKey>) -> Result<()> {
        let batch = self.db.locks.lock_siread_batch(self.shared.id(), &keys);
        self.locks.reserve(keys.len());
        for (key, newly_acquired) in keys.into_iter().zip(batch.newly_acquired) {
            if newly_acquired {
                self.locks
                    .entry(key)
                    .or_insert(ModeSet::EMPTY)
                    .insert(LockMode::SiRead);
            }
        }
        self.mark_read_conflicts(&batch.rw_conflicts)
    }

    /// Records a read for the history verifier, and whether the transaction
    /// had written the key before it. Callers skip reads satisfied by the
    /// transaction's own uncommitted write: they impose no ordering
    /// constraints between transactions and would otherwise be
    /// indistinguishable from reads of a non-existent key.
    fn record_read(&mut self, table: &TableRef, key: &[u8], version_ts: Option<Timestamp>) {
        if self.db.history.is_some() {
            let mut own = self.writes.iter();
            let after_own_write = own.any(|w| w.table.id() == table.id() && w.key == key);
            self.reads.push(ReadRecord {
                table: table.id(),
                key: key.to_vec(),
                version_ts,
                after_own_write,
            });
        }
    }

    /// Raises [`Transaction::read_upto`] to what a read returned: the
    /// version's commit timestamp or, for an absence (and for a scan's
    /// range, `None`), the snapshot — the clock at a level without one.
    fn note_read(&mut self, version_ts: Option<Timestamp>) {
        let ts = version_ts.unwrap_or_else(|| {
            self.shared
                .begin_ts()
                .unwrap_or_else(|| self.db.txns.current_ts())
        });
        self.read_upto = self.read_upto.max(ts);
    }

    // ------------------------------------------------------------------
    // The Serializable-SI row read
    // ------------------------------------------------------------------

    /// The Serializable-SI read of one row (Fig. 3.4): an SIREAD on the row,
    /// the snapshot read, and a conflict with every writer either reveals.
    ///
    /// At row granularity the SIREAD is a registration on the row's version
    /// chain, made in the critical section that reads it, so the one visit
    /// sees every version installed before it and is seen by every install
    /// after it. A writer that holds the EXCLUSIVE lock but has installed
    /// nothing yet is not visible there, and need not be: its install will
    /// find the registration.
    ///
    /// A key with no chain has nothing to register on; that read, and every
    /// read at page granularity, takes the lock table's two steps
    /// ([`Transaction::ssi_read_locked`]).
    fn ssi_read(
        &mut self,
        table: &TableRef,
        key: &[u8],
        snapshot: Timestamp,
    ) -> Result<VisibleRead> {
        if !self.row_granularity() {
            return self.ssi_read_locked(table, key, snapshot);
        }
        let id = self.shared.id();
        let (read, siread) = table.table.read_registering(key, id, snapshot);
        match siread {
            Siread::New(row) => self.siread_rows.push(row),
            Siread::Held => {}
            Siread::NoChain => return self.ssi_read_locked(table, key, snapshot),
        }
        self.mark_read_conflicts(&read.newer_creators)?;
        Ok(read)
    }

    /// The lock-table form of the row read, in the paper's order: the SIREAD
    /// lock (never blocks) and a conflict with any EXCLUSIVE holder, then the
    /// read. A writer either requests its EXCLUSIVE lock after the SIREAD is
    /// in the lock table (and finds it), still holds it now (and is found),
    /// or released it before — and then its version is in the chain the read
    /// is about to visit.
    fn ssi_read_locked(
        &mut self,
        table: &TableRef,
        key: &[u8],
        snapshot: Timestamp,
    ) -> Result<VisibleRead> {
        let lock = self.lock_target(table, key);
        let outcome = self.acquire(lock, LockMode::SiRead)?;
        self.mark_read_conflicts(&outcome.rw_conflicts)?;
        let read = table.table.read(key, self.shared.id(), snapshot);
        self.mark_read_conflicts(&read.newer_creators)?;
        Ok(read)
    }

    // ------------------------------------------------------------------
    // Point reads
    // ------------------------------------------------------------------

    fn do_get(&mut self, table: &TableRef, key: &[u8]) -> Result<Option<Bytes>> {
        match self.shared.isolation() {
            IsolationLevel::ReadCommitted => {
                let read = table.table.read_latest(key, self.shared.id());
                self.note_read(read.read_version_ts);
                Ok(read.value)
            }
            IsolationLevel::StrictTwoPhaseLocking => {
                let lock = self.lock_target(table, key);
                self.acquire(lock, LockMode::Shared)?;
                Ok(self.locked_read(table, key))
            }
            IsolationLevel::SnapshotIsolation => {
                let snapshot = self.db.txns.ensure_snapshot(&self.shared);
                let read = table.table.read(key, self.shared.id(), snapshot);
                self.note_read(read.read_version_ts);
                if !read.read_own_write {
                    self.record_read(table, key, read.read_version_ts);
                }
                Ok(read.value)
            }
            IsolationLevel::SerializableSnapshotIsolation => {
                let snapshot = self.db.txns.ensure_snapshot(&self.shared);
                let read = self.ssi_read(table, key, snapshot)?;
                self.note_read(read.read_version_ts);
                if !read.read_own_write {
                    self.record_read(table, key, read.read_version_ts);
                }
                Ok(read.value)
            }
        }
    }

    fn do_get_for_update(&mut self, table: &TableRef, key: &[u8]) -> Result<Option<Bytes>> {
        let id = self.shared.id();
        let isolation = self.shared.isolation();
        let lock = self.lock_target(table, key);
        let outcome = self.acquire(lock, LockMode::Exclusive)?;
        if isolation.uses_snapshot() {
            // Snapshot selection is deferred until after the lock is granted
            // (Sec. 4.5), so a transaction whose first statement is a
            // locking read never hits first-committer-wins.
            let snapshot = self.db.txns.ensure_snapshot(&self.shared);
            // Under the EXCLUSIVE lock nobody else can commit a version of
            // the key, so the timestamp probed for first-committer-wins is
            // also that of the value read below. The same chain visit
            // collects the row's registered readers (and drops this
            // transaction's own registration, Sec. 3.7.3). A reader that
            // registers later is found by the install if this transaction
            // goes on to write the row; if it never does, the row did not
            // change and the reader missed nothing.
            let found = table.table.probe_for_update(key, id);
            let newest = found.probe.newest_committed_ts;
            if newest.is_some_and(|newest| newest > snapshot) {
                return Err(Error::update_conflict(id));
            }
            if isolation == IsolationLevel::SerializableSnapshotIsolation {
                self.siread_rows_upgraded += usize::from(found.upgraded);
                self.mark_write_conflicts(outcome.rw_conflicts.iter().chain(&found.readers))?;
            }
        }
        Ok(self.locked_read(table, key))
    }

    /// The read of a row under a lock the caller holds (S2PL, and every
    /// level's locking read): the latest committed value or this
    /// transaction's own write, recorded unless it is the latter.
    fn locked_read(&mut self, table: &TableRef, key: &[u8]) -> Option<Bytes> {
        let read = table.table.read_latest(key, self.shared.id());
        self.note_read(read.read_version_ts);
        if !read.read_own_write {
            self.record_read(table, key, read.read_version_ts);
        }
        read.value
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    fn do_write(&mut self, table: &TableRef, key: &[u8], value: Option<Bytes>) -> Result<()> {
        // Degraded (read-only) or closed: fail fast with the typed error
        // before taking any lock, instead of letting the commit discover a
        // poisoned log later. Reads stay untouched — the in-memory version
        // store is complete and consistent.
        if let Some(err) = self.db.health.write_block_error() {
            return Err(err);
        }
        let id = self.shared.id();
        let isolation = self.shared.isolation();

        // Every isolation level locks writes exclusively; under SI/SSI this
        // is what implements first-updater-wins (Sec. 2.5).
        let lock = self.lock_target(table, key);
        let outcome = self.acquire(lock, LockMode::Exclusive)?;

        // First-committer-wins, from one visit of the chain. The lock is
        // held, so the answer cannot change before the install.
        if isolation.uses_snapshot() {
            // Snapshot chosen only after the first lock is granted
            // (Sec. 4.5).
            let snapshot = self.db.txns.ensure_snapshot(&self.shared);
            let newest = table.table.write_probe(key).newest_committed_ts;
            if newest.is_some_and(|newest| newest > snapshot) {
                return Err(Error::update_conflict(id));
            }
        }

        // Secondary-index side of the write: unique enforcement under the
        // index-point marker lock and the verifier's index-space write
        // records. Must run *before* the version is installed so the
        // shadowed state is still readable.
        self.index_maintenance(table, key, value.as_deref())?;

        // A long chain is pruned on the way in, at the horizon the purge
        // pass would use; the horizon is only read if the chain is long. The
        // critical section that makes the version reachable also hands over
        // the holders it concerns — the row's point readers, the holders of
        // the SIREAD ranges that contain the key or an index entry the
        // version adds, and those of the `Shared` ranges it links a key or
        // an entry into — and drops this transaction's own registration on
        // the row (the Sec. 3.7.3 upgrade: sound because locking and
        // versioning granularity match on a chain, so first-committer-wins
        // covers any later writer of the row).
        let txns = &self.db.txns;
        let mut value = value;
        let mut upgraded = false;
        let installed = loop {
            let installed = table.table.install(key, id, value, || txns.gc_horizon());
            if installed.pruned > 0 {
                txns.stats()
                    .pruned_inline_versions
                    .fetch_add(installed.pruned as u64, Ordering::Relaxed);
            }
            upgraded |= installed.upgraded;
            if installed.blocked_by.is_empty() {
                break installed;
            }
            // A phantom of an S2PL scan (module docs, § Phantoms at every
            // level): undo the install as a rollback would, wait for every
            // holder with nothing of this write in storage — a SHARED request
            // on the name it holds EXCLUSIVE until it finishes, let go once
            // granted — and install again.
            value = installed.version.value_handle();
            installed.version.mark_aborted();
            table.table.unlink_version(key, &installed.version);
            for holder in &installed.blocked_by {
                let name = LockKey::transaction(*holder);
                self.db.locks.lock(id, &name, LockMode::Shared)?;
                self.db.locks.unlock(id, &name, LockMode::Shared);
            }
        };
        self.writes.push(WriteRecord {
            table: Arc::clone(&table.table),
            key: key.to_vec(),
            version: installed.version,
        });
        if isolation == IsolationLevel::SerializableSnapshotIsolation {
            // Fig. 3.5: conflict with every overlapping SIREAD holder —
            // those the lock table reported with the EXCLUSIVE grant (pages;
            // readers that found no chain for the key), those registered on
            // the chain, and those whose scan covers the key.
            self.siread_rows_upgraded += usize::from(upgraded);
            let readers = installed.readers.iter().chain(&installed.range_readers);
            self.mark_write_conflicts(outcome.rw_conflicts.iter().chain(readers))?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Secondary-index maintenance (writer side)
    // ------------------------------------------------------------------

    /// The index-side protocol of one row write, run before the version is
    /// installed (see the `ssi_storage::index` module docs for the entry
    /// lifecycle; storage maintains the entries themselves at version
    /// install/unlink/purge):
    ///
    /// * a write claiming a *fresh* index key under a unique index takes an
    ///   EXCLUSIVE lock on the `(index id, index key)` point — the marker
    ///   every claimant of that key serializes through, at every isolation
    ///   level — and then checks for a surviving other claimant, aborting
    ///   with [`AbortReason::UniqueViolation`] if one exists. Blocking on
    ///   the marker is what makes two racing inserts deterministic: the
    ///   loser waits out the winner's commit and then sees its claim;
    /// * with history recording on, the write is mirrored into index space
    ///   for the MVSG verifier: the new entry as a write, the shadowed old
    ///   entry (key changed or row deleted) as a tombstone write.
    fn index_maintenance(
        &mut self,
        table: &TableRef,
        key: &[u8],
        value: Option<&[u8]>,
    ) -> Result<()> {
        let indexes = table.table.indexes();
        if indexes.is_empty() {
            return Ok(());
        }
        let isolation = self.shared.isolation();
        // The state this write shadows: the latest committed value, or this
        // transaction's own latest pending write of the key.
        let old_value = table.table.read_latest(key, self.shared.id()).value;
        for index in &indexes {
            let old_ik = old_value
                .as_ref()
                .and_then(|v| index.spec().extract(key, v));
            let new_ik = value.and_then(|v| index.spec().extract(key, v));
            let fresh_claim = new_ik.as_deref().filter(|_| new_ik != old_ik);
            if let (true, Some(ik)) = (index.unique(), fresh_claim) {
                let marker = LockKey::record(index.id(), ik);
                let outcome = self.acquire(marker, LockMode::Exclusive)?;
                if isolation == IsolationLevel::SerializableSnapshotIsolation {
                    self.mark_write_conflicts(&outcome.rw_conflicts)?;
                }
                self.check_unique(table, index, key, ik)?;
            }
            if self.db.history.is_some() {
                if let Some(ik) = &new_ik {
                    self.index_writes.push(WriteRecordEntry {
                        table: index.id(),
                        key: encode_entry(ik, key),
                        tombstone: false,
                    });
                }
                if let Some(ik) = &old_ik {
                    if old_ik != new_ik {
                        self.index_writes.push(WriteRecordEntry {
                            table: index.id(),
                            key: encode_entry(ik, key),
                            tombstone: true,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Unique-constraint check, under the held marker lock: any *other*
    /// primary key whose latest committed (or this transaction's own
    /// pending) row still extracts to `ik` makes this write a duplicate.
    /// Claims are serialized by the marker, so every resident claimant's
    /// outcome is settled when this runs — a resident entry either belongs
    /// to a committed claim (violation) or to an aborted/superseded version
    /// whose row no longer extracts to `ik` (stale, ignored).
    fn check_unique(
        &mut self,
        table: &TableRef,
        index: &Arc<Index>,
        pk: &[u8],
        ik: &[u8],
    ) -> Result<()> {
        let (lo, hi) = entry_range(Bound::Included(ik), Bound::Included(ik));
        for entry in index.entries_in_range(as_ref_bound(&lo), as_ref_bound(&hi)) {
            let Some((_, other_pk)) = decode_entry(&entry) else {
                continue;
            };
            if other_pk == pk {
                continue;
            }
            let claimed = table
                .table
                .read_latest(&other_pk, self.shared.id())
                .value
                .is_some_and(|v| index.spec().extract(&other_pk, &v).as_deref() == Some(ik));
            if claimed {
                return Err(Error::abort_with_reason(
                    AbortReason::UniqueViolation,
                    self.shared.id(),
                ));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Predicate reads
    // ------------------------------------------------------------------

    /// The predicate lock of a scan at row granularity, registered before
    /// the scan lists anything (`register` makes the registration on the
    /// table or index scanned): an SIREAD range at Serializable SI, a
    /// `Shared` one at S2PL, nothing at the other levels. Before its first
    /// `Shared` range an S2PL transaction takes EXCLUSIVE on its own lock
    /// name, which a writer blocked by the range waits on (module docs,
    /// § Phantoms at every level).
    fn lock_range(
        &mut self,
        register: impl FnOnce(TxnId, RangeMode) -> Option<RangeHandle>,
    ) -> Result<()> {
        let mode = match self.shared.isolation() {
            IsolationLevel::SerializableSnapshotIsolation => RangeMode::SiRead,
            IsolationLevel::StrictTwoPhaseLocking => RangeMode::Shared,
            IsolationLevel::ReadCommitted | IsolationLevel::SnapshotIsolation => return Ok(()),
        };
        if !self.row_granularity() {
            return Ok(());
        }
        let id = self.shared.id();
        if mode == RangeMode::Shared && self.ranges.is_empty() {
            self.acquire(LockKey::transaction(id), LockMode::Exclusive)?;
        }
        self.ranges.extend(register(id, mode));
        Ok(())
    }

    /// Every isolation level pages through the storage layer's handle
    /// cursor ([`ssi_storage::Table::cursor`]): a page lists keys and chain
    /// handles without reading them, only one page is materialized at a
    /// time, and the table's ordered-index lock is released between pages,
    /// so a large scan never blocks writers of new keys for its duration.
    /// At Serializable SI and S2PL the scan first registers its range with
    /// the table ([`Transaction::lock_range`]). The levels then differ in
    /// what goes with reading a page's rows: nothing (read committed, SI);
    /// at Serializable SI nothing per row either (at page granularity, one
    /// batch of page SIREAD locks in front of each page's reads instead)
    /// and a conflict with the creator of every newer version a read
    /// skipped; a blocking SHARED lock per row (S2PL).
    fn do_scan(
        &mut self,
        table: &TableRef,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Bytes)>> {
        // Fig. 3.6's SIREADs, all of them, or S2PL's protection against
        // phantoms: the range covers every row and every gap between the
        // bounds. Registered before anything is listed, so a writer that
        // the listing or a read below does not see has seen the range.
        self.lock_range(|id, mode| table.table.register_range(lower, upper, id, mode))?;
        let isolation = self.shared.isolation();
        if isolation == IsolationLevel::StrictTwoPhaseLocking {
            return self.do_scan_2pl(table, lower, upper);
        }
        let snapshot = if isolation.uses_snapshot() {
            self.db.txns.ensure_snapshot(&self.shared)
        } else {
            self.db.txns.current_ts()
        };
        // A scan relies on its whole range: a key it leaves out may be a
        // tombstone a purge unlinked, and every row it returns is at or
        // below the snapshot.
        self.note_read(None);
        let ssi = isolation == IsolationLevel::SerializableSnapshotIsolation;
        let mut result = Vec::new();
        let mut cursor = table.table.cursor(lower, upper);
        while let Some(page) = cursor.next_page() {
            if let (true, Some(pages)) = (ssi, &self.db.pages) {
                // At page granularity the rows' pages stand for rows and
                // gaps alike. They live in the lock table and are locked for
                // the whole page first (SIREAD never waits, so one
                // lock-table pass does it).
                let keys = page.rows.iter().map(|row| &row.key);
                let keys: Vec<LockKey> = keys
                    .map(|key| LockKey::page(table.id(), pages.page_of(key)))
                    .collect();
                if !keys.is_empty() {
                    self.acquire_sireads(keys)?;
                }
            }
            // Each row is read once, under the range or the page lock taken
            // above: the read sees every writer that cannot see those.
            for row in page.rows {
                let read = table.table.read_row(&row, self.shared.id(), snapshot);
                if ssi {
                    self.mark_read_conflicts(&read.newer_creators)?;
                }
                if !read.key_exists {
                    continue;
                }
                if isolation != IsolationLevel::ReadCommitted && !read.read_own_write {
                    self.record_read(table, &row.key, read.read_version_ts);
                }
                if let Some(value) = read.value {
                    result.push((row.key.to_vec(), value));
                }
            }
        }
        Ok(result)
    }

    /// [`Transaction::do_scan`] at S2PL, once the range is registered: per
    /// page, a blocking SHARED lock on every row, and the row read under it
    /// — no writer can change the row once it is granted. At row granularity
    /// a listed chain that holds no version is skipped without a lock (module
    /// docs, § Phantoms at every level).
    fn do_scan_2pl(
        &mut self,
        table: &TableRef,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Bytes)>> {
        let row_granularity = self.row_granularity();
        self.note_read(None);
        let mut result = Vec::new();
        let mut cursor = table.table.cursor(lower, upper);
        while let Some(page) = cursor.next_page() {
            for row in page.rows {
                if row_granularity && !row.handle.holds_version() {
                    continue;
                }
                let lock = self.lock_target(table, row.key.clone());
                self.acquire(lock, LockMode::Shared)?;
                if let Some(value) = self.locked_read(table, &row.key) {
                    result.push((row.key.to_vec(), value));
                }
            }
        }
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Secondary-index scans (reader side)
    // ------------------------------------------------------------------

    /// Records a read in *index space* for the history verifier: the entry
    /// bytes stand in for the key and the index id for the table, and the
    /// version timestamp is that of the row version whose value extracted
    /// to the entry's index key — exactly the writer that recorded the
    /// matching index-space write.
    fn record_index_read(
        &mut self,
        index: &Arc<Index>,
        entry: &[u8],
        version_ts: Option<Timestamp>,
    ) {
        if self.db.history.is_some() {
            let mut own = self.index_writes.iter();
            let after_own_write = own.any(|w| w.table == index.id() && w.key == entry);
            self.reads.push(ReadRecord {
                table: index.id(),
                key: entry.to_vec(),
                version_ts,
                after_own_write,
            });
        }
    }

    /// Index-space analogue of [`Transaction::do_scan`]. The raw
    /// index-key bounds are first mapped to entry-space bounds
    /// ([`entry_range`]); at Serializable SI and S2PL that range is
    /// registered with the index before anything is listed
    /// ([`Transaction::lock_range`]), where the install that adds an entry
    /// to it later finds it. Each resident entry in the range names a
    /// `(index key, primary key)` pair whose row is then read under the
    /// level's ordinary row protocol, and kept only if the value the read
    /// actually returned still extracts to the entry's index key — stale
    /// entries awaiting GC filter out here.
    fn do_index_scan(
        &mut self,
        index: &IndexRef,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Bytes)>> {
        let id = self.shared.id();
        let table = index.table.clone();
        let idx = Arc::clone(&index.index);
        let (lo, hi) = entry_range(lower, upper);
        let (lo, hi) = (as_ref_bound(&lo), as_ref_bound(&hi));
        // The predicate lock, in entry space: an install that adds an entry
        // to the range either precedes the listing — the entry is listed
        // and its row's read meets the version — or finds the registration.
        self.lock_range(|id, mode| idx.register_range(lo, hi, id, mode))?;
        let isolation = self.shared.isolation();
        let snapshot = if isolation.uses_snapshot() {
            self.db.txns.ensure_snapshot(&self.shared)
        } else {
            self.db.txns.current_ts()
        };
        self.note_read(None);
        let mut result = Vec::new();
        for entry in idx.entries_in_range(lo, hi) {
            let Some((ik, pk)) = decode_entry(&entry) else {
                continue;
            };
            // The entry's row under the level's ordinary protocol: at
            // Serializable SI, Fig. 3.4's read with its SIREAD on the row,
            // which is what finds a rename away or a delete; at S2PL, the
            // latest committed value under a SHARED record lock.
            let read = match isolation {
                IsolationLevel::SerializableSnapshotIsolation => {
                    self.ssi_read(&table, &pk, snapshot)?
                }
                IsolationLevel::SnapshotIsolation => table.table.read(&pk, id, snapshot),
                IsolationLevel::StrictTwoPhaseLocking => {
                    let lock = self.lock_target(&table, pk.as_slice());
                    self.acquire(lock, LockMode::Shared)?;
                    table.table.read_latest(&pk, id)
                }
                IsolationLevel::ReadCommitted => table.table.read_latest(&pk, id),
            };
            self.note_read(read.read_version_ts);
            let recorded = isolation != IsolationLevel::ReadCommitted && !read.read_own_write;
            if recorded {
                self.record_read(&table, &pk, read.read_version_ts);
            }
            let live = read
                .value
                .as_ref()
                .is_some_and(|v| idx.spec().extract(&pk, v).as_deref() == Some(ik.as_slice()));
            if live {
                if recorded {
                    self.record_index_read(&idx, &entry, read.read_version_ts);
                }
                result.push((pk, read.value.expect("live implies Some")));
            }
        }
        Ok(result)
    }
}

/// Smallest byte string strictly greater than every string with the given
/// prefix, or `None` when no such bound exists (prefix is all `0xff`).
fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut upper = prefix.to_vec();
    while let Some(last) = upper.last() {
        if *last == 0xff {
            upper.pop();
        } else {
            *upper.last_mut().unwrap() += 1;
            return Some(upper);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_upper_bound_basic() {
        assert_eq!(prefix_upper_bound(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_upper_bound(&[1, 0xff]), Some(vec![2]));
        assert_eq!(prefix_upper_bound(&[0xff, 0xff]), None);
        assert_eq!(prefix_upper_bound(b""), None);
    }

    #[test]
    fn bound_helpers_roundtrip() {
        let owned = clone_bound(Bound::Included(b"k".as_slice()));
        assert!(matches!(as_ref_bound(&owned), Bound::Included(b"k")));
        let owned = clone_bound(Bound::Excluded(b"k".as_slice()));
        assert!(matches!(as_ref_bound(&owned), Bound::Excluded(b"k")));
        let owned: Bound<Vec<u8>> = clone_bound(Bound::Unbounded);
        assert!(matches!(as_ref_bound(&owned), Bound::Unbounded));
    }
}
