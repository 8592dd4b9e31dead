//! The append side of the redo log: segment files, the pending buffer fed
//! by committers, timestamp-ordered sealing, and group commit — the
//! elected leader's flush pass with its retry policy (protocol in the
//! crate docs).

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use ssi_common::{TableId, Timestamp, TxnId};
use ssi_obs::{EngineMetrics, EventKind};

use crate::error::{ctx, WalError, WalOp, WalResult};
use crate::record::{crc32, Record, WriteEntry, FRAME_HEADER};
use crate::segment_path;
use crate::vfs::{StdVfs, Vfs, VfsFile};

/// When commits wait for the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync at commit (buffered durability): records reach the OS
    /// when sealed and the device at checkpoints and clean close. A crash
    /// may lose the buffered suffix, never the prefix order.
    Never,
    /// Committers wait for an fsync covering their commit timestamp; one
    /// elected leader syncs for every sealed commit at once (group commit)
    /// and retries failures within a fixed budget.
    GroupCommit,
}

/// Why the log was poisoned, for the health API to classify the
/// degradation it causes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoisonCause {
    /// A fatal I/O failure (or an exhausted retry budget over transient
    /// ones).
    Io,
    /// The device stayed full after checkpoint-to-reclaim and the retry
    /// budget.
    OutOfSpace,
    /// A flush leader's pass unwound (a `Vfs` or the reclaim checkpoint
    /// panicked); nothing vouches for the tail it was syncing.
    Panic,
}

/// Retries a flush leader takes over transient or out-of-space failures
/// before it poisons the log.
const RETRY_BUDGET: u32 = 4;

/// Sleep between two retries (skipped after the one reclaim attempt of an
/// ENOSPC incident).
const RETRY_BACKOFF: Duration = Duration::from_millis(5);

/// Activity counters, exposed for tests, stats and `wal_bench`.
#[derive(Default, Debug)]
pub struct WalStats {
    /// Commit records appended to segment files.
    pub records: AtomicU64,
    /// Bytes appended (frames, including control records).
    pub bytes: AtomicU64,
    /// Physical fsyncs issued.
    pub fsyncs: AtomicU64,
    /// `seal_upto` calls that appended at least one record.
    pub seal_batches: AtomicU64,
    /// I/O operations that came back with an error (includes injected
    /// faults; zero on the clean path).
    pub io_failures: AtomicU64,
    /// Flush attempts re-run by the leader's retry policy after a
    /// transient or out-of-space failure (zero on the clean path).
    pub fsync_retries: AtomicU64,
    /// Checkpoint-to-reclaim attempts triggered by ENOSPC.
    pub reclaim_attempts: AtomicU64,
}

impl WalStats {
    /// Commit records per fsync — the group-commit amortization factor.
    pub fn records_per_fsync(&self) -> f64 {
        let records = self.records.load(Ordering::Relaxed) as f64;
        let fsyncs = self.fsyncs.load(Ordering::Relaxed).max(1) as f64;
        records / fsyncs
    }
}

/// A commit record fully encoded *ahead of* the commit point, with a
/// placeholder timestamp. Committers build this before entering the commit
/// pipeline, so the deep copies of the write set and all buffer growth
/// happen outside the ordered-publication window; inside the window only
/// the timestamp patch and one CRC pass over the finished frame remain
/// (see [`WalWriter::submit_prepared`]).
pub struct PreparedCommit {
    frame: Vec<u8>,
}

/// Frame offset of the commit timestamp: header, then the kind byte.
const TS_OFFSET: usize = FRAME_HEADER + 1;

impl PreparedCommit {
    /// Encodes borrowed write-set parts as a complete commit frame
    /// (timestamp zeroed, CRC deferred to [`PreparedCommit::finish`] so
    /// the payload is checksummed exactly once) — the zero-copy path:
    /// each key/value is copied exactly once, from its storage slice into
    /// the frame.
    pub fn from_parts<'a, I>(txn: TxnId, writes: I) -> Self
    where
        I: ExactSizeIterator<Item = (TableId, &'a [u8], Option<&'a [u8]>)>,
    {
        let frame = crate::record::encode_commit_frame_unchecksummed(0, txn, writes);
        debug_assert!(frame.len() >= TS_OFFSET + 8);
        PreparedCommit { frame }
    }

    /// Owned-write-set convenience (tests).
    pub fn new(txn: TxnId, writes: Vec<WriteEntry>) -> Self {
        Self::from_parts(
            txn,
            writes
                .iter()
                .map(|w| (w.table, w.key.as_slice(), w.value.as_deref())),
        )
    }

    /// Stamps the real commit timestamp and recomputes the CRC.
    fn finish(mut self, ts: Timestamp) -> Vec<u8> {
        self.frame[TS_OFFSET..TS_OFFSET + 8].copy_from_slice(&ts.to_le_bytes());
        let crc = crc32(&self.frame[FRAME_HEADER..]);
        self.frame[4..8].copy_from_slice(&crc.to_le_bytes());
        self.frame
    }
}

/// Append state: the current segment and the pending buffer. One short
/// mutex. No *commit-path* fsync happens while it is held (the flush
/// leader clones the file handle and syncs outside it); the one exception
/// is [`WalWriter::rotate`], which holds it across the old segment's fsync
/// so that `durable_ts` can be advanced before any committer captures the
/// new (empty) file as its flush target — checkpoints therefore stall
/// concurrent commits for one device sync (two, if a leader's fsync is
/// under way), which is rare and bounded.
struct Appender {
    file: Arc<dyn VfsFile>,
    path: PathBuf,
    seq: u64,
    /// Encoded frames submitted by committers, awaiting sealing, keyed by
    /// commit timestamp.
    pending: BTreeMap<Timestamp, Vec<u8>>,
    /// Highest commit timestamp appended to a segment file.
    sealed_ts: Timestamp,
    /// Bytes appended since the last rotation (auto-checkpoint trigger).
    /// Segments start empty, so this is also the current segment's logical
    /// length — the rollback point when an append fails partway.
    epoch_bytes: u64,
    /// True when *any* frame — control records included, which advance no
    /// timestamp — was appended since the last flush pass captured the
    /// segment. The pass's nothing-to-do early return must test this, not
    /// just `sealed_ts`: a `create_table` record appended after the last
    /// durable commit would otherwise be skipped by a clean close's sync.
    dirty: bool,
    /// Monotone id assigned to each frame written to any segment; the
    /// pruning watermark of the unsynced-frame buffer.
    append_seq: u64,
    /// In [`SyncPolicy::GroupCommit`]: copies of every frame written but
    /// not yet covered by a successful fsync, keyed by `append_seq`. This
    /// is what makes fsync failure retryable *without* re-fsyncing the
    /// errored file — the frames are re-emitted to a fresh segment and
    /// that is fsynced instead (see `WalWriter::fsync_failed`). (In
    /// `Never` nobody fsyncs between checkpoints, so the buffer would only
    /// grow.)
    unsynced: VecDeque<(u64, Vec<u8>)>,
}

/// Flush state for the group-commit protocol.
struct FlushState {
    /// Commit timestamps `<= durable_ts` are on stable storage.
    durable_ts: Timestamp,
    /// True while an elected leader runs a flush pass for the group.
    flush_in_progress: bool,
}

/// Poison-cause codes stored in `WalWriter::poison_cause` (0 = none).
const CAUSE_IO: u8 = 1;
const CAUSE_ENOSPC: u8 = 2;
const CAUSE_PANIC: u8 = 3;

/// The write-ahead log of one durable database.
pub struct WalWriter {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    policy: SyncPolicy,
    appender: Mutex<Appender>,
    flush: Mutex<FlushState>,
    flushed: Condvar,
    /// Highest timestamp any committer has asked to seal. In
    /// [`SyncPolicy::GroupCommit`] a seal whose append failed retryably is
    /// *deferred*: the committer's record stays pending and the next flush
    /// pass re-seals up to this watermark.
    requested_seal: AtomicU64,
    /// Set when the log can no longer vouch for what is on the device: a
    /// partial append that could not be rolled back (the segment may end in
    /// a half-frame that a later append would bury), or a failed `fsync`
    /// that the retry policy cannot repair (the kernel may have dropped
    /// dirty pages and consumed the error, so a bare retry could spuriously
    /// succeed — the PostgreSQL fsync lesson). Once set, every append and
    /// every durability wait fails: no commit is ever acknowledged that
    /// recovery might silently discard.
    poisoned: AtomicBool,
    /// Why (one of the `CAUSE_*` codes; 0 while healthy). First cause wins.
    poison_cause: AtomicU8,
    /// Held across every segment fsync; true while the current segment has
    /// a failed fsync behind it. Such a segment is never fsynced again —
    /// the kernel may have dropped its dirty pages and reports the error
    /// to one caller only, so a second fsync could succeed spuriously —
    /// and nothing in it counts as durable until its unsynced frames are
    /// re-emitted to a fresh segment ([`WalWriter::reemit_unsynced`]) and
    /// that is fsynced. Set before the mutex is released, so no other fsync
    /// (a checkpoint's rotation racing the leader) runs between a failure
    /// and its record. Lock order: append -> this.
    fsync_failed: Mutex<bool>,
    /// Checkpoint-to-reclaim hook installed by the database: invoked by
    /// the flush leader once per ENOSPC incident in place of a backoff.
    reclaim: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    stats: WalStats,
    /// Engine observability, installed once by the database after open
    /// (fsync latency histogram plus seal/fsync/rotate trace events).
    /// Absent when the log runs standalone (tests, tools).
    obs: OnceLock<Arc<EngineMetrics>>,
}

/// Ends a leader's flush pass: clears `flush_in_progress` and wakes every
/// waiter. A pass that unwinds instead of returning (a `Vfs` or the
/// reclaim checkpoint panicked) first poisons the log, so its waiters —
/// and every later committer — get an error instead of parking forever
/// behind a flag nobody clears.
struct LeaderGuard<'a> {
    wal: &'a WalWriter,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.wal.poison_with(PoisonCause::Panic);
        }
        self.wal.flush.lock().flush_in_progress = false;
        self.wal.flushed.notify_all();
    }
}

impl WalWriter {
    /// Opens the log for appending, creating segment `seq` in `dir` (it
    /// must not exist: a reopened database appends to the first free
    /// sequence number recovery reports), on the production VFS.
    pub fn open(dir: &Path, seq: u64, policy: SyncPolicy) -> WalResult<Self> {
        Self::open_with(StdVfs::handle(), dir, seq, policy)
    }

    /// Opens the log on an explicit [`Vfs`].
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        seq: u64,
        policy: SyncPolicy,
    ) -> WalResult<Self> {
        let (file, path) = create_segment(vfs.as_ref(), dir, seq)?;
        Ok(WalWriter {
            vfs,
            dir: dir.to_path_buf(),
            policy,
            appender: Mutex::new(Appender {
                file,
                path,
                seq,
                pending: BTreeMap::new(),
                sealed_ts: 0,
                epoch_bytes: 0,
                dirty: false,
                append_seq: 0,
                unsynced: VecDeque::new(),
            }),
            flush: Mutex::new(FlushState {
                durable_ts: 0,
                flush_in_progress: false,
            }),
            flushed: Condvar::new(),
            requested_seal: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            poison_cause: AtomicU8::new(0),
            fsync_failed: Mutex::new(false),
            reclaim: Mutex::new(None),
            stats: WalStats::default(),
            obs: OnceLock::new(),
        })
    }

    /// The sync policy the log was opened with.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// True in [`SyncPolicy::GroupCommit`], the one policy that fsyncs
    /// between checkpoints: frames are kept until an fsync covers them,
    /// and a retryable seal failure is left to the next flush pass.
    fn buffers_unsynced(&self) -> bool {
        self.policy == SyncPolicy::GroupCommit
    }

    /// Activity counters.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Installs the engine's shared observability state (fsync latency
    /// histogram and trace events). First call wins; later calls are
    /// ignored.
    pub fn set_obs(&self, obs: Arc<EngineMetrics>) {
        let _ = self.obs.set(obs);
    }

    fn obs(&self) -> Option<&Arc<EngineMetrics>> {
        self.obs.get()
    }

    /// Sequence number of the segment currently being appended to.
    pub fn current_segment(&self) -> u64 {
        self.appender.lock().seq
    }

    /// Bytes appended since the last rotation (or open).
    pub fn epoch_bytes(&self) -> u64 {
        self.appender.lock().epoch_bytes
    }

    /// Installs the checkpoint-to-reclaim hook the flush leader invokes on
    /// ENOSPC. The hook runs on the leader's thread, with
    /// `flush_in_progress` set and neither the append nor the flush mutex
    /// held: it may rotate and append, but must not wait for a commit's
    /// durability — that commit could be waiting on this leader.
    pub fn set_reclaim_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        *self.reclaim.lock() = Some(hook);
    }

    /// Runs the reclaim hook, if any. Counted in stats either way.
    fn try_reclaim(&self) {
        self.stats.reclaim_attempts.fetch_add(1, Ordering::Relaxed);
        if let Some(hook) = self.reclaim.lock().as_ref() {
            hook();
        }
    }

    /// Appends a create-table control record immediately. Not fsynced by
    /// itself: the next durable commit's fsync covers it, so a table is
    /// durable at the latest with the first committed write that needs it.
    pub fn append_create_table(&self, table: TableId, name: &str) -> WalResult<()> {
        let frame = Record::CreateTable {
            table,
            name: name.to_string(),
        }
        .encode();
        let mut appender = self.appender.lock();
        self.write_frame(&mut appender, &frame)?;
        self.stats
            .bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Appends a create-index control record immediately, with the same
    /// durability contract as [`WalWriter::append_create_table`]. Only the
    /// definition is logged — entries are rebuilt by backfill at recovery.
    pub fn append_create_index(
        &self,
        index: TableId,
        table: TableId,
        name: &str,
        unique: bool,
        spec: Vec<u8>,
    ) -> WalResult<()> {
        let frame = Record::CreateIndex {
            index,
            table,
            name: name.to_string(),
            unique,
            spec,
        }
        .encode();
        let mut appender = self.appender.lock();
        self.write_frame(&mut appender, &frame)?;
        self.stats
            .bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Parks the encoded commit record of `ts` in the pending buffer. Must
    /// be called *before* the timestamp is deposited for publication (see
    /// the crate docs); performs no I/O and cannot fail.
    pub fn submit_prepared(&self, ts: Timestamp, prepared: PreparedCommit) {
        let frame = prepared.finish(ts);
        let mut appender = self.appender.lock();
        let previous = appender.pending.insert(ts, frame);
        debug_assert!(previous.is_none(), "two commit records for ts {ts}");
    }

    /// Encode-and-submit convenience (tests and single-step callers);
    /// equivalent to [`PreparedCommit::new`] + [`WalWriter::submit_prepared`].
    pub fn submit(&self, ts: Timestamp, txn: TxnId, writes: Vec<WriteEntry>) {
        self.submit_prepared(ts, PreparedCommit::new(txn, writes));
    }

    /// Appends every pending record with timestamp `<= ts` to the current
    /// segment, in timestamp order. Callers invoke this only after the
    /// snapshot clock covers `ts`, which guarantees the pending buffer
    /// holds *all* records up to `ts` — so the file stays timestamp-ordered
    /// no matter which committer seals first. Idempotent.
    ///
    /// In [`SyncPolicy::GroupCommit`] a *retryable* append failure is
    /// deferred rather than surfaced: the failed record is back in the
    /// pending buffer (the seal loop guarantees that), the requested
    /// watermark is recorded, and the committer's
    /// [`WalWriter::wait_durable`] runs — or waits for — a flush pass that
    /// re-seals it first (or errors once the retry budget poisons the log).
    pub fn seal_upto(&self, ts: Timestamp) -> WalResult<()> {
        self.requested_seal.fetch_max(ts, Ordering::AcqRel);
        let result = self.seal_locked(&mut self.appender.lock(), ts);
        match result {
            Err(e) if self.defers(&e) => Ok(()),
            result => result,
        }
    }

    /// True when a failed seal is left to the next flush pass instead of
    /// failing its caller.
    fn defers(&self, error: &WalError) -> bool {
        self.buffers_unsynced() && error.is_retryable() && !self.is_poisoned()
    }

    /// The seal loop, under the held append lock (shared by
    /// [`WalWriter::seal_upto`], [`WalWriter::rotate`] and the flush pass).
    /// A record whose append fails is put *back* into the pending buffer
    /// before the error is returned: the failed frame may belong to a
    /// different committer than the caller, and that committer must still
    /// find its record sealable later (or hit the poisoned log) rather than
    /// be acknowledged durable while its record exists nowhere.
    fn seal_locked(&self, appender: &mut Appender, ts: Timestamp) -> WalResult<()> {
        let mut batch = 0u64;
        let mut bytes = 0u64;
        let mut result = Ok(());
        while let Some(entry) = appender.pending.first_entry() {
            if *entry.key() > ts {
                break;
            }
            let (record_ts, frame) = entry.remove_entry();
            if let Err(e) = self.write_frame(appender, &frame) {
                appender.pending.insert(record_ts, frame);
                result = Err(e);
                break;
            }
            appender.sealed_ts = appender.sealed_ts.max(record_ts);
            batch += 1;
            bytes += frame.len() as u64;
        }
        self.stats.records.fetch_add(batch, Ordering::Relaxed);
        self.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
        if batch > 0 {
            self.stats.seal_batches.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = self.obs() {
                obs.trace.emit(EventKind::WalSeal, batch, bytes, 0);
            }
        }
        result
    }

    /// Blocks until every sealed record with timestamp `<= ts` is on stable
    /// storage, per the configured [`SyncPolicy`]. The caller must have
    /// sealed `ts` first. In [`SyncPolicy::GroupCommit`] whichever waiter
    /// finds no flush in progress leads one for everything sealed so far
    /// (one `fsync` for the whole batch); the others park until it ends.
    pub fn wait_durable(&self, ts: Timestamp) -> WalResult<()> {
        if self.policy == SyncPolicy::Never {
            return Ok(());
        }
        let mut flush = self.flush.lock();
        loop {
            if flush.durable_ts >= ts {
                return Ok(());
            }
            // Checked inside the loop: a leader that fails poisons the log
            // and wakes everyone, and no waiter may then re-elect itself
            // and be "confirmed" by a spuriously succeeding retry.
            self.check_poisoned()?;
            if flush.flush_in_progress {
                self.flushed.wait(&mut flush);
            } else {
                self.lead_flush(flush)?;
                flush = self.flush.lock();
            }
        }
    }

    /// Flushes and fsyncs everything sealed so far (clean close; the only
    /// sync of buffered mode besides checkpoints). Runs as an elected
    /// leader: it waits out a flush in progress, then makes its own pass.
    /// Pending records of in-flight commits, if any, are not sealed — their
    /// owners are still before their publication point.
    pub fn sync(&self) -> WalResult<()> {
        let mut flush = self.flush.lock();
        while flush.flush_in_progress {
            self.flushed.wait(&mut flush);
        }
        self.lead_flush(flush)
    }

    /// Runs one flush pass, retried per the policy, as the elected leader:
    /// `flush_in_progress` is set under the held `flush` guard, which is
    /// released for the pass. Only one pass runs at a time, so no second
    /// pass can fsync a file whose error this one consumed.
    fn lead_flush(&self, mut flush: MutexGuard<'_, FlushState>) -> WalResult<()> {
        flush.flush_in_progress = true;
        drop(flush);
        let _guard = LeaderGuard { wal: self };
        self.flush_with_retry()
    }

    /// The flush pass under the retry policy (crate docs, § Failure
    /// handling): a transient or out-of-space failure is retried up to
    /// [`RETRY_BUDGET`] times, [`RETRY_BACKOFF`] apart; after an fsync
    /// failure the next pass first re-emits the buffered unsynced frames to
    /// a fresh segment, since the errored file is never fsynced again;
    /// ENOSPC gets one checkpoint-to-reclaim attempt instead of its first
    /// backoff. Without the unsynced-frame buffer (`Never`), or on a fatal
    /// failure, or once the budget is spent, the log is poisoned.
    fn flush_with_retry(&self) -> WalResult<()> {
        let mut retries = 0;
        let mut reclaimed = false;
        loop {
            let error = match self.flush_pass() {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            if self.is_poisoned() {
                return Err(error);
            }
            if !self.buffers_unsynced() || !error.is_retryable() || retries == RETRY_BUDGET {
                self.poison_for(&error);
                return Err(error);
            }
            retries += 1;
            self.stats.fsync_retries.fetch_add(1, Ordering::Relaxed);
            if error.is_reclaimable() && !reclaimed {
                reclaimed = true;
                self.try_reclaim();
            } else {
                std::thread::sleep(RETRY_BACKOFF);
            }
        }
    }

    /// One flush pass: re-emits the unsynced frames if the current
    /// segment's fsync failed, re-seals deferred records up to the
    /// requested watermark, fsyncs the current segment and advances
    /// `durable_ts` over everything sealed before the capture, then prunes
    /// the frames that fsync covered from the unsynced buffer.
    ///
    /// With nothing pending at or below the requested watermark,
    /// `durable_ts` advances to the watermark itself: every timestamp up to
    /// it is sealed or has no record — a commit that failed after taking
    /// its timestamp publishes it without one — so a wait on such a
    /// timestamp ends instead of re-electing its caller forever.
    fn flush_pass(&self) -> WalResult<()> {
        self.check_poisoned()?;
        let (file, path, sealed, target, upto_seq, dirty) = {
            let mut appender = self.appender.lock();
            self.reemit_unsynced(&mut appender)?;
            // A committer whose append failed retryably left its record
            // pending; this pass must cover it before fsyncing.
            let requested = self.requested_seal.load(Ordering::Acquire);
            if self.buffers_unsynced() && requested > appender.sealed_ts {
                self.seal_locked(&mut appender, requested)?;
            }
            let target = match appender.pending.first_key_value() {
                Some((&ts, _)) if ts <= requested => appender.sealed_ts,
                _ => appender.sealed_ts.max(requested),
            };
            (
                appender.file.clone(),
                appender.path.clone(),
                appender.sealed_ts,
                target,
                appender.append_seq,
                std::mem::take(&mut appender.dirty),
            )
        };
        {
            let mut flush = self.flush.lock();
            if !dirty && flush.durable_ts >= sealed {
                // Nothing appended since the last pass is unsynced.
                flush.durable_ts = flush.durable_ts.max(target);
                return Ok(());
            }
        }
        {
            // Recorded before any other fsync can run. If a rotation
            // replaced the captured segment meanwhile, the flag lands on
            // its successor: one needless re-emission, never a lost error.
            let mut fsync_failed = self.fsync_failed.lock();
            let synced = self.fsync_file(file.as_ref(), &path);
            *fsync_failed |= synced.is_err();
            synced?;
        }
        {
            let mut flush = self.flush.lock();
            flush.durable_ts = flush.durable_ts.max(target);
        }
        if self.buffers_unsynced() {
            // Append lock taken after the flush lock is released — the
            // order is append -> flush, never the reverse.
            let mut appender = self.appender.lock();
            while appender
                .unsynced
                .front()
                .is_some_and(|(seq, _)| *seq < upto_seq)
            {
                appender.unsynced.pop_front();
            }
        }
        Ok(())
    }

    /// After a failed fsync of the current segment (see
    /// `WalWriter::fsync_failed`; a no-op otherwise), opens a fresh segment
    /// and re-writes every buffered unsynced frame into it, oldest first.
    /// The next fsync covers the fresh segment; on success the buffer is
    /// pruned as usual. If a write fails the flag stays set, and the next
    /// call re-emits the full set into yet another segment. Runs under the
    /// append lock (the flush pass and [`WalWriter::rotate`]).
    ///
    /// Re-emitted frames may duplicate records that *did* reach the device
    /// before the failure — recovery deduplicates replayed commits by
    /// commit timestamp, so duplicates are harmless.
    fn reemit_unsynced(&self, appender: &mut Appender) -> WalResult<()> {
        let mut fsync_failed = self.fsync_failed.lock();
        if !*fsync_failed {
            return Ok(());
        }
        self.open_next_segment(appender)?;
        // Not through write_frame: the frames keep their original buffer
        // entries instead of gaining second ones.
        for (_, frame) in &appender.unsynced {
            self.write_at(&*appender.file, &appender.path, appender.epoch_bytes, frame)?;
            appender.epoch_bytes += frame.len() as u64;
            self.stats
                .bytes
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        appender.dirty = true;
        *fsync_failed = false;
        Ok(())
    }

    /// Creates segment `seq + 1` and makes it the append target.
    fn open_next_segment(&self, appender: &mut Appender) -> WalResult<()> {
        let seq = appender.seq + 1;
        let (file, path) = create_segment(self.vfs.as_ref(), &self.dir, seq)?;
        appender.file = file;
        appender.path = path;
        appender.seq = seq;
        appender.epoch_bytes = 0;
        Ok(())
    }

    /// Rotates to a fresh segment for a checkpoint. Under the append lock:
    /// reads the published clock via `clock`, seals everything up to it,
    /// fsyncs the old segment, and opens segment `seq + 1`. Returns
    /// `(cut_ts, old_seq)`: every record with `ts <= cut_ts` is in segments
    /// `<= old_seq`, every later record lands in newer segments — the cut
    /// invariant checkpointing relies on.
    ///
    /// The old segment is fsynced *under* the append lock, so `durable_ts`
    /// advances before any committer captures the empty new segment as its
    /// flush target; checkpoints thus stall concurrent commits for one
    /// device sync. A failure of that fsync poisons the log. If instead a
    /// flush leader's fsync of the old segment has already failed, it is
    /// not fsynced again: its unsynced frames are re-emitted into the new
    /// segment, and `durable_ts` stays put until a leader fsyncs that.
    pub fn rotate(&self, clock: impl FnOnce() -> Timestamp) -> WalResult<(Timestamp, u64)> {
        self.check_poisoned()?;
        let mut appender = self.appender.lock();
        // Read the clock *after* taking the append lock: any seal that ran
        // before us covered only timestamps <= this value.
        let cut_ts = clock();
        // Seal the <= cut_ts prefix into the old segment (all of it is
        // pending or already sealed, because submit precedes publication).
        if let Err(e) = self.seal_locked(&mut appender, cut_ts) {
            // Same net as `seal_upto`: a retryable seal failure defers
            // instead of aborting the rotation — the records stay pending
            // and the next flush pass re-seals them into the *fresh*
            // segment. That is exactly the ENOSPC reclaim case: the old
            // segment cannot take one more byte, and the checkpoint this
            // rotation serves covers the deferred timestamps anyway
            // (recovery skips replayed frames at or below the snapshot), so
            // parking them behind the cut loses nothing. Without the net
            // the rotation fails and reclaim can never free space.
            if !self.defers(&e) {
                return Err(e);
            }
            self.requested_seal.fetch_max(cut_ts, Ordering::AcqRel);
        }
        let old_seq = appender.seq;
        let fsync_failed = self.fsync_failed.lock();
        if *fsync_failed {
            drop(fsync_failed);
            self.reemit_unsynced(&mut appender)?;
        } else {
            let synced = self.fsync_file(&*appender.file, &appender.path);
            drop(fsync_failed);
            if let Err(e) = synced {
                self.poison_for(&e);
                return Err(e);
            }
            self.open_next_segment(&mut appender)?;
            appender.dirty = false;
            // The old segment is fully durable: drop its frames from the
            // unsynced buffer and advance the durability horizon so
            // committers covered by it never fsync the (empty) new segment.
            let synced_upto = appender.append_seq;
            while appender
                .unsynced
                .front()
                .is_some_and(|(seq, _)| *seq < synced_upto)
            {
                appender.unsynced.pop_front();
            }
            let sealed = appender.sealed_ts;
            drop(appender);
            let mut flush = self.flush.lock();
            flush.durable_ts = flush.durable_ts.max(sealed);
            drop(flush);
            self.flushed.notify_all();
        }
        if let Some(obs) = self.obs() {
            obs.trace.emit(EventKind::WalRotate, old_seq, 0, 0);
        }
        Ok((cut_ts, old_seq))
    }

    /// Highest commit timestamp known to be on stable storage.
    pub fn durable_ts(&self) -> Timestamp {
        self.flush.lock().durable_ts
    }

    /// Highest commit timestamp sealed into a segment file.
    pub fn sealed_ts(&self) -> Timestamp {
        self.appender.lock().sealed_ts
    }

    /// Test-only fault injection: poisons the log exactly as a failed
    /// fsync would, then wakes every parked committer — all of which must
    /// come back with an error, never hang.
    #[doc(hidden)]
    pub fn poison(&self) {
        self.poison_with(PoisonCause::Io);
        // The empty lock section orders the wakeup after any waiter's
        // predicate re-check, closing the lost-wakeup window.
        drop(self.flush.lock());
        self.flushed.notify_all();
    }

    /// Marks the log poisoned with a cause (first cause wins) without
    /// waking waiters; its callers own the wakeup.
    fn poison_with(&self, cause: PoisonCause) {
        let code = match cause {
            PoisonCause::Io => CAUSE_IO,
            PoisonCause::OutOfSpace => CAUSE_ENOSPC,
            PoisonCause::Panic => CAUSE_PANIC,
        };
        let _ = self
            .poison_cause
            .compare_exchange(0, code, Ordering::AcqRel, Ordering::Relaxed);
        self.poisoned.store(true, Ordering::Release);
    }

    /// Poisons the log for a failure nothing will retry.
    fn poison_for(&self, error: &WalError) {
        self.poison_with(if error.is_reclaimable() {
            PoisonCause::OutOfSpace
        } else {
            PoisonCause::Io
        });
    }

    /// Why the log was poisoned (`None` while healthy).
    pub fn poison_cause(&self) -> Option<PoisonCause> {
        match self.poison_cause.load(Ordering::Acquire) {
            CAUSE_IO => Some(PoisonCause::Io),
            CAUSE_ENOSPC => Some(PoisonCause::OutOfSpace),
            CAUSE_PANIC => Some(PoisonCause::Panic),
            _ => None,
        }
    }

    /// True once the log has hit an unrecoverable I/O failure (see the
    /// `poisoned` field docs); every later append or durability wait fails.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    fn check_poisoned(&self) -> WalResult<()> {
        if self.is_poisoned() {
            return Err(WalError::poisoned());
        }
        Ok(())
    }

    /// `sync_all` wrapper, timed and traced. Whether a failure poisons the
    /// log is the caller's call: the flush leader retries by re-emission
    /// ([`WalWriter::reemit_unsynced`]) — the kernel may have dropped the
    /// dirty pages *and* consumed the error flag, so a bare retry of the
    /// same file could spuriously succeed.
    fn fsync_file(&self, file: &dyn VfsFile, path: &Path) -> WalResult<()> {
        let t0 = Instant::now();
        let result = file.sync_all();
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs() {
            let elapsed = t0.elapsed();
            obs.fsync.record(elapsed);
            obs.trace.emit(
                EventKind::WalFsync,
                elapsed.as_nanos() as u64,
                result.is_err() as u64,
                0,
            );
        }
        result.map_err(|e| {
            self.stats.io_failures.fetch_add(1, Ordering::Relaxed);
            WalError::io(WalOp::Fsync, path, e)
        })
    }

    fn write_frame(&self, appender: &mut Appender, frame: &[u8]) -> WalResult<()> {
        self.check_poisoned()?;
        self.write_at(&*appender.file, &appender.path, appender.epoch_bytes, frame)?;
        appender.epoch_bytes += frame.len() as u64;
        appender.dirty = true;
        if self.buffers_unsynced() {
            let seq = appender.append_seq;
            appender.unsynced.push_back((seq, frame.to_vec()));
        }
        appender.append_seq += 1;
        Ok(())
    }

    /// Appends one frame at the segment's logical end `end`. `write_all`
    /// may have put a partial frame in the file on failure: the segment is
    /// rolled back to `end`, the last whole-frame boundary, so later
    /// appends stay readable — and if even that fails, the log is poisoned
    /// so no later commit can be acknowledged behind unreadable bytes.
    fn write_at(&self, file: &dyn VfsFile, path: &Path, end: u64, frame: &[u8]) -> WalResult<()> {
        file.write_all(frame).map_err(|e| {
            self.stats.io_failures.fetch_add(1, Ordering::Relaxed);
            if file.set_len(end).is_err() {
                self.poison_with(PoisonCause::Io);
            }
            WalError::io(WalOp::Append, path, e)
        })
    }
}

fn create_segment(vfs: &dyn Vfs, dir: &Path, seq: u64) -> WalResult<(Arc<dyn VfsFile>, PathBuf)> {
    let path = segment_path(dir, seq);
    let file = ctx(vfs.create_segment(&path), WalOp::Create, &path)?;
    if let Err(e) = vfs.sync_dir(dir) {
        // Segments are always new: take this one back so that a retry
        // (rotation, re-emission) can create it again.
        let _ = vfs.remove_file(&path);
        return Err(WalError::io(WalOp::DirSync, dir, e));
    }
    Ok((file, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WalErrorKind;
    use crate::record::{decode_stream, Record, WriteEntry};
    use crate::testutil::temp_dir;
    use crate::vfs::{FaultMode, FaultOp, FaultRule, FaultVfs};

    fn entry(key: &[u8], value: &[u8]) -> WriteEntry {
        WriteEntry {
            table: TableId(1),
            key: key.to_vec(),
            value: Some(value.to_vec()),
        }
    }

    fn read_segment(dir: &Path, seq: u64) -> Vec<Record> {
        let bytes = std::fs::read(segment_path(dir, seq)).unwrap();
        let (records, _, err) = decode_stream(&bytes);
        assert_eq!(err, None, "segment {seq} has a torn tail");
        records
    }

    fn commit_ts(records: &[Record]) -> Vec<u64> {
        records
            .iter()
            .filter_map(|r| match r {
                Record::Commit(c) => Some(c.commit_ts),
                _ => None,
            })
            .collect()
    }

    /// A group-commit log over `rules`, every segment fsync held for
    /// `delay_ms` first, so a second committer can park behind the leader.
    fn slow_log(dir: &Path, delay_ms: u64, rules: Vec<FaultRule>) -> (FaultVfs, WalWriter) {
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Fsync,
            FaultMode::Delay { millis: delay_ms },
            std::io::ErrorKind::Other,
        )
        .on_path("segment-")]);
        for rule in rules {
            fault.add_rule(rule.on_path("segment-"));
        }
        let wal = WalWriter::open_with(fault.handle(), dir, 1, SyncPolicy::GroupCommit).unwrap();
        (fault, wal)
    }

    fn commit(wal: &WalWriter, ts: u64) -> WalResult<()> {
        wal.submit(ts, TxnId(ts), vec![entry(&ts.to_be_bytes(), b"v")]);
        wal.seal_upto(ts).and_then(|()| wal.wait_durable(ts))
    }

    /// Commits ts 2 as the leader on a second thread and, once its first
    /// fsync is under way, ts 3 as a waiter behind it. Returns both results.
    fn leader_and_waiter(fault: &FaultVfs, wal: &WalWriter) -> (WalResult<()>, WalResult<()>) {
        std::thread::scope(|s| {
            let leader = s.spawn(|| commit(wal, 2));
            while fault.delayed() == 0 {
                std::thread::yield_now();
            }
            let waiter = commit(wal, 3);
            (leader.join().unwrap(), waiter)
        })
    }

    #[test]
    fn seal_appends_in_timestamp_order_regardless_of_submit_order() {
        let dir = temp_dir("seal-order");
        let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
        // Submit out of order, as racing committers would.
        for ts in [5u64, 3, 4, 2] {
            wal.submit(ts, TxnId(ts), vec![entry(&[ts as u8], b"v")]);
        }
        wal.seal_upto(4).unwrap();
        wal.seal_upto(5).unwrap();
        assert_eq!(commit_ts(&read_segment(&dir, 1)), vec![2, 3, 4, 5]);
        assert_eq!(wal.stats().records.load(Ordering::Relaxed), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wait_durable_ends_for_a_timestamp_without_a_record() {
        // ts 3 belongs to a commit that failed after taking its timestamp:
        // the clock covers it, but no record will ever be sealed for it.
        let dir = temp_dir("no-record");
        let wal = Arc::new(WalWriter::open(&dir, 1, SyncPolicy::GroupCommit).unwrap());
        commit(&wal, 2).unwrap();
        assert_eq!(wal.durable_ts(), 2);
        let fsyncs = wal.stats().fsyncs.load(Ordering::Relaxed);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&wal);
        let handle = std::thread::spawn(move || {
            let _ = tx.send(waiter.seal_upto(3).and_then(|()| waiter.wait_durable(3)));
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("wait_durable(3) kept re-electing its caller")
            .unwrap();
        handle.join().unwrap();
        assert_eq!(wal.durable_ts(), 3);
        assert_eq!(
            wal.stats().fsyncs.load(Ordering::Relaxed),
            fsyncs,
            "nothing was appended, so the pass needs no fsync"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_is_idempotent_and_leaves_later_records_pending() {
        let dir = temp_dir("seal-idem");
        let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
        wal.submit(2, TxnId(1), vec![entry(b"a", b"1")]);
        wal.submit(9, TxnId(2), vec![entry(b"b", b"2")]);
        wal.seal_upto(2).unwrap();
        wal.seal_upto(2).unwrap();
        assert_eq!(read_segment(&dir, 1).len(), 1);
        wal.seal_upto(9).unwrap();
        assert_eq!(read_segment(&dir, 1).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_shares_fsyncs_across_threads() {
        let dir = temp_dir("group");
        let wal = Arc::new(WalWriter::open(&dir, 1, SyncPolicy::GroupCommit).unwrap());
        let next_ts = Arc::new(AtomicU64::new(1));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let wal = wal.clone();
                let next_ts = next_ts.clone();
                s.spawn(move || {
                    for i in 0..20u64 {
                        let ts = next_ts.fetch_add(1, Ordering::Relaxed) + 1;
                        wal.submit(ts, TxnId(t * 100 + i), vec![entry(&ts.to_be_bytes(), b"v")]);
                        // Tests drive the log directly (no publication
                        // clock), so only seal what must be on disk: the
                        // prefix up to our own ts may contain gaps from
                        // unsubmitted later timestamps — that's fine, those
                        // seal later and the file stays ts-ordered because
                        // submissions here are monotone per sealing point.
                        wal.seal_upto(ts).unwrap();
                        wal.wait_durable(ts).unwrap();
                    }
                });
            }
        });
        assert_eq!(wal.stats().records.load(Ordering::Relaxed), 160);
        let fsyncs = wal.stats().fsyncs.load(Ordering::Relaxed);
        assert!(fsyncs >= 1);
        // Clean path: the retry machinery must not have fired.
        assert_eq!(wal.stats().fsync_retries.load(Ordering::Relaxed), 0);
        assert_eq!(wal.stats().io_failures.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_cuts_by_timestamp_and_opens_next_segment() {
        let dir = temp_dir("rotate");
        let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
        wal.submit(2, TxnId(1), vec![entry(b"a", b"1")]);
        wal.submit(3, TxnId(2), vec![entry(b"b", b"2")]);
        wal.submit(7, TxnId(3), vec![entry(b"c", b"3")]);
        wal.seal_upto(2).unwrap();
        // Clock says 3: the pending ts=3 goes to the old segment, ts=7
        // stays for the new one.
        let (cut, old_seq) = wal.rotate(|| 3).unwrap();
        assert_eq!((cut, old_seq), (3, 1));
        assert_eq!(wal.current_segment(), 2);
        assert_eq!(read_segment(&dir, 1).len(), 2);
        wal.seal_upto(7).unwrap();
        assert_eq!(
            commit_ts(&read_segment(&dir, 2)),
            vec![7],
            "ts=7 must land in the post-rotation segment"
        );
        assert!(wal.epoch_bytes() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_covers_control_records_and_skips_when_clean() {
        let dir = temp_dir("sync-dirty");
        let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
        // Fresh segment, nothing appended: nothing to push.
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), 0);
        // A control record advances no commit timestamp but still dirties
        // the segment — a clean close must fsync it (regression: the
        // sealed-ts-only early return used to skip it).
        wal.append_create_table(TableId(1), "t").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), 1);
        // Clean again: the early return skips the redundant fsync.
        wal.sync().unwrap();
        assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn buffered_sync_poisons_on_its_first_fsync_failure() {
        let dir = temp_dir("buffered-fail");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailOnce,
            std::io::ErrorKind::Interrupted,
        )
        .on_path("segment-")]);
        let wal = WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::Never).unwrap();
        wal.submit(2, TxnId(1), vec![entry(b"a", b"1")]);
        wal.seal_upto(2).unwrap();
        // No unsynced-frame buffer to re-emit from: even a transient
        // failure poisons, and nothing is retried.
        assert!(wal.sync().is_err());
        assert_eq!(wal.poison_cause(), Some(PoisonCause::Io));
        assert_eq!(wal.stats().fsync_retries.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_table_records_interleave_with_commits() {
        let dir = temp_dir("create");
        let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
        wal.append_create_table(TableId(1), "accounts").unwrap();
        wal.submit(2, TxnId(1), vec![entry(b"a", b"1")]);
        wal.seal_upto(2).unwrap();
        let records = read_segment(&dir, 1);
        assert_eq!(records.len(), 2);
        assert!(matches!(&records[0], Record::CreateTable { name, .. } if name == "accounts"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leader_retries_transient_fsync_failures_by_reemission() {
        // Two failed fsyncs: the leader re-emits the unsynced frames to a
        // fresh segment after each and fsyncs that, so both the leader and
        // the committer parked behind it are acknowledged.
        let dir = temp_dir("leader-retry");
        let (fault, wal) = slow_log(
            &dir,
            20,
            vec![FaultRule::new(
                FaultOp::Fsync,
                FaultMode::FailTimes(2),
                std::io::ErrorKind::Interrupted,
            )],
        );
        let (leader, waiter) = leader_and_waiter(&fault, &wal);
        leader.unwrap();
        waiter.unwrap();
        assert!(!wal.is_poisoned(), "transient faults must not poison");
        assert_eq!(wal.stats().fsync_retries.load(Ordering::Relaxed), 2);
        assert_eq!(wal.current_segment(), 3, "one fresh segment per failure");
        assert_eq!(commit_ts(&read_segment(&dir, 3)), vec![2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retry_budget_poisons_and_wakes_the_waiter() {
        let dir = temp_dir("leader-budget");
        let (fault, wal) = slow_log(
            &dir,
            10,
            vec![FaultRule::new(
                FaultOp::Fsync,
                FaultMode::FailAlways,
                std::io::ErrorKind::Interrupted,
            )],
        );
        let (leader, waiter) = leader_and_waiter(&fault, &wal);
        let leader = leader.unwrap_err();
        assert_eq!(
            (leader.op, leader.kind),
            (WalOp::Fsync, WalErrorKind::Transient)
        );
        assert_eq!(waiter.unwrap_err().kind, WalErrorKind::Poisoned);
        assert_eq!(wal.poison_cause(), Some(PoisonCause::Io));
        assert_eq!(
            wal.stats().fsync_retries.load(Ordering::Relaxed),
            RETRY_BUDGET as u64,
            "must exhaust exactly the budget"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fatal_fsync_failure_poisons_without_retrying() {
        let dir = temp_dir("leader-fatal");
        let (fault, wal) = slow_log(
            &dir,
            20,
            vec![FaultRule::new(
                FaultOp::Fsync,
                FaultMode::FailAlways,
                std::io::ErrorKind::PermissionDenied,
            )],
        );
        let (leader, waiter) = leader_and_waiter(&fault, &wal);
        assert_eq!(leader.unwrap_err().kind, WalErrorKind::Fatal);
        assert_eq!(waiter.unwrap_err().kind, WalErrorKind::Poisoned);
        assert_eq!(
            wal.stats().fsync_retries.load(Ordering::Relaxed),
            0,
            "fatal failures must not burn retries"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poison_wakes_a_waiter_parked_behind_the_leader() {
        // The leader's fsync is held long enough for the test to poison
        // the log while the waiter is parked; the waiter must come back
        // with an error before the leader's pass ends, not hang or be
        // acknowledged.
        let dir = temp_dir("leader-poison");
        let (fault, wal) = slow_log(&dir, 1000, vec![]);
        std::thread::scope(|s| {
            let leader = s.spawn(|| commit(&wal, 2));
            while fault.delayed() == 0 {
                std::thread::yield_now();
            }
            let waiter = s.spawn(|| commit(&wal, 3));
            while wal.sealed_ts() < 3 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            wal.poison();
            let err = waiter.join().unwrap().unwrap_err();
            assert_eq!(err.kind, WalErrorKind::Poisoned);
            assert_eq!(wal.durable_ts(), 0, "woken before the leader's pass ended");
            let _ = leader.join().unwrap();
        });
        assert!(commit(&wal, 4).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deferred_seal_is_resealed_by_the_leader() {
        let dir = temp_dir("defer-seal");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Write,
            FaultMode::FailOnce,
            std::io::ErrorKind::Interrupted,
        )
        .on_path("segment-")]);
        let wal = WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::GroupCommit).unwrap();
        wal.submit(2, TxnId(1), vec![entry(b"a", b"1")]);
        // The injected write failure defers the seal instead of erroring.
        wal.seal_upto(2).unwrap();
        assert_eq!(wal.sealed_ts(), 0, "seal must have been deferred");
        // The leader re-seals up to the requested watermark and syncs.
        wal.wait_durable(2).unwrap();
        assert_eq!(wal.durable_ts(), 2);
        assert_eq!(read_segment(&dir, 1).len(), 1);

        // A short write leaves part of a frame in the segment's reserved
        // space; the rollback cuts it off and the retry writes the frame
        // whole where it began (`read_segment` asserts no torn tail).
        fault.add_rule(
            FaultRule::new(
                FaultOp::Write,
                FaultMode::ShortWrite { bytes: 5 },
                std::io::ErrorKind::WriteZero,
            )
            .on_path("segment-"),
        );
        wal.submit(3, TxnId(2), vec![entry(b"b", b"2")]);
        assert!(wal.seal_upto(3).is_err(), "the short write must surface");
        assert_eq!(
            wal.epoch_bytes(),
            std::fs::metadata(segment_path(&dir, 1)).unwrap().len()
        );
        fault.clear_rules();
        wal.seal_upto(3).unwrap();
        wal.wait_durable(3).unwrap();
        assert_eq!(read_segment(&dir, 1).len(), 2);
        assert!(!wal.is_poisoned());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_runs_the_reclaim_hook_once_per_incident() {
        // The first three appends fail with ENOSPC: the committer's own
        // seal (deferred), then the leader's first two re-seals. The first
        // retry runs the reclaim hook instead of the backoff, the second
        // backs off, the third attempt lands.
        let dir = temp_dir("leader-reclaim");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Write,
            FaultMode::FailTimes(3),
            std::io::ErrorKind::StorageFull,
        )
        .on_path("segment-")]);
        let wal = WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::GroupCommit).unwrap();
        let hook_calls = Arc::new(AtomicU64::new(0));
        let calls = hook_calls.clone();
        wal.set_reclaim_hook(Box::new(move || {
            calls.fetch_add(1, Ordering::Relaxed);
        }));
        commit(&wal, 2).unwrap();
        assert_eq!(hook_calls.load(Ordering::Relaxed), 1);
        assert_eq!(wal.stats().reclaim_attempts.load(Ordering::Relaxed), 1);
        assert_eq!(wal.stats().fsync_retries.load(Ordering::Relaxed), 2);
        assert_eq!(commit_ts(&read_segment(&dir, 1)), vec![2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_defers_a_failed_seal_and_the_record_lands_in_the_new_segment() {
        // The ENOSPC-reclaim shape: the old segment cannot take one more
        // byte, so the rotation's seal fails retryably. The rotation must
        // still succeed (defer, not abort) — otherwise checkpoint-to-
        // reclaim could never run against a full log — and the next flush
        // pass re-seals the record into the *fresh* segment.
        let dir = temp_dir("rotate-defer");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Write,
            FaultMode::FailTimes(1),
            std::io::ErrorKind::StorageFull,
        )
        .on_path("segment-")]);
        let wal = WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::GroupCommit).unwrap();
        wal.submit(2, TxnId(1), vec![entry(b"a", b"1")]);
        let (cut_ts, old_seq) = wal.rotate(|| 2).unwrap();
        assert_eq!((cut_ts, old_seq), (2, 1));
        assert_eq!(wal.current_segment(), 2);
        assert!(
            read_segment(&dir, 1).is_empty(),
            "old segment must be empty"
        );
        // The budget recovers (FailTimes(1) exhausted): the leader re-seals
        // the deferred record into segment 2 and syncs it.
        wal.wait_durable(2).unwrap();
        assert_eq!(read_segment(&dir, 2).len(), 1);
        assert!(!wal.is_poisoned());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Counts every later fsync of segment 1 (as a zero-length delay).
    fn count_segment_one_fsyncs(fault: &FaultVfs) {
        fault.add_rule(
            FaultRule::new(
                FaultOp::Fsync,
                FaultMode::Delay { millis: 0 },
                std::io::ErrorKind::Other,
            )
            .on_path("segment-0000000001"),
        );
    }

    #[test]
    fn reclaim_rotation_after_a_failed_fsync_reemits_instead_of_refsyncing() {
        // ENOSPC on the leader's fsync of segment 1. The reclaim hook's
        // rotation must neither fsync segment 1 again (a second fsync may
        // succeed spuriously) nor move `durable_ts`: it re-emits the
        // unsynced frame into segment 2, and the commit is acknowledged
        // only once the leader's retry fsyncs that.
        let dir = temp_dir("reclaim-rotate");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailOnce,
            std::io::ErrorKind::StorageFull,
        )
        .on_path("segment-")]);
        count_segment_one_fsyncs(&fault);
        let wal = Arc::new(
            WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::GroupCommit).unwrap(),
        );
        let seen = Arc::new(Mutex::new(None));
        let (log, hook_seen) = (Arc::downgrade(&wal), seen.clone());
        wal.set_reclaim_hook(Box::new(move || {
            let wal = log.upgrade().unwrap();
            let rotated = wal.rotate(|| 2).map_err(|e| e.kind);
            *hook_seen.lock() = Some((rotated, wal.durable_ts()));
        }));
        commit(&wal, 2).unwrap();
        let (rotated, durable_in_hook) = seen.lock().take().expect("reclaim hook ran");
        assert_eq!(rotated, Ok((2, 1)));
        assert_eq!(
            durable_in_hook, 0,
            "rotation acknowledged an errored segment"
        );
        assert_eq!(fault.delayed(), 0, "segment 1 was fsynced again");
        assert_eq!(wal.durable_ts(), 2);
        assert_eq!(wal.current_segment(), 2);
        assert_eq!(commit_ts(&read_segment(&dir, 2)), vec![2]);
        assert_eq!(wal.stats().fsync_retries.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_racing_a_failing_leader_fsync_reemits_instead_of_refsyncing() {
        // A checkpoint's rotation starts while the leader's fsync of
        // segment 1 is in flight and about to fail. The rotation waits for
        // that fsync and sees its failure: segment 1 is fsynced once only,
        // and the leader's retry fsyncs the re-emitted segment 2.
        let dir = temp_dir("rotate-race");
        let (fault, wal) = slow_log(
            &dir,
            50,
            vec![FaultRule::new(
                FaultOp::Fsync,
                FaultMode::FailOnce,
                std::io::ErrorKind::Interrupted,
            )],
        );
        std::thread::scope(|s| {
            let leader = s.spawn(|| commit(&wal, 2));
            while fault.delayed() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(wal.rotate(|| 2).unwrap(), (2, 1));
            leader.join().unwrap().unwrap();
        });
        let segment_one_fsyncs = fault
            .events()
            .iter()
            .filter(|e| e.starts_with("delay") && e.contains("fsync at"))
            .filter(|e| e.contains("segment-0000000001"))
            .count();
        assert_eq!(segment_one_fsyncs, 1, "segment 1 was fsynced again");
        assert_eq!(wal.durable_ts(), 2);
        assert_eq!(commit_ts(&read_segment(&dir, 2)), vec![2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poison_cause_first_wins() {
        let dir = temp_dir("poison-cause");
        let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
        assert_eq!(wal.poison_cause(), None);
        wal.poison_with(PoisonCause::OutOfSpace);
        wal.poison_with(PoisonCause::Io);
        assert_eq!(wal.poison_cause(), Some(PoisonCause::OutOfSpace));
        assert!(wal.is_poisoned());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
