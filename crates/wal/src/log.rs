//! The append side of the redo log: segment files, the pending buffer fed
//! by committers, timestamp-ordered sealing, and group commit — the
//! elected leader's flush pass (protocol and failure handling in the crate
//! docs).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};

use ssi_common::{TableId, Timestamp, TxnId};
use ssi_obs::{EngineMetrics, EventKind};

use crate::error::{ctx, WalError, WalErrorKind, WalOp, WalResult};
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
    /// elected leader syncs for every sealed commit at once (group commit).
    /// Its first failure poisons the log; nothing is retried.
    GroupCommit,
}

/// Why the log was poisoned, for the health API to classify the
/// degradation it causes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoisonCause {
    /// An append, a segment creation or an fsync failed.
    Io,
    /// One of those failed because the device or quota is full.
    OutOfSpace,
    /// A flush leader's pass unwound (a `Vfs` panicked); nothing vouches
    /// for the tail it was syncing.
    Panic,
}

/// Activity counters, read by `Database::metrics()` and by tests.
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
    /// Appends and fsyncs that came back with an error (includes injected
    /// faults; zero on the clean path). The first one poisons the log.
    pub io_failures: AtomicU64,
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
    path: Arc<Path>,
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
    /// Commit timestamps `<= durable_ts` are on stable storage. Advanced
    /// (`fetch_max`) only under `flush`, so a committer that reads it under
    /// `flush` and then parks on `flushed` misses no advance; a plain read
    /// takes no lock.
    durable_ts: AtomicU64,
    /// True while an elected leader runs a flush pass for the group.
    flush: Mutex<bool>,
    flushed: Condvar,
    /// Highest timestamp any committer has asked to seal; a flush pass
    /// that finds nothing pending at or below it advances `durable_ts` to
    /// it.
    requested_seal: AtomicU64,
    /// Set by the first failed append, segment creation or fsync: from
    /// then on every append, fsync and durability wait fails (fail-stop),
    /// so no commit is acknowledged that recovery might discard, and no
    /// segment is fsynced after a failed fsync — the kernel may have
    /// dropped the dirty pages and cleared the error, so a second fsync
    /// could report success for data that is gone. Recovery is a reopen.
    poisoned: AtomicBool,
    /// Why (one of the `CAUSE_*` codes; 0 while healthy). First cause wins.
    poison_cause: AtomicU8,
    /// Held across every segment fsync, the leader's and a rotation's.
    /// Under it: check for poison, fsync, and on failure poison before
    /// releasing it — so a checkpoint's rotation racing a leader whose
    /// fsync fails can never fsync the segment again. Lock order:
    /// append -> this -> flush.
    fsync_lock: Mutex<()>,
    stats: WalStats,
    /// Engine observability, installed once by the database after open
    /// (fsync latency histogram plus seal/fsync/rotate trace events).
    /// Absent when the log runs standalone (tests, tools).
    obs: OnceLock<Arc<EngineMetrics>>,
}

/// Ends a leader's flush pass: clears the in-progress flag and wakes every
/// waiter. A pass that unwinds instead of returning (a `Vfs` panicked)
/// first poisons the log, so its waiters — and every later committer — get
/// an error instead of parking forever behind a flag nobody clears.
struct LeaderGuard<'a> {
    wal: &'a WalWriter,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.wal.poison_with(PoisonCause::Panic);
        }
        *self.wal.flush.lock() = false;
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
            }),
            durable_ts: AtomicU64::new(0),
            flush: Mutex::new(false),
            flushed: Condvar::new(),
            requested_seal: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            poison_cause: AtomicU8::new(0),
            fsync_lock: Mutex::new(()),
            stats: WalStats::default(),
            obs: OnceLock::new(),
        })
    }

    /// The sync policy the log was opened with.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
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
    /// no matter which committer seals first. Idempotent. A failed append
    /// poisons the log.
    pub fn seal_upto(&self, ts: Timestamp) -> WalResult<()> {
        self.requested_seal.fetch_max(ts, Ordering::AcqRel);
        self.seal_locked(&mut self.appender.lock(), ts)
    }

    /// The seal loop, under the held append lock (shared by
    /// [`WalWriter::seal_upto`] and [`WalWriter::rotate`]). A record whose
    /// append fails is put *back* into the pending buffer before the error
    /// is returned: the flush pass must keep finding it there, or it would
    /// take the failed timestamp for one without a record and count it
    /// durable.
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
        let mut in_progress = self.flush.lock();
        loop {
            if self.durable_ts() >= ts {
                return Ok(());
            }
            // Checked inside the loop: a leader that fails poisons the log
            // and wakes everyone, and no waiter may then lead a pass of
            // its own.
            self.check_poisoned()?;
            if *in_progress {
                self.flushed.wait(&mut in_progress);
            } else {
                self.lead_flush(in_progress)?;
                in_progress = self.flush.lock();
            }
        }
    }

    /// Flushes and fsyncs everything sealed so far (clean close; the only
    /// sync of buffered mode besides checkpoints). Runs as an elected
    /// leader: it waits out a flush in progress, then makes its own pass.
    /// Pending records of in-flight commits, if any, are not sealed — their
    /// owners are still before their publication point.
    pub fn sync(&self) -> WalResult<()> {
        let mut in_progress = self.flush.lock();
        while *in_progress {
            self.flushed.wait(&mut in_progress);
        }
        self.lead_flush(in_progress)
    }

    /// Runs one flush pass as the elected leader: the in-progress flag is
    /// set under the held `flush` guard, which is released for the pass.
    fn lead_flush(&self, mut in_progress: MutexGuard<'_, bool>) -> WalResult<()> {
        *in_progress = true;
        drop(in_progress);
        let _guard = LeaderGuard { wal: self };
        self.flush_pass()
    }

    /// One flush pass: fsyncs the current segment and advances
    /// `durable_ts` over everything sealed before the capture.
    ///
    /// With nothing pending at or below the requested watermark,
    /// `durable_ts` advances to the watermark itself: every timestamp up to
    /// it is sealed or has no record — a commit that failed after taking
    /// its timestamp publishes it without one — so a wait on such a
    /// timestamp ends instead of re-electing its caller forever.
    fn flush_pass(&self) -> WalResult<()> {
        self.check_poisoned()?;
        let (file, path, sealed, target, dirty) = {
            let mut appender = self.appender.lock();
            let requested = self.requested_seal.load(Ordering::Acquire);
            let target = match appender.pending.first_key_value() {
                Some((&ts, _)) if ts <= requested => appender.sealed_ts,
                _ => appender.sealed_ts.max(requested),
            };
            (
                appender.file.clone(),
                appender.path.clone(),
                appender.sealed_ts,
                target,
                std::mem::take(&mut appender.dirty),
            )
        };
        // Skipped when the last pass already synced everything appended.
        if dirty || self.durable_ts() < sealed {
            self.fsync_segment(file.as_ref(), &path)?;
        }
        self.publish_durable(target);
        Ok(())
    }

    /// Rotates to a fresh segment for a checkpoint, under the append lock:
    /// reads the published clock via `clock`, seals everything up to it,
    /// fsyncs the old segment, opens segment `seq + 1` and advances
    /// `durable_ts` over the old one — before any committer can capture the
    /// empty new segment as its flush target. Returns `(cut_ts, old_seq)`:
    /// every record with `ts <= cut_ts` is in segments `<= old_seq`, every
    /// later record lands in newer segments — the cut invariant
    /// checkpointing relies on. Any failure poisons the log.
    pub fn rotate(&self, clock: impl FnOnce() -> Timestamp) -> WalResult<(Timestamp, u64)> {
        self.check_poisoned()?;
        let mut appender = self.appender.lock();
        // Read the clock *after* taking the append lock: any seal that ran
        // before us covered only timestamps <= this value, and all of the
        // <= cut_ts prefix is pending or sealed (submit precedes
        // publication).
        let cut_ts = clock();
        self.seal_locked(&mut appender, cut_ts)?;
        let old_seq = appender.seq;
        self.fsync_segment(&*appender.file, &appender.path)?;
        let (file, path) = create_segment(self.vfs.as_ref(), &self.dir, old_seq + 1)
            .map_err(|e| self.poison_for(e))?;
        appender.file = file;
        appender.path = path;
        appender.seq = old_seq + 1;
        appender.epoch_bytes = 0;
        appender.dirty = false;
        self.publish_durable(appender.sealed_ts);
        self.flushed.notify_all();
        drop(appender);
        if let Some(obs) = self.obs() {
            obs.trace.emit(EventKind::WalRotate, old_seq, 0, 0);
        }
        Ok((cut_ts, old_seq))
    }

    /// Highest commit timestamp known to be on stable storage.
    pub fn durable_ts(&self) -> Timestamp {
        self.durable_ts.load(Ordering::Acquire)
    }

    /// Advances `durable_ts` to `ts` (never back), under `flush`.
    fn publish_durable(&self, ts: Timestamp) {
        let _flush = self.flush.lock();
        self.durable_ts.fetch_max(ts, Ordering::AcqRel);
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

    /// Poisons the log for the failed append, segment creation or fsync
    /// `error`, and returns it.
    fn poison_for(&self, error: WalError) -> WalError {
        self.poison_with(if error.kind == WalErrorKind::OutOfSpace {
            PoisonCause::OutOfSpace
        } else {
            PoisonCause::Io
        });
        error
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

    /// True once an append, segment creation or fsync has failed (see the
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

    /// Fsyncs a segment under `fsync_lock`, timed and traced (see that
    /// field for the rule it enforces).
    fn fsync_segment(&self, file: &dyn VfsFile, path: &Path) -> WalResult<()> {
        let _serial = self.fsync_lock.lock();
        self.check_poisoned()?;
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
            self.poison_for(WalError::io(WalOp::Fsync, path, e))
        })
    }

    /// Appends one frame at the segment's logical end. A failure poisons
    /// the log, after rolling the segment back to its last whole-frame
    /// boundary: `write_all` may have left part of the frame in the file,
    /// and after a reopen this segment is no longer the last one.
    fn write_frame(&self, appender: &mut Appender, frame: &[u8]) -> WalResult<()> {
        self.check_poisoned()?;
        if let Err(e) = appender.file.write_all(frame) {
            let _ = appender.file.set_len(appender.epoch_bytes);
            self.stats.io_failures.fetch_add(1, Ordering::Relaxed);
            return Err(self.poison_for(WalError::io(WalOp::Append, &*appender.path, e)));
        }
        appender.epoch_bytes += frame.len() as u64;
        appender.dirty = true;
        Ok(())
    }
}

fn create_segment(vfs: &dyn Vfs, dir: &Path, seq: u64) -> WalResult<(Arc<dyn VfsFile>, Arc<Path>)> {
    let path = segment_path(dir, seq);
    let file = ctx(vfs.create_segment(&path), WalOp::Create, &path)?;
    if let Err(e) = vfs.sync_dir(dir) {
        // Segments are always new: take this one back, so that a reopen
        // can create it again.
        let _ = vfs.remove_file(&path);
        return Err(WalError::io(WalOp::DirSync, dir, e));
    }
    Ok((file, path.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{decode_stream, Record, WriteEntry};
    use crate::testutil::temp_dir;
    use crate::vfs::{FaultMode, FaultOp, FaultRule, FaultVfs};
    use std::time::Duration;

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

    /// Segment fsyncs of `seq` seen by a `Delay` rule so far.
    fn fsyncs_of_segment(fault: &FaultVfs, seq: u64) -> usize {
        let name = format!("segment-{seq:010}");
        fault
            .events()
            .iter()
            .filter(|e| e.starts_with("delay") && e.contains("fsync at") && e.contains(&name))
            .count()
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
        assert_eq!(wal.durable_ts(), 3);
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
        assert!(wal.sync().is_err());
        assert_eq!(wal.poison_cause(), Some(PoisonCause::Io));
        assert_eq!(wal.sync().unwrap_err().kind, WalErrorKind::Poisoned);
        assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), 1);
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
    fn failed_fsync_poisons_and_wakes_the_waiter() {
        // Transient or fatal alike: the leader's first failed fsync poisons
        // the log. The leader gets the I/O error, the committer parked
        // behind it gets `Poisoned`, nothing becomes durable, and no fresh
        // segment is opened to retry into.
        for (kind, class) in [
            (std::io::ErrorKind::Interrupted, WalErrorKind::Transient),
            (std::io::ErrorKind::PermissionDenied, WalErrorKind::Fatal),
        ] {
            let dir = temp_dir("leader-fails");
            let (fault, wal) = slow_log(
                &dir,
                20,
                vec![FaultRule::new(FaultOp::Fsync, FaultMode::FailOnce, kind)],
            );
            let (leader, waiter) = leader_and_waiter(&fault, &wal);
            let leader = leader.unwrap_err();
            assert_eq!((leader.op, leader.kind), (WalOp::Fsync, class));
            assert_eq!(waiter.unwrap_err().kind, WalErrorKind::Poisoned);
            assert_eq!(wal.poison_cause(), Some(PoisonCause::Io));
            assert_eq!(wal.durable_ts(), 0);
            assert_eq!(wal.current_segment(), 1);
            assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), 1);
            assert_eq!(commit(&wal, 4).unwrap_err().kind, WalErrorKind::Poisoned);
            let _ = std::fs::remove_dir_all(&dir);
        }
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
    fn short_write_poisons_and_rolls_back_to_the_frame_boundary() {
        // A short write leaves part of a frame in the segment's reserved
        // space. The rollback cuts it off — the logical end equals the
        // file length, and `read_segment` finds no torn tail — and the
        // commit errors on a poisoned log.
        let dir = temp_dir("short-write");
        let fault = FaultVfs::new(vec![]);
        let wal = WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::GroupCommit).unwrap();
        commit(&wal, 2).unwrap();
        fault.add_rule(
            FaultRule::new(
                FaultOp::Write,
                FaultMode::ShortWrite { bytes: 5 },
                std::io::ErrorKind::WriteZero,
            )
            .on_path("segment-"),
        );
        let err = commit(&wal, 3).unwrap_err();
        assert_eq!((err.op, err.kind), (WalOp::Append, WalErrorKind::Fatal));
        assert_eq!(wal.poison_cause(), Some(PoisonCause::Io));
        assert_eq!(
            wal.epoch_bytes(),
            std::fs::metadata(segment_path(&dir, 1)).unwrap().len()
        );
        assert_eq!(commit_ts(&read_segment(&dir, 1)), vec![2]);
        assert_eq!(
            wal.wait_durable(3).unwrap_err().kind,
            WalErrorKind::Poisoned
        );
        assert_eq!(wal.durable_ts(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_whose_seal_fails_poisons_the_log() {
        // The old segment cannot take one more byte: the rotation's seal
        // fails, the rotation returns the error, and the log is poisoned
        // out of space with the record still pending and no new segment.
        let dir = temp_dir("rotate-seal-fails");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Write,
            FaultMode::FailOnce,
            std::io::ErrorKind::StorageFull,
        )
        .on_path("segment-")]);
        let wal = WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::GroupCommit).unwrap();
        wal.submit(2, TxnId(1), vec![entry(b"a", b"1")]);
        let err = wal.rotate(|| 2).unwrap_err();
        assert_eq!(
            (err.op, err.kind),
            (WalOp::Append, WalErrorKind::OutOfSpace)
        );
        assert_eq!(wal.poison_cause(), Some(PoisonCause::OutOfSpace));
        assert_eq!(wal.current_segment(), 1);
        assert_eq!(wal.sealed_ts(), 0);
        assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), 0);
        assert_eq!(
            wal.wait_durable(2).unwrap_err().kind,
            WalErrorKind::Poisoned
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_racing_a_failing_leader_fsync_is_poisoned_without_refsyncing() {
        // A checkpoint's rotation starts while the leader's fsync of
        // segment 1 is in flight and about to fail. The test holds `flush`
        // meanwhile, so the leader cannot end its pass before the rotation
        // has run: the log must be poisoned by the time the fsync mutex is
        // released, not when the failure reaches the end of the pass. The
        // rotation then finds it poisoned: segment 1 is fsynced once only,
        // and nothing becomes durable.
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
            let pass_cannot_end = wal.flush.lock();
            let rotation = s.spawn(|| wal.rotate(|| 2));
            // Until the rotation is done, or has fsynced segment 1 again
            // and waits for `flush` to publish what it synced.
            while !rotation.is_finished() && fault.delayed() < 2 {
                std::thread::yield_now();
            }
            drop(pass_cannot_end);
            assert_eq!(
                rotation.join().unwrap().unwrap_err().kind,
                WalErrorKind::Poisoned
            );
            assert_eq!(
                leader.join().unwrap().unwrap_err().kind,
                WalErrorKind::Transient
            );
        });
        assert_eq!(
            fsyncs_of_segment(&fault, 1),
            1,
            "segment 1 was fsynced again"
        );
        assert_eq!(wal.durable_ts(), 0);
        assert_eq!(wal.current_segment(), 1);
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
