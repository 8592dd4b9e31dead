//! The append side of the redo log: segment files, the pending buffer fed
//! by committers, timestamp-ordered sealing, and the group-commit flusher
//! election (protocol in the crate docs).

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

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
    /// flusher syncs for every sealed commit at once (group commit).
    GroupCommit,
    /// Every commit performs its own fsync, sharing nothing: the naive
    /// durable commit that `BENCH_wal.json` recorded group commit against.
    /// The engine never selects it; this crate's tests do.
    EveryCommit,
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
    /// A maintenance thread died; nobody is left to drive durability.
    Panic,
}

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
    /// Fsyncs issued by the dedicated flusher thread (a subset of
    /// `fsyncs`; with a flusher attached these should account for *all*
    /// commit-path fsyncs — committers never self-elect).
    pub flusher_fsyncs: AtomicU64,
    /// Flush passes the dedicated flusher completed.
    pub flusher_batches: AtomicU64,
    /// I/O operations that came back with an error (includes injected
    /// faults; zero on the clean path).
    pub io_failures: AtomicU64,
    /// Flush passes re-attempted by the flusher's retry policy after a
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
/// mutex. No *commit-path* fsync happens while it is held (flushers clone
/// the file handle and sync outside it); the one exception is
/// [`WalWriter::rotate`], which holds it across the old segment's fsync so
/// that `durable_ts` can be advanced before any committer captures the new
/// (empty) file as its flush target — checkpoints therefore stall
/// concurrent commits for one device sync, which is rare and bounded.
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
    /// Monotone id assigned to each frame written to any segment; the
    /// pruning watermark of the unsynced-frame buffer.
    append_seq: u64,
    /// With frame buffering enabled: copies of every frame written but not
    /// yet covered by a successful fsync, keyed by `append_seq`. This is
    /// what makes fsync failure retryable *without* re-fsyncing the
    /// errored file — the frames are re-emitted to a fresh segment and
    /// that is fsynced instead.
    unsynced: VecDeque<(u64, Vec<u8>)>,
}

/// What [`WalWriter::flusher_wait_for_work`] woke up for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlusherWork {
    /// Something sealed or retired awaits an fsync (or a flush was forced).
    Work,
    /// Shutdown requested and nothing is left to drain.
    Shutdown,
    /// The log is poisoned; the flusher can vouch for nothing anymore.
    Poisoned,
}

/// Flush state for the group-commit protocol.
struct FlushState {
    /// Commit timestamps `<= durable_ts` are on stable storage.
    durable_ts: Timestamp,
    /// True while some committer is inside `fsync` on behalf of the group.
    flush_in_progress: bool,
    /// Segments handed off by a flusher-aware rotation, each paired with
    /// the highest timestamp sealed into it: the dedicated flusher fsyncs
    /// them *off* the append lock and then advances `durable_ts`.
    retired: Vec<(Arc<dyn VfsFile>, PathBuf, Timestamp)>,
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
    /// True when frames are buffered until durably synced, enabling the
    /// flusher's retry-by-re-emission policy. Only meaningful with a
    /// dedicated flusher; without one there is nobody to drive retries.
    buffer_unsynced: bool,
    appender: Mutex<Appender>,
    flush: Mutex<FlushState>,
    flushed: Condvar,
    /// Wakes the dedicated flusher (waits on the `flush` mutex): signaled
    /// when new records are sealed, a rotation retires a segment, a flush
    /// is forced, or shutdown/poison needs the thread's attention.
    work_cv: Condvar,
    /// True once a dedicated flusher thread drives fsyncs for this log:
    /// group-commit committers park instead of self-electing, and rotation
    /// hands the old segment to the flusher instead of syncing it under
    /// the append lock.
    flusher_attached: AtomicBool,
    /// One-shot request for an immediate flush pass, regardless of batch
    /// age or size (tests single-stepping the flusher; clean shutdown).
    force_flush: AtomicBool,
    /// Mirror of `Appender::sealed_ts`, readable without the append lock
    /// (the flusher's has-work check must not nest the two mutexes).
    sealed_hint: AtomicU64,
    /// Highest timestamp any committer has asked to seal. With frame
    /// buffering, a seal whose append failed transiently is *deferred*:
    /// the committer's record stays pending and the flusher re-seals up to
    /// this watermark on its next pass.
    requested_seal: AtomicU64,
    /// Nanoseconds since `epoch` at which the oldest not-yet-fsynced
    /// sealed record entered the log (0 = none): the batch-age clock the
    /// flusher's `flush_max_delay` window runs on.
    first_unsynced_nanos: AtomicU64,
    /// Bytes sealed since the last flush pass (the flusher's size-threshold
    /// trigger).
    unsynced_bytes: AtomicU64,
    /// True when *any* frame — including control records, which advance no
    /// timestamp — was appended since the last fsync of the current
    /// segment. `sync_all_sealed`'s nothing-to-do early return must test
    /// this, not just `sealed_ts`: a `create_table` record appended after
    /// the last durable commit would otherwise be skipped by a clean
    /// close's sync (the pre-flusher `sync()` fsynced unconditionally).
    dirty_appends: AtomicBool,
    /// Time base for `first_unsynced_nanos`.
    epoch: Instant,
    /// Set when the log can no longer vouch for what is on the device: a
    /// partial append that could not be rolled back (the segment may end in
    /// a half-frame that a later append would bury), or a failed `fsync`
    /// that the retry policy cannot — or is not there to — repair (the
    /// kernel may have dropped dirty pages and consumed the error, so a
    /// bare retry could spuriously succeed — the PostgreSQL fsync lesson).
    /// Once set, every append and every durability wait fails: no commit
    /// is ever acknowledged that recovery might silently discard.
    poisoned: AtomicBool,
    /// Why (one of the `CAUSE_*` codes; 0 while healthy). First cause wins.
    poison_cause: AtomicU8,
    /// Checkpoint-to-reclaim hook installed by the database: invoked by
    /// the flusher once per ENOSPC incident before the failure counts
    /// against the retry budget. Returns true when a checkpoint was taken.
    reclaim: Mutex<Option<Box<dyn Fn() -> bool + Send + Sync>>>,
    stats: WalStats,
    /// Engine observability, installed once by the database after open
    /// (fsync latency histogram plus seal/fsync/rotate trace events).
    /// Absent when the log runs standalone (tests, tools).
    obs: OnceLock<Arc<EngineMetrics>>,
}

impl WalWriter {
    /// Opens the log for appending, creating segment `seq` in `dir` (it
    /// must not exist: a reopened database appends to the first free
    /// sequence number recovery reports), on the production VFS with frame
    /// buffering off.
    pub fn open(dir: &Path, seq: u64, policy: SyncPolicy) -> WalResult<Self> {
        Self::open_with(StdVfs::handle(), dir, seq, policy, false)
    }

    /// Opens the log on an explicit [`Vfs`]. `buffer_unsynced` enables the
    /// unsynced-frame buffer that makes flusher fsync failures retryable;
    /// it costs one frame copy per append and is pointless without a
    /// dedicated flusher.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        seq: u64,
        policy: SyncPolicy,
        buffer_unsynced: bool,
    ) -> WalResult<Self> {
        let (file, path) = create_segment(vfs.as_ref(), dir, seq)?;
        Ok(WalWriter {
            vfs,
            dir: dir.to_path_buf(),
            policy,
            buffer_unsynced,
            appender: Mutex::new(Appender {
                file,
                path,
                seq,
                pending: BTreeMap::new(),
                sealed_ts: 0,
                epoch_bytes: 0,
                append_seq: 0,
                unsynced: VecDeque::new(),
            }),
            flush: Mutex::new(FlushState {
                durable_ts: 0,
                flush_in_progress: false,
                retired: Vec::new(),
            }),
            flushed: Condvar::new(),
            work_cv: Condvar::new(),
            flusher_attached: AtomicBool::new(false),
            force_flush: AtomicBool::new(false),
            sealed_hint: AtomicU64::new(0),
            requested_seal: AtomicU64::new(0),
            first_unsynced_nanos: AtomicU64::new(0),
            unsynced_bytes: AtomicU64::new(0),
            dirty_appends: AtomicBool::new(false),
            epoch: Instant::now(),
            poisoned: AtomicBool::new(false),
            poison_cause: AtomicU8::new(0),
            reclaim: Mutex::new(None),
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

    /// Installs the checkpoint-to-reclaim hook the flusher invokes on
    /// ENOSPC (returns true when a checkpoint was actually taken).
    pub fn set_reclaim_hook(&self, hook: Box<dyn Fn() -> bool + Send + Sync>) {
        *self.reclaim.lock() = Some(hook);
    }

    /// Runs the reclaim hook, if any. Counted in stats either way.
    pub(crate) fn try_reclaim(&self) -> bool {
        self.stats.reclaim_attempts.fetch_add(1, Ordering::Relaxed);
        let hook = self.reclaim.lock();
        match hook.as_ref() {
            Some(hook) => hook(),
            None => false,
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
    /// With frame buffering enabled, a *retryable* append failure is
    /// deferred rather than surfaced: the failed record is back in the
    /// pending buffer (the seal loop guarantees that), the requested
    /// watermark is recorded, and the dedicated flusher re-seals on its
    /// next pass — the committer simply parks in
    /// [`WalWriter::wait_durable`] until the retried flush covers it (or
    /// the budget is exhausted and the poison wakes it with an error).
    pub fn seal_upto(&self, ts: Timestamp) -> WalResult<()> {
        self.requested_seal.fetch_max(ts, Ordering::AcqRel);
        let result = {
            let mut appender = self.appender.lock();
            self.seal_locked(&mut appender, ts)
        };
        let flusher = self.flusher_attached.load(Ordering::Acquire);
        let deferred = match &result {
            Err(e) => flusher && self.buffer_unsynced && e.is_retryable() && !self.is_poisoned(),
            Ok(()) => false,
        };
        if deferred {
            // Open the batch-age window so the flusher's max_delay bounds
            // the retry latency even if nothing else is sealed meanwhile.
            let now = self.epoch.elapsed().as_nanos().max(1) as u64;
            let _ = self.first_unsynced_nanos.compare_exchange(
                0,
                now,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
        if flusher {
            // The empty lock section orders this wakeup after the flusher's
            // has-work check: either the check saw the new `sealed_hint`, or
            // the flusher is parked on `work_cv` when the notify lands. In
            // buffered mode this is the *only* signal the flusher gets.
            drop(self.flush.lock());
            self.work_cv.notify_one();
        }
        if deferred {
            return Ok(());
        }
        result
    }

    /// The seal loop, under the held append lock (shared by
    /// [`WalWriter::seal_upto`] and [`WalWriter::rotate`]). A record whose
    /// append fails is put *back* into the pending buffer before the error
    /// is returned: the failed frame may belong to a different committer
    /// than the caller, and that committer must still find its record
    /// sealable later (or hit the poisoned log) rather than be acknowledged
    /// durable while its record exists nowhere.
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
            if self.flusher_attached.load(Ordering::Acquire) {
                // Batch-age bookkeeping for the dedicated flusher: open the
                // batch window if no unsynced record opened it already (the
                // marker write precedes the `sealed_hint` publication, so
                // the flusher never sees work without an open window), and
                // count the bytes toward the size threshold. Skipped in
                // committer-elected mode, where nothing reads or resets it.
                let now = self.epoch.elapsed().as_nanos().max(1) as u64;
                let _ = self.first_unsynced_nanos.compare_exchange(
                    0,
                    now,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                self.unsynced_bytes.fetch_add(bytes, Ordering::AcqRel);
            }
            self.sealed_hint
                .fetch_max(appender.sealed_ts, Ordering::AcqRel);
        }
        result
    }

    /// Blocks until every sealed record with timestamp `<= ts` is on stable
    /// storage, per the configured [`SyncPolicy`]. The caller must have
    /// sealed `ts` first.
    pub fn wait_durable(&self, ts: Timestamp) -> WalResult<()> {
        match self.policy {
            SyncPolicy::Never => Ok(()),
            SyncPolicy::EveryCommit => {
                // Baseline: one fsync per commit, no sharing.
                self.check_poisoned()?;
                let (file, path, target) = {
                    let appender = self.appender.lock();
                    (
                        appender.file.clone(),
                        appender.path.clone(),
                        appender.sealed_ts,
                    )
                };
                self.fsync_file(file.as_ref(), &path, true)?;
                let mut flush = self.flush.lock();
                flush.durable_ts = flush.durable_ts.max(target);
                Ok(())
            }
            SyncPolicy::GroupCommit => {
                if self.flusher_attached.load(Ordering::Acquire) {
                    // Dedicated-flusher mode: committers only enqueue (their
                    // record is already sealed) and park — the flusher fsyncs
                    // when the batch ages out or the size threshold trips, so
                    // batch size is no longer bounded by natural committer
                    // pile-up. The timed wait is a backstop, not a poll: the
                    // flusher's pass (and `poison`) notify precisely.
                    let mut flush = self.flush.lock();
                    loop {
                        if flush.durable_ts >= ts {
                            return Ok(());
                        }
                        self.check_poisoned()?;
                        self.work_cv.notify_one();
                        self.flushed.wait_for(&mut flush, Duration::from_millis(50));
                    }
                }
                let mut flush = self.flush.lock();
                loop {
                    if flush.durable_ts >= ts {
                        return Ok(());
                    }
                    // Checked inside the loop: a flusher that fails
                    // poisons the log and wakes everyone, and no waiter
                    // may then re-elect itself and be "confirmed" by a
                    // spuriously succeeding retry.
                    self.check_poisoned()?;
                    if !flush.flush_in_progress {
                        // Become the flusher for everything sealed so far.
                        flush.flush_in_progress = true;
                        drop(flush);
                        // Snapshot (file, covered ts) consistently: records
                        // <= target are in this file even if a rotation
                        // happens while we sync.
                        let (file, path, target) = {
                            let appender = self.appender.lock();
                            (
                                appender.file.clone(),
                                appender.path.clone(),
                                appender.sealed_ts,
                            )
                        };
                        let result = self.fsync_file(file.as_ref(), &path, true);
                        flush = self.flush.lock();
                        flush.flush_in_progress = false;
                        if result.is_ok() {
                            flush.durable_ts = flush.durable_ts.max(target);
                        }
                        self.flushed.notify_all();
                        result?;
                    } else {
                        self.flushed.wait(&mut flush);
                    }
                }
            }
        }
    }

    /// Rotates to a fresh segment for a checkpoint. Under the append lock:
    /// reads the published clock via `clock`, seals everything up to it,
    /// and opens segment `seq + 1`. Returns `(cut_ts, old_seq)`: every
    /// record with `ts <= cut_ts` is in segments `<= old_seq`, every later
    /// record lands in newer segments — the cut invariant checkpointing
    /// relies on.
    ///
    /// What happens to the old segment's device sync depends on whether a
    /// dedicated flusher is attached. Without one, it is fsynced here,
    /// *under* the append lock (so `durable_ts` can advance before any
    /// committer captures the empty new segment as its flush target) —
    /// checkpoints then stall concurrent commits for one device sync.
    /// With a flusher, only the cut read and the seal stay under the lock:
    /// the sealed old segment is *handed to the flusher* (pushed onto the
    /// retired queue with the timestamp it covers), which fsyncs it off
    /// the append lock and advances `durable_ts` afterwards — committers
    /// covered by the old segment stay parked until that pass, exactly as
    /// if their batch had not aged out yet.
    pub fn rotate(&self, clock: impl FnOnce() -> Timestamp) -> WalResult<(Timestamp, u64)> {
        let mut appender = self.appender.lock();
        // Read the clock *after* taking the append lock: any seal that ran
        // before us covered only timestamps <= this value.
        let cut_ts = clock();
        // Seal the <= cut_ts prefix into the old segment (all of it is
        // pending or already sealed, because submit precedes publication).
        if let Err(e) = self.seal_locked(&mut appender, cut_ts) {
            // Same net as `seal_upto`: with a flusher buffering unsynced
            // frames, a retryable seal failure defers instead of aborting
            // the rotation — the records stay pending and the flusher
            // re-seals them into the *fresh* segment. That is exactly the
            // ENOSPC reclaim case: the old segment cannot take one more
            // byte, and the checkpoint this rotation serves will cover the
            // deferred timestamps anyway (recovery skips replayed frames at
            // or below the snapshot), so parking them behind the cut loses
            // nothing. Without the net the rotation fails and reclaim can
            // never free space.
            let defer = self.flusher_attached.load(Ordering::Acquire)
                && self.buffer_unsynced
                && e.is_retryable()
                && !self.is_poisoned();
            if !defer {
                return Err(e);
            }
            self.requested_seal.fetch_max(cut_ts, Ordering::AcqRel);
        }
        if self.flusher_attached.load(Ordering::Acquire) {
            let old_file = appender.file.clone();
            let old_path = appender.path.clone();
            let sealed = appender.sealed_ts;
            let old_seq = appender.seq;
            let (new_file, new_path) = create_segment(self.vfs.as_ref(), &self.dir, old_seq + 1)?;
            appender.file = new_file;
            appender.path = new_path;
            appender.seq = old_seq + 1;
            appender.epoch_bytes = 0;
            // Open the batch window if no unsynced seal already did, so
            // the retired segment cannot wait longer than `max_delay`.
            let now = self.epoch.elapsed().as_nanos().max(1) as u64;
            let _ = self.first_unsynced_nanos.compare_exchange(
                0,
                now,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            // The retirement is queued *while the append lock is still
            // held*: a flush pass captures (file, sealed_ts) under that
            // lock, so it can never observe the new empty file without
            // also finding the old segment in the retired queue — dropping
            // the append lock first would open a window where the pass
            // fsyncs only the empty file and advances `durable_ts` past
            // records that exist solely in the never-synced old segment.
            // Lock order append -> flush is safe: no path acquires the
            // append lock while holding the flush lock.
            self.flush.lock().retired.push((old_file, old_path, sealed));
            drop(appender);
            self.work_cv.notify_one();
            if let Some(obs) = self.obs() {
                obs.trace.emit(EventKind::WalRotate, old_seq, 0, 0);
            }
            return Ok((cut_ts, old_seq));
        }
        let file = appender.file.clone();
        let path = appender.path.clone();
        self.fsync_file(file.as_ref(), &path, true)?;

        let old_seq = appender.seq;
        let (new_file, new_path) = create_segment(self.vfs.as_ref(), &self.dir, old_seq + 1)?;
        appender.file = new_file;
        appender.path = new_path;
        appender.seq = old_seq + 1;
        appender.epoch_bytes = 0;

        // The old segment is fully durable: drop its frames from the
        // unsynced buffer and advance the durability horizon so committers
        // covered by it never fsync the (empty) new segment.
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
        if let Some(obs) = self.obs() {
            obs.trace.emit(EventKind::WalRotate, old_seq, 0, 0);
        }
        Ok((cut_ts, old_seq))
    }

    /// Flushes and fsyncs everything sealed so far (clean shutdown for
    /// buffered mode). Pending records of in-flight commits, if any, are
    /// not sealed — their owners are still before their publication point.
    pub fn sync(&self) -> WalResult<()> {
        self.sync_all_sealed(false).map(|_| ())
    }

    /// The body shared by [`WalWriter::sync`] and the dedicated flusher's
    /// flush pass: fsyncs every retired segment plus the current one and
    /// advances `durable_ts` over everything covered. Two orderings make
    /// the advanced horizon sound against racing rotations:
    ///
    /// * rotation queues its retirement *before* releasing the append lock
    ///   (see [`WalWriter::rotate`]), so a capture that observes the
    ///   post-rotation file is guaranteed to find the old segment in the
    ///   retired queue;
    /// * the (file, target) snapshot is captured *before* the retired
    ///   queue is drained — a rotation racing the two steps retires
    ///   exactly the captured file, so every record `<=` the advanced
    ///   horizon is in a file this pass (or an earlier one) fsyncs;
    ///   draining first could admit a retirement whose sealed records
    ///   exceed the captured target without syncing its file.
    ///
    /// Failure semantics: without frame buffering, any fsync error poisons
    /// the log on the spot (as it always has). With buffering and a
    /// dedicated flusher, the error is returned *unpoisoned* — the flusher
    /// retries by re-emitting the still-buffered frames to a fresh segment
    /// ([`WalWriter::reemit_unsynced`]) and only poisons once its budget
    /// is exhausted. A retired segment whose fsync failed is dropped from
    /// the queue either way; that is safe precisely because its frames are
    /// still in the unsynced buffer and re-emission re-covers them.
    fn sync_all_sealed(&self, from_flusher: bool) -> WalResult<Timestamp> {
        self.check_poisoned()?;
        // Reset the batch markers before capturing the target: a seal
        // racing this pass either lands before the capture (and is covered
        // by it) or re-opens the window for the next pass. The dirty flag
        // is consumed the same way — an append racing the fsync re-arms it.
        self.first_unsynced_nanos.store(0, Ordering::Release);
        self.unsynced_bytes.store(0, Ordering::Release);
        let dirty = self.dirty_appends.swap(false, Ordering::AcqRel);
        let (file, path, target, upto_seq) = {
            let mut appender = self.appender.lock();
            // Re-seal deferred records up to the requested watermark:
            // a committer whose append failed transiently left its record
            // pending, and this pass must cover it before fsyncing.
            if self.buffer_unsynced {
                let requested = self.requested_seal.load(Ordering::Acquire);
                if requested > appender.sealed_ts {
                    self.seal_locked(&mut appender, requested)?;
                }
            }
            (
                appender.file.clone(),
                appender.path.clone(),
                appender.sealed_ts,
                appender.append_seq,
            )
        };
        let retired = {
            let mut flush = self.flush.lock();
            if !dirty && flush.retired.is_empty() && flush.durable_ts >= target {
                return Ok(flush.durable_ts); // nothing appended anywhere is unsynced
            }
            std::mem::take(&mut flush.retired)
        };
        // Poisoning on failure is suppressed only where the retry policy
        // can actually repair the damage: the dedicated flusher with the
        // frame buffer. Every other caller keeps first-failure poisoning.
        let poison_on_error = !(from_flusher && self.buffer_unsynced);
        let mut covered = target;
        let mut fsyncs = 0u64;
        let mut result = Ok(());
        for (old, old_path, sealed) in &retired {
            covered = (*sealed).max(covered);
            if result.is_ok() {
                result = self.fsync_file(old.as_ref(), old_path, poison_on_error);
                fsyncs += 1;
            }
        }
        if result.is_ok() {
            result = self.fsync_file(file.as_ref(), &path, poison_on_error);
            fsyncs += 1;
        }
        if from_flusher {
            self.stats
                .flusher_fsyncs
                .fetch_add(fsyncs, Ordering::Relaxed);
            self.stats.flusher_batches.fetch_add(1, Ordering::Relaxed);
        }
        let durable = {
            let mut flush = self.flush.lock();
            if result.is_ok() {
                flush.durable_ts = flush.durable_ts.max(covered);
            }
            flush.durable_ts
        };
        if result.is_ok() && self.buffer_unsynced {
            // Everything written before the capture is durable: prune the
            // frame buffer up to the captured watermark. (Append lock taken
            // after the flush lock is released — the order is append ->
            // flush, never the reverse.)
            let mut appender = self.appender.lock();
            while appender
                .unsynced
                .front()
                .is_some_and(|(seq, _)| *seq < upto_seq)
            {
                appender.unsynced.pop_front();
            }
        }
        self.flushed.notify_all();
        result.map(|()| durable)
    }

    /// Re-establishes a syncable log after a failed flusher fsync, without
    /// ever re-fsyncing the errored file (whose error the kernel reports
    /// only once): opens a fresh segment and re-writes every buffered
    /// unsynced frame into it, oldest first. The next flush pass fsyncs
    /// the fresh segment; on success the buffer is pruned as usual.
    ///
    /// Re-emitted frames may duplicate records that *did* reach the device
    /// before the failure (in the errored segment, or in a retired segment
    /// that was already synced) — recovery deduplicates replayed commits
    /// by commit timestamp, so duplicates are harmless.
    pub(crate) fn reemit_unsynced(&self) -> WalResult<()> {
        let mut appender = self.appender.lock();
        if appender.unsynced.is_empty() {
            // Nothing at risk was written; the next pass can fsync the
            // current file — it never had an fsync error (only files with
            // unsynced frames get fsynced, and theirs are all pruned).
            return Ok(());
        }
        let new_seq = appender.seq + 1;
        let (file, path) = create_segment(self.vfs.as_ref(), &self.dir, new_seq)?;
        appender.file = file;
        appender.path = path;
        appender.seq = new_seq;
        appender.epoch_bytes = 0;
        // Re-write the buffered frames directly (not through write_frame:
        // they must keep their original buffer entries, not gain second
        // ones). Rollback on partial failure mirrors write_frame; the
        // buffer is untouched either way, so a later retry re-emits the
        // full set again into yet another segment.
        let frames: Vec<Vec<u8>> = appender.unsynced.iter().map(|(_, f)| f.clone()).collect();
        for frame in &frames {
            if let Err(e) = appender.file.write_all(frame) {
                self.stats.io_failures.fetch_add(1, Ordering::Relaxed);
                let rollback_to = appender.epoch_bytes;
                if appender.file.set_len(rollback_to).is_err() {
                    self.poison_with(PoisonCause::Io);
                }
                return Err(WalError::io(WalOp::Append, &appender.path, e));
            }
            appender.epoch_bytes += frame.len() as u64;
            self.stats
                .bytes
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        self.dirty_appends.store(true, Ordering::Release);
        Ok(())
    }

    /// Switches the log into dedicated-flusher mode: group-commit
    /// committers park instead of self-electing, and rotation hands the
    /// old segment to the flusher instead of fsyncing it under the append
    /// lock. The caller is responsible for actually running
    /// [`WalWriter::flusher_loop`](crate::flusher) on some thread — with
    /// no loop running, the timed backstops in the wait paths keep
    /// committers parked forever, so attach-and-forget is a bug.
    pub fn attach_flusher(&self) {
        debug_assert!(
            self.policy != SyncPolicy::EveryCommit,
            "the per-commit-fsync baseline must not share flushes"
        );
        self.flusher_attached.store(true, Ordering::Release);
    }

    /// True once [`WalWriter::attach_flusher`] was called.
    pub fn has_flusher(&self) -> bool {
        self.flusher_attached.load(Ordering::Acquire)
    }

    /// True when the unsynced-frame buffer (and with it the flusher's
    /// retry policy) is enabled.
    pub fn buffers_unsynced(&self) -> bool {
        self.buffer_unsynced
    }

    /// Requests an immediate flush pass from the dedicated flusher,
    /// regardless of batch age or size (single-stepping tests, shutdown).
    /// Asynchronous: returns before the pass runs.
    pub fn request_flush(&self) {
        self.force_flush.store(true, Ordering::Release);
        drop(self.flush.lock());
        self.work_cv.notify_all();
    }

    /// Highest commit timestamp known to be on stable storage.
    pub fn durable_ts(&self) -> Timestamp {
        self.flush.lock().durable_ts
    }

    /// Highest commit timestamp sealed into a segment file.
    pub fn sealed_ts(&self) -> Timestamp {
        self.sealed_hint.load(Ordering::Acquire)
    }

    /// Test-only fault injection: poisons the log exactly as a failed
    /// fsync would, then wakes the flusher and every parked committer —
    /// all of which must come back with an error, never hang.
    #[doc(hidden)]
    pub fn poison(&self) {
        self.poison_with(PoisonCause::Io);
        self.wake_all();
    }

    /// Marks the log poisoned with a cause (first cause wins) without
    /// waking waiters; failure paths that already own the wakeup protocol
    /// call this, everything else wants [`WalWriter::poison`] or the
    /// flusher's exit path.
    pub fn poison_with(&self, cause: PoisonCause) {
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

    /// Why the log was poisoned (`None` while healthy).
    pub fn poison_cause(&self) -> Option<PoisonCause> {
        match self.poison_cause.load(Ordering::Acquire) {
            CAUSE_IO => Some(PoisonCause::Io),
            CAUSE_ENOSPC => Some(PoisonCause::OutOfSpace),
            CAUSE_PANIC => Some(PoisonCause::Panic),
            _ => None,
        }
    }

    /// Wakes the flusher and every parked committer (poison transitions).
    pub fn wake_all(&self) {
        // The empty lock section orders the wakeups after any waiter's
        // predicate re-check, closing the lost-wakeup window.
        drop(self.flush.lock());
        self.flushed.notify_all();
        self.work_cv.notify_all();
    }

    /// Blocks until the dedicated flusher has work (something sealed,
    /// requested or retired is not yet durable, or a flush was forced),
    /// shutdown is requested with nothing left to drain, or the log is
    /// poisoned.
    pub(crate) fn flusher_wait_for_work(&self, shutdown: &AtomicBool) -> FlusherWork {
        let mut flush = self.flush.lock();
        loop {
            if self.is_poisoned() {
                return FlusherWork::Poisoned;
            }
            let has_work = !flush.retired.is_empty()
                || self.sealed_hint.load(Ordering::Acquire) > flush.durable_ts
                || (self.buffer_unsynced
                    && self.requested_seal.load(Ordering::Acquire) > flush.durable_ts)
                || self.force_flush.load(Ordering::Acquire);
            if has_work {
                return FlusherWork::Work;
            }
            if shutdown.load(Ordering::Acquire) {
                return FlusherWork::Shutdown;
            }
            // Timed backstop against a missed wakeup; notifies are precise.
            self.work_cv.wait_for(&mut flush, Duration::from_millis(25));
        }
    }

    /// Parks the flusher for at most `window` (woken early by new seals,
    /// retirements, force or shutdown). The early-exit predicates —
    /// force, shutdown, poison, and the batch-size threshold — are
    /// re-checked *under the flush mutex* before parking: any of them
    /// landing between the caller's bare-atomic checks and this wait
    /// would otherwise notify with no waiter and be lost for up to the
    /// whole window (the force flag is only peeked here, never consumed —
    /// the caller's loop does that). Callers re-check their predicates
    /// after every return.
    pub(crate) fn flusher_wait_window(
        &self,
        window: Duration,
        shutdown: &AtomicBool,
        max_batch_bytes: u64,
    ) {
        let mut flush = self.flush.lock();
        if shutdown.load(Ordering::Acquire)
            || self.force_flush.load(Ordering::Acquire)
            || self.is_poisoned()
            || self.unsynced_bytes.load(Ordering::Acquire) >= max_batch_bytes
        {
            return;
        }
        self.work_cv.wait_for(&mut flush, window);
    }

    /// Age of the oldest sealed-but-unsynced record (`None`: no open batch).
    pub(crate) fn batch_age(&self) -> Option<Duration> {
        let opened = self.first_unsynced_nanos.load(Ordering::Acquire);
        (opened != 0).then(|| {
            self.epoch
                .elapsed()
                .saturating_sub(Duration::from_nanos(opened))
        })
    }

    /// Bytes sealed since the last flush pass.
    pub(crate) fn unsynced_batch_bytes(&self) -> u64 {
        self.unsynced_bytes.load(Ordering::Acquire)
    }

    /// Consumes a pending force-flush request.
    pub(crate) fn take_force_flush(&self) -> bool {
        self.force_flush.swap(false, Ordering::AcqRel)
    }

    /// One dedicated-flusher flush pass (stats-attributed to the flusher).
    pub(crate) fn flush_pass(&self) -> WalResult<Timestamp> {
        self.sync_all_sealed(true)
    }

    /// Wakes every parked committer (flusher exit paths: each waiter
    /// re-checks `durable_ts`/poison and either returns or errors).
    pub(crate) fn wake_committers(&self) {
        drop(self.flush.lock());
        self.flushed.notify_all();
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

    /// `sync_all` wrapper. When `poison_on_error` is set, a failed fsync
    /// permanently poisons the log — the kernel may have dropped the dirty
    /// pages *and* consumed the error flag, so a bare retry could
    /// spuriously succeed and acknowledge commits whose bytes are gone.
    /// The dedicated flusher with frame buffering passes false and repairs
    /// by re-emission instead ([`WalWriter::reemit_unsynced`]).
    fn fsync_file(&self, file: &dyn VfsFile, path: &Path, poison_on_error: bool) -> WalResult<()> {
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
        match result {
            Ok(()) => Ok(()),
            Err(e) => {
                self.stats.io_failures.fetch_add(1, Ordering::Relaxed);
                if poison_on_error {
                    self.poison_with(match crate::error::classify(e.kind()) {
                        crate::error::WalErrorKind::OutOfSpace => PoisonCause::OutOfSpace,
                        _ => PoisonCause::Io,
                    });
                }
                Err(WalError::io(WalOp::Fsync, path, e))
            }
        }
    }

    fn write_frame(&self, appender: &mut Appender, frame: &[u8]) -> WalResult<()> {
        self.check_poisoned()?;
        match appender.file.write_all(frame) {
            Ok(()) => {
                appender.epoch_bytes += frame.len() as u64;
                self.dirty_appends.store(true, Ordering::Release);
                if self.buffer_unsynced {
                    let seq = appender.append_seq;
                    appender.unsynced.push_back((seq, frame.to_vec()));
                }
                appender.append_seq += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.io_failures.fetch_add(1, Ordering::Relaxed);
                // write_all may have put a partial frame in the file. Roll
                // the segment back to the last whole-frame boundary so
                // later appends stay readable; if even that fails, poison
                // the log so no later commit can be acknowledged behind
                // unreadable bytes.
                let rollback_to = appender.epoch_bytes;
                if appender.file.set_len(rollback_to).is_err() {
                    self.poison_with(PoisonCause::Io);
                }
                Err(WalError::io(WalOp::Append, &appender.path, e))
            }
        }
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
    use crate::record::{decode_stream, Record, WriteEntry};
    use crate::testutil::temp_dir;

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
        let records = read_segment(&dir, 1);
        let ts: Vec<u64> = records
            .iter()
            .map(|r| match r {
                Record::Commit(c) => c.commit_ts,
                _ => panic!("unexpected record"),
            })
            .collect();
        assert_eq!(ts, vec![2, 3, 4, 5]);
        assert_eq!(wal.stats().records.load(Ordering::Relaxed), 4);
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
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_commit_policy_fsyncs_each_commit() {
        let dir = temp_dir("percommit");
        let wal = WalWriter::open(&dir, 1, SyncPolicy::EveryCommit).unwrap();
        for ts in 2..7u64 {
            wal.submit(ts, TxnId(ts), vec![entry(&[ts as u8], b"v")]);
            wal.seal_upto(ts).unwrap();
            wal.wait_durable(ts).unwrap();
        }
        assert_eq!(wal.stats().fsyncs.load(Ordering::Relaxed), 5);
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
        let new_records = read_segment(&dir, 2);
        assert_eq!(new_records.len(), 1);
        assert!(
            matches!(&new_records[0], Record::Commit(c) if c.commit_ts == 7),
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
    fn unsynced_buffer_prunes_after_successful_pass_and_reemits_after_failure() {
        use crate::vfs::{FaultMode, FaultOp, FaultRule, FaultVfs};

        let dir = temp_dir("reemit");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailOnce,
            std::io::ErrorKind::Interrupted,
        )
        .on_path("segment-")]);
        let wal =
            WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::GroupCommit, true).unwrap();
        wal.attach_flusher();
        wal.submit(2, TxnId(1), vec![entry(b"a", b"1")]);
        wal.seal_upto(2).unwrap();
        // First pass hits the injected fsync fault: no poison, error back.
        let err = wal.flush_pass().unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert!(!wal.is_poisoned(), "buffered flusher fsync must not poison");
        // Re-emit to a fresh segment and fsync that instead.
        wal.reemit_unsynced().unwrap();
        assert_eq!(wal.current_segment(), 2);
        let durable = wal.flush_pass().unwrap();
        assert_eq!(durable, 2);
        assert!(wal.stats().io_failures.load(Ordering::Relaxed) >= 1);
        // The re-emitted segment holds the commit; recovery would dedupe
        // any copy in segment 1.
        let records = read_segment(&dir, 2);
        assert!(
            records
                .iter()
                .any(|r| matches!(r, Record::Commit(c) if c.commit_ts == 2)),
            "re-emitted segment must contain the commit"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deferred_seal_is_resealed_by_the_flush_pass() {
        use crate::vfs::{FaultMode, FaultOp, FaultRule, FaultVfs};

        let dir = temp_dir("defer-seal");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Write,
            FaultMode::FailOnce,
            std::io::ErrorKind::Interrupted,
        )
        .on_path("segment-")]);
        let wal = WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::Never, true).unwrap();
        wal.attach_flusher();
        wal.submit(2, TxnId(1), vec![entry(b"a", b"1")]);
        // The injected write failure defers the seal instead of erroring.
        wal.seal_upto(2).unwrap();
        assert_eq!(wal.sealed_ts(), 0, "seal must have been deferred");
        // The flush pass re-seals up to the requested watermark and syncs.
        let durable = wal.flush_pass().unwrap();
        assert_eq!(durable, 2);
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
        assert_eq!(wal.flush_pass().unwrap(), 3);
        assert_eq!(read_segment(&dir, 1).len(), 2);
        assert!(!wal.is_poisoned());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_defers_a_failed_seal_and_the_record_lands_in_the_new_segment() {
        use crate::vfs::{FaultMode, FaultOp, FaultRule, FaultVfs};

        // The ENOSPC-reclaim shape: the old segment cannot take one more
        // byte, so the rotation's seal fails retryably. The rotation must
        // still succeed (defer, not abort) — otherwise checkpoint-to-
        // reclaim could never run against a full log — and the flusher's
        // next pass re-seals the record into the *fresh* segment.
        let dir = temp_dir("rotate-defer");
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Write,
            FaultMode::FailTimes(1),
            std::io::ErrorKind::StorageFull,
        )
        .on_path("segment-")]);
        let wal = WalWriter::open_with(fault.handle(), &dir, 1, SyncPolicy::Never, true).unwrap();
        wal.attach_flusher();
        wal.submit(2, TxnId(1), vec![entry(b"a", b"1")]);
        let (cut_ts, old_seq) = wal.rotate(|| 2).unwrap();
        assert_eq!((cut_ts, old_seq), (2, 1));
        assert_eq!(wal.current_segment(), 2);
        assert!(
            read_segment(&dir, 1).is_empty(),
            "old segment must be empty"
        );
        // The budget recovers (FailTimes(1) exhausted): the flush pass
        // re-seals the deferred record into segment 2 and syncs it.
        assert_eq!(wal.flush_pass().unwrap(), 2);
        assert_eq!(read_segment(&dir, 2).len(), 1);
        assert!(!wal.is_poisoned());
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
