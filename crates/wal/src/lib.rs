//! Durability subsystem: an append-only redo log with group commit, fuzzy
//! checkpoints and crash recovery.
//!
//! The paper's prototypes live inside real storage engines (Berkeley DB,
//! InnoDB) where "commit" means *durable* commit. This crate gives the
//! in-memory engine in `ssi-core`/`ssi-storage` the same property: committed
//! write sets are persisted to an on-disk redo log before (or, in buffered
//! mode, shortly after) `commit` returns, and a crashed database can be
//! reopened and recovered to a prefix-consistent committed state.
//!
//! # On-disk layout
//!
//! A durable database lives in one directory:
//!
//! ```text
//! <dir>/segment-<seq>.wal     append-only redo log segments, seq ascending
//! <dir>/snapshot-<ts>.ckpt    checkpoint snapshots (newest is authoritative)
//! <dir>/snapshot-<ts>.tmp     in-flight checkpoint (ignored — and deleted —
//!                             by recovery)
//! ```
//!
//! A segment is always a new file, and its space is reserved ahead of the
//! writer in zero-filled chunks of [`vfs::SEGMENT_CHUNK`] (64 KiB): frames
//! are written in place at the segment's logical end, so the group-commit
//! sync persists data only and changes the file length once per chunk, not
//! once per append (on ext4 a length change costs every `fdatasync` a
//! journal commit — a second device flush). A segment therefore ends in
//! zeros after its last frame, at least a frame header's worth of them.
//!
//! All file I/O goes through the pluggable [`Vfs`] trait ([`vfs`] module):
//! production uses [`StdVfs`] (a `std::fs` passthrough behind one pointer
//! hop), tests use [`FaultVfs`] to execute deterministic scripted fault
//! schedules against the exact same code paths.
//!
//! # Record format
//!
//! Log segments are a sequence of CRC-framed records:
//!
//! ```text
//! frame   := [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload := kind: u8, then per kind:
//!   kind 1 (commit)       [commit_ts: u64] [txn_id: u64] [n_writes: u32]
//!                         n_writes * ( [table_id: u32] [key_len: u32] [key]
//!                                      [has_value: u8] [val_len: u32] [val] )
//!   kind 2 (create table) [table_id: u32] [name_len: u32] [name: utf-8]
//! ```
//!
//! A write entry with `has_value = 0` is a deletion tombstone. All integers
//! are little-endian; `crc32` is the IEEE polynomial. A reader stops at the
//! first frame whose length is implausible, whose payload is cut short by
//! end-of-file, or whose CRC does not match — everything before that point
//! is a valid prefix, everything after is a torn tail and is discarded.
//! Two stops are clean ends, not torn tails: the end of the file, and a
//! remainder of at least a frame header that is all zero bytes (the
//! segment's reserved space). No frame has length 0 — a payload always has
//! a kind byte — so a zero length followed by any non-zero byte is torn.
//! Commit records are whole-transaction: a transaction is either replayed
//! completely or not at all, so truncating the log at *any* byte recovers a
//! prefix-consistent committed state.
//!
//! # Group-commit protocol
//!
//! Appending is coordinated with the commit pipeline's deposit-drain
//! timestamp publication (see `ssi-core`'s manager docs), which already
//! orders commits by timestamp with no global lock:
//!
//! 1. **submit** — after the commit-time checks pass and the write set is
//!    stamped, but *before* the commit timestamp is deposited for
//!    publication, the committer encodes its commit record and parks it in
//!    the log's pending buffer keyed by commit timestamp. No file I/O.
//! 2. **seal** — once `publish` returns (the snapshot clock covers the
//!    commit timestamp), the committer calls [`WalWriter::seal_upto`] with
//!    its own timestamp. Because every commit submits before it deposits,
//!    `clock >= ts` implies every record with timestamp `<= ts` is already
//!    in the pending buffer, so sealing appends a *timestamp-ordered* run
//!    of whole records to the segment file — publication order gives the
//!    log its order for free, with no extra coordination.
//! 3. **sync** — in [`SyncPolicy::GroupCommit`] the committer then waits
//!    for a flush covering its timestamp: whichever committer finds no
//!    flush in progress is elected *leader* and runs one flush pass for
//!    *everything sealed so far* (one `fsync` for the whole batch — classic
//!    group commit); everyone else parks on a condvar until the pass ends.
//!    Under load, many commits share one `fsync`. A clean close's
//!    [`WalWriter::sync`] runs the same pass as a leader.
//!    [`SyncPolicy::Never`] (buffered mode) skips this step entirely; the
//!    data reaches the OS on seal and the device on checkpoint or clean
//!    close.
//!
//! # Failure handling
//!
//! The log is fail-stop. Its first failed append, segment creation or
//! fsync *poisons* it where it happens: from then on every append, fsync
//! and durability wait fails, and the database degrades — writers fail
//! fast, snapshot reads keep serving. Nothing is retried. After a failed
//! fsync the kernel may have dropped the dirty pages and cleared the
//! error, so a second fsync could report success for data that is gone
//! (PostgreSQL's "fsyncgate"; Rebello et al., ATC 2020). Recovery is a
//! reopen: it is prefix-exact and idempotent, so no acknowledged commit is
//! lost. A partial append is first rolled back to the last whole-frame
//! boundary, so the poisoned segment ends cleanly when a reopen appends
//! newer ones after it.
//!
//! One mutex is held across every segment fsync, the flush leader's and a
//! checkpoint rotation's. Under it a caller checks for poison, fsyncs, and
//! on failure poisons before releasing it, so no segment is ever fsynced
//! after a failed fsync. A leader whose pass panics poisons the log too, so
//! its waiters never park forever. Both durability modes follow the same
//! rules; buffered mode simply fsyncs only at checkpoints and clean close.
//!
//! ## Failure-mode matrix
//!
//! What each fault guarantees (`Off` has no WAL and is unaffected by
//! storage faults by definition). The database reports a poisoned log as
//! `Degraded{reason}` with the `DegradedReason` named here:
//!
//! | Fault | Outcome | Guarantee |
//! |---|---|---|
//! | failed append or fsync, any kind but ENOSPC | log poisoned → `Degraded{WalPoisoned}`; the committer gets a durability error, parked committers are woken with one | acknowledged prefix recoverable; reads keep serving; no segment fsynced after a failed fsync |
//! | short write (torn append) | rolled back to the frame boundary, then as above | the segment stays frame-aligned |
//! | ENOSPC / EDQUOT on an append, a segment creation or an fsync | log poisoned → `Degraded{OutOfSpace}` | as above; free space and reopen (`checkpoint_every_bytes` keeps the log bounded) |
//! | failed rename (checkpoint) | checkpoint fails, `.tmp` removed, old snapshot authoritative; the log is not poisoned | no torn snapshot ever authoritative; no `.tmp` leak |
//! | flush leader panic (`Vfs`) | log poisoned → `Degraded{WalLeaderPanic}`, parked committers woken with an error | no waiter hangs |
//! | crash at any byte | torn tail (a frame cut short, over the reserved zeros or at end of file) truncated on recovery; a zero tail is a clean end | prefix-consistent committed state |
//!
//! # Checkpoint / recovery invariants
//!
//! A checkpoint at timestamp `C` ([`Checkpointer`]) maintains:
//!
//! * **cut** — `C` is read from the published snapshot clock *under the log's
//!   append lock* during segment rotation, so every record with `ts <= C` is
//!   in a pre-rotation segment and every record with `ts > C` lands in a
//!   post-rotation segment;
//! * **fuzzy snapshot** — the tables are scanned at snapshot `C` *while
//!   commits continue*; per-row visibility is atomic (chain locks), and rows
//!   committed after `C` are simply not visible to the snapshot, so the
//!   snapshot is exactly the committed state at `C`;
//! * **atomicity** — the snapshot is written to a `.tmp` file, fsynced, and
//!   renamed into place (then the directory is fsynced); a crash mid-
//!   checkpoint leaves the previous snapshot authoritative, and a *failed*
//!   checkpoint removes its own `.tmp` file;
//! * **truncation** — only after the new snapshot is durable are the
//!   pre-rotation segments and older snapshots deleted.
//!
//! Recovery ([`recover_into`]) deletes orphaned `.tmp` files, loads the
//! newest valid snapshot, replays every whole commit record with `ts >` the
//! snapshot timestamp from the remaining segments in timestamp order
//! (keeping one record per commit timestamp), and reports the highest
//! committed timestamp so the engine can restore its commit/begin clocks.
//! Replayed versions are installed committed-at-their-original-timestamp,
//! so recovery is idempotent: recovering the same directory twice produces
//! the same state.

pub mod checkpoint;
pub mod error;
pub mod log;
pub mod record;
pub mod recover;
pub mod vfs;

pub use checkpoint::{CheckpointStats, Checkpointer};
pub use error::{classify, WalError, WalErrorKind, WalOp, WalResult};
pub use log::{PoisonCause, PreparedCommit, SyncPolicy, WalStats, WalWriter};
pub use record::{crc32, CommitRecord, Record, WriteEntry};
pub use recover::{recover_into, recover_into_with, Recovered};
pub use vfs::{FaultMode, FaultOp, FaultRule, FaultVfs, StdVfs, Vfs, VfsFile};

use std::path::{Path, PathBuf};

/// Name of a log segment file.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("segment-{seq:010}.wal"))
}

/// Name of a checkpoint snapshot file.
pub(crate) fn snapshot_path(dir: &Path, ts: u64) -> PathBuf {
    dir.join(format!("snapshot-{ts:016x}.ckpt"))
}

/// Parses `segment-<seq>.wal` file names; returns the sequence number.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let seq = name.strip_prefix("segment-")?.strip_suffix(".wal")?;
    seq.parse().ok()
}

/// Parses `snapshot-<ts>.ckpt` file names; returns the checkpoint timestamp.
pub(crate) fn parse_snapshot_name(name: &str) -> Option<u64> {
    let ts = name.strip_prefix("snapshot-")?.strip_suffix(".ckpt")?;
    u64::from_str_radix(ts, 16).ok()
}

/// True for in-flight checkpoint temp files (`snapshot-*.tmp`). A crashed
/// or failed checkpoint can leave one behind; recovery deletes them.
pub(crate) fn is_snapshot_tmp_name(name: &str) -> bool {
    name.strip_prefix("snapshot-")
        .and_then(|rest| rest.strip_suffix(".tmp"))
        .is_some()
}

/// Lists `(seq, path)` of all log segments in `dir`, ascending by seq.
pub(crate) fn list_segments(vfs: &dyn Vfs, dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for name in vfs.read_dir(dir)? {
        if let Some(seq) = parse_segment_name(&name) {
            segments.push((seq, dir.join(name)));
        }
    }
    segments.sort();
    Ok(segments)
}

/// Lists `(ts, path)` of all snapshot files in `dir`, ascending by ts.
pub(crate) fn list_snapshots(vfs: &dyn Vfs, dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut snapshots = Vec::new();
    for name in vfs.read_dir(dir)? {
        if let Some(ts) = parse_snapshot_name(&name) {
            snapshots.push((ts, dir.join(name)));
        }
    }
    snapshots.sort();
    Ok(snapshots)
}

/// Takes the advisory lock guarding a durable directory against double
/// opens. Two log writers appending to the same segment would interleave
/// frames into CRC garbage, silently truncating acknowledged commits at
/// the next recovery — so the whole open/recover/append lifecycle must be
/// exclusive. The returned handle holds an OS file lock (`flock`-style):
/// dropping it — or the process dying — releases it, so a crash never
/// leaves a stale lock behind.
///
/// The lock intentionally stays on raw `std::fs` rather than the [`Vfs`]:
/// it guards *this process's* access to the directory, and injecting
/// faults into it would only fabricate failure modes the OS lock API does
/// not have.
pub fn lock_dir(dir: &Path) -> WalResult<std::fs::File> {
    let lock_path = dir.join("wal.lock");
    let file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&lock_path)
        .map_err(|e| WalError::io(WalOp::Lock, &lock_path, e))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(WalError::locked(&lock_path)),
        Err(std::fs::TryLockError::Error(e)) => Err(WalError::io(WalOp::Lock, &lock_path, e)),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    /// A fresh, unique temp directory for one test.
    pub fn temp_dir(tag: &str) -> PathBuf {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ssi-wal-test-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_name_roundtrip() {
        let dir = Path::new("/x");
        let seg = segment_path(dir, 7);
        assert_eq!(
            parse_segment_name(seg.file_name().unwrap().to_str().unwrap()),
            Some(7)
        );
        let snap = snapshot_path(dir, 0xabcd);
        assert_eq!(
            parse_snapshot_name(snap.file_name().unwrap().to_str().unwrap()),
            Some(0xabcd)
        );
        assert_eq!(parse_segment_name("snapshot-1.ckpt"), None);
        assert_eq!(parse_snapshot_name("segment-1.wal"), None);
        assert_eq!(parse_snapshot_name("snapshot-zz.ckpt"), None);
        assert!(is_snapshot_tmp_name("snapshot-00ff.tmp"));
        assert!(!is_snapshot_tmp_name("snapshot-00ff.ckpt"));
        assert!(!is_snapshot_tmp_name("segment-1.wal"));
    }

    #[test]
    fn double_lock_is_typed_locked() {
        let dir = testutil::temp_dir("lock");
        let first = lock_dir(&dir).unwrap();
        let second = lock_dir(&dir).unwrap_err();
        assert_eq!(second.kind, WalErrorKind::Locked);
        drop(first);
        lock_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
