//! Fuzzy checkpoints: a consistent snapshot of the sharded tables at a
//! published timestamp, plus log truncation (invariants in the crate docs).
//!
//! # Snapshot file format
//!
//! ```text
//! [magic "SSICKPT1": 8 bytes]
//! body := [checkpoint_ts: u64] [n_tables: u32]
//!         n_tables * ( [table_id: u32] [name_len: u32] [name]
//!                      [n_rows: u64]
//!                      n_rows * ( [key_len: u32] [key]
//!                                 [commit_ts: u64]
//!                                 [val_len: u32] [val] ) )
//! [crc32(body): u32]
//! ```
//!
//! Only rows *live* at the checkpoint timestamp are stored (a key whose
//! visible version is a tombstone is omitted — equivalent to a purge of
//! everything at or below the checkpoint horizon). Each row carries the
//! commit timestamp of the version it was read from, so recovery rebuilds
//! version chains with their original timestamps and is idempotent.
//!
//! # Failure hygiene
//!
//! The snapshot streams into a `.tmp` file that is fsynced and renamed
//! into place only once complete. A write that fails mid-way removes its
//! own `.tmp` (best-effort — a crash can still strand one, which recovery
//! deletes), so failed checkpoints never accumulate temp litter and a
//! half-written snapshot is never mistaken for a real one.
//!
//! # Scheduling against version GC
//!
//! The fuzzy snapshot streams every table at the cut timestamp `C` *while
//! commits continue*, one ordered-index page at a time. A concurrent
//! version purge at a horizon `H > C` could reclaim, for a not-yet-streamed
//! key, the version visible at `C` (the newest one committed `<= C`) —
//! the row would silently vanish from the snapshot while the pre-cut log
//! segments that could replay it are about to be pruned. The caller must
//! therefore hold the reclamation horizon at or below `C` for the whole
//! run: the database pins the GC horizon (`TransactionManager::
//! pin_gc_horizon` in `ssi-core`) at the published clock *before* rotating
//! the log — the cut is read later from the same monotone clock, so
//! `pin <= C` — and drops the pin after [`Checkpointer::run`] returns.
//! Purges at any horizon `H <= C` are harmless at every interleaving: they
//! only drop versions older than the one a snapshot at `C` reads
//! (`snapshot_survives_purge_at_or_below_the_cut` below demonstrates both
//! directions).

use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;

use ssi_common::{Timestamp, TxnId};
use ssi_storage::Catalog;

use crate::error::{ctx, WalOp, WalResult};
use crate::record::{crc32, crc32_update, put_u32, put_u64, Cursor, CRC_INIT};
use crate::vfs::{StdVfs, Vfs, VfsFile};
use crate::{list_segments, list_snapshots, snapshot_path};

/// Magic prefix of snapshot files.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SSICKPT1";

/// Reserved transaction id recovery and checkpointing act under. Real
/// transaction ids start at 1, so it never collides with a live creator.
pub const RECOVERY_TXN_ID: TxnId = TxnId(0);

/// What a checkpoint did, for logging and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointStats {
    /// Timestamp the snapshot is consistent at.
    pub checkpoint_ts: Timestamp,
    /// Tables snapshotted.
    pub tables: u64,
    /// Live rows written.
    pub rows: u64,
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// Log segments deleted by truncation.
    pub segments_pruned: u64,
}

/// Writes snapshots and truncates the log. Stateless besides the target
/// directory and VFS; the caller (the database) serializes checkpoint runs.
pub struct Checkpointer<'a> {
    vfs: Arc<dyn Vfs>,
    dir: &'a Path,
}

impl<'a> Checkpointer<'a> {
    /// A checkpointer for the durable directory `dir` on the production VFS.
    pub fn new(dir: &'a Path) -> Self {
        Checkpointer {
            vfs: StdVfs::handle(),
            dir,
        }
    }

    /// A checkpointer on an explicit [`Vfs`].
    pub fn with_vfs(vfs: Arc<dyn Vfs>, dir: &'a Path) -> Self {
        Checkpointer { vfs, dir }
    }

    /// Takes a fuzzy snapshot of every table in `catalog` at `ts` (which
    /// must be a published timestamp with every `<= ts` record already
    /// sealed past — i.e. the cut returned by `WalWriter::rotate`), makes
    /// it durable, then prunes log segments with sequence `<= old_seq` and
    /// superseded snapshots. Returns what it did.
    pub fn run(
        &self,
        catalog: &Catalog,
        ts: Timestamp,
        old_seq: u64,
    ) -> WalResult<CheckpointStats> {
        let mut stats = self.write_snapshot(catalog, ts)?;
        stats.segments_pruned = self.prune(ts, old_seq)?;
        Ok(stats)
    }

    /// Serializes the committed state at `ts` into `snapshot-<ts>.ckpt`
    /// (via a temp file + rename, so a crash never corrupts the previous
    /// snapshot; a *failed* write removes its own temp file). The body
    /// streams to disk one table at a time with the CRC computed
    /// incrementally, so peak memory is one table's rows, not the whole
    /// database.
    pub fn write_snapshot(&self, catalog: &Catalog, ts: Timestamp) -> WalResult<CheckpointStats> {
        let tmp = self.dir.join(format!("snapshot-{ts:016x}.tmp"));
        match self.write_snapshot_inner(catalog, ts, &tmp) {
            Ok(stats) => Ok(stats),
            Err(e) => {
                // Never leak the half-written temp file; ignore a cleanup
                // failure (recovery deletes orphans as a second net).
                let _ = self.vfs.remove_file(&tmp);
                Err(e)
            }
        }
    }

    fn write_snapshot_inner(
        &self,
        catalog: &Catalog,
        ts: Timestamp,
        tmp: &Path,
    ) -> WalResult<CheckpointStats> {
        let mut tables = catalog.tables();
        tables.sort_by_key(|t| t.id().0);

        let mut stats = CheckpointStats {
            checkpoint_ts: ts,
            tables: tables.len() as u64,
            ..CheckpointStats::default()
        };
        {
            let mut out = BodyWriter::create(self.vfs.as_ref(), tmp)?;
            let mut header = Vec::with_capacity(12);
            put_u64(&mut header, ts);
            put_u32(&mut header, tables.len() as u32);
            out.write_body(&header)?;

            let mut buf = Vec::with_capacity(4096);
            for table in &tables {
                buf.clear();
                put_u32(&mut buf, table.id().0);
                put_u32(&mut buf, table.name().len() as u32);
                buf.extend_from_slice(table.name().as_bytes());
                let rows_at = buf.len();
                put_u64(&mut buf, 0); // patched below
                let mut rows = 0u64;
                // Fuzzy scan: the cursor pages through the live table;
                // per-row visibility at `ts` is atomic, and commits newer
                // than `ts` are invisible to this snapshot by construction.
                let cursor = table.cursor(Bound::Unbounded, Bound::Unbounded);
                for entry in cursor.entries(RECOVERY_TXN_ID, ts) {
                    let Some(value) = entry.value else {
                        continue; // tombstone or nothing visible: dead at ts
                    };
                    put_u32(&mut buf, entry.key.len() as u32);
                    buf.extend_from_slice(&entry.key);
                    put_u64(&mut buf, entry.read_version_ts.unwrap_or(ts));
                    put_u32(&mut buf, value.len() as u32);
                    buf.extend_from_slice(&value);
                    rows += 1;
                }
                buf[rows_at..rows_at + 8].copy_from_slice(&rows.to_le_bytes());
                out.write_body(&buf)?;
                stats.rows += rows;
            }
            stats.bytes = out.finish()?;
        }
        let final_path = snapshot_path(self.dir, ts);
        ctx(
            self.vfs.rename(tmp, &final_path),
            WalOp::Rename,
            &final_path,
        )?;
        ctx(self.vfs.sync_dir(self.dir), WalOp::DirSync, self.dir)?;
        Ok(stats)
    }

    /// Deletes log segments with sequence `<= old_seq` (their records are
    /// all `<= ts` and covered by the snapshot) and snapshots older than
    /// `ts`. Returns the number of segments removed.
    fn prune(&self, ts: Timestamp, old_seq: u64) -> WalResult<u64> {
        let mut pruned = 0;
        for (seq, path) in ctx(
            list_segments(self.vfs.as_ref(), self.dir),
            WalOp::Read,
            self.dir,
        )? {
            if seq <= old_seq {
                ctx(self.vfs.remove_file(&path), WalOp::Remove, &path)?;
                pruned += 1;
            }
        }
        for (snap_ts, path) in ctx(
            list_snapshots(self.vfs.as_ref(), self.dir),
            WalOp::Read,
            self.dir,
        )? {
            if snap_ts < ts {
                ctx(self.vfs.remove_file(&path), WalOp::Remove, &path)?;
            }
        }
        ctx(self.vfs.sync_dir(self.dir), WalOp::DirSync, self.dir)?;
        Ok(pruned)
    }
}

/// Streams a snapshot to disk: writes the magic up front, folds every body
/// chunk into a running CRC, and appends the finalized CRC at the end —
/// producing exactly the `magic + body + crc32(body)` layout the format
/// defines, without materializing the body.
struct BodyWriter {
    file: Arc<dyn VfsFile>,
    path: std::path::PathBuf,
    crc_state: u32,
    body_bytes: u64,
}

impl BodyWriter {
    fn create(vfs: &dyn Vfs, path: &Path) -> WalResult<Self> {
        let file = ctx(vfs.create_truncate(path), WalOp::Create, path)?;
        ctx(file.write_all(SNAPSHOT_MAGIC), WalOp::Append, path)?;
        Ok(BodyWriter {
            file,
            path: path.to_path_buf(),
            crc_state: CRC_INIT,
            body_bytes: 0,
        })
    }

    fn write_body(&mut self, chunk: &[u8]) -> WalResult<()> {
        self.crc_state = crc32_update(self.crc_state, chunk);
        self.body_bytes += chunk.len() as u64;
        ctx(self.file.write_all(chunk), WalOp::Append, &self.path)
    }

    /// Appends the CRC footer and fsyncs; returns the total file size.
    fn finish(self) -> WalResult<u64> {
        let crc = self.crc_state ^ 0xFFFF_FFFF;
        ctx(
            self.file.write_all(&crc.to_le_bytes()),
            WalOp::Append,
            &self.path,
        )?;
        ctx(self.file.sync_all(), WalOp::Fsync, &self.path)?;
        Ok(SNAPSHOT_MAGIC.len() as u64 + self.body_bytes + 4)
    }
}

/// One table decoded from a snapshot file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SnapshotTable {
    pub id: u32,
    pub name: String,
    /// `(key, commit_ts, value)` in key order.
    pub rows: Vec<(Vec<u8>, Timestamp, Vec<u8>)>,
}

/// Decodes a snapshot file; `None` if missing, torn or corrupt (recovery
/// treats an undecodable newest snapshot as a fatal error — the segments
/// it covers are pruned, so no fallback can reconstruct the gap).
pub(crate) fn load_snapshot(vfs: &dyn Vfs, path: &Path) -> Option<(Timestamp, Vec<SnapshotTable>)> {
    let bytes = vfs.read(path).ok()?;
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return None;
    }
    let (head, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let body = head.strip_prefix(SNAPSHOT_MAGIC.as_slice())?;
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return None;
    }
    let mut cur = Cursor::new(body);
    let ts = cur.u64()?;
    let n_tables = cur.u32()?;
    let mut tables = Vec::with_capacity(n_tables.min(1024) as usize);
    for _ in 0..n_tables {
        let id = cur.u32()?;
        let name_len = cur.u32()? as usize;
        let name = String::from_utf8(cur.bytes(name_len)?.to_vec()).ok()?;
        let n_rows = cur.u64()?;
        let mut rows = Vec::with_capacity(n_rows.min(1 << 20) as usize);
        for _ in 0..n_rows {
            let key_len = cur.u32()? as usize;
            let key = cur.bytes(key_len)?.to_vec();
            let commit_ts = cur.u64()?;
            let val_len = cur.u32()? as usize;
            let value = cur.bytes(val_len)?.to_vec();
            rows.push((key, commit_ts, value));
        }
        tables.push(SnapshotTable { id, name, rows });
    }
    cur.at_end().then_some((ts, tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_dir;
    use crate::vfs::{FaultMode, FaultOp, FaultRule, FaultVfs};
    use ssi_common::TableId;

    fn populate(catalog: &Catalog) {
        let t = catalog.create_table("accounts").unwrap();
        for (key, ts) in [(b"alice".as_slice(), 5u64), (b"bob", 7)] {
            let v = t.install_version(key, TxnId(1), Some(key.to_vec()));
            v.mark_committed(ts);
        }
        // A row committed after the checkpoint ts, and a tombstoned key:
        // neither may appear in a snapshot at ts 8.
        let late = t.install_version(b"carol", TxnId(2), Some(b"x".to_vec()));
        late.mark_committed(9);
        let dead = t.install_version(b"dave", TxnId(3), None);
        dead.mark_committed(6);
        let _ = TableId(0);
    }

    fn load_std(path: &Path) -> Option<(Timestamp, Vec<SnapshotTable>)> {
        load_snapshot(&StdVfs, path)
    }

    #[test]
    fn snapshot_roundtrip_excludes_late_and_dead_rows() {
        let dir = temp_dir("snap");
        let catalog = Catalog::new();
        populate(&catalog);
        let stats = Checkpointer::new(&dir).write_snapshot(&catalog, 8).unwrap();
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.tables, 1);

        let (ts, tables) = load_std(&snapshot_path(&dir, 8)).unwrap();
        assert_eq!(ts, 8);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].name, "accounts");
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (b"alice".to_vec(), 5, b"alice".to_vec()));
        assert_eq!(rows[1], (b"bob".to_vec(), 7, b"bob".to_vec()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_survives_purge_at_or_below_the_cut() {
        // The scheduling constraint from the module docs, both directions:
        // purging at a horizon <= the cut before/while snapshotting loses
        // nothing, while a purge *past* the cut steals the version the
        // snapshot needs — which is why checkpoints pin the GC horizon.
        let dir = temp_dir("snap-purge");
        let catalog = Catalog::new();
        let t = catalog.create_table("accounts").unwrap();
        let v1 = t.install_version(b"k", TxnId(1), Some(b"old".to_vec()));
        v1.mark_committed(5);
        let v2 = t.install_version(b"k", TxnId(2), Some(b"new".to_vec()));
        v2.mark_committed(12);

        // Cut at 8: the snapshot must contain the ts-5 version. A purge at
        // the cut itself (the tightest pinned horizon) keeps it.
        catalog.purge_old_versions(8);
        let stats = Checkpointer::new(&dir).write_snapshot(&catalog, 8).unwrap();
        assert_eq!(stats.rows, 1);
        let (_, tables) = load_std(&snapshot_path(&dir, 8)).unwrap();
        assert_eq!(tables[0].rows, vec![(b"k".to_vec(), 5, b"old".to_vec())]);

        // An unpinned purge past the cut (horizon 12) reclaims the ts-5
        // version; a snapshot at 8 taken now has lost the row. This is the
        // failure mode the pin exists to prevent.
        catalog.purge_old_versions(12);
        let stats = Checkpointer::new(&dir).write_snapshot(&catalog, 8).unwrap();
        assert_eq!(
            stats.rows, 0,
            "purge past the cut must lose the row — the pin prevents this"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let dir = temp_dir("snap-corrupt");
        let catalog = Catalog::new();
        populate(&catalog);
        Checkpointer::new(&dir).write_snapshot(&catalog, 8).unwrap();
        let path = snapshot_path(&dir, 8);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_std(&path).is_none());
        // Truncated file.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(load_std(&path).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_removes_covered_segments_and_old_snapshots() {
        let dir = temp_dir("prune");
        for seq in 1..=3u64 {
            std::fs::write(crate::segment_path(&dir, seq), b"x").unwrap();
        }
        let catalog = Catalog::new();
        Checkpointer::new(&dir).write_snapshot(&catalog, 4).unwrap();
        let stats = Checkpointer::new(&dir).run(&catalog, 9, 2).unwrap();
        assert_eq!(stats.segments_pruned, 2);
        let segments = list_segments(&StdVfs, &dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].0, 3);
        let snapshots = list_snapshots(&StdVfs, &dir).unwrap();
        assert_eq!(snapshots.len(), 1);
        assert_eq!(snapshots[0].0, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_snapshot_write_leaves_no_tmp_file() {
        let dir = temp_dir("snap-tmp-hygiene");
        let catalog = Catalog::new();
        populate(&catalog);
        // Fail the first write to any .tmp file (the magic header).
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Write,
            FaultMode::FailOnce,
            std::io::ErrorKind::Other,
        )
        .on_path(".tmp")]);
        let ckpt = Checkpointer::with_vfs(fault.handle(), &dir);
        let err = ckpt.write_snapshot(&catalog, 8).unwrap_err();
        assert_eq!(err.op, WalOp::Append, "{err}");
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
        // And the failure did not destroy the ability to checkpoint later.
        fault.clear_rules();
        ckpt.write_snapshot(&catalog, 9).unwrap();
        assert!(load_std(&snapshot_path(&dir, 9)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_removes_tmp_and_keeps_old_snapshot_authoritative() {
        let dir = temp_dir("snap-rename");
        let catalog = Catalog::new();
        populate(&catalog);
        Checkpointer::new(&dir).write_snapshot(&catalog, 8).unwrap();
        let fault = FaultVfs::new(vec![FaultRule::new(
            FaultOp::Rename,
            FaultMode::FailOnce,
            std::io::ErrorKind::Other,
        )]);
        let ckpt = Checkpointer::with_vfs(fault.handle(), &dir);
        let err = ckpt.write_snapshot(&catalog, 9).unwrap_err();
        assert_eq!(err.op, WalOp::Rename, "{err}");
        // The old snapshot is still there and valid; no tmp litter.
        assert!(load_std(&snapshot_path(&dir, 8)).is_some());
        assert!(load_std(&snapshot_path(&dir, 9)).is_none());
        let tmp_count = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(tmp_count, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
