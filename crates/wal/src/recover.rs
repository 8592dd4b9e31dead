//! Crash recovery: rebuild the committed state of a durable directory into
//! a fresh catalog (invariants in the crate docs).

use std::path::Path;

use ssi_common::{TableId, Timestamp};
use ssi_storage::{Catalog, IndexKeySpec, Table};

use crate::checkpoint::{load_snapshot, RECOVERY_TXN_ID};
use crate::error::{ctx, WalError, WalOp, WalResult};
use crate::record::{decode_stream, CommitRecord, Record};
use crate::vfs::{StdVfs, Vfs};
use crate::{is_snapshot_tmp_name, list_segments, list_snapshots};

/// What recovery found and rebuilt.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// Timestamp of the snapshot recovery started from (0 = none).
    pub snapshot_ts: Timestamp,
    /// Highest committed timestamp restored; the engine must restore its
    /// commit/begin clocks to at least this value.
    pub max_commit_ts: Timestamp,
    /// Commit records replayed from the log (beyond the snapshot).
    pub txns_replayed: u64,
    /// Log segments scanned.
    pub segments_scanned: u64,
    /// True if a segment ended in a torn tail (half-written frame) that was
    /// discarded.
    pub torn_tail: bool,
    /// Orphaned checkpoint temp files (`snapshot-*.tmp`) deleted. A crash
    /// or I/O failure mid-checkpoint leaves one; they are never valid
    /// snapshots and recovery sweeps them.
    pub tmp_files_removed: u64,
    /// Duplicate commit records dropped. The log writes each commit once,
    /// but logs written before it became fail-stop could frame a commit in
    /// two segments (a retry re-emitted it); recovery keeps one.
    pub duplicate_commits: u64,
    /// First free segment sequence number: the reopened log appends here.
    pub next_segment_seq: u64,
}

/// [`recover_into_with`] on the production VFS.
pub fn recover_into(dir: &Path, catalog: &Catalog) -> WalResult<Recovered> {
    recover_into_with(&StdVfs, dir, catalog)
}

/// Rebuilds the committed state persisted in `dir` into `catalog`:
///
/// 1. delete orphaned checkpoint temp files (a crashed or failed
///    checkpoint leaves `snapshot-*.tmp` behind; never valid state);
/// 2. load the newest snapshot — a snapshot that exists but does not
///    decode is a hard error, because the segments it covers are pruned
///    and nothing can fill the gap;
/// 3. scan every log segment in sequence order, stopping a segment at the
///    first torn or corrupt frame;
/// 4. apply create-table records, then replay every whole commit record
///    with `ts >` the snapshot timestamp, in commit-timestamp order —
///    deduplicated by commit timestamp (see
///    [`Recovered::duplicate_commits`]) — so each
///    key's version chain is rebuilt newest-first.
///
/// Replayed versions are installed committed at their original timestamps
/// under the reserved [`RECOVERY_TXN_ID`], so running recovery twice over
/// the same directory yields the same state (idempotence), and a snapshot
/// taken by a later checkpoint round-trips exactly.
///
/// Every transaction the pre-crash engine acknowledged as durably
/// committed is recovered: its record was fsynced before `commit`
/// returned (group-commit mode), records are whole-transaction frames,
/// and the log is timestamp-ordered — a torn tail can only remove a
/// suffix of *unacknowledged* commits.
pub fn recover_into_with(vfs: &dyn Vfs, dir: &Path, catalog: &Catalog) -> WalResult<Recovered> {
    let mut recovered = Recovered::default();

    // 1. Sweep checkpoint temp litter. Deletion is best-effort per file
    // (a tmp that cannot be removed is merely ignored — it can never be
    // mistaken for a snapshot), but the directory listing itself must
    // succeed or nothing below can be trusted.
    for name in ctx(vfs.read_dir(dir), WalOp::Read, dir)? {
        if is_snapshot_tmp_name(&name) && vfs.remove_file(&dir.join(name)).is_ok() {
            recovered.tmp_files_removed += 1;
        }
    }

    // 2. The newest snapshot. It must decode: checkpointing prunes the
    // segments a snapshot covers, so "skip the corrupt snapshot" would
    // not fall back to anything — it would silently recover a gapped,
    // near-empty state and report success. A snapshot that exists but
    // does not decode is therefore a hard recovery error. (Older
    // leftover snapshots — a crash between rename and prune — are
    // equally unusable: their covering segments may already be gone.)
    let snapshots = ctx(list_snapshots(vfs, dir), WalOp::Read, dir)?;
    let snapshot = match snapshots.last() {
        None => None,
        Some((ts, path)) => Some(load_snapshot(vfs, path).ok_or_else(|| {
            WalError::corrupt(
                path,
                format!(
                    "checkpoint snapshot at ts {ts} exists but is corrupt; \
                     refusing to recover a gapped state"
                ),
            )
        })?),
    };
    if let Some((ts, tables)) = snapshot {
        recovered.snapshot_ts = ts;
        recovered.max_commit_ts = ts;
        for table in tables {
            let handle = catalog
                .create_table_with_id(TableId(table.id), &table.name)
                .map_err(|e| WalError::corrupt(dir, format!("snapshot catalog clash: {e}")))?;
            for (key, commit_ts, value) in table.rows {
                install_committed(&handle, &key, commit_ts, Some(value));
            }
        }
    }

    // 3. Scan segments; collect whole commit records past the snapshot.
    //
    // A torn or corrupt frame can only be the tail of the segment that was
    // current when a crash hit — segments are append-only and never
    // reopened for writing. So corruption ends *that segment's* prefix,
    // but later segments (written by later incarnations that already
    // recovered past the same tear) are fully trustworthy and must still
    // be replayed: breaking out of the whole scan here would silently drop
    // acknowledged commits from every post-reopen segment. The torn tail
    // itself is truncated away (best-effort) so the garbage bytes are not
    // left in front of nothing forever.
    let mut commits: Vec<CommitRecord> = Vec::new();
    let segments = ctx(list_segments(vfs, dir), WalOp::Read, dir)?;
    recovered.next_segment_seq = segments.last().map_or(1, |(seq, _)| seq + 1);
    for (_, path) in &segments {
        recovered.segments_scanned += 1;
        let bytes = ctx(vfs.read(path), WalOp::Read, path)?;
        let (records, valid_prefix, err) = decode_stream(&bytes);
        if err.is_some() {
            recovered.torn_tail = true;
            truncate_torn_tail(vfs, path, valid_prefix as u64);
        }
        for record in records {
            match record {
                Record::CreateTable { table, name } => {
                    // Idempotent: the snapshot (or an earlier segment, or a
                    // duplicate frame) may already have created it.
                    let _ = catalog.create_table_with_id(table, &name);
                }
                Record::CreateIndex {
                    index,
                    table,
                    name,
                    unique,
                    spec,
                } => {
                    // Registration backfills over whatever chains are
                    // resident now (the snapshot); commits replayed later
                    // maintain entries through `install_version`, so the
                    // apply order is immaterial. A missing base table means
                    // its create record was lost with a torn tail — the
                    // index record was logged after it, so skipping is the
                    // same prefix-loss recovery commits get. The spec is
                    // CRC-covered; an undecodable one is structural
                    // corruption and skipping it just drops the index.
                    match (catalog.table_by_id(table), IndexKeySpec::decode(&spec)) {
                        (Ok(handle), Some(spec)) => {
                            let _ =
                                catalog.create_index_with_id(index, &name, &handle, unique, spec);
                        }
                        _ => recovered.torn_tail = true,
                    }
                }
                Record::Commit(commit) => {
                    if commit.commit_ts > recovered.snapshot_ts {
                        commits.push(commit);
                    }
                }
            }
        }
    }

    // 4. Replay in commit-timestamp order (the log already is, per the
    // sealing protocol; sorting makes recovery robust to reordered
    // segments too). Commit timestamps are unique — the publication clock
    // hands each commit its own tick — so two records with the same
    // timestamp are the same commit, framed twice by an older log's retry;
    // keep the first. Write order within a transaction is preserved.
    commits.sort_by_key(|c| c.commit_ts);
    let before = commits.len();
    commits.dedup_by_key(|c| c.commit_ts);
    recovered.duplicate_commits = (before - commits.len()) as u64;
    for commit in commits {
        // The clock must resume past *every* timestamp present in the log
        // — including commits skipped below — or post-recovery commits
        // would reuse timestamps already occupied by logged records.
        recovered.max_commit_ts = recovered.max_commit_ts.max(commit.commit_ts);
        if replay_commit(catalog, &commit).is_err() {
            // A commit naming an unknown table: its create record was lost
            // with a torn tail (creates are logged *before* the table is
            // reachable by any writer — log-first — so only tail loss
            // produces this). Skip just this commit — later commits
            // against known tables are acknowledged, valid data and must
            // still replay.
            recovered.torn_tail = true;
            continue;
        }
        recovered.txns_replayed += 1;
    }
    Ok(recovered)
}

/// Cuts a segment back to its valid frame prefix after a torn tail was
/// found. Best-effort: if the truncation cannot be performed (read-only
/// filesystem, permissions) recovery still works — `decode_stream` stops
/// at the same point every time — the garbage just stays on disk.
fn truncate_torn_tail(vfs: &dyn Vfs, path: &Path, valid_prefix: u64) {
    let result = vfs.open_write(path).and_then(|file| {
        file.set_len(valid_prefix)?;
        file.sync_all()
    });
    let _ = result;
}

fn replay_commit(catalog: &Catalog, commit: &CommitRecord) -> Result<(), ()> {
    // Resolve all tables first so a commit is applied all-or-nothing.
    let mut tables = Vec::with_capacity(commit.writes.len());
    for write in &commit.writes {
        tables.push(catalog.table_by_id(write.table).map_err(|_| ())?);
    }
    for (write, table) in commit.writes.iter().zip(tables) {
        install_committed(&table, &write.key, commit.commit_ts, write.value.clone());
    }
    Ok(())
}

fn install_committed(
    table: &std::sync::Arc<Table>,
    key: &[u8],
    commit_ts: Timestamp,
    value: Option<Vec<u8>>,
) {
    let version = table.install_version(key, RECOVERY_TXN_ID, value);
    version.mark_committed(commit_ts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{SyncPolicy, WalWriter};
    use crate::record::WriteEntry;
    use crate::testutil::temp_dir;
    use crate::{Checkpointer, WalErrorKind};
    use ssi_common::TxnId;
    use std::ops::Bound;

    fn put(wal: &WalWriter, ts: Timestamp, key: &[u8], value: &[u8]) {
        wal.submit(
            ts,
            TxnId(ts),
            vec![WriteEntry {
                table: TableId(1),
                key: key.to_vec(),
                value: Some(value.to_vec()),
            }],
        );
        wal.seal_upto(ts).unwrap();
    }

    fn dump(catalog: &Catalog, name: &str, at: Timestamp) -> Vec<(Vec<u8>, Vec<u8>)> {
        catalog
            .table(name)
            .unwrap()
            .scan(Bound::Unbounded, Bound::Unbounded, TxnId(999), at)
            .into_iter()
            .filter_map(|e| e.value.map(|v| (e.key.to_vec(), v.to_vec())))
            .collect()
    }

    #[test]
    fn log_only_recovery_rebuilds_tables_and_rows() {
        let dir = temp_dir("rec-log");
        {
            let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
            wal.append_create_table(TableId(1), "t").unwrap();
            put(&wal, 2, b"a", b"1");
            put(&wal, 3, b"a", b"2");
            put(&wal, 4, b"b", b"9");
            wal.sync().unwrap();
        }
        let catalog = Catalog::new();
        let rec = recover_into(&dir, &catalog).unwrap();
        assert_eq!(rec.max_commit_ts, 4);
        assert_eq!(rec.txns_replayed, 3);
        assert!(!rec.torn_tail);
        assert_eq!(rec.next_segment_seq, 2);
        // Newest value wins; the chain keeps history (snapshot at ts 2
        // still sees the old value).
        assert_eq!(
            dump(&catalog, "t", 10),
            vec![
                (b"a".to_vec(), b"2".to_vec()),
                (b"b".to_vec(), b"9".to_vec())
            ]
        );
        assert_eq!(dump(&catalog, "t", 2), vec![(b"a".to_vec(), b"1".to_vec())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tombstones_replay_as_deletes() {
        let dir = temp_dir("rec-tomb");
        {
            let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
            wal.append_create_table(TableId(1), "t").unwrap();
            put(&wal, 2, b"a", b"1");
            wal.submit(
                3,
                TxnId(3),
                vec![WriteEntry {
                    table: TableId(1),
                    key: b"a".to_vec(),
                    value: None,
                }],
            );
            wal.seal_upto(3).unwrap();
            wal.sync().unwrap();
        }
        let catalog = Catalog::new();
        recover_into(&dir, &catalog).unwrap();
        assert_eq!(dump(&catalog, "t", 10), vec![]);
        assert_eq!(dump(&catalog, "t", 2), vec![(b"a".to_vec(), b"1".to_vec())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovers_exact_prefix() {
        let dir = temp_dir("rec-torn");
        {
            let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
            wal.append_create_table(TableId(1), "t").unwrap();
            for ts in 2..=6u64 {
                put(&wal, ts, &[ts as u8], b"v");
            }
            wal.sync().unwrap();
        }
        let path = crate::segment_path(&dir, 1);
        let full = std::fs::read(&path).unwrap();
        let (_, written, err) = decode_stream(&full);
        assert_eq!(err, None);
        assert!(
            written < full.len(),
            "the segment reserves zeros after its frames"
        );
        // Cut the written frames at every byte — and once inside the
        // reserved zeros after them; recovery must always succeed and
        // rebuild a prefix of the committed transactions.
        let mut last_count = 0;
        for cut in (0..=written).chain([(written + full.len()) / 2]) {
            std::fs::write(&path, &full[..cut]).unwrap();
            let catalog = Catalog::new();
            let rec = recover_into(&dir, &catalog).unwrap();
            assert!(rec.txns_replayed >= last_count);
            last_count = rec.txns_replayed;
            if cut >= written {
                assert_eq!(rec.txns_replayed, 5, "cut at {cut} lost a commit");
                assert!(!rec.torn_tail, "cut at {cut}: reserved zeros read as torn");
            }
            // Replayed prefix: exactly txns 2..2+n.
            if let Ok(t) = catalog.table("t") {
                let rows = t.scan(Bound::Unbounded, Bound::Unbounded, TxnId(99), 100);
                assert_eq!(rows.len() as u64, rec.txns_replayed);
            } else {
                assert_eq!(rec.txns_replayed, 0);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_after_a_torn_segment_still_replay() {
        // Regression: a torn tail in segment N must not swallow segments
        // written *after* a reopen (their commits were acknowledged by a
        // later incarnation and are fully valid). The torn garbage itself
        // must be truncated away.
        let dir = temp_dir("rec-torn-multiseg");
        {
            let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
            wal.append_create_table(TableId(1), "t").unwrap();
            put(&wal, 2, b"a", b"1");
            put(&wal, 3, b"b", b"2");
            wal.sync().unwrap();
        }
        // Crash: garbage half-frame at the tail of segment 1, written over
        // the zeros the segment reserved after its last frame.
        let seg1 = crate::segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg1).unwrap();
        let (_, valid_len, _) = decode_stream(&bytes);
        bytes[valid_len..valid_len + 5].copy_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
        std::fs::write(&seg1, &bytes).unwrap();

        // Reopen-incarnation: recovery sees the tear, then new acknowledged
        // commits land in segment 2.
        {
            let catalog = Catalog::new();
            let rec = recover_into(&dir, &catalog).unwrap();
            assert!(rec.torn_tail);
            assert_eq!(rec.txns_replayed, 2);
            let wal = WalWriter::open(&dir, rec.next_segment_seq, SyncPolicy::Never).unwrap();
            put(&wal, 4, b"c", b"3");
            wal.sync().unwrap();
        }

        // Final recovery: the segment-2 commit must be there.
        let catalog = Catalog::new();
        let rec = recover_into(&dir, &catalog).unwrap();
        assert_eq!(rec.txns_replayed, 3, "post-reopen commit was dropped");
        assert_eq!(rec.max_commit_ts, 4);
        assert_eq!(
            dump(&catalog, "t", 10),
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec()),
                (b"c".to_vec(), b"3".to_vec()),
            ]
        );
        // The garbage tail was truncated off segment 1 by the first
        // recovery, so the tear does not resurface.
        assert_eq!(std::fs::metadata(&seg1).unwrap().len(), valid_len as u64);
        assert!(!rec.torn_tail, "truncated tear must not be reported again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_index_records_replay_and_backfill() {
        use ssi_storage::{IndexKeyPart, IndexKeySpec};
        let spec = IndexKeySpec {
            layout: vec![],
            parts: vec![IndexKeyPart::PrimaryKeySlice(0, 1)],
        };
        let dir = temp_dir("rec-index");
        {
            let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
            wal.append_create_table(TableId(1), "t").unwrap();
            put(&wal, 2, b"a", b"1");
            // The index is created mid-log: the commit before it must be
            // covered by backfill, the ones after by replay maintenance.
            wal.append_create_index(TableId(2), TableId(1), "t_by_pk", false, spec.encode())
                .unwrap();
            put(&wal, 3, b"b", b"2");
            put(&wal, 4, b"b", b"3");
            wal.submit(
                5,
                TxnId(5),
                vec![WriteEntry {
                    table: TableId(1),
                    key: b"a".to_vec(),
                    value: None,
                }],
            );
            wal.seal_upto(5).unwrap();
            wal.sync().unwrap();
        }
        let catalog = Catalog::new();
        let rec = recover_into(&dir, &catalog).unwrap();
        assert_eq!(rec.txns_replayed, 4);
        assert!(!rec.torn_tail);
        let index = catalog.index("t_by_pk").unwrap();
        assert_eq!(index.id(), TableId(2));
        assert_eq!(index.table_id(), TableId(1));
        // `a` has a live version (the tombstone is a later version of the
        // same chain, but the committed v1 is still resident) and `b` has
        // two resident versions collapsing onto one entry.
        assert_eq!(index.entry_count(), 2);
        // Idempotence: recovering again (create-index record re-applied
        // against an existing registration) must not double the refcounts.
        let catalog2 = Catalog::new();
        recover_into(&dir, &catalog2).unwrap();
        assert_eq!(catalog2.index("t_by_pk").unwrap().entry_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_plus_log_recovery_and_idempotence() {
        let dir = temp_dir("rec-snap");
        // Build state, checkpoint at ts 3, then two more commits in the log.
        {
            let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
            wal.append_create_table(TableId(1), "t").unwrap();
            put(&wal, 2, b"a", b"1");
            put(&wal, 3, b"b", b"2");
            let catalog = Catalog::new();
            let t = catalog.create_table("t").unwrap();
            for (k, v, ts) in [(b"a", b"1", 2u64), (b"b", b"2", 3)] {
                let ver = t.install_version(k, TxnId(9), Some(v.to_vec()));
                ver.mark_committed(ts);
            }
            let (cut, old_seq) = wal.rotate(|| 3).unwrap();
            Checkpointer::new(&dir).run(&catalog, cut, old_seq).unwrap();
            put(&wal, 4, b"a", b"3");
            put(&wal, 5, b"c", b"4");
            wal.sync().unwrap();
        }
        let catalog = Catalog::new();
        let rec = recover_into(&dir, &catalog).unwrap();
        assert_eq!(rec.snapshot_ts, 3);
        assert_eq!(rec.txns_replayed, 2);
        assert_eq!(rec.max_commit_ts, 5);
        let expected = vec![
            (b"a".to_vec(), b"3".to_vec()),
            (b"b".to_vec(), b"2".to_vec()),
            (b"c".to_vec(), b"4".to_vec()),
        ];
        assert_eq!(dump(&catalog, "t", 10), expected);

        // Idempotence: recovering the same directory again gives the same
        // state and clocks.
        let catalog2 = Catalog::new();
        let rec2 = recover_into(&dir, &catalog2).unwrap();
        assert_eq!(rec2.max_commit_ts, rec.max_commit_ts);
        assert_eq!(rec2.snapshot_ts, rec.snapshot_ts);
        assert_eq!(dump(&catalog2, "t", 10), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_recovery_error() {
        // A snapshot's covering segments are pruned, so "skip the corrupt
        // snapshot" would silently recover a gapped state: recovery must
        // refuse instead.
        let dir = temp_dir("rec-badsnap");
        {
            let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
            wal.append_create_table(TableId(1), "t").unwrap();
            put(&wal, 2, b"a", b"1");
            let catalog = Catalog::new();
            let t = catalog.create_table("t").unwrap();
            let v = t.install_version(b"a", TxnId(9), Some(b"1".to_vec()));
            v.mark_committed(2);
            let (cut, old_seq) = wal.rotate(|| 2).unwrap();
            Checkpointer::new(&dir).run(&catalog, cut, old_seq).unwrap();
        }
        let snap = crate::snapshot_path(&dir, 2);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();

        let catalog = Catalog::new();
        let err = recover_into(&dir, &catalog).unwrap_err();
        assert_eq!(
            err.kind,
            WalErrorKind::Corrupt,
            "recovery must refuse an undecodable snapshot: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_recovers_to_empty_state() {
        let dir = temp_dir("rec-empty");
        let catalog = Catalog::new();
        let rec = recover_into(&dir, &catalog).unwrap();
        assert_eq!(rec.max_commit_ts, 0);
        assert_eq!(rec.next_segment_seq, 1);
        assert!(catalog.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_checkpoint_tmp_files_are_swept() {
        // A crash (or injected fault) mid-checkpoint leaves a
        // snapshot-*.tmp; recovery must delete it and never read it as a
        // snapshot — even when its contents happen to be a fully valid
        // snapshot image (crash exactly between fsync and rename).
        let dir = temp_dir("rec-orphan-tmp");
        {
            let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
            wal.append_create_table(TableId(1), "t").unwrap();
            put(&wal, 2, b"a", b"1");
            wal.sync().unwrap();
        }
        std::fs::write(dir.join("snapshot-00000000000000ff.tmp"), b"half").unwrap();
        std::fs::write(dir.join("snapshot-0000000000000100.tmp"), b"").unwrap();

        let catalog = Catalog::new();
        let rec = recover_into(&dir, &catalog).unwrap();
        assert_eq!(rec.tmp_files_removed, 2);
        assert_eq!(
            rec.snapshot_ts, 0,
            "tmp files must not be read as snapshots"
        );
        assert_eq!(rec.txns_replayed, 1);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        // Second recovery: nothing left to sweep.
        let rec2 = recover_into(&dir, &Catalog::new()).unwrap();
        assert_eq!(rec2.tmp_files_removed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_commit_frames_replay_once() {
        // A log written before the log became fail-stop could frame the
        // same commit into two segments (a retry re-emitted it after a
        // failed fsync whose bytes landed). Recovery must apply it once.
        let dir = temp_dir("rec-dup");
        {
            let wal = WalWriter::open(&dir, 1, SyncPolicy::Never).unwrap();
            wal.append_create_table(TableId(1), "t").unwrap();
            put(&wal, 2, b"a", b"1");
            put(&wal, 3, b"b", b"2");
            wal.sync().unwrap();
        }
        // Simulate re-emission: copy segment 1's frames into segment 2.
        let seg1 = std::fs::read(crate::segment_path(&dir, 1)).unwrap();
        std::fs::write(crate::segment_path(&dir, 2), &seg1).unwrap();

        let catalog = Catalog::new();
        let rec = recover_into(&dir, &catalog).unwrap();
        assert_eq!(rec.txns_replayed, 2);
        assert_eq!(rec.duplicate_commits, 2);
        assert_eq!(rec.max_commit_ts, 3);
        assert_eq!(
            dump(&catalog, "t", 10),
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec())
            ]
        );
        // Each key must carry exactly one version (no duplicate chain
        // entries from the double replay).
        let t = catalog.table("t").unwrap();
        let rows = t.scan(Bound::Unbounded, Bound::Unbounded, TxnId(99), 100);
        assert_eq!(rows.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
