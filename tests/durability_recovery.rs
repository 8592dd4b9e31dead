//! Crash-recovery correctness net for the durability subsystem.
//!
//! The core guarantees under test (see the `ssi-wal` crate docs):
//!
//! * **round trip** — commit, drop, reopen: every acknowledged commit is
//!   back, including deletes, across multiple tables and checkpoints;
//! * **prefix consistency** — truncating the log at *any* byte (torn tail,
//!   half-written record) recovers exactly the state after some prefix of
//!   the committed transactions, never a torn or interleaved state;
//! * **idempotence** — recovering the same directory twice produces the
//!   same state;
//! * **invariant preservation** — for randomized transfer histories cut at
//!   arbitrary log prefixes, the SmallBank-style total-balance invariant
//!   holds in the recovered state;
//! * **index rebuild** — secondary indexes are not logged row-by-row; they
//!   are reconstructed from the replayed chains (and checkpoint snapshots)
//!   on recovery, and must agree exactly with the visible rows at every
//!   possible crash cut.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use serializable_si::common::encoding::{KeyBuilder, ValueReader, ValueWriter};
use serializable_si::wal::record::decode_stream;
use serializable_si::{Database, Durability, FieldKind, IndexKeyPart, IndexKeySpec, Options};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ssi-durability-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, mode: Durability) -> Database {
    Database::open(Options::default().with_durability(mode, dir))
}

/// Logical state dump: every table's visible rows at the current clock.
fn dump(db: &Database) -> BTreeMap<String, BTreeMap<Vec<u8>, Vec<u8>>> {
    let mut out = BTreeMap::new();
    for name in db.table_names() {
        let table = db.table(&name).unwrap();
        let mut txn = db.begin_read_only();
        let rows = txn
            .scan(&table, Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, v.to_vec()))
            .collect();
        txn.commit().unwrap();
        out.insert(name, rows);
    }
    out
}

fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().is_some_and(|x| x == "wal")).then_some(path)
        })
        .collect();
    segments.sort();
    segments
}

/// The crash cut that keeps every frame and half of the zeros reserved
/// after them (see [`crash_cut`]).
const IN_ZERO_TAIL: u64 = 1001;

/// Simulates a crash that tore `segment`: keeps `permille`‰ of the frames
/// written to it — the prefix `decode_stream` reads back from the file as
/// it is; a segment ends in the zeros it reserved ahead of its writer, and
/// a cut there would tear nothing — or, with [`IN_ZERO_TAIL`], every frame
/// and half of those zeros. Returns true when the cut kept every frame.
fn crash_cut(segment: &Path, permille: u64) -> bool {
    let full = std::fs::read(segment).unwrap();
    let (_, written, _) = decode_stream(&full);
    let cut = if permille == IN_ZERO_TAIL {
        (written + full.len()) / 2
    } else {
        (written as u64 * permille / 1000) as usize
    };
    std::fs::write(segment, &full[..cut]).unwrap();
    cut >= written
}

/// Crash cuts for the proptests: one case in four cuts inside the zero
/// tail, where recovery must find everything and nothing torn.
fn crash_cuts() -> BoxedStrategy<u64> {
    prop_oneof![0u64..=1000, 0u64..=1000, 0u64..=1000, Just(IN_ZERO_TAIL)]
}

#[test]
fn group_commit_survives_reopen() {
    let dir = temp_dir("roundtrip");
    {
        let db = open(&dir, Durability::GroupCommit);
        let accounts = db.create_table("accounts").unwrap();
        let audit = db.create_table("audit").unwrap();
        let mut t = db.begin();
        t.put(&accounts, b"alice", b"100").unwrap();
        t.put(&accounts, b"bob", b"250").unwrap();
        t.put(&audit, b"e1", b"open").unwrap();
        t.commit().unwrap();
        let mut t = db.begin();
        t.put(&accounts, b"alice", b"70").unwrap();
        t.delete(&accounts, b"bob").unwrap();
        t.commit().unwrap();
    }
    let db = open(&dir, Durability::GroupCommit);
    let rec = db.recovery_info().unwrap().clone();
    assert_eq!(rec.txns_replayed, 2);
    assert!(!rec.torn_tail);
    let state = dump(&db);
    assert_eq!(
        state["accounts"],
        BTreeMap::from([(b"alice".to_vec(), b"70".to_vec())]),
        "update and delete must both replay"
    );
    assert_eq!(state["audit"].len(), 1);

    // The reopened database keeps working and survives another reopen.
    let accounts = db.table("accounts").unwrap();
    let mut t = db.begin();
    t.put(&accounts, b"carol", b"5").unwrap();
    t.commit().unwrap();
    drop(db);
    let db = open(&dir, Durability::GroupCommit);
    assert_eq!(dump(&db)["accounts"].len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn buffered_mode_flushes_on_clean_close() {
    let dir = temp_dir("buffered");
    {
        let db = open(&dir, Durability::Buffered);
        let t = db.create_table("t").unwrap();
        for i in 0..50u64 {
            let mut txn = db.begin();
            txn.put(&t, &i.to_be_bytes(), b"v").unwrap();
            txn.commit().unwrap();
        }
        // Buffered commits must not fsync per commit.
        let fsyncs = db
            .durability_stats()
            .unwrap()
            .fsyncs
            .load(Ordering::Relaxed);
        assert_eq!(fsyncs, 0, "buffered mode must not fsync on commit");
    }
    let db = open(&dir, Durability::Buffered);
    assert_eq!(dump(&db)["t"].len(), 50);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_log_and_recovers_snapshot_plus_tail() {
    let dir = temp_dir("checkpoint");
    {
        let db = open(&dir, Durability::GroupCommit);
        let t = db.create_table("t").unwrap();
        for i in 0..40u64 {
            let mut txn = db.begin();
            txn.put(&t, &i.to_be_bytes(), &i.to_le_bytes()).unwrap();
            txn.commit().unwrap();
        }
        // Delete a few so the snapshot must reflect tombstones by omission.
        let mut txn = db.begin();
        txn.delete(&t, &3u64.to_be_bytes()).unwrap();
        txn.commit().unwrap();

        let stats = db.checkpoint().unwrap();
        assert_eq!(stats.rows, 39);
        assert_eq!(stats.segments_pruned, 1);

        // Post-checkpoint commits land in the new segment.
        for i in 100..105u64 {
            let mut txn = db.begin();
            txn.put(&t, &i.to_be_bytes(), b"tail").unwrap();
            txn.commit().unwrap();
        }
        assert_eq!(wal_segments(&dir).len(), 1, "old segment must be pruned");
    }
    let db = open(&dir, Durability::GroupCommit);
    let rec = db.recovery_info().unwrap().clone();
    assert!(rec.snapshot_ts > 0, "recovery must start from the snapshot");
    assert_eq!(
        rec.txns_replayed, 5,
        "only the post-checkpoint tail replays"
    );
    assert_eq!(dump(&db)["t"].len(), 44);

    // A second checkpoint over recovered state round-trips too.
    db.checkpoint().unwrap();
    drop(db);
    let db = open(&dir, Durability::GroupCommit);
    assert_eq!(dump(&db)["t"].len(), 44);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_checkpoint_triggers_on_log_growth() {
    let dir = temp_dir("autockpt");
    let mut options = Options::default().with_durability(Durability::Buffered, &dir);
    options.durability.checkpoint_every_bytes = Some(4096);
    {
        let db = Database::open(options.clone());
        let t = db.create_table("t").unwrap();
        for i in 0..200u64 {
            let mut txn = db.begin();
            txn.put(&t, &i.to_be_bytes(), &[7u8; 64]).unwrap();
            txn.commit().unwrap();
        }
        let snapshots = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "ckpt")
            })
            .count();
        assert!(
            snapshots >= 1,
            "log growth must have triggered a checkpoint"
        );
    }
    let db = Database::open(options);
    assert_eq!(dump(&db)["t"].len(), 200);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_group_commits_all_survive_reopen() {
    // 8 writer threads; every commit acknowledged before the crash point
    // must be present after recovery (group commit must lose nothing).
    let dir = temp_dir("concurrent");
    let committed: Vec<(u64, u64)> = {
        let db = open(&dir, Durability::GroupCommit);
        let t = db.create_table("t").unwrap();
        let mut acks = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for worker in 0..8u64 {
                let db = db.clone();
                let t = t.clone();
                handles.push(s.spawn(move || {
                    let mut acked = Vec::new();
                    for i in 0..25u64 {
                        let key = worker * 1000 + i;
                        let mut txn = db.begin();
                        if txn.put(&t, &key.to_be_bytes(), &i.to_le_bytes()).is_ok()
                            && txn.commit().is_ok()
                        {
                            acked.push((key, i));
                        }
                    }
                    acked
                }));
            }
            for h in handles {
                acks.extend(h.join().unwrap());
            }
        });
        let stats = db.durability_stats().unwrap();
        assert_eq!(
            stats.records.load(Ordering::Relaxed),
            acks.len() as u64,
            "one log record per acknowledged commit"
        );
        acks
    };
    assert_eq!(committed.len(), 200, "disjoint keys: no commit may abort");
    let db = open(&dir, Durability::GroupCommit);
    let state = &dump(&db)["t"];
    assert_eq!(state.len(), committed.len());
    for (key, i) in committed {
        assert_eq!(
            state.get(&key.to_be_bytes()[..].to_vec()).map(|v| &v[..]),
            Some(&i.to_le_bytes()[..]),
            "acknowledged commit of key {key} lost"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn double_open_of_a_durable_directory_is_refused() {
    // Two writers appending to the same segment would interleave frames
    // into CRC garbage; the directory lock must make the second open fail
    // while the first handle lives, and succeed after it is dropped.
    let dir = temp_dir("double-open");
    let db = open(&dir, Durability::GroupCommit);
    let second =
        Database::try_open(Options::default().with_durability(Durability::GroupCommit, &dir));
    assert!(
        matches!(second, Err(serializable_si::Error::Durability(_))),
        "second open must be refused: {second:?}"
    );
    drop(db);
    Database::try_open(Options::default().with_durability(Durability::GroupCommit, &dir))
        .expect("reopen after drop must succeed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn commits_after_torn_tail_reopen_survive_next_recovery() {
    // Regression (review finding): a crash leaves a torn tail; the reopened
    // database acknowledges new fsynced commits into a later segment. Those
    // commits must survive the *next* recovery — the old torn segment must
    // not render everything after it unreadable.
    let dir = temp_dir("torn-reopen");
    {
        let db = open(&dir, Durability::GroupCommit);
        let t = db.create_table("t").unwrap();
        for i in 0..5u64 {
            let mut txn = db.begin();
            txn.put(&t, &i.to_be_bytes(), b"old").unwrap();
            txn.commit().unwrap();
        }
    }
    // Tear the tail: chop the last 7 bytes of the last record's frame (and
    // the zeros the segment reserved after it).
    let segments = wal_segments(&dir);
    let full = std::fs::read(&segments[0]).unwrap();
    let (_, written, _) = decode_stream(&full);
    std::fs::write(&segments[0], &full[..written - 7]).unwrap();

    {
        let db = open(&dir, Durability::GroupCommit);
        assert!(db.recovery_info().unwrap().torn_tail);
        assert_eq!(db.recovery_info().unwrap().txns_replayed, 4);
        let t = db.table("t").unwrap();
        let mut txn = db.begin();
        txn.put(&t, b"new-key", b"acked").unwrap();
        txn.commit().unwrap(); // fsynced: acknowledged durable
    }

    let db = open(&dir, Durability::GroupCommit);
    let state = &dump(&db)["t"];
    assert_eq!(
        state.get(&b"new-key"[..]).map(|v| &v[..]),
        Some(&b"acked"[..]),
        "acknowledged post-reopen commit lost"
    );
    assert_eq!(state.len(), 5, "4 old prefix rows + the new key");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Copies a durable directory's files into a fresh directory, so one run's
/// log can be crash-cut several ways without re-running the workload.
fn copy_dir(src: &Path, tag: &str) -> PathBuf {
    let dst = temp_dir(tag);
    std::fs::create_dir_all(&dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            std::fs::copy(&path, dst.join(path.file_name().unwrap())).unwrap();
        }
    }
    dst
}

/// Copies a durable directory *while the database is still writing to it* —
/// a live crash image. Append-only segments are copied in ascending
/// sequence order, so every closed segment is whole and only the current
/// append target yields a prefix, exactly the shape a real crash leaves.
fn live_crash_copy(src: &Path, tag: &str) -> PathBuf {
    let dst = temp_dir(tag);
    std::fs::create_dir_all(&dst).unwrap();
    let mut files: Vec<PathBuf> = std::fs::read_dir(src)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            path.is_file().then_some(path)
        })
        .collect();
    files.sort();
    for path in files {
        // A file pruned between the listing and the copy is skipped (this
        // test runs without checkpoints, so it cannot actually happen; the
        // tolerance keeps the helper honest for reuse).
        let _ = std::fs::copy(&path, dst.join(path.file_name().unwrap()));
    }
    dst
}

/// Sums the recovered account balances; `None` when the table is absent or
/// empty (recovery landed before the setup transaction).
fn account_sum(db: &Database) -> Option<(u64, i64)> {
    let state = dump(db).remove("accounts")?;
    if state.is_empty() {
        return None;
    }
    let sum = state
        .values()
        .map(|v| {
            String::from_utf8(v.clone())
                .unwrap()
                .parse::<i64>()
                .unwrap()
        })
        .sum();
    Some((state.len() as u64, sum))
}

#[test]
fn checkpoint_racing_purge_recovers_transfer_invariant_at_any_cut() {
    // The reclamation/checkpoint scheduling test: transfer writers, a
    // checkpoint looper and a version-GC hammer all run concurrently (plus
    // the automatic commit-cadence purge), so fuzzy table snapshots stream
    // *while* purges fire. The horizon pin must keep every version a
    // snapshot still needs; a purge past the cut would write a snapshot
    // with rows missing, and recovery from it — at any crash cut of the
    // tail segment — would break the constant-sum invariant or lose
    // accounts entirely.
    const ACCOUNTS: u64 = 8;
    const INITIAL: i64 = 1000;
    let dir = temp_dir("ckpt-vs-purge");
    let final_accounts = {
        let options = Options::default()
            .with_durability(Durability::GroupCommit, &dir)
            .with_auto_purge(4);
        let db = Database::open(options);
        let t = db.create_table("accounts").unwrap();
        let mut setup = db.begin();
        for a in 0..ACCOUNTS {
            setup
                .put(&t, &a.to_be_bytes(), INITIAL.to_string().as_bytes())
                .unwrap();
        }
        setup.commit().unwrap();

        let stop = AtomicU64::new(0);
        std::thread::scope(|s| {
            {
                let db = db.clone();
                let stop = &stop;
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        db.checkpoint().expect("checkpoint failed mid-race");
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                });
            }
            {
                let db = db.clone();
                let stop = &stop;
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        db.purge();
                        std::thread::yield_now();
                    }
                });
            }
            let mut writers = Vec::new();
            for w in 0..4u64 {
                let db = db.clone();
                let t = t.clone();
                writers.push(s.spawn(move || {
                    for i in 0..60u64 {
                        let h = (w * 1_000_003 + i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        let from = h % ACCOUNTS;
                        let to = (from + 1 + (h >> 8) % (ACCOUNTS - 1)) % ACCOUNTS;
                        let amount = ((h >> 16) % 50) as i64;
                        let mut txn = db.begin();
                        let transfer = (|| -> serializable_si::Result<()> {
                            let get = |txn: &mut serializable_si::Transaction,
                                       a: u64|
                             -> serializable_si::Result<i64> {
                                Ok(String::from_utf8(
                                    txn.get(&t, &a.to_be_bytes())?.unwrap().to_vec(),
                                )
                                .unwrap()
                                .parse()
                                .unwrap())
                            };
                            let from_balance = get(&mut txn, from)?;
                            let to_balance = get(&mut txn, to)?;
                            txn.put(
                                &t,
                                &from.to_be_bytes(),
                                (from_balance - amount).to_string().as_bytes(),
                            )?;
                            txn.put(
                                &t,
                                &to.to_be_bytes(),
                                (to_balance + amount).to_string().as_bytes(),
                            )?;
                            txn.commit()
                        })();
                        match transfer {
                            Ok(()) => {}
                            Err(e) if e.is_retryable() => {} // aborted: sum unchanged
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }));
            }
            for w in writers {
                w.join().unwrap();
            }
            stop.store(1, Ordering::Relaxed);
        });

        // The race must actually have happened: purges ran (cadence +
        // hammer) while checkpoints cut and pruned the log.
        let stats = db.transaction_manager().stats();
        assert!(stats.purge_runs.load(Ordering::Relaxed) > 0);
        assert!(
            db.transaction_manager().oldest_gc_pin().is_none(),
            "every checkpoint must release its horizon pin"
        );
        dump(&db).remove("accounts")
    };

    // Crash-cut the tail segment at several fractions — each on a copy of
    // the directory, so one workload run covers all cuts — and recover.
    for cut_permille in [0u64, 250, 500, 750, 1000, IN_ZERO_TAIL] {
        let case = copy_dir(&dir, &format!("ckpt-vs-purge-cut{cut_permille}"));
        let segments = wal_segments(&case);
        let whole = segments
            .last()
            .is_none_or(|last| crash_cut(last, cut_permille));
        let db = open(&case, Durability::GroupCommit);
        let (accounts, sum) = account_sum(&db)
            .expect("a checkpoint snapshot always covers at least the setup transaction");
        assert_eq!(
            accounts, ACCOUNTS,
            "recovery lost accounts (cut {cut_permille}‰)"
        );
        assert_eq!(
            sum,
            ACCOUNTS as i64 * INITIAL,
            "checkpoint-vs-purge race broke the transfer invariant (cut {cut_permille}‰)"
        );
        if whole {
            assert_eq!(
                dump(&db).remove("accounts"),
                final_accounts,
                "a cut that keeps every frame lost a commit (cut {cut_permille}‰)"
            );
            assert!(
                !db.recovery_info().unwrap().torn_tail,
                "cut {cut_permille}‰"
            );
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&case);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_maintenance_with_checkpoints_survives_any_cut() {
    // The checkpoint-vs-purge race with committer-run purge slices (one
    // after every write commit), a checkpoint looper and transfer writers.
    // Crash-cut at several fractions of the tail segment: the SmallBank sum
    // must hold at every cut.
    const ACCOUNTS: u64 = 8;
    const INITIAL: i64 = 1000;
    let dir = temp_dir("bg-ckpt-cut");
    let final_accounts = {
        let options = Options::default()
            .with_durability(Durability::GroupCommit, &dir)
            .with_auto_purge(1);
        let db = Database::open(options);
        let t = db.create_table("accounts").unwrap();
        let mut setup = db.begin();
        for a in 0..ACCOUNTS {
            setup
                .put(&t, &a.to_be_bytes(), INITIAL.to_string().as_bytes())
                .unwrap();
        }
        setup.commit().unwrap();

        let stop = AtomicU64::new(0);
        std::thread::scope(|s| {
            {
                let db = db.clone();
                let stop = &stop;
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        db.checkpoint().expect("checkpoint failed mid-race");
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                });
            }
            let mut writers = Vec::new();
            for w in 0..4u64 {
                let db = db.clone();
                let t = t.clone();
                writers.push(s.spawn(move || {
                    for i in 0..40u64 {
                        let h = (w * 1_000_003 + i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        let from = h % ACCOUNTS;
                        let to = (from + 1 + (h >> 8) % (ACCOUNTS - 1)) % ACCOUNTS;
                        let amount = ((h >> 16) % 50) as i64;
                        let mut txn = db.begin();
                        let transfer = (|| -> serializable_si::Result<()> {
                            let get = |txn: &mut serializable_si::Transaction,
                                       a: u64|
                             -> serializable_si::Result<i64> {
                                Ok(String::from_utf8(
                                    txn.get(&t, &a.to_be_bytes())?.unwrap().to_vec(),
                                )
                                .unwrap()
                                .parse()
                                .unwrap())
                            };
                            let from_balance = get(&mut txn, from)?;
                            let to_balance = get(&mut txn, to)?;
                            txn.put(
                                &t,
                                &from.to_be_bytes(),
                                (from_balance - amount).to_string().as_bytes(),
                            )?;
                            txn.put(
                                &t,
                                &to.to_be_bytes(),
                                (to_balance + amount).to_string().as_bytes(),
                            )?;
                            txn.commit()
                        })();
                        match transfer {
                            Ok(()) => {}
                            Err(e) if e.is_retryable() => {}
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                }));
            }
            for w in writers {
                w.join().unwrap();
            }
            stop.store(1, Ordering::Relaxed);
        });
        // Purge slices must actually have run while the checkpoints and
        // transfers raced them.
        let stats = db.transaction_manager().stats();
        assert!(
            stats.purge_runs.load(Ordering::Relaxed) > 0,
            "no purge slice ran during the race window"
        );
        dump(&db).remove("accounts")
    };

    for cut_permille in [0u64, 250, 500, 750, 1000, IN_ZERO_TAIL] {
        let case = copy_dir(&dir, &format!("bg-ckpt-cut{cut_permille}"));
        let segments = wal_segments(&case);
        let whole = segments
            .last()
            .is_none_or(|last| crash_cut(last, cut_permille));
        let db = open(&case, Durability::GroupCommit);
        let (accounts, sum) = account_sum(&db)
            .expect("a checkpoint snapshot always covers at least the setup transaction");
        assert_eq!(
            accounts, ACCOUNTS,
            "recovery lost accounts (cut {cut_permille}‰)"
        );
        assert_eq!(
            sum,
            ACCOUNTS as i64 * INITIAL,
            "committer-run purge broke the transfer invariant (cut {cut_permille}‰)"
        );
        if whole {
            assert_eq!(
                dump(&db).remove("accounts"),
                final_accounts,
                "a cut that keeps every frame lost a commit (cut {cut_permille}‰)"
            );
            assert!(
                !db.recovery_info().unwrap().torn_tail,
                "cut {cut_permille}‰"
            );
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&case);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Applies transaction `i` of the deterministic history to `model`.
fn model_apply(model: &mut BTreeMap<Vec<u8>, Vec<u8>>, i: u64) {
    // Mixed puts/overwrites/deletes over a small key space, derived from a
    // cheap hash so the history is deterministic per index.
    let h = |x: u64| {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    };
    for op in 0..1 + h(i) % 3 {
        let key = (h(i * 7 + op) % 12).to_be_bytes().to_vec();
        if h(i * 13 + op) % 5 == 0 {
            model.remove(&key);
        } else {
            model.insert(key, format!("v{}-{}", i, op).into_bytes());
        }
    }
}

/// Runs the same history against a real durable database; returns the
/// model state after every logged commit (index 0 = empty). A transaction
/// whose diff is empty (it only deletes absent keys) commits without
/// writes and logs nothing, so it adds no state.
fn run_history(dir: &Path, txns: u64) -> Vec<BTreeMap<Vec<u8>, Vec<u8>>> {
    let db = open(dir, Durability::GroupCommit);
    let t = db.create_table("t").unwrap();
    let mut model = BTreeMap::new();
    let mut states = vec![model.clone()];
    for i in 0..txns {
        let before = model.clone();
        model_apply(&mut model, i);
        let mut txn = db.begin();
        // Apply the model diff as the transaction's writes.
        for (key, value) in &model {
            if before.get(key) != Some(value) {
                txn.put(&t, key, value).unwrap();
            }
        }
        for key in before.keys() {
            if !model.contains_key(key) {
                txn.delete(&t, key).unwrap();
            }
        }
        txn.commit().unwrap();
        if model != before {
            states.push(model.clone());
        }
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Cut the log at an arbitrary byte: recovery must yield exactly the
    /// state after some prefix of the committed transactions, and
    /// recovering twice must agree.
    fn torn_log_tail_recovers_a_consistent_prefix((txns, cut_permille) in (3u64..16, crash_cuts())) {
        let dir = temp_dir("torn");
        let states = run_history(&dir, txns);

        // Simulate a crash with a torn tail: truncate the single segment.
        let segments = wal_segments(&dir);
        prop_assert_eq!(segments.len(), 1);
        let whole = crash_cut(&segments[0], cut_permille);

        let db = open(&dir, Durability::GroupCommit);
        let replayed = db.recovery_info().unwrap().txns_replayed as usize;
        prop_assert!(replayed < states.len());
        let recovered = dump(&db).remove("t").unwrap_or_default();
        prop_assert_eq!(
            &recovered, &states[replayed],
            "recovered state is not the prefix state after {} txns", replayed
        );
        // Monotone coverage: a cut that keeps every frame loses nothing
        // and tears nothing.
        if whole {
            prop_assert_eq!(replayed + 1, states.len());
            prop_assert!(!db.recovery_info().unwrap().torn_tail);
        }
        drop(db);

        // Idempotence: a second recovery of the same directory agrees.
        let db2 = open(&dir, Durability::GroupCommit);
        prop_assert_eq!(db2.recovery_info().unwrap().txns_replayed as usize, replayed);
        prop_assert_eq!(&dump(&db2).remove("t").unwrap_or_default(), &states[replayed]);
        drop(db2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// SmallBank-style invariant: randomized transfer histories keep the
    /// total balance constant; a crash cut at any log prefix must recover
    /// a state that still satisfies the invariant (all-or-nothing per
    /// transaction).
    fn smallbank_invariant_survives_crash_cut((transfers, cut_permille, seed) in (1u64..24, crash_cuts(), 0u64..1000)) {
        const ACCOUNTS: u64 = 8;
        const INITIAL: i64 = 100;
        let dir = temp_dir("smallbank");
        {
            let db = open(&dir, Durability::GroupCommit);
            let t = db.create_table("accounts").unwrap();
            let mut setup = db.begin();
            for a in 0..ACCOUNTS {
                setup.put(&t, &a.to_be_bytes(), INITIAL.to_string().as_bytes()).unwrap();
            }
            setup.commit().unwrap();
            let h = |x: u64| {
                let mut z = x.wrapping_add(seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^ (z >> 32)
            };
            for i in 0..transfers {
                let from = h(i * 2) % ACCOUNTS;
                let to = (from + 1 + h(i * 2 + 1) % (ACCOUNTS - 1)) % ACCOUNTS;
                let amount = (h(i * 3) % 40) as i64;
                let mut txn = db.begin();
                let get = |txn: &mut serializable_si::Transaction, a: u64| -> i64 {
                    String::from_utf8(txn.get(&t, &a.to_be_bytes()).unwrap().unwrap().to_vec())
                        .unwrap().parse().unwrap()
                };
                let from_balance = get(&mut txn, from);
                let to_balance = get(&mut txn, to);
                txn.put(&t, &from.to_be_bytes(), (from_balance - amount).to_string().as_bytes()).unwrap();
                txn.put(&t, &to.to_be_bytes(), (to_balance + amount).to_string().as_bytes()).unwrap();
                txn.commit().unwrap();
            }
        }

        let segments = wal_segments(&dir);
        prop_assert_eq!(segments.len(), 1);
        let whole = crash_cut(&segments[0], cut_permille);

        let db = open(&dir, Durability::GroupCommit);
        if whole {
            prop_assert_eq!(db.recovery_info().unwrap().txns_replayed, transfers + 1);
            prop_assert!(!db.recovery_info().unwrap().torn_tail);
        }
        let state = dump(&db).remove("accounts").unwrap_or_default();
        // The setup transaction is atomic: either nothing or all accounts
        // exist, and then every later prefix preserves the total.
        if state.is_empty() {
            prop_assert_eq!(db.recovery_info().unwrap().txns_replayed, 0);
        } else {
            prop_assert_eq!(state.len() as u64, ACCOUNTS);
            let total: i64 = state.values()
                .map(|v| String::from_utf8(v.clone()).unwrap().parse::<i64>().unwrap())
                .sum();
            prop_assert_eq!(total, ACCOUNTS as i64 * INITIAL,
                "crash cut broke the transfer invariant");
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Transfers with checkpoints and automatic version GC interleaved
    /// deterministically, crash-cut at an arbitrary byte of the tail
    /// segment: recovery must land on a per-transaction prefix (the
    /// constant-sum invariant holds), must never replay onto a
    /// purged-too-early chain (the snapshot would be missing rows and the
    /// sum would drift), and a second recovery must agree with the first.
    fn checkpointed_and_purged_history_survives_crash_cut(
        (transfers, ckpt_every, cut_permille, seed) in (4u64..20, 2u64..6, crash_cuts(), 0u64..500)
    ) {
        const ACCOUNTS: u64 = 8;
        const INITIAL: i64 = 100;
        let dir = temp_dir("ckpt-purge-cut");
        let final_accounts = {
            let options = Options::default()
                .with_durability(Durability::GroupCommit, &dir)
                .with_auto_purge(3);
            let db = Database::open(options);
            let t = db.create_table("accounts").unwrap();
            let mut setup = db.begin();
            for a in 0..ACCOUNTS {
                setup.put(&t, &a.to_be_bytes(), INITIAL.to_string().as_bytes()).unwrap();
            }
            setup.commit().unwrap();
            let h = |x: u64| {
                let mut z = x.wrapping_add(seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^ (z >> 32)
            };
            for i in 0..transfers {
                if i % ckpt_every == 0 {
                    db.checkpoint().unwrap();
                }
                let from = h(i * 2) % ACCOUNTS;
                let to = (from + 1 + h(i * 2 + 1) % (ACCOUNTS - 1)) % ACCOUNTS;
                let amount = (h(i * 3) % 40) as i64;
                let mut txn = db.begin();
                let get = |txn: &mut serializable_si::Transaction, a: u64| -> i64 {
                    String::from_utf8(txn.get(&t, &a.to_be_bytes()).unwrap().unwrap().to_vec())
                        .unwrap().parse().unwrap()
                };
                let from_balance = get(&mut txn, from);
                let to_balance = get(&mut txn, to);
                txn.put(&t, &from.to_be_bytes(), (from_balance - amount).to_string().as_bytes()).unwrap();
                txn.put(&t, &to.to_be_bytes(), (to_balance + amount).to_string().as_bytes()).unwrap();
                txn.commit().unwrap();
            }
            prop_assert!(
                db.transaction_manager().stats().purge_runs.load(Ordering::Relaxed) > 0,
                "the commit cadence must have purged during the history"
            );
            dump(&db).remove("accounts")
        };

        // Crash: cut the tail segment at an arbitrary byte. Pre-cut
        // segments and the newest snapshot stay intact, as after a real
        // crash (they were fsynced by the checkpoints).
        let segments = wal_segments(&dir);
        let whole = segments.last().is_none_or(|last| crash_cut(last, cut_permille));

        let db = open(&dir, Durability::GroupCommit);
        if whole {
            prop_assert_eq!(&dump(&db).remove("accounts"), &final_accounts);
            prop_assert!(!db.recovery_info().unwrap().torn_tail);
        }
        let first = account_sum(&db);
        let replayed = db.recovery_info().unwrap().txns_replayed;
        let (accounts, sum) = first.expect("the first checkpoint covers the setup transaction");
        prop_assert_eq!(accounts, ACCOUNTS);
        prop_assert_eq!(sum, ACCOUNTS as i64 * INITIAL,
            "crash cut with checkpoints + purge broke the transfer invariant");
        drop(db);

        // Idempotence: recovering the already-truncated directory again
        // agrees exactly.
        let db = open(&dir, Durability::GroupCommit);
        prop_assert_eq!(db.recovery_info().unwrap().txns_replayed, replayed);
        prop_assert_eq!(account_sum(&db), Some((ACCOUNTS, ACCOUNTS as i64 * INITIAL)));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Reads the single string field out of a row written by [`person`].
fn person_name(value: &[u8]) -> String {
    ValueReader::new(value).str()
}

fn person(name: &str) -> Vec<u8> {
    ValueWriter::new().str(name).build()
}

/// Asserts that the secondary index and the table agree exactly: an
/// unbounded index scan surfaces every visible row once (keyed by the name
/// extracted from its *current* value), and a point lookup of each row's
/// name finds the row. Returns the scan for cross-recovery comparison.
fn check_index_matches_table(db: &Database) -> Vec<(Vec<u8>, Vec<u8>)> {
    let table = db.table("people").unwrap();
    let index = db.index("people_by_name").unwrap();
    let mut txn = db.begin_read_only();
    let rows: BTreeMap<Vec<u8>, Vec<u8>> = txn
        .scan(&table, Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect();
    let through_index: Vec<(Vec<u8>, Vec<u8>)> = txn
        .index_scan(&index, Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect();
    assert_eq!(
        through_index.len(),
        rows.len(),
        "index scan and table scan disagree on cardinality"
    );
    let mut via_index: Vec<(Vec<u8>, Vec<u8>)> = through_index.clone();
    via_index.sort();
    let mut via_table: Vec<(Vec<u8>, Vec<u8>)> =
        rows.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    via_table.sort();
    assert_eq!(
        via_index, via_table,
        "index surfaces different rows than the table"
    );
    for (pk, value) in &rows {
        let name = person_name(value);
        let hits = txn
            .index_lookup(&index, &KeyBuilder::new().str(&name).build())
            .unwrap();
        assert!(
            hits.iter().any(|(k, _)| k == pk),
            "row {pk:?} not reachable through its name {name:?}"
        );
    }
    txn.commit().unwrap();
    through_index
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Secondary indexes are rebuilt on recovery — from the replayed log
    /// records and, when checkpoints ran, from the snapshot backfill plus
    /// the re-logged create-index records — never logged entry-by-entry.
    /// A deterministic history of inserts, renames (entry moves) and
    /// deletes is crash-cut at an arbitrary byte of the tail segment: the
    /// recovered index must agree *exactly* with the recovered chains, and
    /// a second recovery must agree with the first.
    fn recovery_rebuilds_secondary_index_at_any_cut(
        (txns, ckpt_every, cut_permille, seed) in (3u64..14, 0u64..5, 0u64..=1000, 0u64..500)
    ) {
        let dir = temp_dir("index-rebuild");
        {
            let db = open(&dir, Durability::GroupCommit);
            let table = db.create_table("people").unwrap();
            let _ = db
                .create_index(
                    "people_by_name",
                    &table,
                    false,
                    IndexKeySpec {
                        layout: vec![FieldKind::Str],
                        parts: vec![IndexKeyPart::ValueField(0)],
                    },
                )
                .unwrap();
            let h = |x: u64| {
                let mut z = x.wrapping_add(seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^ (z >> 32)
            };
            for i in 0..txns {
                if ckpt_every > 0 && i % ckpt_every == 0 {
                    db.checkpoint().unwrap();
                }
                let mut txn = db.begin();
                for op in 0..1 + h(i) % 3 {
                    let pk = (h(i * 7 + op) % 10).to_be_bytes();
                    if h(i * 13 + op) % 4 == 0 {
                        txn.delete(&table, &pk).unwrap();
                    } else {
                        // Renames move the row's index entry; the stale one
                        // must never resurface after recovery.
                        let name = format!("name-{}", h(i * 17 + op) % 5);
                        txn.put(&table, &pk, &person(&name)).unwrap();
                    }
                }
                txn.commit().unwrap();
            }
        }

        // Crash: cut the tail segment at an arbitrary byte.
        if let Some(last) = wal_segments(&dir).last() {
            crash_cut(last, cut_permille);
        }

        let db = open(&dir, Durability::GroupCommit);
        let replayed = db.recovery_info().unwrap().txns_replayed;
        if db.index("people_by_name").is_err() {
            // The cut landed before the create-index record: no transaction
            // of the history can have replayed either.
            prop_assert_eq!(replayed, 0, "rows replayed without their index");
        } else {
            let first = check_index_matches_table(&db);
            drop(db);

            // Idempotence: a second recovery rebuilds the same index.
            let db = open(&dir, Durability::GroupCommit);
            prop_assert_eq!(db.recovery_info().unwrap().txns_replayed, replayed);
            let second = check_index_matches_table(&db);
            prop_assert_eq!(first, second, "re-recovery rebuilt a different index");

            // And the rebuilt index keeps working: a fresh claim through
            // the recovered maintenance path is immediately visible.
            let table = db.table("people").unwrap();
            let index = db.index("people_by_name").unwrap();
            let mut txn = db.begin();
            txn.put(&table, b"fresh", &person("post-recovery")).unwrap();
            txn.commit().unwrap();
            let mut check = db.begin_read_only();
            let hits = check
                .index_lookup(&index, &KeyBuilder::new().str("post-recovery").build())
                .unwrap();
            prop_assert_eq!(hits.len(), 1, "post-recovery write not indexed");
            check.commit().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Crash net for committer-run maintenance: transfer writers run with
    /// group commit and a purge slice after every commit while a
    /// *live* copy of the durable directory is taken (the crash image),
    /// which is then cut at an arbitrary byte. The recovered state must be
    /// a whole-transaction prefix (the SmallBank sum holds), must contain
    /// every commit group commit had acknowledged before the copy began
    /// (per-writer monotone counters, written in the same transaction as
    /// the transfer, prove none was lost), and a second recovery agrees.
    fn live_crash_cut_under_background_maintenance_loses_no_acked_commit(
        (copy_delay_ms, cut_permille, seed) in (0u64..25, 0u64..=1000, 0u64..500)
    ) {
        const ACCOUNTS: u64 = 8;
        const INITIAL: i64 = 100;
        const WRITERS: u64 = 3;
        let dir = temp_dir("live-cut");
        let acked: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
        let acked_at_copy: Vec<u64>;
        {
            let options = Options::default()
                .with_durability(Durability::GroupCommit, &dir)
                .with_auto_purge(1);
            let db = Database::open(options);
            let t = db.create_table("accounts").unwrap();
            let counters = db.create_table("counters").unwrap();
            let mut setup = db.begin();
            for a in 0..ACCOUNTS {
                setup.put(&t, &a.to_be_bytes(), INITIAL.to_string().as_bytes()).unwrap();
            }
            setup.commit().unwrap();

            let mut copy = None;
            std::thread::scope(|s| {
                let mut writers = Vec::new();
                for w in 0..WRITERS {
                    let db = db.clone();
                    let t = t.clone();
                    let counters = counters.clone();
                    let acked = &acked;
                    writers.push(s.spawn(move || {
                        for i in 1..=30u64 {
                            let h = (seed ^ (w * 1_000_003 + i))
                                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                            let from = h % ACCOUNTS;
                            let to = (from + 1 + (h >> 8) % (ACCOUNTS - 1)) % ACCOUNTS;
                            let amount = ((h >> 16) % 40) as i64;
                            let mut txn = db.begin();
                            let transfer = (|| -> serializable_si::Result<()> {
                                let get = |txn: &mut serializable_si::Transaction,
                                           a: u64|
                                 -> serializable_si::Result<i64> {
                                    Ok(String::from_utf8(
                                        txn.get(&t, &a.to_be_bytes())?.unwrap().to_vec(),
                                    )
                                    .unwrap()
                                    .parse()
                                    .unwrap())
                                };
                                let from_balance = get(&mut txn, from)?;
                                let to_balance = get(&mut txn, to)?;
                                txn.put(&t, &from.to_be_bytes(),
                                    (from_balance - amount).to_string().as_bytes())?;
                                txn.put(&t, &to.to_be_bytes(),
                                    (to_balance + amount).to_string().as_bytes())?;
                                // Same transaction: replays iff the transfer does.
                                txn.put(&counters, &w.to_be_bytes(), &i.to_be_bytes())?;
                                txn.commit()
                            })();
                            match transfer {
                                // `commit` returning Ok in group-commit mode
                                // means a leader's fsync covered it: only
                                // then is the attempt index published as acked.
                                Ok(()) => acked[w as usize].store(i, Ordering::Release),
                                Err(e) if e.is_retryable() => {}
                                Err(e) => panic!("unexpected error: {e}"),
                            }
                        }
                    }));
                }
                std::thread::sleep(std::time::Duration::from_millis(copy_delay_ms));
                // Snapshot the acked indices *before* the copy starts: every
                // one of these commits was durable before any byte is read.
                let snapshot: Vec<u64> =
                    acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
                copy = Some((snapshot, live_crash_copy(&dir, "live-cut-img")));
                for w in writers {
                    w.join().unwrap();
                }
            });
            let (snapshot, image) = copy.unwrap();
            acked_at_copy = snapshot;
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);

            // Cut the live image's tail segment at an arbitrary byte on top
            // of whatever tear the copy itself caught.
            let segments = wal_segments(&image);
            prop_assert_eq!(segments.len(), 1, "no checkpoints: a single segment");
            crash_cut(&segments[0], cut_permille);

            let db = open(&image, Durability::GroupCommit);
            let replayed = db.recovery_info().unwrap().txns_replayed;
            let state = dump(&db);
            if let Some(accounts) = state.get("accounts").filter(|s| !s.is_empty()) {
                prop_assert_eq!(accounts.len() as u64, ACCOUNTS);
                let sum: i64 = accounts.values()
                    .map(|v| String::from_utf8(v.clone()).unwrap().parse::<i64>().unwrap())
                    .sum();
                prop_assert_eq!(sum, ACCOUNTS as i64 * INITIAL,
                    "live crash cut broke the transfer invariant");
            } else {
                // Recovery landed before the setup transaction: nothing —
                // in particular no acked transfer — may exist.
                prop_assert!(acked_at_copy.iter().all(|&n| n == 0) || cut_permille < 1000,
                    "acked transfers existed but the setup commit is gone");
            }
            // Cutting at 100% of the live image keeps every commit acked
            // before the copy began: the recovered per-writer counter must
            // have reached the snapshot index.
            if cut_permille == 1000 {
                let empty = BTreeMap::new();
                let recovered_counters = state.get("counters").unwrap_or(&empty);
                for (w, &need) in acked_at_copy.iter().enumerate() {
                    if need == 0 {
                        continue;
                    }
                    let got = recovered_counters
                        .get(&(w as u64).to_be_bytes()[..].to_vec())
                        .map(|v| u64::from_be_bytes(v[..8].try_into().unwrap()))
                        .unwrap_or(0);
                    prop_assert!(got >= need,
                        "writer {w}: acked commit {need} lost (recovered counter {got})");
                }
            }
            drop(db);

            // Idempotence: a second recovery of the cut image agrees.
            let db = open(&image, Durability::GroupCommit);
            prop_assert_eq!(db.recovery_info().unwrap().txns_replayed, replayed);
            drop(db);
            let _ = std::fs::remove_dir_all(&image);
        }
    }
}
