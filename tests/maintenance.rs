//! Deterministic test net for the background maintenance subsystem — the
//! incremental GC thread — and for the group-commit wakeups around it.
//!
//! A poisoned log wakes and errors every committer parked behind a flush
//! leader, and drop/close joins the GC thread before the WAL directory lock
//! is released — so a fast reopen can never race the old incarnation. The
//! step hook (`Database::set_maintenance_hook` + `step_gc`) drives the GC
//! thread with an effectively-infinite timer, so nothing here depends on
//! scheduler luck for correctness — sleeps only give races a chance to
//! manifest if the invariants are broken.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use serializable_si::{
    Database, DbHealth, Durability, Error, FaultMode, FaultOp, FaultRule, FaultVfs,
    MaintenanceEvent, Options,
};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ssi-maintenance-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An effectively-infinite timer: the thread only acts when stepped.
const NEVER: Duration = Duration::from_secs(3600);

#[test]
fn poisoned_log_wakes_and_errors_every_parked_committer() {
    // Four committers seal; whichever leads the flush is held in a slow
    // fsync, and the other three park behind it. Poisoning the log must
    // wake those three with a durability error at once — none may hang,
    // none may be acknowledged — and close must still finish cleanly.
    let dir = temp_dir("poison");
    let fault = FaultVfs::new(vec![]);
    let db = Database::open(
        Options::default()
            .with_durability(Durability::GroupCommit, &dir)
            .with_vfs(fault.handle()),
    );
    let t = db.create_table("t").unwrap();
    // Seed the four keys first: the committers below are then pure updates
    // holding disjoint record locks.
    let mut setup = db.begin();
    for k in 0..4u64 {
        setup.put(&t, &k.to_be_bytes(), b"seed").unwrap();
    }
    setup.commit().unwrap();

    const HELD: Duration = Duration::from_millis(1500);
    fault.add_rule(
        FaultRule::new(
            FaultOp::Fsync,
            FaultMode::Delay {
                millis: HELD.as_millis() as u64,
            },
            std::io::ErrorKind::Other,
        )
        .on_path("segment-"),
    );
    let mut committers = Vec::new();
    for k in 0..4u64 {
        let db = db.clone();
        let t = t.clone();
        committers.push(std::thread::spawn(move || {
            let mut txn = db.begin();
            txn.put(&t, &k.to_be_bytes(), b"v").unwrap();
            (txn.commit(), Instant::now())
        }));
    }
    // All four records sealed => the leader is in (or entering) its fsync
    // and the other three are parked or about to park; the poison wakeup
    // covers both.
    while db
        .durability_stats()
        .unwrap()
        .records
        .load(Ordering::Relaxed)
        < 5
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let poisoned_at = Instant::now();
    db.poison_wal().unwrap();
    let outcomes: Vec<_> = committers.into_iter().map(|c| c.join().unwrap()).collect();
    let mut parked = 0;
    for (result, finished) in outcomes {
        match result {
            // The leader's own fsync did succeed once its delay ran out, so
            // its acknowledgement is true; it may cover the others' records
            // too, but they were woken and failed long before.
            Ok(()) => assert!(finished - poisoned_at >= HELD / 2),
            Err(Error::Durability(_)) => {
                parked += 1;
                assert!(
                    finished - poisoned_at < HELD / 2,
                    "a parked committer waited for the leader instead of the poison wakeup"
                );
            }
            Err(e) => panic!("a parked committer must error after poison, got {e:?}"),
        }
    }
    assert!(
        parked >= 3,
        "only {parked} committers were woken by the poison"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parked_committers_are_acknowledged_by_the_leaders_retried_fsync() {
    // Four committers; every segment fsync takes 300 ms and the first one
    // fails transiently. Whoever leads that flush re-emits the unsynced
    // frames to a fresh segment and retries once; the committers parked
    // behind it are acknowledged by that retry (or by a later pass), none
    // sees the failure, and every acknowledged commit survives reopen.
    let dir = temp_dir("leader-retry");
    let fault = FaultVfs::new(vec![]);
    let db = Database::open(
        Options::default()
            .with_durability(Durability::GroupCommit, &dir)
            .with_vfs(fault.handle()),
    );
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    for k in 0..4u64 {
        setup.put(&t, &k.to_be_bytes(), b"seed").unwrap();
    }
    setup.commit().unwrap();

    fault.add_rule(
        FaultRule::new(
            FaultOp::Fsync,
            FaultMode::Delay { millis: 300 },
            std::io::ErrorKind::Other,
        )
        .on_path("segment-"),
    );
    fault.add_rule(
        FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailOnce,
            std::io::ErrorKind::Interrupted,
        )
        .on_path("segment-"),
    );
    let committers: Vec<_> = (0..4u64)
        .map(|k| {
            let db = db.clone();
            let t = t.clone();
            std::thread::spawn(move || {
                let mut txn = db.begin();
                txn.put(&t, &k.to_be_bytes(), b"v").unwrap();
                txn.commit()
            })
        })
        .collect();
    for (k, c) in committers.into_iter().enumerate() {
        c.join()
            .unwrap()
            .unwrap_or_else(|e| panic!("committer {k} saw the leader's retried failure: {e}"));
    }
    let wal = db.durability_stats().unwrap();
    assert_eq!(wal.fsync_retries.load(Ordering::Relaxed), 1);
    assert_eq!(fault.injected(), 1);
    assert_eq!(db.health(), DbHealth::Healthy);
    drop(db);

    let db = Database::open(Options::default().with_durability(Durability::GroupCommit, &dir));
    let t = db.table("t").unwrap();
    let mut check = db.begin_read_only();
    for k in 0..4u64 {
        assert_eq!(
            check.get(&t, &k.to_be_bytes()).unwrap().as_deref(),
            Some(b"v".as_slice()),
            "acknowledged update of key {k} lost"
        );
    }
    check.commit().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_joins_background_threads_before_releasing_the_wal_lock() {
    // Drop ordering contract (DbInner::drop): the GC thread is joined
    // *before* the WAL directory lock is released, so a fast reopen can
    // never race the old incarnation. A failed `try_open` here (the
    // advisory lock still held) or a lost acked commit would be exactly
    // that race.
    let dir = temp_dir("fast-reopen");
    for round in 0..6u64 {
        let db = Database::try_open(
            Options::default()
                .with_durability(Durability::GroupCommit, &dir)
                .with_background_gc(Duration::from_millis(1)),
        )
        .expect("reopen raced the previous incarnation's shutdown");
        assert!(db.has_background_gc());
        let t = if round == 0 {
            db.create_table("t").unwrap()
        } else {
            db.table("t").unwrap()
        };
        // Every acked commit from earlier incarnations must have survived.
        let mut check = db.begin_read_only();
        for k in 0..round {
            assert!(
                check.get(&t, &k.to_be_bytes()).unwrap().is_some(),
                "acked commit of key {k} lost across fast reopen {round}"
            );
        }
        check.commit().unwrap();
        let mut txn = db.begin();
        txn.put(&t, &round.to_be_bytes(), b"v").unwrap();
        txn.commit().unwrap();
        drop(db); // joined-then-unlocked; the next loop iteration reopens immediately
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_gc_purges_with_zero_commit_path_work() {
    // Hot-key churn with the GC thread on a fast cadence: version counts
    // stay bounded, and every purge pass is attributed to the GC thread —
    // the commit path never runs one.
    let mut options = Options::default().with_background_gc(Duration::from_millis(1));
    options.maintenance.gc_shards_per_pass = 64; // full sweep per pass
    let db = Database::open(options);
    assert!(db.has_background_gc());
    let t = db.create_table("hot").unwrap();
    for i in 0..400u64 {
        let mut txn = db.begin();
        txn.put(&t, &(i % 8).to_be_bytes(), &i.to_be_bytes())
            .unwrap();
        txn.commit().unwrap();
    }
    // Everything is idle now: step passes until the chains are trimmed.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        db.step_gc();
        std::thread::sleep(Duration::from_millis(5));
        if t.version_count() <= 8 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background GC never trimmed the hot chains: {} versions left",
            t.version_count()
        );
    }
    let stats = db.transaction_manager().stats();
    let runs = stats.purge_runs.load(Ordering::Relaxed);
    let background = stats.background_purge_runs.load(Ordering::Relaxed);
    assert!(background >= 1, "no background pass ran");
    assert_eq!(
        runs, background,
        "some purge ran on the commit path despite the GC thread"
    );
    assert!(stats.purged_versions.load(Ordering::Relaxed) > 0);
    drop(db);
}

#[test]
fn background_gc_overrides_inline_commit_cadence_purges() {
    // purge_every_commits is configured too, but while the GC thread runs
    // the inline trigger must stay dormant: still zero commit-path passes.
    let db = Database::open(
        Options::default()
            .with_auto_purge(4)
            .with_background_gc(Duration::from_millis(1)),
    );
    let t = db.create_table("hot").unwrap();
    for i in 0..200u64 {
        let mut txn = db.begin();
        txn.put(&t, b"k", &i.to_be_bytes()).unwrap();
        txn.commit().unwrap();
    }
    let stats = db.transaction_manager().stats();
    assert_eq!(
        stats.purge_runs.load(Ordering::Relaxed),
        stats.background_purge_runs.load(Ordering::Relaxed),
        "inline cadence purge ran despite the background GC thread"
    );
    drop(db);
}

#[test]
fn step_hook_observes_gc_passes_deterministically() {
    // GC timer never fires on its own; each step_gc produces exactly one
    // observable pass with an advancing shard cursor.
    let mut options = Options::default().with_background_gc(NEVER);
    options.maintenance.gc_shards_per_pass = 16;
    let db = Database::open(options);
    let (events_tx, events_rx) = mpsc::channel::<MaintenanceEvent>();
    db.set_maintenance_hook(Some(Arc::new(move |e| {
        let _ = events_tx.send(*e);
    })));
    let t = db.create_table("t").unwrap();
    for i in 0..50u64 {
        let mut txn = db.begin();
        txn.put(&t, b"k", &i.to_be_bytes()).unwrap();
        txn.commit().unwrap();
    }

    let mut cursors = Vec::new();
    for _ in 0..4 {
        db.step_gc();
        // One pass = one start + one end; wait for the end event.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match events_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(MaintenanceEvent::GcPassStart { first_shard }) => cursors.push(first_shard),
                Ok(MaintenanceEvent::GcPassEnd { .. }) => break,
                Err(_) => assert!(Instant::now() < deadline, "stepped GC pass never ran"),
            }
        }
    }
    assert_eq!(
        cursors,
        vec![0, 16, 32, 48],
        "the shard cursor must advance by gc_shards_per_pass each pass"
    );
    assert_eq!(
        db.transaction_manager()
            .stats()
            .background_purge_runs
            .load(Ordering::Relaxed),
        4
    );
    drop(db);
}
