//! Group-commit wakeups and the close ordering around the log.
//!
//! A poisoned log wakes and errors every committer parked behind a flush
//! leader, a leader's failed fsync fails the committers parked behind it,
//! and drop syncs the log before the WAL directory lock is
//! released — so a fast reopen can never race the old incarnation. Sleeps
//! only give races a chance to manifest if the invariants are broken.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serializable_si::{
    Database, DbHealth, Durability, Error, FaultMode, FaultOp, FaultRule, FaultVfs, Options,
};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ssi-group-commit-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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
fn parked_committers_get_an_error_from_the_leaders_failed_fsync() {
    // Four committers; every segment fsync takes 300 ms and the first one
    // fails transiently. The log is fail-stop: whoever leads that flush
    // gets the failure, the committers parked behind it are woken with an
    // error, none is acknowledged, and the database degrades. A reopen
    // still holds every earlier acknowledged commit.
    let dir = temp_dir("leader-fails");
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
                txn.put(&t, &k.to_be_bytes(), b"v")?;
                txn.commit()
            })
        })
        .collect();
    for (k, c) in committers.into_iter().enumerate() {
        match c.join().unwrap() {
            Err(Error::Durability(_)) => {}
            other => panic!("committer {k} must get the leader's failure, got {other:?}"),
        }
    }
    assert_eq!(fault.injected(), 1);
    assert!(matches!(db.health(), DbHealth::Degraded { .. }));
    drop(db);

    let db = Database::open(Options::default().with_durability(Durability::GroupCommit, &dir));
    let t = db.table("t").unwrap();
    let mut check = db.begin_read_only();
    for k in 0..4u64 {
        assert!(
            check.get(&t, &k.to_be_bytes()).unwrap().is_some(),
            "acknowledged seed of key {k} lost"
        );
    }
    check.commit().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_syncs_before_releasing_the_wal_lock() {
    // Drop ordering contract (DbInner::drop): the final log sync runs
    // *before* the WAL directory lock is released, so a fast reopen can
    // never race the old incarnation. A failed `try_open` here (the
    // advisory lock still held) or a lost acked commit would be exactly
    // that race. Commit-cadence purge slices run meanwhile.
    let dir = temp_dir("fast-reopen");
    for round in 0..6u64 {
        let db = Database::try_open(
            Options::default()
                .with_durability(Durability::GroupCommit, &dir)
                .with_auto_purge(1),
        )
        .expect("reopen raced the previous incarnation's shutdown");
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
        drop(db); // synced-then-unlocked; the next loop iteration reopens immediately
    }
    let _ = std::fs::remove_dir_all(&dir);
}
