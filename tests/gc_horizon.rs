//! Deterministic regression net for the pinned GC horizon.
//!
//! The headline test reproduces the `oldest_active_begin` TOCTOU that made
//! the pre-PR purge horizon unsafe: the registry sweep visits its 64 shards
//! one at a time, so a transaction acquiring its snapshot in an
//! already-swept shard is missed while the sweep returns `MAX` (or a later
//! shard's minimum). The old purge fell back to the *post-sweep* clock in
//! that case, so a commit landing between the snapshot acquisition and the
//! fallback read pushed the horizon past the missed snapshot — and the
//! purge reclaimed the exact version that snapshot still had to read.
//!
//! The choreography is made deterministic with the manager's test-only
//! sweep-pause hook: the sweep is frozen right after it passes the
//! reader's shard, the reader then acquires its snapshot, a writer commits
//! a newer version, and only then is the sweep released. Run against the
//! old horizon computation the reader's version is gone; run against the
//! clamped [`GcHorizon`] it survives.
//!
//! [`GcHorizon`]: serializable_si::core::manager::GcHorizon

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use serializable_si::core::manager::REGISTRY_SHARDS;
use serializable_si::{Database, IsolationLevel, Options};

/// What one run of the race choreography observed.
struct RaceOutcome {
    /// The reader's snapshot timestamp (acquired mid-sweep).
    snapshot_ts: u64,
    /// The horizon the purge ran at.
    purge_horizon: u64,
    /// What the reader saw for the hot key *after* the purge, under the
    /// same snapshot.
    read_after_purge: Option<Vec<u8>>,
}

/// Drives the sweep/begin TOCTOU deterministically. With `clamped` the
/// purge uses the new safe horizon (`Database::purge`); without it the
/// purge replicates the pre-PR computation (raw sweep, post-sweep clock
/// fallback) via the `purge_at` escape hatch.
fn race_sweep_against_snapshot_acquisition(clamped: bool) -> RaceOutcome {
    // Plain SI everywhere: SI transactions never suspend, so
    // suspended-cleanup never sweeps and the only registry sweep in the
    // whole run is the one the purge performs — the one we choreograph.
    let db = Database::open(Options::default().with_isolation(IsolationLevel::SnapshotIsolation));
    let table = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&table, b"k", b"v1").unwrap();
    setup.commit().unwrap();

    // Register the reader but do NOT acquire its snapshot yet (snapshot
    // assignment is deferred to the first operation).
    let mut reader = db.begin();
    let reader_shard = reader.id().0 as usize & (REGISTRY_SHARDS - 1);

    // Freeze the sweep right after it visits the reader's shard.
    let reached = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let fired = Arc::new(AtomicBool::new(false));
    {
        let (reached, release, fired) = (reached.clone(), release.clone(), fired.clone());
        db.transaction_manager()
            .set_sweep_pause_hook(Some(Arc::new(move |shard| {
                if shard == reader_shard && !fired.swap(true, Ordering::SeqCst) {
                    reached.wait();
                    release.wait();
                }
            })));
    }

    let outcome = std::thread::scope(|s| {
        let purger = {
            let db = db.clone();
            s.spawn(move || {
                if clamped {
                    db.purge().horizon
                } else {
                    // The pre-PR horizon: raw shard sweep, post-sweep clock
                    // fallback when nothing (appears to be) active.
                    let mgr = db.transaction_manager();
                    let horizon = match mgr.oldest_active_begin() {
                        u64::MAX => mgr.current_ts(),
                        ts => ts,
                    };
                    db.purge_at(horizon);
                    horizon
                }
            })
        };

        // The sweep has passed the reader's shard and is frozen.
        reached.wait();

        // Reader acquires its snapshot now — in a shard the sweep will not
        // look at again — and proves v1 is visible to it.
        let first = reader.get(&table, b"k").unwrap();
        assert_eq!(first.as_deref(), Some(b"v1".as_slice()));
        let snapshot_ts = reader.snapshot_ts().unwrap();

        // A writer commits a newer version, pushing the clock past the
        // reader's snapshot before the sweep resumes.
        let mut writer = db.begin();
        writer.put(&table, b"k", b"v2").unwrap();
        writer.commit().unwrap();

        release.wait();
        let purge_horizon = purger.join().unwrap();

        RaceOutcome {
            snapshot_ts,
            purge_horizon,
            read_after_purge: reader.get(&table, b"k").unwrap().map(|v| v.to_vec()),
        }
    });
    db.transaction_manager().set_sweep_pause_hook(None);
    outcome
}

/// The raw computation loses the race: the sweep misses the reader, the
/// clock fallback lands past its snapshot, and the purge reclaims the
/// version the reader still needs. This is the pre-PR behaviour — the test
/// documents that the unclamped horizon genuinely fails (if it ever starts
/// "passing", the choreography no longer exercises the race).
#[test]
fn unclamped_horizon_loses_the_sweep_toctou_race() {
    let outcome = race_sweep_against_snapshot_acquisition(false);
    assert!(
        outcome.purge_horizon > outcome.snapshot_ts,
        "the racy horizon ({}) must land past the missed snapshot ({})",
        outcome.purge_horizon,
        outcome.snapshot_ts
    );
    assert_eq!(
        outcome.read_after_purge, None,
        "the purge at the racy horizon reclaims the version the reader's \
         snapshot still needs (v2 is invisible to it, v1 is gone)"
    );
}

/// The clamped [`GcHorizon`] wins the same race: the pre-sweep clock caps
/// the horizon below every snapshot the sweep might have missed, so the
/// reader's version survives.
///
/// [`GcHorizon`]: serializable_si::core::manager::GcHorizon
#[test]
fn clamped_gc_horizon_survives_the_sweep_toctou_race() {
    let outcome = race_sweep_against_snapshot_acquisition(true);
    assert!(
        outcome.purge_horizon <= outcome.snapshot_ts,
        "the clamped horizon ({}) must stay at or below the raced snapshot ({})",
        outcome.purge_horizon,
        outcome.snapshot_ts
    );
    assert_eq!(
        outcome.read_after_purge.as_deref(),
        Some(b"v1".as_slice()),
        "the version visible to the raced snapshot must survive the purge"
    );
}

/// Public-API pin flow a long out-of-band scan would use: while the pin is
/// held nothing at or above it is reclaimed, and dropping the pin releases
/// the horizon.
#[test]
fn long_scan_pin_protects_versions_until_dropped() {
    let db = Database::open_default();
    let table = db.create_table("t").unwrap();
    let mut txn = db.begin();
    txn.put(&table, b"k", b"base").unwrap();
    txn.commit().unwrap();

    let pin = db.pin_purge_horizon();
    for i in 0..20u64 {
        let mut txn = db.begin();
        txn.put(&table, b"k", &i.to_be_bytes()).unwrap();
        txn.commit().unwrap();
    }
    let stats = db.purge();
    assert!(stats.horizon <= pin.ts());
    assert_eq!(
        table.version_count(),
        21,
        "a held pin keeps the whole chain reachable"
    );
    assert_eq!(db.transaction_manager().oldest_gc_pin(), Some(pin.ts()));

    drop(pin);
    assert_eq!(db.transaction_manager().oldest_gc_pin(), None);
    let stats = db.purge();
    assert_eq!(stats.versions, 20);
    assert_eq!(table.version_count(), 1);
}

// ---------------------------------------------------------------------------
// Writer-side pruning: a writer that finds a long chain drops, at the same
// horizon, what a purge pass would.
// ---------------------------------------------------------------------------

/// The longest a chain gets when nobody holds anything back: the pruning
/// bound (four versions found) plus the one being installed.
const UNHELD_CHAIN_BOUND: usize = 5;

fn overwrite(db: &Database, table: &serializable_si::TableRef, value: u64) {
    let mut txn = db.begin();
    txn.put(table, b"k", &value.to_be_bytes()).unwrap();
    txn.commit().unwrap();
}

/// A transaction's snapshot and a `pin_purge_horizon` guard each keep their
/// version while another writer overwrites the row a thousand times; the
/// chain holds what the older of the two needs and no more; and once both
/// are gone the next write shortens the chain. `Database::purge` is never
/// called.
fn writers_prune_behind_the_oldest_holder(isolation: IsolationLevel) {
    let db = Database::open(Options::default().with_isolation(isolation));
    let table = db.create_table("t").unwrap();
    let mut next = 0u64;
    let mut write = |n: usize| {
        for _ in 0..n {
            overwrite(&db, &table, next);
            next += 1;
        }
        next - 1
    };

    // Nobody holds anything: the chain never outgrows the bound.
    for _ in 0..50 {
        write(1);
        assert!(table.version_count() <= UNHELD_CHAIN_BOUND);
    }

    // The older holder is a transaction's snapshot, the younger a pin.
    let seen_by_reader = write(1);
    let mut reader = db.begin();
    let read = |reader: &mut serializable_si::Transaction| {
        let value = reader.get(&table, b"k").unwrap().expect("row exists");
        u64::from_be_bytes(value[..].try_into().unwrap())
    };
    assert_eq!(read(&mut reader), seen_by_reader);
    write(10);
    let pin = db.pin_purge_horizon();
    for round in 1..=10 {
        write(100);
        assert_eq!(
            read(&mut reader),
            seen_by_reader,
            "snapshot lost its version"
        );
        let since_reader = 10 + 100 * round;
        assert!(
            table.version_count() <= UNHELD_CHAIN_BOUND + since_reader,
            "{} versions, {since_reader} written since the oldest snapshot",
            table.version_count()
        );
    }
    assert_eq!(db.transaction_manager().oldest_gc_pin(), Some(pin.ts()));

    // The reader ends: one write prunes down to exactly what the pin holds —
    // the version visible at the pin, the thousand committed after it — plus
    // the write itself.
    reader.commit().unwrap();
    write(1);
    assert_eq!(table.version_count(), 1 + 1000 + 1);

    // The pin ends: the next write leaves the newest committed version and
    // its own.
    drop(pin);
    write(1);
    assert_eq!(table.version_count(), 2);

    let gc = db.metrics().gc;
    assert_eq!(gc.purge_runs, 0, "no pass ran: writers did all of it");
    assert_eq!(gc.purged_versions, 0);
    assert_eq!(
        gc.pruned_inline_versions,
        next - table.version_count() as u64,
        "every version installed is either resident or counted as pruned"
    );
}

#[test]
fn writers_prune_behind_the_oldest_holder_at_si() {
    writers_prune_behind_the_oldest_holder(IsolationLevel::SnapshotIsolation);
}

#[test]
fn writers_prune_behind_the_oldest_holder_at_ssi() {
    writers_prune_behind_the_oldest_holder(IsolationLevel::SerializableSnapshotIsolation);
}

/// S2PL and read-committed transactions take no snapshot, so no begin
/// timestamp holds the horizon back — but each of their write commits
/// publishes a timestamp, and the horizon has to follow it: writers prune
/// the hot row as they go, and a purge afterwards reclaims what they left.
fn snapshotless_commits_move_the_horizon(isolation: IsolationLevel) {
    let db = Database::open(Options::default().with_isolation(isolation));
    let table = db.create_table("t").unwrap();
    for value in 0..1000 {
        overwrite(&db, &table, value);
        assert!(
            table.version_count() <= UNHELD_CHAIN_BOUND,
            "{} versions after {} writes",
            table.version_count(),
            value + 1
        );
    }
    let stats = db.purge();
    assert!(stats.versions > 0, "the purge reclaimed nothing");
    assert_eq!(table.version_count(), 1);
    let gc = db.metrics().gc;
    assert!(gc.purged_versions > 0);
    assert!(gc.pruned_inline_versions > 0);
}

#[test]
fn s2pl_commits_move_the_horizon() {
    snapshotless_commits_move_the_horizon(IsolationLevel::StrictTwoPhaseLocking);
}

#[test]
fn read_committed_commits_move_the_horizon() {
    snapshotless_commits_move_the_horizon(IsolationLevel::ReadCommitted);
}

/// Loading rows and updating rows that hold one version never asks for the
/// horizon: `last_gc_horizon` is the highest horizon ever handed out and
/// stays at its initial zero.
#[test]
fn a_load_and_cold_row_updates_never_read_the_horizon() {
    let db = Database::open_default();
    let table = db.create_table("t").unwrap();
    for batch in 0..10u64 {
        let mut txn = db.begin();
        for i in 0..100u64 {
            let key = (batch * 100 + i).to_be_bytes();
            txn.put(&table, &key, b"loaded").unwrap();
        }
        txn.commit().unwrap();
    }
    for i in 0..1000u64 {
        let mut txn = db.begin();
        txn.put(&table, &i.to_be_bytes(), b"updated").unwrap();
        txn.commit().unwrap();
    }
    assert_eq!(table.version_count(), 2000);
    assert_eq!(db.transaction_manager().last_gc_horizon(), 0);
    assert_eq!(db.metrics().gc.pruned_inline_versions, 0);
}

/// A pin is honoured by horizon reads made on other threads: two writers
/// keep four hot chains over the pruning bound, so nearly every install reads
/// the horizon, while this thread takes and drops pins. `last_gc_horizon` is
/// the highest horizon any thread was ever handed; while a pin is held it
/// cannot have passed the pin. (The window the reservation in
/// `pin_gc_horizon` closes is a few instructions wide and not reachable
/// from here; this checks the contract, the module docs argue the order.)
#[test]
fn pins_hold_against_horizon_reads_made_by_pruning_writers() {
    const COMMITS: u64 = 30_000;
    let db = Database::open_default();
    let table = db.create_table("t").unwrap();
    let commits = std::sync::atomic::AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..2u64 {
            let (db, table, commits, failed) = (&db, &table, &commits, &failed);
            scope.spawn(move || {
                let mut n = w;
                while commits.load(Ordering::Relaxed) < COMMITS && !failed.load(Ordering::Relaxed) {
                    n += 2;
                    let mut txn = db.begin();
                    let done = txn
                        .put(table, &(n % 4).to_be_bytes(), &n.to_be_bytes())
                        .and_then(|()| txn.commit());
                    match done {
                        Ok(()) => drop(commits.fetch_add(1, Ordering::Relaxed)),
                        Err(e) => assert!(e.is_retryable(), "unexpected error: {e}"),
                    }
                }
            });
        }
        let mgr = db.transaction_manager();
        while commits.load(Ordering::Relaxed) < COMMITS {
            let pin = db.pin_purge_horizon();
            for _ in 0..64 {
                let highest = mgr.last_gc_horizon();
                if highest > pin.ts() {
                    failed.store(true, Ordering::Relaxed);
                    panic!(
                        "a horizon of {highest} was handed out under a pin at {}",
                        pin.ts()
                    );
                }
                std::hint::spin_loop();
            }
        }
    });
    assert!(db.metrics().gc.pruned_inline_versions > 0);
}

#[test]
fn commit_cadence_purges_a_quarter_of_the_shards_per_trip() {
    // Every write commit trips a purge slice. 256 keys spread over all 64
    // storage shards are deleted in one commit; from then on each trip
    // purges the dead keys of the next 16 shards, so the sweep takes four
    // trips — no committer pays for a whole-table pass.
    let db = Database::open(Options::default().with_auto_purge(1));
    let t = db.create_table("t").unwrap();
    let tick = db.create_table("tick").unwrap();
    let mut load = db.begin();
    for k in 0..256u64 {
        load.put(&t, &k.to_be_bytes(), b"v").unwrap();
    }
    load.commit().unwrap();
    let runs = || db.metrics().gc.purge_runs;
    let runs_before = runs();
    let mut delete = db.begin();
    for k in 0..256u64 {
        delete.delete(&t, &k.to_be_bytes()).unwrap();
    }
    delete.commit().unwrap();
    let mut left = vec![t.key_count()];
    for i in 0..3u64 {
        let mut txn = db.begin();
        txn.put(&tick, b"tick", &i.to_be_bytes()).unwrap();
        txn.commit().unwrap();
        left.push(t.key_count());
    }
    assert_eq!(runs() - runs_before, 4, "one slice per write commit");
    for (trip, pair) in left.windows(2).enumerate() {
        assert!(
            pair[1] < pair[0],
            "trip {} purged nothing: keys left per trip {left:?}",
            trip + 2
        );
    }
    assert!(left[0] < 256, "the first trip purged nothing: {left:?}");
    assert_eq!(
        left[3], 0,
        "the fourth trip must complete the sweep: {left:?}"
    );
}
