//! Randomized multi-threaded stress tests for the lock-free commit
//! pipeline: N writer/reader threads hammer a small hot key set under
//! Serializable SI with history recording on, and every committed history
//! is replayed through the MVSG verifier — no interleaving may commit a
//! non-serializable execution, under either conflict-flag representation
//! (CAS state words for the basic variant, pair-locked edges for the
//! enhanced one).
//!
//! This is the regression net for the removal of the global serialization
//! mutex: the write-skew-shaped workload maximizes pivot creation races
//! between `mark_conflict` and concurrent commits, exactly the windows the
//! old mutex closed wholesale.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Scope;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serializable_si::{
    Database, Error, IsolationLevel, Options, SsiOptions, SsiVariant, TableRef, TxnId,
};

/// Outcome counters of one stress run.
#[derive(Default)]
struct StressStats {
    committed: AtomicU64,
    aborted: AtomicU64,
}

fn setup(db: &Database, keys: u64) -> TableRef {
    let table = db.create_table("hot").unwrap();
    let mut txn = db.begin();
    for i in 0..keys {
        txn.put(&table, &i.to_be_bytes(), b"0").unwrap();
    }
    txn.commit().unwrap();
    table
}

/// One randomized transaction: mostly the write-skew shape (read two hot
/// keys, overwrite one of them), mixed with blind writes, read-only
/// multi-gets and occasional range scans. Returns `Err` only for
/// non-retryable failures.
fn run_one(
    db: &Database,
    table: &TableRef,
    rng: &mut SmallRng,
    keys: u64,
    payload: u64,
) -> Result<(), Error> {
    let a = rng.gen_range(0..keys);
    let b = (a + 1 + rng.gen_range(0..keys.saturating_sub(1).max(1))) % keys;
    let value = payload.to_be_bytes();
    match rng.gen_range(0..10u32) {
        // Write skew: read both accounts, overwrite one.
        0..=4 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            txn.get(table, &a.to_be_bytes())?;
            txn.get(table, &b.to_be_bytes())?;
            let victim = if rng.gen_range(0..2u32) == 0 { a } else { b };
            txn.put(table, &victim.to_be_bytes(), &value)?;
            txn.commit()
        }
        // Blind read-modify-write through a locking read.
        5..=6 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            txn.get_for_update(table, &a.to_be_bytes())?;
            txn.put(table, &a.to_be_bytes(), &value)?;
            txn.commit()
        }
        // Read-only multi-get (commits suspended while holding SIREADs).
        7..=8 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            for _ in 0..3 {
                let k = rng.gen_range(0..keys);
                txn.get(table, &k.to_be_bytes())?;
            }
            txn.commit()
        }
        // Range scan over the whole hot set (exercises gap SIREADs and the
        // paging cursor) followed by a write.
        _ => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            txn.scan_prefix(table, b"")?;
            txn.put(table, &a.to_be_bytes(), &value)?;
            txn.commit()
        }
    }
}

/// A timing handicap: every fourth write commit gives up its CPU between
/// allocating its timestamp and settling, while its commit must stay
/// invisible. A commit body that published its timestamp early would let the
/// snapshots taken meanwhile miss it, which the verifier reports as stale
/// reads.
fn widen_commit_windows(db: &Database) {
    let yield_some = |id: TxnId| {
        if id.0.is_multiple_of(4) {
            std::thread::yield_now();
        }
    };
    db.transaction_manager()
        .set_commit_pause_hook(Some(Arc::new(yield_some)));
}

fn stress(variant: SsiVariant, threads: usize, iters: u64, keys: u64, seed: u64) {
    let options = Options {
        ssi: serializable_si::SsiOptions {
            variant,
            ..Default::default()
        },
        ..Options::default()
    }
    .with_history();
    let db = Database::open(options);
    let table = setup(&db, keys);
    let stats = StressStats::default();
    widen_commit_windows(&db);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = db.clone();
            let table = table.clone();
            let stats = &stats;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
                for i in 0..iters {
                    let payload = (t as u64) << 32 | i;
                    match run_one(&db, &table, &mut rng, keys, payload) {
                        Ok(()) => {
                            stats.committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_retryable() => {
                            stats.aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });

    let committed = stats.committed.load(Ordering::Relaxed);
    assert!(committed > 0, "stress run committed nothing");

    // The regression net proper: replay the committed history through the
    // multiversion serialization graph. A cycle means SSI let a
    // non-serializable execution commit — the exact failure a lost
    // conflict flag or a commit/marking race would produce.
    let report = db.history().unwrap().analyze();
    if !report.is_serializable() {
        let cycle = report.cycle.clone().unwrap_or_default();
        let mut detail = String::new();
        for txn in db.history().unwrap().snapshot() {
            if cycle.contains(&txn.id) {
                detail.push_str(&format!(
                    "\n  {:?} begin={} commit={} reads={:?} writes={:?}",
                    txn.id,
                    txn.begin_ts,
                    txn.commit_ts,
                    txn.reads
                        .iter()
                        .map(|r| (r.key.clone(), r.version_ts))
                        .collect::<Vec<_>>(),
                    txn.writes.iter().map(|w| w.key.clone()).collect::<Vec<_>>(),
                ));
            }
        }
        panic!(
            "non-serializable history committed under {variant:?}: cycle {cycle:?}, \
             stale reads {:?}, dangling reads {:?} (committed {committed}, aborted {}){detail}",
            report.stale_reads,
            report.dangling_reads,
            stats.aborted.load(Ordering::Relaxed),
        );
    }

    // In memory only a durable commit waits for publication, so nothing —
    // no reader, no committer — ever parks on the ordered-publication chain.
    let mgr = db.transaction_manager();
    assert_eq!(
        mgr.stats().publish_parks.load(Ordering::Relaxed),
        0,
        "an in-memory run parked on the publication chain"
    );

    // Resource invariants: with every handle finished, one cleanup round
    // must drain the suspended list, the registry and every SIREAD lock.
    mgr.cleanup_suspended(db.lock_manager());
    assert_eq!(mgr.suspended_len(), 0, "suspended transactions leaked");
    assert_eq!(mgr.registry_len(), 0, "registry entries leaked");
    assert_eq!(
        db.lock_manager().grant_count(),
        0,
        "lock grants leaked after cleanup"
    );
    assert_eq!(db.siread_holder_count(), 0, "row SIREADs leaked");
}

#[test]
fn enhanced_variant_stays_serializable_under_hot_key_stress() {
    stress(SsiVariant::Enhanced, 8, 500, 8, 0xC0FFEE);
}

#[test]
fn basic_variant_stays_serializable_under_hot_key_stress() {
    stress(SsiVariant::Basic, 8, 500, 8, 0xBEEF);
}

#[test]
fn enhanced_variant_stays_serializable_on_wider_key_range() {
    // More keys, fewer collisions: exercises the suspended-cleanup and
    // publication pipeline more than the abort paths.
    stress(SsiVariant::Enhanced, 6, 600, 64, 42);
}

/// One randomized churn transaction: inserts and deletes of *non-preloaded*
/// keys racing with range scans, so gap locking, the paging cursor's
/// missed-key recheck and phantom detection are all on the hot path.
fn run_churn(
    db: &Database,
    table: &TableRef,
    rng: &mut SmallRng,
    keys: u64,
    payload: u64,
) -> Result<(), Error> {
    // Churn keys live between the preloaded hot keys (odd suffix bytes).
    let churn_key = |i: u64| {
        let mut k = i.to_be_bytes().to_vec();
        k.push(1);
        k
    };
    match rng.gen_range(0..6u32) {
        // Insert a churn key.
        0..=1 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let k = churn_key(rng.gen_range(0..keys));
            txn.put(table, &k, &payload.to_be_bytes())?;
            txn.commit()
        }
        // Delete a churn key (tombstone).
        2 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let k = churn_key(rng.gen_range(0..keys));
            txn.delete(table, &k)?;
            txn.commit()
        }
        // Scan the whole range, then write based on what was seen.
        3..=4 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let rows = txn.scan_prefix(table, b"")?;
            let target = rng.gen_range(0..keys).to_be_bytes();
            txn.put(table, &target, &(rows.len() as u64).to_be_bytes())?;
            txn.commit()
        }
        // Read-modify-write on a preloaded key.
        _ => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let k = rng.gen_range(0..keys).to_be_bytes();
            txn.get_for_update(table, &k)?;
            txn.put(table, &k, &payload.to_be_bytes())?;
            txn.commit()
        }
    }
}

#[test]
fn insert_delete_churn_with_scans_stays_serializable() {
    // Scans race with inserts and deletes over a small range: the phantom
    // machinery (gap SIREADs, the paging cursor's missed-key recheck and
    // the gap-region fixpoint locking) must keep every committed history
    // serializable and must never deadlock against itself.
    let options = Options::default().with_history();
    let db = Database::open(options);
    let table = setup(&db, 8);
    let stats = StressStats::default();
    widen_commit_windows(&db);

    std::thread::scope(|scope| {
        for t in 0..6usize {
            let db = db.clone();
            let table = table.clone();
            let stats = &stats;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xD1CE ^ (t as u64).wrapping_mul(77));
                for i in 0..300u64 {
                    let payload = (t as u64) << 32 | i;
                    match run_churn(&db, &table, &mut rng, 8, payload) {
                        Ok(()) => {
                            stats.committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_retryable() => {
                            stats.aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });

    assert!(stats.committed.load(Ordering::Relaxed) > 0);
    let report = db.history().unwrap().analyze();
    assert!(
        report.is_serializable(),
        "non-serializable churn history: cycle {:?}, stale reads {:?}, dangling reads {:?}",
        report.cycle,
        report.stale_reads,
        report.dangling_reads,
    );
    assert_eq!(
        db.transaction_manager()
            .stats()
            .publish_parks
            .load(Ordering::Relaxed),
        0,
        "an in-memory run parked on the publication chain"
    );
}

/// How long a choreography waits for a step that must come promptly
/// before it fails instead of hanging.
const STEP_DEADLINE: Duration = Duration::from_secs(10);

/// Installs a commit pause hook that holds the transaction whose id is in
/// `straggler_id` at the pause point (timestamp allocated, finalize,
/// stamps and deposit withheld) until `hold` clears, flagging `held` on
/// entry.
fn install_straggler_hook(
    db: &Database,
    straggler_id: &Arc<AtomicU64>,
    hold: &Arc<AtomicBool>,
    held: &Arc<AtomicBool>,
) {
    let straggler_id = Arc::clone(straggler_id);
    let hold = Arc::clone(hold);
    let held = Arc::clone(held);
    db.transaction_manager()
        .set_commit_pause_hook(Some(Arc::new(move |id: TxnId| {
            if id.0 == straggler_id.load(Ordering::Acquire) {
                held.store(true, Ordering::Release);
                while hold.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        })));
}

/// Releases the held straggler when dropped, so a failing assertion
/// unwinds into a scope whose threads can all finish.
struct ReleaseOnDrop(Arc<AtomicBool>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Waits for the straggler to reach the pause point; fails if the hook
/// does not fire within [`STEP_DEADLINE`].
fn wait_until_held(held: &AtomicBool) {
    let deadline = Instant::now() + STEP_DEADLINE;
    while !held.load(Ordering::Acquire) {
        assert!(
            Instant::now() < deadline,
            "the commit pause hook never held the straggler"
        );
        std::thread::yield_now();
    }
}

/// Runs `step` on a thread of `scope` and returns its result, failing if it
/// does not finish within [`STEP_DEADLINE`]: the straggler is held all the
/// while, so a step that waited for it would never finish.
fn without_blocking<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    what: &str,
    step: impl FnOnce() -> T + Send + 'scope,
) -> T {
    let handle = scope.spawn(step);
    let deadline = Instant::now() + STEP_DEADLINE;
    while !handle.is_finished() {
        assert!(
            Instant::now() < deadline,
            "{what} waited for the held straggler"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.join().unwrap()
}

/// The commit timestamp the history recorded for `id`.
fn recorded_commit_ts(db: &Database, id: TxnId) -> u64 {
    let history = db.history().unwrap().snapshot();
    let txn = history.iter().find(|t| t.id == id);
    txn.expect("committed transaction in the history").commit_ts
}

/// The straggler choreography: one committer is held after allocating its
/// timestamp and before finalizing. A fresh reader reads the value beneath
/// it without waiting, a later committer of another key does not queue
/// behind it, and the clock does not cover that later commit until the
/// straggler deposits.
fn straggler_choreography(variant: SsiVariant) {
    let options = Options {
        ssi: SsiOptions {
            variant,
            ..Default::default()
        },
        ..Options::default()
    }
    .with_history();
    let db = Database::open(options);
    let table = db.create_table("t").unwrap();
    let mut init = db.begin();
    init.put(&table, b"a", b"0").unwrap();
    init.put(&table, b"b", b"0").unwrap();
    init.commit().unwrap();

    let straggler_id = Arc::new(AtomicU64::new(0));
    let hold = Arc::new(AtomicBool::new(true));
    let held = Arc::new(AtomicBool::new(false));
    install_straggler_hook(&db, &straggler_id, &hold, &held);

    std::thread::scope(|scope| {
        let release = ReleaseOnDrop(Arc::clone(&hold));
        let straggler = {
            let db = db.clone();
            let table = table.clone();
            let straggler_id = Arc::clone(&straggler_id);
            scope.spawn(move || {
                let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
                txn.put(&table, b"a", b"1").unwrap();
                straggler_id.store(txn.id().0, Ordering::Release);
                txn.commit().unwrap();
            })
        };
        wait_until_held(&held);

        // Nothing of the straggler is visible yet: a fresh reader reads the
        // committed version beneath its unstamped one, without waiting.
        let (value, reader) = without_blocking(scope, "a fresh reader", || {
            let mut reader = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let value = reader.get(&table, b"a").unwrap().unwrap();
            (value, reader)
        });
        assert_eq!(&value[..], b"0", "the reader saw an unsettled commit");

        // A later committer of another key does not queue behind the
        // straggler.
        let later = without_blocking(scope, "a later committer", || {
            let mut later = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            later.put(&table, b"b", b"2").unwrap();
            let id = later.id();
            later.commit().unwrap();
            id
        });
        without_blocking(scope, "the reader's commit", || reader.commit().unwrap());

        // Its commit is done, but the straggler's undeposited timestamp
        // holds the clock back: no new snapshot covers it yet.
        let later_ts = recorded_commit_ts(&db, later);
        let mgr = db.transaction_manager();
        assert!(
            mgr.current_ts() < later_ts,
            "the clock passed a held straggler's timestamp"
        );

        drop(release);
        straggler.join().unwrap();
        assert!(mgr.current_ts() >= later_ts);
    });
    db.transaction_manager().set_commit_pause_hook(None);

    let stats = db.transaction_manager().stats();
    assert_eq!(
        stats.publish_parks.load(Ordering::Relaxed),
        0,
        "an in-memory run parked on the publication chain"
    );
    let report = db.history().unwrap().analyze();
    assert!(
        report.is_serializable(),
        "straggler choreography produced a non-serializable history"
    );
}

#[test]
fn straggler_committer_never_blocks_readers_enhanced() {
    straggler_choreography(SsiVariant::Enhanced);
}

#[test]
fn straggler_committer_never_blocks_readers_basic() {
    straggler_choreography(SsiVariant::Basic);
}

#[test]
fn failed_finalize_publishes_its_held_timestamp_empty() {
    // A committer whose finalize re-check fails while it holds an allocated
    // timestamp aborts, and the timestamp is published empty, so the clock
    // moves past it. Basic variant: markers keep setting conflict flags on
    // a word inside its commit window, so completing the pivot mid-window
    // makes the finalize fail.
    let options = Options {
        ssi: SsiOptions {
            variant: SsiVariant::Basic,
            ..Default::default()
        },
        ..Options::default()
    }
    .with_history();
    let db = Database::open(options);
    let table = db.create_table("t").unwrap();
    let mut init = db.begin();
    init.put(&table, b"x", b"0").unwrap();
    init.put(&table, b"y", b"0").unwrap();
    init.commit().unwrap();

    let straggler_id = Arc::new(AtomicU64::new(0));
    let hold = Arc::new(AtomicBool::new(true));
    let held = Arc::new(AtomicBool::new(false));
    install_straggler_hook(&db, &straggler_id, &hold, &held);

    std::thread::scope(|scope| {
        let release = ReleaseOnDrop(Arc::clone(&hold));
        // Pins its snapshot before the straggler's timestamp exists.
        let mut r2 = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
        r2.get(&table, b"x").unwrap();

        let straggler = {
            let db = db.clone();
            let table = table.clone();
            let straggler_id = Arc::clone(&straggler_id);
            scope.spawn(move || {
                let mut t = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
                t.get(&table, b"x").unwrap();
                t.put(&table, b"y", b"1").unwrap();
                straggler_id.store(t.id().0, Ordering::Release);
                t.commit()
            })
        };
        wait_until_held(&held);

        // r2's snapshot predates the straggler's version of y, so the read
        // sees a newer invisible version and records `r2 --rw--> straggler`:
        // the straggler gains its *in* edge mid-window.
        let stale = r2.get(&table, b"y").unwrap().unwrap();
        assert_eq!(&stale[..], b"0");

        // Overwriting x conflicts with the straggler's SIREAD on it: the
        // straggler gains its *out* edge mid-window and is now a pivot.
        let w = without_blocking(scope, "a later committer", || {
            let mut w = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            w.put(&table, b"x", b"2").unwrap();
            let id = w.id();
            w.commit().unwrap();
            id
        });
        let w_ts = recorded_commit_ts(&db, w);
        let mgr = db.transaction_manager();
        assert!(mgr.current_ts() < w_ts, "the clock passed a held timestamp");

        // A fresh reader reads y beneath the straggler's unstamped version.
        let mut r = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
        let v = r.get(&table, b"y").unwrap().unwrap();
        assert_eq!(&v[..], b"0", "the reader saw an unsettled commit");

        // Release: the straggler's finalize re-check sees in && out and
        // fails; its timestamp is published empty and the clock passes it.
        drop(release);
        let err = straggler.join().unwrap().unwrap_err();
        assert!(err.is_retryable(), "straggler must abort retryably: {err}");
        assert!(
            mgr.current_ts() >= w_ts,
            "the failed straggler's timestamp was never published"
        );
        r.commit().unwrap();
        drop(r2);
    });
    db.transaction_manager().set_commit_pause_hook(None);

    let mut check = db.begin();
    assert_eq!(&check.get(&table, b"y").unwrap().unwrap()[..], b"0");
    check.commit().unwrap();
    let report = db.history().unwrap().analyze();
    assert!(
        report.is_serializable(),
        "failed-finalize history not serializable"
    );
}
