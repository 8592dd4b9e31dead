//! The Serializable-SI range-scan protocol, seen from outside the engine:
//! what a scan costs in lock requests and chain registrations, and that paging
//! scans stay serializable while other transactions insert into and delete
//! from the range they are reading (one read per row that registers the scan
//! on the row and on the gap in front of it, the end gap on the first key
//! beyond the range, epoch-gated phantom sweep — see `ssi_storage::table`).

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use serializable_si::common::rng::WorkloadRng;
use serializable_si::{AbortReason, Database, Error, IsolationLevel, Options};

fn retrying<T>(mut body: impl FnMut() -> Result<T, Error>) -> T {
    loop {
        match body() {
            Ok(v) => return v,
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

fn key(i: u64) -> [u8; 8] {
    i.to_be_bytes()
}

/// 500 rows, one overlapping snapshot that keeps the scanner suspended, and
/// the scan itself at `level`. Returns the database, the overlapping
/// transaction and the metrics around the scan.
fn scan_500_rows(
    level: IsolationLevel,
) -> (
    Database,
    serializable_si::Transaction,
    [serializable_si::MetricsSnapshot; 2],
) {
    let db = Database::open(Options::default());
    let table = db.create_table("items").unwrap();
    let mut load = db.begin();
    for i in 0..500 {
        load.put(&table, &key(i), b"0").unwrap();
    }
    load.commit().unwrap();
    db.transaction_manager()
        .cleanup_suspended(db.lock_manager());
    assert_eq!(db.lock_manager().grant_count(), 0, "quiescent");
    assert_eq!(db.siread_holder_count(), 0, "quiescent");

    // A snapshot that is older than the scanner's commit keeps the scanner
    // suspended. It runs at plain SI, so it requests no locks itself.
    let mut overlap = db.begin_with(IsolationLevel::SnapshotIsolation);
    assert!(overlap.get(&table, &key(0)).unwrap().is_some());
    let mut bump = db.begin_with(IsolationLevel::SnapshotIsolation);
    bump.put(&table, &key(1000), b"0").unwrap();
    bump.commit().unwrap();
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);

    let before = db.metrics();
    let mut scanner = db.begin_with(level);
    let rows = scanner
        .scan(&table, Bound::Unbounded, Bound::Excluded(&key(500)))
        .unwrap();
    assert_eq!(rows.len(), 500);
    scanner.commit().unwrap();
    let after = db.metrics();
    assert_eq!(after.locks.waits, before.locks.waits);
    // Nothing entered or left the table while it ran: no page swept.
    assert_eq!(after.txn.scan_sweeps_run, before.txn.scan_sweeps_run);
    assert!(after.txn.scan_sweeps_skipped > before.txn.scan_sweeps_skipped);
    (db, overlap, [before, after])
}

/// A Serializable-SI row scan asks the lock table for nothing. Its next-key
/// lock is one registration on the chain of every examined row, covering the
/// row and the gap in front of it, plus one on the first key beyond the range
/// for the gap that closes it. All of them stay in place while the scanner is
/// suspended and are gone after cleanup.
#[test]
fn ssi_scan_of_500_rows_costs_no_lock_request_and_501_registrations_held_until_cleanup() {
    let (db, overlap, [before, after]) =
        scan_500_rows(IsolationLevel::SerializableSnapshotIsolation);
    assert_eq!(after.locks.requests - before.locks.requests, 0);
    assert_eq!(
        after.txn.siread_row_registrations - before.txn.siread_row_registrations,
        501
    );
    assert_eq!(db.transaction_manager().suspended_len(), 1);
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.siread_holder_count(), 501);
    assert_eq!(after.txn.siread_rows_now, 501);

    // The last transaction concurrent with the scanner finishes: its commit
    // runs `cleanup_suspended`, which reclaims the scanner and what it held.
    overlap.commit().unwrap();
    assert_eq!(db.transaction_manager().suspended_len(), 0);
    assert_eq!(db.metrics().txn.cleaned, after.txn.cleaned + 1);
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.lock_manager().key_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
    assert_eq!(db.metrics().txn.siread_rows_now, 0);
}

/// The other side of the boundary: at S2PL the same scan is 1001 blocking
/// SHARED requests — a record and a next-key gap per row and the gap that
/// closes the range — all in the lock table, none on a chain, all released at
/// commit.
#[test]
fn s2pl_scan_of_500_rows_still_costs_1001_lock_requests_and_no_registration() {
    let (db, overlap, [before, after]) = scan_500_rows(IsolationLevel::StrictTwoPhaseLocking);
    assert_eq!(after.locks.requests - before.locks.requests, 1001);
    assert_eq!(
        after.txn.siread_row_registrations,
        before.txn.siread_row_registrations
    );
    assert_eq!(db.transaction_manager().suspended_len(), 0);
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
    drop(overlap);
}

/// Paging SSI scans against concurrent inserters and deleters of the scanned
/// range. Brand-new keys enter the table's ordered index, deleted keys leave
/// it once version GC purges their tombstones — which it does at the first
/// pass that finds no scan registered on the row any more — so pages are
/// closed through both branches of the epoch gate; the committed history must
/// stay free of MVSG cycles and no scan may be starved out of its phantom
/// sweep.
#[test]
fn paging_ssi_scans_stay_serializable_against_inserters_and_deleters() {
    const SCANNERS: u64 = 2;
    const CHURNERS: u64 = 2;
    const KEY_SPACE: u64 = 2400;
    const MIN_SCANS: u64 = 40;
    const MAX_SCANS: u64 = 400;
    /// Churn operations released per scan attempt: enough to land inserts
    /// inside most scans, few enough that scanners (which conflict with
    /// every churner that read their mark) still commit.
    const CHURN_PER_SCAN: u64 = 6;

    let db = Database::open(Options::default().with_history().with_auto_purge(64));
    let items = db.create_table("items").unwrap();
    let marks = db.create_table("marks").unwrap();
    let mut load = db.begin();
    // 600 rows: every scan below spans several storage pages.
    for i in (0..KEY_SPACE).step_by(4) {
        load.put(&items, &key(i), b"seed").unwrap();
    }
    for id in 0..SCANNERS {
        load.put(&marks, &key(id), &0u64.to_be_bytes()).unwrap();
    }
    load.commit().unwrap();

    // Scanner transaction: reads a multi-page range of `items` and publishes
    // the row count it saw, which churners read — so a scanner and a churner
    // can depend on each other in both directions.
    let tickets = AtomicU64::new(0);
    let scan_and_publish = |id: u64, bounded: bool| {
        retrying(|| {
            tickets.fetch_add(CHURN_PER_SCAN, Ordering::Relaxed);
            let mut txn = db.begin();
            let (lo, hi) = (key(400), key(2000));
            let rows = if bounded {
                txn.scan(&items, Bound::Included(&lo), Bound::Excluded(&hi))?
            } else {
                txn.scan(&items, Bound::Unbounded, Bound::Unbounded)?
            };
            assert!(
                rows.windows(2).all(|w| w[0].0 < w[1].0),
                "scan result out of key order"
            );
            txn.put(&marks, &key(id), &(rows.len() as u64).to_be_bytes())?;
            txn.commit()
        });
    };

    // Quiescent scans take the epoch-unchanged branch on every page.
    scan_and_publish(0, false);
    scan_and_publish(0, true);
    tickets.store(0, Ordering::Relaxed);
    let quiet = db.metrics().txn;
    assert!(quiet.scan_sweeps_skipped >= 6, "{quiet:?}");
    assert_eq!(quiet.scan_sweeps_run, 0);

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for churner in 0..CHURNERS {
            let (db, items, marks, stop, tickets) = (&db, &items, &marks, &stop, &tickets);
            scope.spawn(move || {
                let mut rng = WorkloadRng::new(7 + churner);
                while !stop.load(Ordering::Relaxed) {
                    let took = tickets
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| t.checked_sub(1));
                    if took.is_err() {
                        std::thread::yield_now();
                        continue;
                    }
                    // Keys no other thread writes: never a seeded multiple
                    // of four, and split between the churners.
                    let slot = rng.uniform(0, KEY_SPACE / 4 - 1) * 4;
                    let k = key(slot + 1 + churner);
                    let scanner = key(rng.uniform(0, SCANNERS - 1));
                    let reads_mark = rng.chance(0.25);
                    retrying(|| {
                        let mut txn = db.begin();
                        if reads_mark {
                            txn.get(marks, &scanner)?;
                        }
                        if txn.get(items, &k)?.is_some() {
                            txn.delete(items, &k)?;
                        } else {
                            txn.put(items, &k, b"churn")?;
                        }
                        txn.commit()
                    });
                }
            });
        }
        let scanners: Vec<_> = (0..SCANNERS)
            .map(|id| {
                let (db, scan_and_publish) = (&db, &scan_and_publish);
                scope.spawn(move || {
                    let mut scans = 0;
                    // Until the insert race has demonstrably been hit (a
                    // page found its epoch moved) and a key has left the
                    // table under the scans, within a generous bound.
                    let raced = || {
                        let metrics = db.metrics();
                        metrics.txn.scan_sweeps_run > 0 && metrics.gc.purged_chains > 0
                    };
                    while scans < MIN_SCANS || (!raced() && scans < MAX_SCANS) {
                        scan_and_publish(id, scans % 2 == 1);
                        scans += 1;
                    }
                })
            })
            .collect();
        for scanner in scanners {
            scanner.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let metrics = db.metrics();
    assert!(metrics.txn.scan_sweeps_run > 0, "{:?}", metrics.txn);
    assert!(metrics.txn.scan_sweeps_skipped > quiet.scan_sweeps_skipped);
    assert_eq!(
        metrics.txn.abort_reasons[AbortReason::GapSweepExhausted.index()],
        0,
        "a scan was starved out of its phantom sweep"
    );
    assert!(
        metrics.gc.purged_chains > 0,
        "no key left the table: deletes were not purged"
    );

    let report = db.history().unwrap().analyze();
    assert!(
        report.is_serializable(),
        "non-serializable history committed: cycle {:?}, lost reads {:?}, dangling {:?}",
        report.cycle,
        report.lost_reads,
        report.dangling_speculative_reads
    );

    // Every lock is released once the suspended transactions are reclaimed.
    db.transaction_manager()
        .cleanup_suspended(db.lock_manager());
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
}
