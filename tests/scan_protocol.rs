//! The range-scan protocol, seen from outside the engine: what a scan costs
//! in lock requests and registrations at Serializable SI and at S2PL, and
//! that paging scans stay serializable while other transactions insert into
//! and delete from the range they are reading (one range registration before
//! the first page, then one read per row — see `ssi_storage::table`).

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use serializable_si::common::encoding::ValueWriter;
use serializable_si::common::rng::WorkloadRng;
use serializable_si::{
    AbortReason, Database, Error, FieldKind, IndexKeyPart, IndexKeySpec, IsolationLevel,
    MetricsSnapshot, Options, Transaction,
};

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

/// 500 rows (value: their number, indexed by `items_by_number`), one
/// overlapping snapshot that keeps the scanner suspended, and the scan itself
/// at `level`: over the table's keys, or with `through_index` over the index's
/// entries. Returns the database, the overlapping transaction and the metrics
/// around the scan.
fn scan_500_rows(
    level: IsolationLevel,
    through_index: bool,
) -> (Database, Transaction, [MetricsSnapshot; 2]) {
    let db = Database::open(Options::default());
    let table = db.create_table("items").unwrap();
    let spec = IndexKeySpec {
        layout: vec![FieldKind::U64],
        parts: vec![IndexKeyPart::ValueField(0)],
    };
    let index = db
        .create_index("items_by_number", &table, false, spec)
        .unwrap();
    let number = |i: u64| ValueWriter::new().u64(i).build();
    let mut load = db.begin();
    for i in 0..500 {
        load.put(&table, &key(i), &number(i)).unwrap();
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
    bump.put(&table, &key(1000), &number(1000)).unwrap();
    bump.commit().unwrap();
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);

    let before = db.metrics();
    let mut scanner = db.begin_with(level);
    let rows = if through_index {
        scanner.index_scan(&index, Bound::Unbounded, Bound::Excluded(&key(500)))
    } else {
        scanner.scan(&table, Bound::Unbounded, Bound::Excluded(&key(500)))
    };
    assert_eq!(rows.unwrap().len(), 500);
    scanner.commit().unwrap();
    let after = db.metrics();
    assert_eq!(after.locks.waits, before.locks.waits);
    (db, overlap, [before, after])
}

/// What a Serializable-SI scan left behind — `rows` chain registrations and
/// one range — stays in place while the scanner is suspended and is gone
/// after cleanup.
fn held_until_cleanup(db: &Database, overlap: Transaction, after: &MetricsSnapshot, rows: u64) {
    assert_eq!(db.transaction_manager().suspended_len(), 1);
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.siread_holder_count() as u64, rows + 1);
    assert_eq!(after.txn.siread_rows_now, rows);
    assert_eq!(after.txn.siread_ranges_now, 1);

    // The last transaction concurrent with the scanner finishes: its commit
    // runs `cleanup_suspended`, which reclaims the scanner and what it held.
    overlap.commit().unwrap();
    assert_eq!(db.transaction_manager().suspended_len(), 0);
    assert_eq!(db.metrics().txn.cleaned, after.txn.cleaned + 1);
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.lock_manager().key_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
    let held = db.metrics().txn;
    assert_eq!((held.siread_rows_now, held.siread_ranges_now), (0, 0));
}

/// A Serializable-SI row scan asks the lock table for nothing and registers
/// on no chain: its SIREAD is one registration of its bounds with the table,
/// whatever the number of rows between them.
#[test]
fn ssi_scan_of_500_rows_costs_no_lock_request_no_chain_registration_and_one_range() {
    let (db, overlap, [before, after]) =
        scan_500_rows(IsolationLevel::SerializableSnapshotIsolation, false);
    assert_eq!(after.locks.requests - before.locks.requests, 0);
    assert_eq!(
        after.txn.siread_row_registrations,
        before.txn.siread_row_registrations
    );
    assert_eq!(
        after.txn.siread_range_registrations - before.txn.siread_range_registrations,
        1
    );
    held_until_cleanup(&db, overlap, &after, 0);
}

/// The other side of the boundary: at S2PL the same scan is 501 blocking
/// SHARED requests — one record lock per row, plus the EXCLUSIVE lock on the
/// scanner's own wait target — and one `Shared` range registration, all
/// released at commit.
#[test]
fn s2pl_scan_of_500_rows_costs_501_lock_requests_and_one_range() {
    let (db, overlap, [before, after]) =
        scan_500_rows(IsolationLevel::StrictTwoPhaseLocking, false);
    assert_eq!(after.locks.requests - before.locks.requests, 501);
    s2pl_left_nothing(&db, overlap, [before, after]);
}

fn s2pl_left_nothing(db: &Database, overlap: Transaction, [before, after]: [MetricsSnapshot; 2]) {
    assert_eq!(
        after.txn.siread_row_registrations,
        before.txn.siread_row_registrations
    );
    assert_eq!(
        after.txn.siread_range_registrations - before.txn.siread_range_registrations,
        1
    );
    assert_eq!(db.transaction_manager().suspended_len(), 0);
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
    drop(overlap);
}

/// The same pair in entry space. A Serializable-SI index scan registers its
/// entry range with the index, once, and then reads each entry's row under
/// the ordinary row protocol: a point SIREAD on the row's chain, which is
/// what a rename away or a delete of the row will find. No lock request.
#[test]
fn ssi_index_scan_of_500_entries_costs_no_lock_request_500_row_registrations_and_one_range() {
    let (db, overlap, [before, after]) =
        scan_500_rows(IsolationLevel::SerializableSnapshotIsolation, true);
    assert_eq!(after.locks.requests - before.locks.requests, 0);
    assert_eq!(
        after.txn.siread_row_registrations - before.txn.siread_row_registrations,
        500
    );
    assert_eq!(
        after.txn.siread_range_registrations - before.txn.siread_range_registrations,
        1
    );
    held_until_cleanup(&db, overlap, &after, 500);
}

/// At S2PL the index scan is the same 501 requests — a record lock per
/// entry's row and the wait target — and one `Shared` entry range.
#[test]
fn s2pl_index_scan_of_500_entries_costs_501_lock_requests_and_one_range() {
    let (db, overlap, [before, after]) = scan_500_rows(IsolationLevel::StrictTwoPhaseLocking, true);
    assert_eq!(after.locks.requests - before.locks.requests, 501);
    s2pl_left_nothing(&db, overlap, [before, after]);
}

/// Paging scans against concurrent inserters and deleters of the scanned
/// range, at Serializable SI and at S2PL. Brand-new keys enter the table's
/// ordered index while scans are between pages, deleted keys leave it once
/// version GC purges their tombstones; every one of them lands in a
/// registered range or on a page that is yet to be listed. The committed
/// history must stay free of MVSG cycles. At S2PL every scanner lists its
/// range twice and must see the same rows both times — a phantom would make
/// the two differ — and a lock wait must end in a grant or a detected
/// deadlock, never in a timeout. (No S2PL transaction takes a snapshot, and
/// the GC horizon moves only when one that did finishes, so at S2PL deleted
/// keys stay in the table as tombstones; the first insert of every churned
/// key is a link all the same.)
#[test]
fn paging_scans_stay_serializable_against_inserters_and_deleters() {
    for level in [
        IsolationLevel::SerializableSnapshotIsolation,
        IsolationLevel::StrictTwoPhaseLocking,
    ] {
        paging_scans_against_churn(level);
    }
}

fn paging_scans_against_churn(level: IsolationLevel) {
    const SCANNERS: u64 = 2;
    const CHURNERS: u64 = 2;
    const KEY_SPACE: u64 = 2400;
    const MIN_SCANS: u64 = 40;
    const MAX_SCANS: u64 = 400;
    /// Churn operations released per scan attempt: enough to land inserts
    /// inside most scans, few enough that scanners (which conflict with
    /// every churner that read their mark) still commit.
    const CHURN_PER_SCAN: u64 = 6;

    let options = Options::default().with_isolation(level);
    let purges_keys = level == IsolationLevel::SerializableSnapshotIsolation;
    let db = Database::open(options.with_history().with_auto_purge(64));
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
            let scan = |txn: &mut Transaction| {
                if bounded {
                    txn.scan(&items, Bound::Included(&lo), Bound::Excluded(&hi))
                } else {
                    txn.scan(&items, Bound::Unbounded, Bound::Unbounded)
                }
            };
            let rows = scan(&mut txn)?;
            assert!(
                rows.windows(2).all(|w| w[0].0 < w[1].0),
                "scan result out of key order"
            );
            if level == IsolationLevel::StrictTwoPhaseLocking {
                assert_eq!(scan(&mut txn)?, rows, "a phantom entered the range");
            }
            txn.put(&marks, &key(id), &(rows.len() as u64).to_be_bytes())?;
            txn.commit()
        });
    };

    // One range registration per scanning transaction, however many pages
    // it spans and however often it lists them.
    scan_and_publish(0, false);
    scan_and_publish(0, true);
    tickets.store(0, Ordering::Relaxed);
    let quiet = db.metrics().txn;
    assert_eq!(quiet.siread_range_registrations, 2, "{quiet:?}");

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
                    // Until writes have demonstrably landed in registered
                    // ranges (a scanner or a churner lost to the other) and
                    // a key has left the table under the scans, within a
                    // generous bound.
                    let raced = || {
                        let metrics = db.metrics();
                        metrics.txn.aborted > 0 && (!purges_keys || metrics.gc.purged_chains > 0)
                    };
                    while scans < MIN_SCANS || (!raced() && scans < MAX_SCANS) {
                        scan_and_publish(id, scans % 2 == 1);
                        scans += 1;
                    }
                })
            })
            .collect();
        // The churners stop whether or not a scanner failed, so that a
        // failure is reported instead of waiting for them for ever.
        let scanned: Vec<_> = scanners.into_iter().map(|s| s.join()).collect();
        stop.store(true, Ordering::Relaxed);
        for outcome in scanned {
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        }
    });

    let metrics = db.metrics();
    assert!(metrics.txn.aborted > 0, "{level:?}: {:?}", metrics.txn);
    assert!(
        !purges_keys || metrics.gc.purged_chains > 0,
        "{level:?}: no key left the table: deletes were not purged"
    );
    assert_eq!(metrics.locks.timeouts, 0, "{level:?}");
    let timeouts = metrics.txn.abort_reasons[AbortReason::LockTimeout.index()];
    assert_eq!(timeouts, 0, "{level:?}");

    let report = db.history().unwrap().analyze();
    assert!(
        report.is_serializable(),
        "{level:?}: non-serializable history committed: cycle {:?}, lost reads {:?}",
        report.cycle,
        report.lost_reads,
    );

    // Every lock is released once the suspended transactions are reclaimed.
    db.transaction_manager()
        .cleanup_suspended(db.lock_manager());
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
}
