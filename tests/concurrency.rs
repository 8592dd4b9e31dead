//! Multi-threaded stress tests: many client threads hammering small hot
//! sets, checking that every isolation level keeps its promises under real
//! concurrency (not just under the hand-built interleavings of the other
//! test files), and that the engine does not leak resources.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serializable_si::{Database, Error, IsolationLevel, Options, TableRef};

fn retrying<T>(mut body: impl FnMut() -> Result<T, Error>) -> T {
    loop {
        match body() {
            Ok(v) => return v,
            Err(e) if e.is_retryable() => continue,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

fn setup_counters(db: &Database, n: u64) -> TableRef {
    let table = db.create_table("counters").unwrap();
    let mut txn = db.begin();
    for i in 0..n {
        txn.put(&table, &i.to_be_bytes(), b"0").unwrap();
    }
    txn.commit().unwrap();
    table
}

fn read_counter(db: &Database, table: &TableRef, i: u64) -> i64 {
    let mut txn = db.begin();
    let v = txn
        .get(table, &i.to_be_bytes())
        .unwrap()
        .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
        .unwrap_or(0);
    txn.commit().unwrap();
    v
}

/// Increment-heavy workload: no increments may be lost at any isolation
/// level that enforces first-committer-wins or two-phase locking.
#[test]
fn concurrent_increments_are_never_lost() {
    for level in IsolationLevel::evaluated() {
        let db = Database::open(Options::default().with_isolation(level));
        let table = setup_counters(&db, 4);
        let per_thread = 200u64;
        let threads = 8;

        std::thread::scope(|scope| {
            for t in 0..threads {
                let db = db.clone();
                let table = table.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let key = ((t + i) % 4).to_be_bytes();
                        retrying(|| {
                            let mut txn = db.begin();
                            let value: i64 = txn
                                .get_for_update(&table, &key)?
                                .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
                                .unwrap_or(0);
                            txn.put(&table, &key, (value + 1).to_string().as_bytes())?;
                            txn.commit()
                        });
                    }
                });
            }
        });

        let total: i64 = (0..4).map(|i| read_counter(&db, &table, i)).sum();
        assert_eq!(
            total,
            (threads * per_thread) as i64,
            "{level}: increments were lost"
        );
    }
}

/// The bank-transfer invariant: total money is conserved by transfers, and
/// under serializable levels the "no account goes negative" rule also holds.
#[test]
fn concurrent_transfers_conserve_money_under_ssi() {
    let db = Database::open(Options::default());
    let accounts = 8u64;
    let initial = 1000i64;
    let table = db.create_table("bank").unwrap();
    let mut txn = db.begin();
    for i in 0..accounts {
        txn.put(&table, &i.to_be_bytes(), initial.to_string().as_bytes())
            .unwrap();
    }
    txn.commit().unwrap();

    let transfers = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let db = db.clone();
            let table = table.clone();
            let transfers = transfers.clone();
            scope.spawn(move || {
                for i in 0..150u64 {
                    let from = (t + i) % accounts;
                    let to = (t + i * 3 + 1) % accounts;
                    if from == to {
                        continue;
                    }
                    let amount = 1 + (i % 50) as i64;
                    retrying(|| {
                        let mut txn = db.begin();
                        let src: i64 = String::from_utf8_lossy(
                            &txn.get(&table, &from.to_be_bytes())?.unwrap(),
                        )
                        .parse()
                        .unwrap();
                        let dst: i64 =
                            String::from_utf8_lossy(&txn.get(&table, &to.to_be_bytes())?.unwrap())
                                .parse()
                                .unwrap();
                        if src < amount {
                            txn.rollback();
                            return Ok(());
                        }
                        txn.put(
                            &table,
                            &from.to_be_bytes(),
                            (src - amount).to_string().as_bytes(),
                        )?;
                        txn.put(
                            &table,
                            &to.to_be_bytes(),
                            (dst + amount).to_string().as_bytes(),
                        )?;
                        txn.commit()?;
                        transfers.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    });
                }
            });
        }
    });

    let mut txn = db.begin();
    let rows = txn
        .scan(
            &table,
            std::ops::Bound::Unbounded,
            std::ops::Bound::Unbounded,
        )
        .unwrap();
    txn.commit().unwrap();
    let balances: Vec<i64> = rows
        .iter()
        .map(|(_, v)| String::from_utf8_lossy(v).parse().unwrap())
        .collect();
    assert_eq!(
        balances.iter().sum::<i64>(),
        accounts as i64 * initial,
        "money must be conserved"
    );
    assert!(
        balances.iter().all(|b| *b >= 0),
        "the overdraft check is read-then-write; Serializable SI must keep it \
         correct: {balances:?}"
    );
    assert!(transfers.load(Ordering::Relaxed) > 0);
}

/// Readers scanning while writers insert: every scan must observe a
/// consistent prefix-sum invariant (every insert writes two rows whose
/// values sum to zero), which SI's consistent snapshots guarantee.
#[test]
fn snapshot_scans_see_consistent_states_during_inserts() {
    let db = Database::open(Options::default());
    let table = db.create_table("pairs").unwrap();

    std::thread::scope(|scope| {
        // Writer: inserts pairs (+v, -v) in one transaction each.
        let writer_db = db.clone();
        let writer_table = table.clone();
        scope.spawn(move || {
            for i in 0..300u64 {
                retrying(|| {
                    let mut txn = writer_db.begin();
                    txn.put(&writer_table, format!("p{i:05}a").as_bytes(), b"7")?;
                    txn.put(&writer_table, format!("p{i:05}b").as_bytes(), b"-7")?;
                    txn.commit()
                });
            }
        });

        // Readers: the sum over all rows must always be zero.
        for _ in 0..3 {
            let reader_db = db.clone();
            let reader_table = table.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    let mut txn = reader_db.begin_read_only();
                    let rows = txn
                        .scan(
                            &reader_table,
                            std::ops::Bound::Unbounded,
                            std::ops::Bound::Unbounded,
                        )
                        .unwrap();
                    txn.commit().unwrap();
                    let sum: i64 = rows
                        .iter()
                        .map(|(_, v)| String::from_utf8_lossy(v).parse::<i64>().unwrap())
                        .sum();
                    assert_eq!(sum, 0, "scan observed a half-applied insert");
                }
            });
        }
    });
}

/// After all clients are done the engine must have released every lock and
/// reclaimed every suspended transaction.
#[test]
fn no_resource_leaks_after_heavy_churn() {
    let db = Database::open(Options::default());
    let table = setup_counters(&db, 16);

    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let db = db.clone();
            let table = table.clone();
            scope.spawn(move || {
                for i in 0..200u64 {
                    let key = ((t * 31 + i) % 16).to_be_bytes();
                    // Alternate reads, writes and scans.
                    retrying(|| {
                        let mut txn = db.begin();
                        match i % 3 {
                            0 => {
                                txn.get(&table, &key)?;
                            }
                            1 => {
                                let v = txn.get_for_update(&table, &key)?;
                                let n: i64 = v
                                    .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
                                    .unwrap_or(0);
                                txn.put(&table, &key, (n + 1).to_string().as_bytes())?;
                            }
                            _ => {
                                txn.scan_prefix(&table, &key[..4])?;
                            }
                        }
                        txn.commit()
                    });
                }
            });
        }
    });

    // Two empty write transactions force cleanup of everything suspended.
    for _ in 0..2 {
        let mut txn = db.begin();
        txn.put(&table, b"zzz-cleanup", b"1").unwrap();
        txn.commit().unwrap();
    }
    assert_eq!(db.transaction_manager().suspended_len(), 0);
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
    // Old versions can be reclaimed once nothing is running.
    let stats = db.purge();
    assert!(
        stats.versions > 0,
        "version GC should reclaim overwritten versions"
    );
}
