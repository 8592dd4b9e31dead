//! SmallBank under concurrency: throughput is irrelevant here, the question
//! is purely whether each isolation level preserves the application's
//! invariants when many clients hammer a small hot set of customers
//! (Sec. 2.8.4/2.8.5: the Bal → WC → TS dangerous structure).

use std::time::Duration;

use serializable_si::workloads::smallbank::SmallBankConfig;
use serializable_si::{run_workload, Database, IsolationLevel, Options, RunConfig, SmallBank};

fn run_bank(level: IsolationLevel, customers: u64, seconds: u64) -> (SmallBank, Database, u64) {
    let db = Database::open(Options::default().with_isolation(level));
    let bank = SmallBank::setup(
        &db,
        SmallBankConfig {
            customers,
            ops_per_txn: 1,
            initial_balance: 100,
            mitigation: Default::default(),
        },
    );
    let stats = run_workload(
        &db,
        &bank,
        &RunConfig {
            mpl: 8,
            warmup: Duration::from_millis(50),
            duration: Duration::from_secs(seconds),
            seed: 20_08,
        },
    );
    (bank, db, stats.commits)
}

#[test]
fn serializable_si_preserves_the_no_overdraft_invariant() {
    // Very hot: only 4 customers, so WriteCheck/TransactSavings write skew
    // would show up quickly if it were possible.
    let (bank, db, commits) = run_bank(IsolationLevel::SerializableSnapshotIsolation, 4, 2);
    assert!(
        commits > 100,
        "the run should make progress ({commits} commits)"
    );
    assert_eq!(
        bank.negative_savings_accounts(&db),
        0,
        "Serializable SI must never drive a savings balance negative"
    );
}

#[test]
fn strict_two_phase_locking_preserves_the_invariant() {
    let (bank, db, commits) = run_bank(IsolationLevel::StrictTwoPhaseLocking, 4, 2);
    assert!(
        commits > 50,
        "the run should make progress ({commits} commits)"
    );
    assert_eq!(bank.negative_savings_accounts(&db), 0);
}

/// The SmallBank anomaly the thesis describes in Sec. 2.8.4: the dangerous
/// structure Balance → WriteCheck → TransactSavings → Balance. We drive the
/// exact interleaving of (Fekete et al. 2004) against the SmallBank tables:
/// WriteCheck reads both balances, TransactSavings withdraws the savings and
/// commits, a Balance query then observes the withdrawal but not the check,
/// and finally WriteCheck commits. Under plain SI everything commits and the
/// recorded history contains a cycle; under Serializable SI one participant
/// aborts.
fn run_smallbank_read_only_anomaly(level: IsolationLevel) -> (bool, bool) {
    use ssi_common::encoding::{decode_i64, encode_i64, KeyBuilder};

    let db = Database::open(Options::default().with_isolation(level).with_history());
    let _bank = SmallBank::setup(
        &db,
        SmallBankConfig {
            customers: 2,
            ops_per_txn: 1,
            initial_balance: 100,
            mitigation: Default::default(),
        },
    );
    let savings = db.table("savings").unwrap();
    let checking = db.table("checking").unwrap();
    let key = KeyBuilder::new().u64(0).build();

    // Give customer 0 the textbook starting state: savings 100, checking 0.
    let mut txn = db.begin();
    txn.put(&savings, &key, &encode_i64(100)).unwrap();
    txn.put(&checking, &key, &encode_i64(0)).unwrap();
    txn.commit().unwrap();

    let read = |txn: &mut serializable_si::Transaction, table| -> i64 {
        txn.get(table, &key)
            .unwrap()
            .map(|v| decode_i64(&v))
            .unwrap_or(0)
    };

    let mut all_committed = true;

    // WriteCheck($50): reads both balances (sum 100 >= 50, so no penalty),
    // but does not write yet.
    let mut wc = db.begin();
    let wc_sav = read(&mut wc, &savings);
    let wc_chk = read(&mut wc, &checking);

    // TransactSavings(-100): withdraws the whole savings balance and commits.
    let mut ts = db.begin();
    let ts_sav = read(&mut ts, &savings);
    let ts_ok = ts
        .put(&savings, &key, &encode_i64(ts_sav - 100))
        .and_then(|_| ts.commit())
        .is_ok();
    all_committed &= ts_ok;

    // Balance: starts after TransactSavings committed, sees savings 0 but
    // checking still 0 (WriteCheck has not committed yet).
    let mut bal = db.begin_read_only();
    let observed = read(&mut bal, &savings) + read(&mut bal, &checking);
    all_committed &= bal.commit().is_ok();
    assert_eq!(observed, 0, "Balance must see the withdrawal only");

    // WriteCheck finally debits checking (no penalty, based on its stale
    // snapshot) and tries to commit.
    let wc_ok = wc
        .put(&checking, &key, &encode_i64(wc_chk - 50))
        .and_then(|_| wc.commit())
        .is_ok();
    let _ = wc_sav;
    all_committed &= wc_ok;

    let serializable = db.history().unwrap().analyze().is_serializable();
    (all_committed, serializable)
}

#[test]
fn plain_si_commits_the_smallbank_anomaly() {
    let (all_committed, serializable) =
        run_smallbank_read_only_anomaly(IsolationLevel::SnapshotIsolation);
    assert!(all_committed, "plain SI lets all three programs commit");
    assert!(
        !serializable,
        "the committed history must contain the Bal → WC → TS cycle"
    );
}

#[test]
fn serializable_si_prevents_the_smallbank_anomaly() {
    let (all_committed, serializable) =
        run_smallbank_read_only_anomaly(IsolationLevel::SerializableSnapshotIsolation);
    assert!(!all_committed, "one of the programs must abort");
    assert!(serializable);
}

#[test]
fn page_granularity_engine_also_preserves_the_invariant() {
    // The Berkeley-DB-style configuration (page locks, basic conflict
    // flags): coarser detection means more false positives, but safety must
    // be unaffected.
    let db = Database::open(Options::berkeley_like(20));
    let bank = SmallBank::setup(
        &db,
        SmallBankConfig {
            customers: 16,
            ops_per_txn: 1,
            initial_balance: 100,
            mitigation: Default::default(),
        },
    );
    let stats = run_workload(
        &db,
        &bank,
        &RunConfig {
            mpl: 8,
            warmup: Duration::from_millis(50),
            duration: Duration::from_secs(2),
            seed: 4,
        },
    );
    assert!(stats.commits > 0);
    assert_eq!(bank.negative_savings_accounts(&db), 0);
    // With only 20 pages for 16 customers across three tables, unsafe
    // aborts (including false positives) should actually occur.
    assert!(
        stats.aborts[2] > 0,
        "expected some unsafe aborts at page granularity, got {:?}",
        stats.aborts
    );
}

#[test]
fn complex_transactions_remain_serializable() {
    // The "10 operations per transaction" workload of Sec. 6.1.4.
    let db = Database::open(Options::default());
    let bank = SmallBank::setup(
        &db,
        SmallBankConfig {
            customers: 10,
            ops_per_txn: 10,
            initial_balance: 100,
            mitigation: Default::default(),
        },
    );
    let stats = run_workload(
        &db,
        &bank,
        &RunConfig {
            mpl: 6,
            warmup: Duration::from_millis(50),
            duration: Duration::from_secs(2),
            seed: 77,
        },
    );
    assert!(stats.commits > 0);
    assert_eq!(bank.negative_savings_accounts(&db), 0);
}

#[test]
fn no_locks_or_suspended_transactions_leak_after_a_run() {
    let (_bank, db, _commits) = run_bank(IsolationLevel::SerializableSnapshotIsolation, 8, 1);
    // Once every worker has finished, a final empty write transaction
    // triggers cleanup; afterwards nothing should linger.
    let t = db.table("checking").unwrap();
    let mut txn = db.begin();
    txn.put(&t, b"\xff\xff cleanup", b"x").unwrap();
    txn.commit().unwrap();
    let mut txn = db.begin();
    txn.put(&t, b"\xff\xff cleanup", b"y").unwrap();
    txn.commit().unwrap();
    assert_eq!(db.transaction_manager().suspended_len(), 0);
    assert_eq!(
        db.lock_manager().grant_count(),
        0,
        "all locks must be released after cleanup"
    );
    assert_eq!(db.siread_holder_count(), 0, "row SIREADs leaked");
}
