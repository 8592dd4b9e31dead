//! End-to-end tests of the engine's isolation behaviour on a single thread
//! (interleavings are driven explicitly by ordering operations on multiple
//! open transactions), plus the group-commit check of the redo log.
//! Multi-threaded stress and property-based tests live in the
//! workspace-level `tests/` directory.

use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ssi_common::{AbortKind, Error, IsolationLevel};
use ssi_wal::{FaultMode, FaultOp, FaultRule, FaultVfs};

use crate::{Database, Durability, Options, SsiVariant};

fn db_with(level: IsolationLevel) -> Database {
    Database::open(Options::default().with_isolation(level))
}

fn si_db() -> Database {
    db_with(IsolationLevel::SnapshotIsolation)
}

fn ssi_db() -> Database {
    db_with(IsolationLevel::SerializableSnapshotIsolation)
}

// ---------------------------------------------------------------------------
// Basic single-transaction behaviour
// ---------------------------------------------------------------------------

/// At a snapshot level and at a lock-based one, whose recorded history must
/// not mistake a read of the transaction's own write for a lost read.
#[test]
fn read_your_own_writes_and_deletes() {
    for level in [
        IsolationLevel::SerializableSnapshotIsolation,
        IsolationLevel::StrictTwoPhaseLocking,
    ] {
        let db = Database::open(Options::default().with_isolation(level).with_history());
        let t = db.create_table("t").unwrap();
        let mut txn = db.begin();
        assert_eq!(txn.get(&t, b"k").unwrap(), None);
        txn.put(&t, b"k", b"v1").unwrap();
        assert_eq!(
            txn.get(&t, b"k").unwrap().as_deref(),
            Some(b"v1".as_slice())
        );
        txn.put(&t, b"k", b"v2").unwrap();
        assert_eq!(
            txn.get_for_update(&t, b"k").unwrap().as_deref(),
            Some(b"v2".as_slice())
        );
        let all = txn.scan(&t, Bound::Unbounded, Bound::Unbounded).unwrap();
        let all: Vec<_> = all.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        assert_eq!(all, [(&b"k"[..], &b"v2"[..])]);
        txn.commit().unwrap();

        let mut txn = db.begin();
        txn.delete(&t, b"k").unwrap();
        assert_eq!(txn.get(&t, b"k").unwrap(), None);
        txn.commit().unwrap();

        let mut check = db.begin();
        assert_eq!(check.get(&t, b"k").unwrap(), None);
        check.commit().unwrap();
        let report = db.history().unwrap().analyze();
        assert!(report.is_serializable(), "{level:?}: {report:?}");
    }
}

#[test]
fn rollback_undoes_writes() {
    let db = ssi_db();
    let t = db.create_table("t").unwrap();
    let mut txn = db.begin();
    txn.put(&t, b"k", b"v").unwrap();
    txn.rollback();

    let mut check = db.begin();
    assert_eq!(check.get(&t, b"k").unwrap(), None);
    check.commit().unwrap();
    // The rolled-back version must not linger in the table.
    assert_eq!(t.key_count(), 0);
}

#[test]
fn dropping_an_active_transaction_rolls_back() {
    let db = ssi_db();
    let t = db.create_table("t").unwrap();
    {
        let mut txn = db.begin();
        txn.put(&t, b"k", b"v").unwrap();
        // dropped here
    }
    let mut check = db.begin();
    assert_eq!(check.get(&t, b"k").unwrap(), None);
    check.commit().unwrap();
    assert_eq!(db.lock_manager().grant_count(), 0, "locks must be released");
}

#[test]
fn operations_after_commit_fail() {
    let db = ssi_db();
    let t = db.create_table("t").unwrap();
    let mut txn = db.begin();
    txn.put(&t, b"k", b"v").unwrap();
    txn.commit().unwrap();
    // An empty transaction commits fine, and rollback of a fresh handle is a
    // no-op; neither leaves any locks behind.
    let txn2 = db.begin();
    txn2.commit().unwrap();
    let txn3 = db.begin();
    txn3.rollback();
    assert_eq!(db.lock_manager().grant_count(), 0);
}

#[test]
fn scans_return_rows_in_key_order() {
    let db = ssi_db();
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    for k in [b"b", b"a", b"d", b"c"] {
        setup.put(&t, k, k).unwrap();
    }
    setup.commit().unwrap();

    let mut txn = db.begin();
    let rows = txn.scan(&t, Bound::Unbounded, Bound::Unbounded).unwrap();
    let keys: Vec<&[u8]> = rows.iter().map(|(k, _)| k.as_slice()).collect();
    assert_eq!(keys, vec![b"a" as &[u8], b"b", b"c", b"d"]);
    txn.commit().unwrap();
}

#[test]
fn scan_prefix_limits_results() {
    let db = ssi_db();
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"order:1:line:1", b"a").unwrap();
    setup.put(&t, b"order:1:line:2", b"b").unwrap();
    setup.put(&t, b"order:2:line:1", b"c").unwrap();
    setup.commit().unwrap();

    let mut txn = db.begin();
    let rows = txn.scan_prefix(&t, b"order:1:").unwrap();
    assert_eq!(rows.len(), 2);
    txn.commit().unwrap();
}

// ---------------------------------------------------------------------------
// Snapshot isolation semantics
// ---------------------------------------------------------------------------

#[test]
fn si_readers_see_stable_snapshot() {
    let db = si_db();
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"x", b"1").unwrap();
    setup.commit().unwrap();

    let mut reader = db.begin();
    assert_eq!(
        reader.get(&t, b"x").unwrap().as_deref(),
        Some(b"1".as_slice())
    );

    let mut writer = db.begin();
    writer.put(&t, b"x", b"2").unwrap();
    writer.commit().unwrap();

    // The reader's snapshot predates the writer's commit.
    assert_eq!(
        reader.get(&t, b"x").unwrap().as_deref(),
        Some(b"1".as_slice())
    );
    reader.commit().unwrap();

    let mut after = db.begin();
    assert_eq!(
        after.get(&t, b"x").unwrap().as_deref(),
        Some(b"2".as_slice())
    );
    after.commit().unwrap();
}

#[test]
fn si_first_committer_wins() {
    let db = si_db();
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    // Pin both snapshots before either writes.
    t1.get(&t, b"x").unwrap();
    t2.get(&t, b"x").unwrap();

    t1.put(&t, b"x", b"1").unwrap();
    t1.commit().unwrap();

    // T2 updates the same item after T1 (which overlapped it) committed: the
    // first-committer-wins rule must abort it.
    let err = t2.put(&t, b"x", b"2").unwrap_err();
    assert_eq!(err.abort_kind(), Some(AbortKind::UpdateConflict));
}

#[test]
fn si_single_statement_update_never_conflicts() {
    // The Sec. 4.5 optimization: because the snapshot is chosen after the
    // write lock is granted, two single-statement increments serialize on
    // the lock and both commit.
    let db = si_db();
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"ctr", b"0").unwrap();
    setup.commit().unwrap();

    for _ in 0..2 {
        let mut txn = db.begin();
        let v = txn.get_for_update(&t, b"ctr").unwrap().unwrap();
        let n: i64 = String::from_utf8(v.to_vec()).unwrap().parse().unwrap();
        txn.put(&t, b"ctr", (n + 1).to_string().as_bytes()).unwrap();
        txn.commit().unwrap();
    }
    let mut check = db.begin();
    assert_eq!(
        check.get(&t, b"ctr").unwrap().as_deref(),
        Some(b"2".as_slice())
    );
    check.commit().unwrap();
}

#[test]
fn si_permits_write_skew_but_ssi_does_not() {
    // Example 2 of the thesis: x + y must stay positive.
    for (level, expect_skew) in [
        (IsolationLevel::SnapshotIsolation, true),
        (IsolationLevel::SerializableSnapshotIsolation, false),
    ] {
        let db = db_with(level);
        let t = db.create_table("acct").unwrap();
        let mut setup = db.begin();
        setup.put(&t, b"x", b"50").unwrap();
        setup.put(&t, b"y", b"50").unwrap();
        setup.commit().unwrap();

        let mut t1 = db.begin();
        let mut t2 = db.begin();
        let read_sum = |txn: &mut crate::Transaction| -> i64 {
            let x: i64 = String::from_utf8(txn.get(&t, b"x").unwrap().unwrap().to_vec())
                .unwrap()
                .parse()
                .unwrap();
            let y: i64 = String::from_utf8(txn.get(&t, b"y").unwrap().unwrap().to_vec())
                .unwrap()
                .parse()
                .unwrap();
            x + y
        };
        // Both see 100 and each withdraws 70 from a different account.
        assert_eq!(read_sum(&mut t1), 100);
        assert_eq!(read_sum(&mut t2), 100);
        let r1 = t1.put(&t, b"x", b"-20").and_then(|_| t1.commit());
        let r2 = t2.put(&t, b"y", b"-20").and_then(|_| t2.commit());

        let both_committed = r1.is_ok() && r2.is_ok();
        if expect_skew {
            assert!(both_committed, "plain SI should allow the interleaving");
        } else {
            assert!(
                !both_committed,
                "Serializable SI must abort one transaction"
            );
            let unsafe_abort = [r1, r2]
                .into_iter()
                .filter_map(|r| r.err())
                .any(|e| e.abort_kind() == Some(AbortKind::Unsafe));
            assert!(unsafe_abort, "the abort must be an unsafe-structure abort");
        }
    }
}

// ---------------------------------------------------------------------------
// Serializable SI specifics
// ---------------------------------------------------------------------------

#[test]
fn ssi_read_only_anomaly_is_prevented() {
    // Example 3 / Fig. 2.3(a): Tin is read-only but observes a state that
    // cannot occur in any serial order of Tpivot and Tout.
    let db = ssi_db();
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"x", b"0").unwrap();
    setup.put(&t, b"y", b"0").unwrap();
    setup.put(&t, b"z", b"0").unwrap();
    setup.commit().unwrap();

    let mut pivot = db.begin(); // r(y) w(x)
    let mut out = db.begin(); // w(y) w(z)

    assert_eq!(
        pivot.get(&t, b"y").unwrap().as_deref(),
        Some(b"0".as_slice())
    );
    out.put(&t, b"y", b"1").unwrap();
    out.put(&t, b"z", b"1").unwrap();
    out.commit().unwrap();

    // Tin starts after Tout committed, reads z (new) and x (old).
    let mut t_in = db.begin();
    assert_eq!(
        t_in.get(&t, b"z").unwrap().as_deref(),
        Some(b"1".as_slice())
    );
    assert_eq!(
        t_in.get(&t, b"x").unwrap().as_deref(),
        Some(b"0".as_slice())
    );
    t_in.commit().unwrap();

    // Completing the pivot's write must now fail: committing it would make
    // the execution non-serializable.
    let result = pivot.put(&t, b"x", b"1").and_then(|_| pivot.commit());
    assert_eq!(
        result.unwrap_err().abort_kind(),
        Some(AbortKind::Unsafe),
        "the pivot must be the unsafe victim"
    );
}

#[test]
fn ssi_false_positive_of_fig_3_8_commits_under_enhanced_variant() {
    // Tin -> Tpivot -> Tout with Tin committing before Tout: serializable,
    // and the enhanced variant lets the pivot commit.
    let run = |variant: SsiVariant| -> bool {
        let mut options = Options::default();
        options.ssi.variant = variant;
        options.ssi.abort_early = false;
        let db = Database::open(options);
        let t = db.create_table("t").unwrap();
        let mut setup = db.begin();
        setup.put(&t, b"x", b"0").unwrap();
        setup.put(&t, b"y", b"0").unwrap();
        setup.commit().unwrap();

        let mut pivot = db.begin(); // r(y) w(x)
        let mut t_out = db.begin(); // w(y)
        let mut t_in = db.begin(); // r(x) w(w)

        pivot.get(&t, b"y").unwrap();
        t_in.get(&t, b"x").unwrap();
        // The write gives Tin a commit timestamp after Tpivot's begin, so
        // the Tin -> Tpivot antidependency is between concurrent
        // transactions, exactly as in Fig. 3.8.
        t_in.put(&t, b"w", b"1").unwrap();
        t_in.commit().unwrap();
        pivot.put(&t, b"x", b"1").unwrap();
        t_out.put(&t, b"y", b"1").unwrap();
        t_out.commit().unwrap();
        pivot.commit().is_ok()
    };
    assert!(
        run(SsiVariant::Enhanced),
        "enhanced variant should not abort the serializable interleaving"
    );
    assert!(
        !run(SsiVariant::Basic),
        "basic variant conservatively aborts it"
    );
}

#[test]
fn ssi_detects_conflict_after_reader_committed() {
    // The reader commits first (holding SIREAD locks, so it is suspended);
    // the writer then overwrites what it read and must see the conflict.
    let db = ssi_db();
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"a", b"0").unwrap();
    setup.put(&t, b"b", b"0").unwrap();
    setup.commit().unwrap();

    // Reader: reads a, writes b (so it has an outgoing pivot potential).
    let mut reader = db.begin();
    reader.get(&t, b"a").unwrap();
    reader.put(&t, b"b", b"1").unwrap();

    // Writer: reads b (old), will write a.
    let mut writer = db.begin();
    writer.get(&t, b"b").unwrap();

    reader.commit().unwrap();
    assert!(db.transaction_manager().suspended_len() >= 1);

    // Writer overwrites a, creating reader --rw--> writer *after* reader
    // committed; together with writer --rw--> reader (reader overwrote b
    // that writer read) this forms a dangerous structure and writer must
    // abort.
    let result = writer.put(&t, b"a", b"2").and_then(|_| writer.commit());
    assert_eq!(result.unwrap_err().abort_kind(), Some(AbortKind::Unsafe));
}

#[test]
fn ssi_pure_queries_commit_even_with_conflicts() {
    let db = ssi_db();
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    let mut query = db.begin();
    query.get(&t, b"x").unwrap();
    let mut writer = db.begin();
    writer.put(&t, b"x", b"1").unwrap();
    writer.commit().unwrap();
    // The query has an outgoing conflict but no incoming one: it commits.
    query.commit().unwrap();
}

#[test]
fn ssi_suspended_transactions_are_cleaned_up() {
    let db = ssi_db();
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    {
        let mut overlap = db.begin();
        overlap.get(&t, b"x").unwrap();

        // Advance the clock so the reader's commit timestamp is later than
        // the overlapping transaction's begin timestamp (otherwise the
        // reader would be immediately reclaimable).
        let mut bump = db.begin();
        bump.put(&t, b"y", b"0").unwrap();
        bump.commit().unwrap();

        let mut reader = db.begin();
        reader.get(&t, b"x").unwrap();
        reader.commit().unwrap();
        assert!(db.transaction_manager().suspended_len() >= 1);
        overlap.commit().unwrap();
    }
    // With no active transactions left, a later commit triggers cleanup of
    // everything suspended.
    let mut txn = db.begin();
    txn.put(&t, b"x", b"1").unwrap();
    txn.commit().unwrap();
    assert_eq!(db.transaction_manager().suspended_len(), 0);
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
}

#[test]
fn mixed_mode_read_only_queries_skip_siread_locks() {
    let options = Options {
        read_only_queries_at_si: true,
        ..Options::default()
    };
    let db = Database::open(options);
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"x", b"0").unwrap();
    setup.commit().unwrap();

    let mut query = db.begin_read_only();
    assert_eq!(query.isolation(), IsolationLevel::SnapshotIsolation);
    query.get(&t, b"x").unwrap();
    // No SIREAD lock was taken, so nothing is suspended after commit.
    query.commit().unwrap();
    assert_eq!(db.transaction_manager().suspended_len(), 0);
}

// ---------------------------------------------------------------------------
// Phantoms
// ---------------------------------------------------------------------------

#[test]
fn ssi_detects_phantom_write_skew() {
    // Two transactions each count rows matching a predicate and then insert
    // a row that changes the other's count — write skew via phantoms. The
    // scans' range registrations must detect it.
    let db = ssi_db();
    let t = db.create_table("oncall").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"doc:1", b"on").unwrap();
    setup.put(&t, b"doc:2", b"on").unwrap();
    setup.commit().unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    let c1 = t1.scan_prefix(&t, b"doc:").unwrap().len();
    let c2 = t2.scan_prefix(&t, b"doc:").unwrap().len();
    assert_eq!((c1, c2), (2, 2));
    // Each inserts a new row into the scanned range.
    let r1 = t1.put(&t, b"doc:3", b"on").and_then(|_| t1.commit());
    let r2 = t2.put(&t, b"doc:4", b"on").and_then(|_| t2.commit());
    assert!(
        !(r1.is_ok() && r2.is_ok()),
        "one of the phantom-producing transactions must abort"
    );
}

#[test]
fn s2pl_blocks_phantom_inserts() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    // A scanning S2PL transaction holds its range; a concurrent insert into
    // it must block until the scanner finishes.
    let db = db_with(IsolationLevel::StrictTwoPhaseLocking);
    let t = db.create_table("items").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"item:1", b"a").unwrap();
    setup.put(&t, b"item:5", b"b").unwrap();
    setup.commit().unwrap();

    let mut scanner = db.begin();
    assert_eq!(scanner.scan_prefix(&t, b"item:").unwrap().len(), 2);

    let done = Arc::new(AtomicBool::new(false));
    let done2 = done.clone();
    let db2 = db.clone();
    let t2 = t.clone();
    std::thread::scope(|s| {
        let inserter = s.spawn(move || {
            let mut txn = db2.begin();
            txn.put(&t2, b"item:3", b"new").unwrap();
            done2.store(true, Ordering::SeqCst);
            txn.commit().unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !done.load(Ordering::SeqCst),
            "insert must wait for the scanner's range"
        );
        scanner.commit().unwrap();
        inserter.join().unwrap();
    });
    assert!(done.load(Ordering::SeqCst));
}

// ---------------------------------------------------------------------------
// S2PL and page granularity
// ---------------------------------------------------------------------------

#[test]
fn s2pl_serializes_the_write_skew_example() {
    let db = db_with(IsolationLevel::StrictTwoPhaseLocking);
    let t = db.create_table("acct").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"x", b"50").unwrap();
    setup.put(&t, b"y", b"50").unwrap();
    setup.commit().unwrap();

    // Run the two withdrawals from two threads; locking may block or
    // deadlock one of them, but the surviving executions must preserve
    // x + y >= 0.
    let db1 = db.clone();
    let t1ref = t.clone();
    let run_withdraw = move |target: &'static [u8], other: &'static [u8]| {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let mut txn = db1.begin();
            let result = (|| -> crate::Result<bool> {
                let x: i64 = String::from_utf8(txn.get(&t1ref, target)?.unwrap().to_vec())
                    .unwrap()
                    .parse()
                    .unwrap();
                let y: i64 = String::from_utf8(txn.get(&t1ref, other)?.unwrap().to_vec())
                    .unwrap()
                    .parse()
                    .unwrap();
                if x + y >= 70 {
                    txn.put(&t1ref, target, (x - 70).to_string().as_bytes())?;
                }
                Ok(true)
            })();
            match result {
                Ok(_) => match txn.commit() {
                    Ok(()) => return attempts,
                    Err(e) if e.is_retryable() => continue,
                    Err(e) => panic!("unexpected error: {e}"),
                },
                Err(e) if e.is_retryable() => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    };
    let db2 = db.clone();
    let t2 = t.clone();
    std::thread::scope(|s| {
        let h1 = s.spawn({
            let f = run_withdraw.clone();
            move || f(b"x", b"y")
        });
        let h2 = s.spawn(move || run_withdraw(b"y", b"x"));
        h1.join().unwrap();
        h2.join().unwrap();
    });
    let mut check = db2.begin();
    let x: i64 = String::from_utf8(check.get(&t2, b"x").unwrap().unwrap().to_vec())
        .unwrap()
        .parse()
        .unwrap();
    let y: i64 = String::from_utf8(check.get(&t2, b"y").unwrap().unwrap().to_vec())
        .unwrap()
        .parse()
        .unwrap();
    check.commit().unwrap();
    assert!(
        x + y >= 0,
        "S2PL must preserve the constraint, got {x} + {y}"
    );
}

#[test]
fn page_granularity_detects_conflicts_between_unrelated_keys() {
    // With a single page, any two keys collide: a reader of key A and a
    // writer of key B develop an rw-conflict through the page lock even
    // though the rows differ — the Berkeley DB false-positive behaviour of
    // Sec. 6.1.5.
    let db = Database::open(Options::berkeley_like(1));
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"a", b"0").unwrap();
    setup.put(&t, b"b", b"0").unwrap();
    setup.put(&t, b"c", b"0").unwrap();
    setup.put(&t, b"d", b"0").unwrap();
    setup.commit().unwrap();

    // T1 reads a, writes b. T2 reads c, writes d. At row granularity this
    // is perfectly serializable and commits; at one-page granularity both
    // transactions read and write "the page", forming a dangerous structure.
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.get(&t, b"a").unwrap();
    t2.get(&t, b"c").unwrap();
    let r1 = t1.put(&t, b"b", b"1").and_then(|_| t1.commit());
    let r2 = t2.put(&t, b"d", b"1").and_then(|_| t2.commit());
    assert!(
        !(r1.is_ok() && r2.is_ok()),
        "page-level locking should produce a (false positive) unsafe abort"
    );

    // The same schedule at row granularity commits on both sides.
    let db_row = ssi_db();
    let t = db_row.create_table("t").unwrap();
    let mut setup = db_row.begin();
    for k in [b"a", b"b", b"c", b"d"] {
        setup.put(&t, k, b"0").unwrap();
    }
    setup.commit().unwrap();
    let mut t1 = db_row.begin();
    let mut t2 = db_row.begin();
    t1.get(&t, b"a").unwrap();
    t2.get(&t, b"c").unwrap();
    assert!(t1.put(&t, b"b", b"1").and_then(|_| t1.commit()).is_ok());
    assert!(t2.put(&t, b"d", b"1").and_then(|_| t2.commit()).is_ok());
}

// ---------------------------------------------------------------------------
// History recording / verifier integration
// ---------------------------------------------------------------------------

#[test]
fn recorded_history_of_serializable_run_is_acyclic() {
    let db = Database::open(Options::default().with_history());
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"x", b"0").unwrap();
    setup.put(&t, b"y", b"0").unwrap();
    setup.commit().unwrap();

    for i in 0..10u8 {
        let mut txn = db.begin();
        let key: &[u8] = if i % 2 == 0 { b"x" } else { b"y" };
        let other: &[u8] = if i % 2 == 0 { b"y" } else { b"x" };
        txn.get(&t, other).unwrap();
        txn.put(&t, key, &[i]).unwrap();
        match txn.commit() {
            Ok(()) | Err(Error::Aborted { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    let report = db.history().unwrap().analyze();
    assert!(report.is_serializable(), "cycle: {:?}", report.cycle);
}

#[test]
fn recorded_history_under_si_shows_write_skew_cycle() {
    let db = Database::open(
        Options::default()
            .with_history()
            .with_isolation(IsolationLevel::SnapshotIsolation),
    );
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    setup.put(&t, b"x", b"0").unwrap();
    setup.put(&t, b"y", b"0").unwrap();
    setup.commit().unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.get(&t, b"y").unwrap();
    t2.get(&t, b"x").unwrap();
    t1.put(&t, b"x", b"1").unwrap();
    t2.put(&t, b"y", b"1").unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap();

    let report = db.history().unwrap().analyze();
    assert!(!report.is_serializable());
    assert!(!report.pivots.is_empty());
}

// ---------------------------------------------------------------------------
// WAL integration
// ---------------------------------------------------------------------------

/// A fresh log directory for one durable test; the test removes it.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("ssi-engine-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn commit_appends_wal_records_only_for_updates() {
    let dir = temp_dir("records");
    let db = Database::open(Options::default().with_durability(Durability::Buffered, &dir));
    let t = db.create_table("t").unwrap();
    let mut w = db.begin();
    w.put(&t, b"k", b"v").unwrap();
    w.commit().unwrap();
    let mut r = db.begin();
    r.get(&t, b"k").unwrap();
    r.commit().unwrap();
    assert_eq!(db.metrics().wal.records, 1);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn group_commit_shares_delayed_fsyncs_and_every_commit_waits_for_one() {
    // 8 threads × 5 write commits on a device whose every fsync takes 5 ms.
    // A commit returns only after an fsync that started after its record was
    // sealed, so none returns faster than one delay; concurrent committers
    // share fsyncs, so there are fewer fsyncs than commits.
    const DELAY_MS: u64 = 5;
    let dir = temp_dir("group-commit");
    let fault = FaultVfs::new(vec![FaultRule::new(
        FaultOp::Fsync,
        FaultMode::Delay { millis: DELAY_MS },
        std::io::ErrorKind::Other,
    )]);
    let db = Database::open(
        Options::default()
            .with_durability(Durability::GroupCommit, &dir)
            .with_vfs(fault.handle()),
    );
    let t = db.create_table("t").unwrap();
    std::thread::scope(|s| {
        for thread in 0..8u8 {
            let (db, t) = (&db, &t);
            s.spawn(move || {
                for i in 0..5u8 {
                    let mut txn = db.begin();
                    txn.put(t, &[thread, i], b"v").unwrap();
                    let start = Instant::now();
                    txn.commit().unwrap();
                    let waited = start.elapsed();
                    assert!(
                        waited >= Duration::from_millis(DELAY_MS),
                        "commit returned after {waited:?}, before any delayed fsync could cover it"
                    );
                }
            });
        }
    });
    let wal = db.metrics().wal;
    assert_eq!(wal.records, 40);
    assert!(
        wal.fsyncs < 40,
        "expected group commit to share fsyncs, got {}",
        wal.fsyncs
    );
    assert!(fault.delayed() >= wal.fsyncs);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
