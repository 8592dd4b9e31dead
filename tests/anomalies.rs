//! Integration tests for the snapshot-isolation anomalies discussed in
//! Chapter 2 of the thesis, and for their prevention by Serializable SI.
//!
//! Each test drives an explicit interleaving of two or three transactions
//! (the interleavings of Examples 1–3 and Figs. 2.1–2.3) and checks which
//! isolation levels allow it to commit.

use serializable_si::{AbortKind, Database, Error, IsolationLevel, Options, TableRef, Transaction};

fn open(level: IsolationLevel) -> Database {
    Database::open(Options::default().with_isolation(level))
}

fn get_i64(txn: &mut Transaction, table: &TableRef, key: &[u8]) -> i64 {
    txn.get(table, key)
        .unwrap()
        .map(|v| String::from_utf8_lossy(&v).parse().unwrap())
        .unwrap_or(0)
}

fn put_i64(txn: &mut Transaction, table: &TableRef, key: &[u8], value: i64) {
    txn.put(table, key, value.to_string().as_bytes()).unwrap();
}

fn seed_accounts(db: &Database, pairs: &[(&[u8], i64)]) -> TableRef {
    let table = db.create_table("accounts").unwrap();
    let mut txn = db.begin();
    for (key, value) in pairs {
        txn.put(&table, key, value.to_string().as_bytes()).unwrap();
    }
    txn.commit().unwrap();
    table
}

/// Example 2: the bank-account write skew. x + y must stay positive; each
/// transaction withdraws from a different account after checking the sum.
fn run_bank_write_skew(level: IsolationLevel) -> (bool, i64) {
    let db = open(level);
    let table = seed_accounts(&db, &[(b"x", 50), (b"y", 50)]);

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    let sum1 = get_i64(&mut t1, &table, b"x") + get_i64(&mut t1, &table, b"y");
    let sum2 = get_i64(&mut t2, &table, b"x") + get_i64(&mut t2, &table, b"y");
    assert_eq!((sum1, sum2), (100, 100));

    let r1 = t1.put(&table, b"x", b"-20").and_then(|_| t1.commit());
    let r2 = t2.put(&table, b"y", b"-30").and_then(|_| t2.commit());
    let both = r1.is_ok() && r2.is_ok();

    let mut check = db.begin();
    let total = get_i64(&mut check, &table, b"x") + get_i64(&mut check, &table, b"y");
    check.commit().unwrap();
    (both, total)
}

#[test]
fn bank_write_skew_slips_through_plain_si() {
    let (both_committed, total) = run_bank_write_skew(IsolationLevel::SnapshotIsolation);
    assert!(both_committed, "plain SI permits the interleaving");
    assert!(
        total < 0,
        "the constraint x + y > 0 is violated (total {total})"
    );
}

#[test]
fn bank_write_skew_is_prevented_by_serializable_si() {
    let (both_committed, total) =
        run_bank_write_skew(IsolationLevel::SerializableSnapshotIsolation);
    assert!(!both_committed, "one transaction must abort");
    assert!(total > 0, "the constraint survives (total {total})");
}

/// Lost update: two increments based on a stale read. SI's
/// first-committer-wins must abort the second writer; read committed (the
/// weakest level we provide) silently loses one increment.
#[test]
fn lost_update_is_prevented_by_first_committer_wins() {
    let db = open(IsolationLevel::SnapshotIsolation);
    let table = seed_accounts(&db, &[(b"counter", 0)]);

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    let v1 = get_i64(&mut t1, &table, b"counter");
    let v2 = get_i64(&mut t2, &table, b"counter");
    put_i64(&mut t1, &table, b"counter", v1 + 1);
    t1.commit().unwrap();
    // T2 read the same starting value and now tries to overwrite T1's
    // update from a stale snapshot — first-committer-wins fires.
    let err = t2.put(&table, b"counter", (v2 + 1).to_string().as_bytes());
    let failed = match err {
        Err(e) => e.abort_kind() == Some(AbortKind::UpdateConflict),
        Ok(()) => matches!(
            t2.commit(),
            Err(Error::Aborted {
                kind: AbortKind::UpdateConflict,
                ..
            })
        ),
    };
    assert!(failed, "the second writer must hit an update conflict");

    let mut check = db.begin();
    assert_eq!(get_i64(&mut check, &table, b"counter"), 1);
    check.commit().unwrap();
}

/// Inconsistent read: a reader that sees part of another transaction's
/// transfer. Snapshot isolation (and everything stronger) must never show a
/// state where the 40 transferred units are in flight.
#[test]
fn snapshot_reads_never_observe_partial_transfers() {
    for level in IsolationLevel::evaluated() {
        let db = open(level);
        let table = seed_accounts(&db, &[(b"x", 100), (b"y", 0)]);

        // A transfer of 40 from x to y, left uncommitted.
        let mut transfer = db.begin();
        put_i64(&mut transfer, &table, b"x", 60);
        put_i64(&mut transfer, &table, b"y", 40);

        // An independent reader must see either the before state (100/0);
        // after the transfer commits it must see 60/40 — never 60/0.
        // Under S2PL the reader would block, so only run the concurrent
        // read for the snapshot-based levels.
        if level != IsolationLevel::StrictTwoPhaseLocking {
            let mut reader = db.begin_read_only();
            let x = get_i64(&mut reader, &table, b"x");
            let y = get_i64(&mut reader, &table, b"y");
            reader.commit().unwrap();
            assert_eq!(x + y, 100, "{level}: reader saw a partial transfer");
        }
        transfer.commit().unwrap();

        let mut after = db.begin_read_only();
        let x = get_i64(&mut after, &table, b"x");
        let y = get_i64(&mut after, &table, b"y");
        after.commit().unwrap();
        assert_eq!((x, y), (60, 40), "{level}");
    }
}

/// Example 3 / Fig. 2.3: the read-only transaction anomaly (Fekete et al.
/// 2004). Tpivot: r(y) w(x); Tout: w(y) w(z); Tin: r(x) r(z), read-only.
/// The interleaving where Tin starts after Tout commits is not serializable;
/// Serializable SI must abort one of the update transactions while plain SI
/// lets all three commit.
fn run_read_only_anomaly(level: IsolationLevel) -> [bool; 3] {
    let db = open(level);
    let table = seed_accounts(&db, &[(b"x", 0), (b"y", 0), (b"z", 0)]);

    let mut pivot = db.begin();
    let mut out = db.begin();

    // Tpivot reads y before Tout updates it.
    let _ = get_i64(&mut pivot, &table, b"y");
    // Tout writes y and z and commits first (Fig. 2.3(a)).
    put_i64(&mut out, &table, b"y", 1);
    put_i64(&mut out, &table, b"z", 1);
    let out_ok = out.commit().is_ok();

    // Tin begins afterwards: it sees Tout's z but, crucially, the old x.
    let mut t_in = db.begin_read_only();
    let x = get_i64(&mut t_in, &table, b"x");
    let z = get_i64(&mut t_in, &table, b"z");
    let in_ok = t_in.commit().is_ok();
    assert_eq!((x, z), (0, 1));

    // Tpivot finally writes x and tries to commit.
    let pivot_ok = pivot
        .put(&table, b"x", b"1")
        .and_then(|_| pivot.commit())
        .is_ok();
    [in_ok, pivot_ok, out_ok]
}

#[test]
fn read_only_anomaly_commits_under_si() {
    let results = run_read_only_anomaly(IsolationLevel::SnapshotIsolation);
    assert_eq!(results, [true, true, true]);
}

#[test]
fn read_only_anomaly_is_prevented_by_serializable_si() {
    let [in_ok, pivot_ok, out_ok] =
        run_read_only_anomaly(IsolationLevel::SerializableSnapshotIsolation);
    // The read-only transaction and the first committer survive; the pivot
    // must be the victim.
    assert!(in_ok, "the read-only transaction itself should not abort");
    assert!(out_ok);
    assert!(
        !pivot_ok,
        "the pivot must abort to keep the history serializable"
    );
}

/// Sec. 3.8: when read-only queries are explicitly run at plain SI while
/// updates run at Serializable SI, the updates stay serializable among
/// themselves, but the query may observe the read-only anomaly — exactly the
/// trade-off the thesis describes.
#[test]
fn mixed_mode_queries_do_not_cause_update_aborts() {
    let options = Options {
        read_only_queries_at_si: true,
        ..Options::default()
    };
    let db = Database::open(options);
    let table = seed_accounts(&db, &[(b"x", 0), (b"y", 0), (b"z", 0)]);

    let mut pivot = db.begin();
    let mut out = db.begin();
    let _ = get_i64(&mut pivot, &table, b"y");
    put_i64(&mut out, &table, b"y", 1);
    put_i64(&mut out, &table, b"z", 1);
    out.commit().unwrap();

    let mut t_in = db.begin_read_only();
    assert_eq!(t_in.isolation(), IsolationLevel::SnapshotIsolation);
    let _ = get_i64(&mut t_in, &table, b"x");
    let _ = get_i64(&mut t_in, &table, b"z");
    t_in.commit().unwrap();

    // Because the query took no SIREAD locks, the pivot no longer sees an
    // incoming conflict and commits: the anomaly is tolerated by design in
    // this configuration.
    assert!(pivot
        .put(&table, b"x", b"1")
        .and_then(|_| pivot.commit())
        .is_ok());
}

/// Phantom write skew (Sec. 3.5): each transaction counts the rows matching
/// a predicate and inserts a new row; under SI both commit and each misses
/// the other's insert. The scans' range registrations stop it at SSI (one
/// aborts) and at S2PL (an insert waits for the other scanner).
#[test]
fn phantom_write_skew_prevented_at_ssi_and_s2pl() {
    let run = |level: IsolationLevel| -> bool {
        let mut options = Options::default().with_isolation(level);
        // Keep the S2PL variant snappy if it self-blocks.
        options.lock.wait_timeout = std::time::Duration::from_millis(300);
        let db = Database::open(options);
        let table = db.create_table("oncall").unwrap();
        let mut setup = db.begin();
        setup.put(&table, b"doc:1", b"on").unwrap();
        setup.put(&table, b"doc:2", b"on").unwrap();
        setup.commit().unwrap();

        let mut t1 = db.begin();
        let mut t2 = db.begin();
        let c1 = t1.scan_prefix(&table, b"doc:").map(|r| r.len());
        let c2 = t2.scan_prefix(&table, b"doc:").map(|r| r.len());
        if c1.is_err() || c2.is_err() {
            return false;
        }
        let r1 = t1.put(&table, b"doc:3", b"on").and_then(|_| t1.commit());
        let r2 = t2.put(&table, b"doc:4", b"on").and_then(|_| t2.commit());
        r1.is_ok() && r2.is_ok()
    };

    assert!(
        run(IsolationLevel::SnapshotIsolation),
        "plain SI permits the phantom write skew"
    );
    assert!(
        !run(IsolationLevel::SerializableSnapshotIsolation),
        "SSI must abort one transaction"
    );
    assert!(
        !run(IsolationLevel::StrictTwoPhaseLocking),
        "S2PL's ranges block one of the inserters"
    );
}

/// A delete-based phantom: one transaction scans a range while another
/// deletes a row in it and both commit under SI; SSI detects the conflict
/// when the scanning transaction also writes something the deleter read.
#[test]
fn delete_phantom_write_skew() {
    let run = |level: IsolationLevel| -> bool {
        let db = open(level);
        let table = db.create_table("t").unwrap();
        let mut setup = db.begin();
        setup.put(&table, b"a:1", b"x").unwrap();
        setup.put(&table, b"a:2", b"x").unwrap();
        setup.put(&table, b"flag", b"0").unwrap();
        setup.commit().unwrap();

        // T1 counts the a:* rows and records the count in flag.
        // T2 reads flag and deletes a:2.
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        let count = t1.scan_prefix(&table, b"a:").map(|r| r.len());
        let flag = t2.get(&table, b"flag");
        if count.is_err() || flag.is_err() {
            return false;
        }
        let r2 = t2.delete(&table, b"a:2").and_then(|_| t2.commit());
        let r1 = t1
            .put(&table, b"flag", count.unwrap().to_string().as_bytes())
            .and_then(|_| t1.commit());
        r1.is_ok() && r2.is_ok()
    };
    assert!(run(IsolationLevel::SnapshotIsolation));
    assert!(!run(IsolationLevel::SerializableSnapshotIsolation));
}

/// ROADMAP item 1's schedule. `t = {b, y}`, `u = {q}`; W2 reads `q`; W3
/// writes `q` and commits; S reads `q` and scans `t`; W1 (if `split_first`)
/// inserts `first`; W2 inserts `second`. S → W2 (the phantom), W2 → W3 (on
/// `q`) and W3 before S make a read-only anomaly. Returns whether S, W2 and W3
/// all committed.
fn scanned_gap_anomaly_commits(
    variant: serializable_si::SsiVariant,
    split_first: bool,
    [first, second]: [&[u8]; 2],
) -> bool {
    let db = Database::open(Options {
        ssi: serializable_si::SsiOptions {
            variant,
            ..Default::default()
        },
        ..Options::default()
    });
    let t = seed_accounts(&db, &[(b"b", 0), (b"y", 0)]);
    let u = db.create_table("u").unwrap();
    let mut load = db.begin();
    load.put(&u, b"q", b"0").unwrap();
    load.commit().unwrap();

    let mut w2 = db.begin();
    let mut w3 = db.begin();
    let mut w1 = db.begin();
    assert_eq!(get_i64(&mut w2, &u, b"q"), 0);
    put_i64(&mut w3, &u, b"q", 1);
    let w3_ok = w3.commit().is_ok();
    // S sees W3's q, and its range covers all of `t`.
    let mut s = db.begin();
    assert_eq!(get_i64(&mut s, &u, b"q"), 1);
    assert_eq!(s.scan_prefix(&t, b"").unwrap().len(), 2);
    if split_first {
        w1.put(&t, first, b"0").and_then(|()| w1.commit()).unwrap();
    }
    let w2_ok = w2.put(&t, second, b"0").and_then(|()| w2.commit()).is_ok();
    let s_ok = s.commit().is_ok();
    w3_ok && w2_ok && s_ok
}

const VARIANTS: [serializable_si::SsiVariant; 2] = [
    serializable_si::SsiVariant::Basic,
    serializable_si::SsiVariant::Enhanced,
];

/// An insert between two keys a scan listed, or above the last one, finds the
/// scan's range registered with the table: the phantom is detected.
#[test]
fn insert_into_a_scanned_gap_is_detected() {
    for variant in VARIANTS {
        for second in [b"f", b"z"] {
            let commits = scanned_gap_anomaly_commits(variant, false, [b"-", second]);
            assert!(!commits, "{variant:?}, {second:?}");
        }
    }
}

/// The hole PR 13 found. The first insert into a gap (`m`, next key `y`)
/// splits it; the second (`f`, next key now `m`) has a key the scan never saw
/// for a neighbour, and a gap SIREAD kept under the *name* of the next key —
/// or on its chain — is only found there if `m` inherited it (InnoDB's
/// `lock_rec_inherit_to_gap`). It passes by containment now: the scan's SIREAD
/// is its range, `f` lies in it whatever its neighbours are, and there is
/// nothing to inherit. Without the edge the scanner's rw-antidependency on
/// `f` is lost and the anomaly commits whole.
#[test]
fn second_insert_into_a_scanned_gap_is_a_phantom_too() {
    for variant in VARIANTS {
        assert!(
            !scanned_gap_anomaly_commits(variant, true, [b"m", b"f"]),
            "{variant:?}: S -> W2 -> W3 -> S committed whole"
        );
    }
}

/// The same above the last key the scan saw, by containment too: W1 appends
/// `z1`, W2 inserts `z0` between the last listed key and `z1`, both inside
/// the scan's (unbounded) range.
#[test]
fn second_insert_above_the_last_scanned_key_is_a_phantom_too() {
    for variant in VARIANTS {
        assert!(
            !scanned_gap_anomaly_commits(variant, true, [b"z1", b"z0"]),
            "{variant:?}: S -> W2 -> W3 -> S committed whole"
        );
    }
}
