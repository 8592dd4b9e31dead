//! Integration tests for anomalies that flow through *secondary-index
//! predicates* — the Sec. 3.5 phantom problem restated in entry space.
//!
//! Each test drives an explicit interleaving, in the style of
//! `tests/anomalies.rs`, where the predicate read is an index lookup or
//! range scan instead of a primary-key scan:
//!
//! * **duplicate claim** (write skew on an index point): two transactions
//!   each probe a name through the index, see it free, and insert a row
//!   claiming it. Plain SI commits both — the committed state holds two
//!   rows for one name. SSI's entry-space range SIREADs turn the inserts
//!   into rw-antidependencies and abort one; S2PL's `Shared` entry ranges
//!   make the inserts block.
//! * **unique constraint**: the same race against a *unique* index must
//!   end with exactly one committed row and a typed
//!   [`AbortReason::UniqueViolation`] at every isolation level — the
//!   constraint is enforced under the index-point marker lock, not by the
//!   serializability machinery, so even plain SI cannot admit a duplicate.
//! * **phantom via index range**: a transaction counts an index range and
//!   records the count while another inserts into the range — the
//!   delete-phantom skew of `tests/anomalies.rs`, rebuilt on entry-space
//!   ranges.

use std::ops::Bound;
use std::sync::Barrier;

use serializable_si::common::encoding::{KeyBuilder, ValueWriter};
use serializable_si::{
    AbortReason, Database, Error, FieldKind, IndexKeyPart, IndexKeySpec, IndexRef, IsolationLevel,
    Options, SsiVariant, TableRef,
};

/// Row payload: a single string field (the person's name).
fn person(name: &str) -> Vec<u8> {
    ValueWriter::new().str(name).build()
}

/// The raw index key the engine extracts from [`person`]`(name)` —
/// [`KeyBuilder`]'s escaped-string encoding, byte-for-byte.
fn name_key(name: &str) -> Vec<u8> {
    KeyBuilder::new().str(name).build()
}

fn name_spec() -> IndexKeySpec {
    IndexKeySpec {
        layout: vec![FieldKind::Str],
        parts: vec![IndexKeyPart::ValueField(0)],
    }
}

fn open(options: Options, unique: bool) -> (Database, TableRef, IndexRef) {
    let db = Database::open(options);
    let table = db.create_table("people").unwrap();
    let index = db
        .create_index("people_by_name", &table, unique, name_spec())
        .unwrap();
    (db, table, index)
}

fn ssi_options(variant: SsiVariant) -> Options {
    Options {
        ssi: serializable_si::SsiOptions {
            variant,
            ..Default::default()
        },
        ..Options::default().with_isolation(IsolationLevel::SerializableSnapshotIsolation)
    }
}

/// Two transactions probe the same name through the index, both see it
/// unclaimed, and both insert a row claiming it (distinct primary keys, so
/// first-committer-wins never fires). Returns whether both committed and
/// how many rows claim the name afterwards.
fn run_duplicate_claim(options: Options) -> (bool, usize) {
    let (db, table, index) = open(options, false);

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    let free1 = t1.index_lookup(&index, &name_key("smith")).map(|r| r.len());
    let free2 = t2.index_lookup(&index, &name_key("smith")).map(|r| r.len());
    let both = match (free1, free2) {
        (Ok(0), Ok(0)) => {
            let r1 = t1
                .put(&table, b"a", &person("smith"))
                .and_then(|_| t1.commit());
            let r2 = t2
                .put(&table, b"b", &person("smith"))
                .and_then(|_| t2.commit());
            r1.is_ok() && r2.is_ok()
        }
        _ => false,
    };

    let mut check = db.begin_read_only();
    let claims = check
        .index_lookup(&index, &name_key("smith"))
        .unwrap()
        .len();
    check.commit().unwrap();
    (both, claims)
}

#[test]
fn duplicate_claim_slips_through_plain_si() {
    let options = Options::default().with_isolation(IsolationLevel::SnapshotIsolation);
    let (both, claims) = run_duplicate_claim(options);
    assert!(both, "plain SI admits the duplicate-claim write skew");
    assert_eq!(claims, 2, "two rows claim one name — the anomaly");
}

#[test]
fn duplicate_claim_is_aborted_by_serializable_si_under_both_variants() {
    for variant in [SsiVariant::Basic, SsiVariant::Enhanced] {
        let (both, claims) = run_duplicate_claim(ssi_options(variant));
        assert!(!both, "{variant:?}: one claimant must abort");
        assert_eq!(claims, 1, "{variant:?}: exactly one claim survives");
    }
}

#[test]
fn duplicate_claim_blocks_under_two_phase_locking() {
    let mut options = Options::default().with_isolation(IsolationLevel::StrictTwoPhaseLocking);
    // The first insert waits for the other prober's entry range; keep the
    // self-block short.
    options.lock.wait_timeout = std::time::Duration::from_millis(300);
    let (both, claims) = run_duplicate_claim(options);
    assert!(!both, "S2PL must not let both claims through");
    assert!(claims <= 1);
}

/// The deterministic unique-constraint interleaving: T2 begins before T1
/// commits, so T2's *snapshot* cannot see T1's row — but the constraint
/// check reads the latest committed state under the marker lock and must
/// reject the duplicate anyway, with the typed reason.
fn run_unique_interleaving(options: Options) {
    let (db, table, index) = open(options, true);

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    t1.put(&table, b"a", &person("smith")).unwrap();
    t1.commit().unwrap();

    let err = t2
        .put(&table, b"b", &person("smith"))
        .expect_err("the second claimant must hit the unique constraint");
    assert_eq!(
        err.abort_reason(),
        Some(AbortReason::UniqueViolation),
        "the abort must be typed as a unique violation: {err}"
    );
    drop(t2);

    let mut check = db.begin_read_only();
    assert_eq!(
        check
            .index_lookup(&index, &name_key("smith"))
            .unwrap()
            .len(),
        1
    );
    check.commit().unwrap();
}

#[test]
fn unique_duplicate_insert_aborts_typed_at_every_level() {
    for level in [
        IsolationLevel::SerializableSnapshotIsolation,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::StrictTwoPhaseLocking,
    ] {
        run_unique_interleaving(Options::default().with_isolation(level));
    }
}

/// Two threads race to insert the same unique key with no ordering between
/// them: the marker lock serializes the constraint checks, so exactly one
/// commits and the loser aborts with the typed reason.
fn run_unique_race(options: Options) {
    let (db, table, index) = open(options, true);
    let barrier = Barrier::new(2);

    let results: Vec<Result<(), Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [&b"a"[..], &b"b"[..]]
            .into_iter()
            .map(|pk| {
                let db = db.clone();
                let table = table.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut txn = db.begin();
                    barrier.wait();
                    txn.put(&table, pk, &person("smith"))?;
                    txn.commit()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let committed = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(committed, 1, "exactly one claimant commits: {results:?}");
    let loser = results.iter().find_map(|r| r.as_ref().err()).unwrap();
    assert_eq!(
        loser.abort_reason(),
        Some(AbortReason::UniqueViolation),
        "the loser's abort must be typed: {loser}"
    );

    let mut check = db.begin_read_only();
    assert_eq!(
        check
            .index_lookup(&index, &name_key("smith"))
            .unwrap()
            .len(),
        1
    );
    check.commit().unwrap();

    // The race never parked on version publication: in memory only a
    // durable commit waits for it.
    let stats = db.transaction_manager().stats();
    assert_eq!(
        stats
            .publish_parks
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "an in-memory run parked on version publication"
    );
}

#[test]
fn concurrent_unique_inserts_leave_exactly_one_committed_under_ssi() {
    run_unique_race(ssi_options(SsiVariant::Enhanced));
    run_unique_race(ssi_options(SsiVariant::Basic));
}

#[test]
fn concurrent_unique_inserts_leave_exactly_one_committed_under_2pl() {
    run_unique_race(Options::default().with_isolation(IsolationLevel::StrictTwoPhaseLocking));
}

/// A unique index constrains the *current* claimant of a key, not the
/// history: rewriting the same row, and re-claiming a name its old holder
/// has moved away from, are both legal. The stale entry the old holder
/// leaves behind (purged only by GC) must not trip the constraint check.
#[test]
fn unique_constraint_tracks_the_live_claimant() {
    let (db, table, index) = open(Options::default(), true);

    let mut txn = db.begin();
    txn.put(&table, b"a", &person("smith")).unwrap();
    txn.commit().unwrap();

    // Same row, same name: an overwrite, not a second claim.
    let mut rewrite = db.begin();
    rewrite.put(&table, b"a", &person("smith")).unwrap();
    rewrite.commit().unwrap();

    // The holder renames; the name is free again even though the old
    // index entry still lingers until GC.
    let mut rename = db.begin();
    rename.put(&table, b"a", &person("jones")).unwrap();
    rename.commit().unwrap();

    let mut claim = db.begin();
    claim.put(&table, b"b", &person("smith")).unwrap();
    claim.commit().unwrap();

    let mut check = db.begin_read_only();
    assert_eq!(
        check
            .index_lookup(&index, &name_key("smith"))
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        check
            .index_lookup(&index, &name_key("jones"))
            .unwrap()
            .len(),
        1
    );
    check.commit().unwrap();
}

/// A transaction may claim a unique key it is itself about to release in
/// the same transaction (swap two names) — its own uncommitted writes are
/// the state the constraint checks against.
#[test]
fn unique_constraint_sees_own_uncommitted_writes() {
    let (db, table, index) = open(Options::default(), true);
    let mut setup = db.begin();
    setup.put(&table, b"a", &person("smith")).unwrap();
    setup.put(&table, b"b", &person("jones")).unwrap();
    setup.commit().unwrap();

    let mut swap = db.begin();
    swap.put(&table, b"a", &person("jones"))
        .expect_err("a still-claimed name cannot be taken mid-swap");
    drop(swap);

    let mut swap = db.begin();
    swap.put(&table, b"b", &person("doe")).unwrap();
    swap.put(&table, b"a", &person("jones"))
        .expect("the claim b released within this transaction is free");
    swap.commit().unwrap();

    let mut check = db.begin_read_only();
    assert_eq!(
        check
            .index_lookup(&index, &name_key("jones"))
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        check.index_lookup(&index, &name_key("doe")).unwrap().len(),
        1
    );
    check.commit().unwrap();
}

/// Phantom through an index range: T1 counts the `a..m` name range through
/// the index and records the count in a summary row T2 has read; T2 inserts
/// a new name into the range. Under SI both commit and the recorded count
/// is stale the moment it lands; SSI sees the rw-antidependency cycle
/// through the entry range and aborts one.
fn run_index_range_phantom(options: Options) -> (bool, Option<usize>) {
    let db = Database::open(options);
    let table = db.create_table("people").unwrap();
    let index = db
        .create_index("people_by_name", &table, false, name_spec())
        .unwrap();
    let summary = db.create_table("summary").unwrap();
    let mut setup = db.begin();
    setup.put(&table, b"1", &person("adams")).unwrap();
    setup.put(&table, b"2", &person("baker")).unwrap();
    setup.put(&summary, b"count", b"2").unwrap();
    setup.commit().unwrap();

    let mut t1 = db.begin();
    let mut t2 = db.begin();
    let count = t1.index_scan(
        &index,
        Bound::Included(name_key("a").as_slice()),
        Bound::Excluded(name_key("m").as_slice()),
    );
    let seen = t2.get(&summary, b"count");
    if count.is_err() || seen.is_err() {
        return (false, None);
    }
    let count = count.unwrap().len();
    let r2 = t2
        .put(&table, b"3", &person("clark"))
        .and_then(|_| t2.commit());
    let r1 = t1
        .put(&summary, b"count", count.to_string().as_bytes())
        .and_then(|_| t1.commit());
    let both = r1.is_ok() && r2.is_ok();

    let mut check = db.begin_read_only();
    let recorded = check
        .get(&summary, b"count")
        .unwrap()
        .map(|v| String::from_utf8_lossy(&v).parse().unwrap());
    check.commit().unwrap();
    (both, recorded)
}

#[test]
fn index_range_phantom_slips_through_plain_si() {
    let options = Options::default().with_isolation(IsolationLevel::SnapshotIsolation);
    let (both, recorded) = run_index_range_phantom(options);
    assert!(both, "plain SI admits the index-range phantom");
    assert_eq!(
        recorded,
        Some(2),
        "the committed count misses the phantom row — the anomaly"
    );
}

#[test]
fn index_range_phantom_is_aborted_by_serializable_si_under_both_variants() {
    for variant in [SsiVariant::Basic, SsiVariant::Enhanced] {
        let (both, _) = run_index_range_phantom(ssi_options(variant));
        assert!(
            !both,
            "{variant:?}: the phantom interleaving must not commit whole"
        );
    }
}

/// The index-scan twin of `tests/anomalies.rs`'s second-insert phantom
/// (ROADMAP, "Known correctness gap"). `people = {baker, young}` by name,
/// `u = {q}`; W2 reads `q`; W3 writes `q` and commits; S reads `q` and scans
/// the whole name index; W1 claims `first` and commits; W2 claims `second`,
/// a fresh index key in the same scanned entry gap and in front of `first`,
/// and commits; S commits. S → W2 (the phantom), W2 → W3 (on `q`) and W3
/// before S make a read-only anomaly. Returns whether S, W2 and W3 all
/// committed.
fn scanned_entry_gap_anomaly_commits(variant: SsiVariant, [first, second]: [&str; 2]) -> bool {
    let (db, people, by_name) = open(ssi_options(variant), false);
    let u = db.create_table("u").unwrap();
    let mut load = db.begin();
    load.put(&people, b"1", &person("baker")).unwrap();
    load.put(&people, b"2", &person("young")).unwrap();
    load.put(&u, b"q", b"0").unwrap();
    load.commit().unwrap();

    let mut w2 = db.begin();
    let mut w3 = db.begin();
    let mut w1 = db.begin();
    assert_eq!(w2.get(&u, b"q").unwrap().as_deref(), Some(&b"0"[..]));
    w3.put(&u, b"q", b"1").unwrap();
    let w3_ok = w3.commit().is_ok();
    // S sees W3's q, and its predicate covers every name.
    let mut s = db.begin();
    assert_eq!(s.get(&u, b"q").unwrap().as_deref(), Some(&b"1"[..]));
    let everyone = s.index_scan(&by_name, Bound::Unbounded, Bound::Unbounded);
    assert_eq!(everyone.unwrap().len(), 2);
    w1.put(&people, b"3", &person(first))
        .and_then(|()| w1.commit())
        .unwrap();
    let w2_ok = w2
        .put(&people, b"4", &person(second))
        .and_then(|()| w2.commit())
        .is_ok();
    let s_ok = s.commit().is_ok();
    w3_ok && w2_ok && s_ok
}

/// Two fresh index keys in one scanned entry gap, the second in front of the
/// first: a gap SIREAD kept under the *name* of the next entry is not found by
/// the second insert, whose next entry is the first insert's. The scan's range
/// registration on the index covers both by containment.
#[test]
fn second_claim_in_a_scanned_entry_gap_is_a_phantom_too() {
    for variant in [SsiVariant::Basic, SsiVariant::Enhanced] {
        assert!(
            !scanned_entry_gap_anomaly_commits(variant, ["miller", "fisher"]),
            "{variant:?}: S -> W2 -> W3 -> S committed whole"
        );
    }
}

/// The same above the last entry the scan saw.
#[test]
fn second_claim_above_the_last_scanned_entry_is_a_phantom_too() {
    for variant in [SsiVariant::Basic, SsiVariant::Enhanced] {
        assert!(
            !scanned_entry_gap_anomaly_commits(variant, ["zz", "zimmer"]),
            "{variant:?}: S -> W2 -> W3 -> S committed whole"
        );
    }
}
