//! Exhaustive interleaving tests, reproducing the validation methodology of
//! Sec. 4.7 of the thesis: take a small set of transactions known to produce
//! write skew, execute *every* interleaving of their operations, and check
//! that Serializable SI never lets a non-serializable execution commit while
//! aborting as few serializable ones as possible.
//!
//! The transaction set is the read-only-anomaly example the thesis builds
//! its write-skew discussion on (Example 3 / Fig. 2.3):
//!
//! ```text
//! Tin:    r(x) r(z)   (read only)
//! Tpivot: r(y) w(x)
//! Tout:   w(y) w(z)
//! ```
//!
//! Tpivot is the pivot (Tin -> Tpivot via x, Tpivot -> Tout via y). Some
//! interleavings are genuinely non-serializable (e.g. when Tin begins after
//! Tout commits); we verify every committed outcome against the recorded
//! multiversion serialization graph.

use serializable_si::core::MvsgReport;
use serializable_si::{Database, IsolationLevel, Options, TableRef, Transaction};

/// One step of the interleaved schedule: which transaction performs its next
/// operation.
type Schedule = Vec<usize>;

/// Generates all interleavings of three transactions with the given number
/// of operations each.
fn interleavings(ops: [usize; 3]) -> Vec<Schedule> {
    fn recurse(remaining: [usize; 3], current: &mut Schedule, out: &mut Vec<Schedule>) {
        if remaining.iter().all(|&r| r == 0) {
            out.push(current.clone());
            return;
        }
        for txn in 0..3 {
            if remaining[txn] > 0 {
                let mut next = remaining;
                next[txn] -= 1;
                current.push(txn);
                recurse(next, current, out);
                current.pop();
            }
        }
    }
    let mut out = Vec::new();
    recurse(ops, &mut Schedule::new(), &mut out);
    out
}

struct Harness {
    db: Database,
    table: TableRef,
    txns: [Option<Transaction>; 3],
    committed: [bool; 3],
    aborted: [bool; 3],
}

impl Harness {
    fn new(level: IsolationLevel) -> Self {
        let db = Database::open(Options::default().with_isolation(level).with_history());
        let table = db.create_table("t").unwrap();
        let mut setup = db.begin();
        setup.put(&table, b"x", b"0").unwrap();
        setup.put(&table, b"y", b"0").unwrap();
        setup.put(&table, b"z", b"0").unwrap();
        setup.commit().unwrap();
        let txns = [Some(db.begin()), Some(db.begin()), Some(db.begin())];
        Harness {
            db,
            table,
            txns,
            committed: [false; 3],
            aborted: [false; 3],
        }
    }

    /// Every transaction has two operations plus a commit:
    /// Tin = [r(x), r(z)], Tpivot = [r(y), w(x)], Tout = [w(y), w(z)].
    fn ops(_txn: usize) -> usize {
        3
    }

    fn step(&mut self, txn: usize, step_no: usize) {
        if self.aborted[txn] {
            return;
        }
        let Some(handle) = self.txns[txn].as_mut() else {
            return;
        };
        let result = match (txn, step_no) {
            (0, 0) => handle.get(&self.table, b"x").map(|_| ()),
            (0, 1) => handle.get(&self.table, b"z").map(|_| ()),
            (1, 0) => handle.get(&self.table, b"y").map(|_| ()),
            (1, 1) => handle.put(&self.table, b"x", b"2"),
            (2, 0) => handle.put(&self.table, b"y", b"3"),
            (2, 1) => handle.put(&self.table, b"z", b"3"),
            // Final step: commit.
            _ => {
                let handle = self.txns[txn].take().unwrap();
                match handle.commit() {
                    Ok(()) => {
                        self.committed[txn] = true;
                        return;
                    }
                    Err(_) => {
                        self.aborted[txn] = true;
                        return;
                    }
                }
            }
        };
        if result.is_err() {
            self.aborted[txn] = true;
            self.txns[txn] = None;
        }
    }

    fn run(mut self, schedule: &Schedule) -> ([bool; 3], MvsgReport) {
        let mut progress = [0usize; 3];
        for &txn in schedule {
            self.step(txn, progress[txn]);
            progress[txn] += 1;
        }
        // Drop any transaction that could not finish (aborted mid-way).
        for slot in &mut self.txns {
            if let Some(handle) = slot.take() {
                handle.rollback();
            }
        }
        let report = self.db.history().unwrap().analyze();
        (self.committed, report)
    }
}

#[test]
fn every_interleaving_committed_under_ssi_is_serializable() {
    let schedules = interleavings([Harness::ops(0), Harness::ops(1), Harness::ops(2)]);
    assert_eq!(schedules.len(), 1680, "3 transactions with 3 slots each");
    let mut aborted_some = 0usize;
    for schedule in &schedules {
        let harness = Harness::new(IsolationLevel::SerializableSnapshotIsolation);
        let (committed, report) = harness.run(schedule);
        assert!(
            report.is_serializable(),
            "non-serializable execution committed under SSI: schedule {schedule:?}, \
             committed {committed:?}, cycle {:?}",
            report.cycle
        );
        if committed.iter().any(|c| !c) {
            aborted_some += 1;
        }
    }
    // Sanity on both sides: SSI must abort something (the non-serializable
    // interleavings exist) but must not abort everything (most interleavings
    // are serializable; false positives are allowed but bounded).
    assert!(aborted_some > 0, "SSI never aborted anything");
    assert!(
        aborted_some < schedules.len(),
        "SSI aborted something in every one of the {} interleavings",
        schedules.len()
    );
}

#[test]
fn si_commits_every_interleaving_including_nonserializable_ones() {
    let schedules = interleavings([Harness::ops(0), Harness::ops(1), Harness::ops(2)]);
    let mut nonserializable = 0usize;
    for schedule in &schedules {
        let harness = Harness::new(IsolationLevel::SnapshotIsolation);
        let (committed, report) = harness.run(schedule);
        // Under plain SI nothing in this set ever conflicts on writes, so
        // every transaction commits in every interleaving.
        assert_eq!(committed, [true, true, true], "schedule {schedule:?}");
        if !report.is_serializable() {
            nonserializable += 1;
        }
    }
    assert!(
        nonserializable > 0,
        "at least one interleaving must be non-serializable (that is the point \
         of the example)"
    );
}

#[test]
fn s2pl_never_commits_a_nonserializable_interleaving() {
    // S2PL blocks instead of aborting, and this harness is single-threaded,
    // so a blocked operation would hang; use a short lock timeout and treat
    // timeouts as aborts.
    let schedules = interleavings([Harness::ops(0), Harness::ops(1), Harness::ops(2)]);
    for schedule in schedules.iter().step_by(7) {
        let mut options = Options::default()
            .with_isolation(IsolationLevel::StrictTwoPhaseLocking)
            .with_history();
        options.lock.wait_timeout = std::time::Duration::from_millis(50);
        let db = Database::open(options);
        let table = db.create_table("t").unwrap();
        let mut setup = db.begin();
        setup.put(&table, b"x", b"0").unwrap();
        setup.put(&table, b"y", b"0").unwrap();
        setup.commit().unwrap();
        let mut harness = Harness {
            db,
            table,
            txns: [None, None, None],
            committed: [false; 3],
            aborted: [false; 3],
        };
        harness.txns = [
            Some(harness.db.begin()),
            Some(harness.db.begin()),
            Some(harness.db.begin()),
        ];
        let (_committed, report) = harness.run(schedule);
        assert!(report.is_serializable(), "schedule {schedule:?}");
    }
}

// ---------------------------------------------------------------------------
// Row-SIREAD choreography
// ---------------------------------------------------------------------------
//
// Under Serializable SI a row's SIREAD is a registration on the row's version
// chain, made by the read and found by the install of the row's next version
// (`ssi_storage::table`, § SIREAD on the row). The lock table no longer sits
// between the two, so each interleaving in which it used to be the one to
// notice gets a test of its own. Every case is the same write skew around a
// contested row `m` and a plain row `a`,
//
//   R: r(m) w(a)        W: r(a) w(m)
//
// run once per SSI variant. The edge R → W on `m` is the choreographed one: it
// must be found (W's incoming-conflict flag, checked while R → W is still the
// only edge W can have), and with W → R on `a` closing the cycle one of the
// two must abort. The committed history is verified besides.

/// What the SIREAD choreographies below share.
mod choreography {
    use serializable_si::{Database, Options, SsiOptions, SsiVariant, TableRef, TxnId};

    pub const VARIANTS: [SsiVariant; 2] = [SsiVariant::Basic, SsiVariant::Enhanced];

    /// A table holding `a`, `z` and whatever `rows` adds.
    pub fn open(variant: SsiVariant, rows: &[&[u8]]) -> (Database, TableRef) {
        let db = Database::open(Options {
            ssi: SsiOptions {
                variant,
                ..SsiOptions::default()
            },
            ..Options::default().with_history()
        });
        let table = db.create_table("t").unwrap();
        let mut load = db.begin();
        for key in [b"a" as &[u8], b"z"].iter().chain(rows) {
            load.put(&table, key, b"0").unwrap();
        }
        load.commit().unwrap();
        (db, table)
    }

    pub fn has_incoming_conflict(db: &Database, id: TxnId) -> bool {
        let txn = db.transaction_manager().find(id).expect("still active");
        txn.conflict_flags().0
    }
}

mod row_siread {
    use std::sync::Barrier;

    use serializable_si::{Database, FieldKind, IndexKeyPart, IndexKeySpec, TableRef, Transaction};

    use super::choreography::{has_incoming_conflict, open, VARIANTS};

    /// W → R on `a` (W has read it), both commits, and the verdict.
    fn close_the_cycle(db: &Database, table: &TableRef, mut r: Transaction, w: Transaction) {
        let r_done = r.put(table, b"a", b"r").and_then(|()| r.commit());
        let w_done = w.commit();
        assert!(
            r_done.is_err() || w_done.is_err(),
            "write skew committed: the cycle R -> W -> R went unnoticed"
        );
        let report = db.history().unwrap().analyze();
        assert!(report.is_serializable(), "cycle {:?}", report.cycle);
        // Nothing is left behind once both are gone.
        db.transaction_manager()
            .cleanup_suspended(db.lock_manager());
        assert_eq!(db.lock_manager().grant_count(), 0);
        assert_eq!(db.siread_holder_count(), 0);
    }

    /// (a) The reader registers between the writer's EXCLUSIVE grant and its
    /// install. The writer is held there on a unique index's marker lock: its
    /// update of `m` claims an index key that a blocker has claimed too,
    /// uncommitted, and rolls back once the reader is done.
    #[test]
    fn reader_between_the_writers_lock_and_its_install() {
        for variant in VARIANTS {
            let (db, table) = open(variant, &[b"m"]);
            // The loaded rows' values are too short to be indexed.
            let spec = IndexKeySpec {
                layout: vec![FieldKind::U32],
                parts: vec![IndexKeyPart::ValueField(0)],
            };
            db.create_index("t_by_number", &table, true, spec).unwrap();
            let claim = 7u32.to_le_bytes();
            let mut blocker = db.begin();
            blocker.put(&table, b"n", &claim).unwrap();

            let mut r = db.begin();
            let mut w = db.begin();
            w.get(&table, b"a").unwrap();
            let w_id = w.id();
            let waits = db.metrics().locks.waits;
            let w = std::thread::scope(|scope| {
                let updating = scope.spawn(|| {
                    w.put(&table, b"m", &claim).unwrap();
                    w
                });
                // The update holds EXCLUSIVE on `m` and waits for the marker.
                while db.metrics().locks.waits == waits {
                    std::thread::yield_now();
                }
                assert_eq!(r.get(&table, b"m").unwrap().as_deref(), Some(&b"0"[..]));
                assert!(!has_incoming_conflict(&db, w_id), "nothing installed yet");
                blocker.rollback();
                updating.join().unwrap()
            });
            assert!(
                has_incoming_conflict(&db, w_id),
                "{variant:?}: install missed R"
            );
            close_the_cycle(&db, &table, r, w);
        }
    }

    /// (b) The reader arrives after a `get_for_update` that later writes: the
    /// locking read's probe cannot know it, the install must.
    #[test]
    fn reader_after_a_locking_read_that_later_writes() {
        for variant in VARIANTS {
            let (db, table) = open(variant, &[b"m"]);
            let mut r = db.begin();
            let mut w = db.begin();
            w.get_for_update(&table, b"m").unwrap();
            r.get(&table, b"m").unwrap();
            assert!(!has_incoming_conflict(&db, w.id()));
            w.get(&table, b"a").unwrap();
            w.put(&table, b"m", b"w").unwrap();
            assert!(has_incoming_conflict(&db, w.id()), "{variant:?}");
            close_the_cycle(&db, &table, r, w);
        }
    }

    /// (c) The reader sees nothing under an uncommitted insert, the insert
    /// rolls back, and a second transaction inserts the key: the chain the
    /// reader registered on must still be the key's chain.
    #[test]
    fn reader_under_an_insert_that_rolls_back_before_another() {
        for variant in VARIANTS {
            let (db, table) = open(variant, &[]);
            let mut first = db.begin();
            first.put(&table, b"m", b"first").unwrap();
            let mut r = db.begin();
            assert_eq!(r.get(&table, b"m").unwrap(), None);
            first.rollback();
            assert_eq!(table.version_count(), 2, "only `a` and `z` hold a version");
            assert_eq!(table.key_count(), 3, "`m` stays mapped for its reader");

            let mut w = db.begin();
            w.get(&table, b"a").unwrap();
            w.put(&table, b"m", b"second").unwrap();
            assert!(has_incoming_conflict(&db, w.id()), "{variant:?}");
            close_the_cycle(&db, &table, r, w);
        }
    }

    /// (d) The reader sees a tombstone, a purge pass runs at a horizon above
    /// it, and the key is inserted again.
    #[test]
    fn reader_of_a_tombstone_that_a_purge_pass_would_take() {
        for variant in VARIANTS {
            let (db, table) = open(variant, &[b"m"]);
            let mut gone = db.begin();
            gone.delete(&table, b"m").unwrap();
            gone.commit().unwrap();

            let mut r = db.begin();
            assert_eq!(r.get(&table, b"m").unwrap(), None);
            let pass = db.purge();
            assert!(pass.horizon >= r.snapshot_ts().unwrap());
            assert_eq!(pass.chains, 0, "the key has a reader");
            assert_eq!(table.key_count(), 3);

            let mut w = db.begin();
            w.get(&table, b"a").unwrap();
            w.put(&table, b"m", b"again").unwrap();
            assert!(has_incoming_conflict(&db, w.id()), "{variant:?}");
            close_the_cycle(&db, &table, r, w);
        }
    }

    /// (e) A `get` of a missing key against the key's first insert. A key
    /// with no chain has nothing to register on, so the read leaves its
    /// SIREAD in the lock table, where the insert's EXCLUSIVE request finds
    /// it; then the two are raced for real and the history verified.
    #[test]
    fn reader_of_a_missing_key_and_the_keys_first_insert() {
        for variant in VARIANTS {
            let (db, table) = open(variant, &[]);
            let mut r = db.begin();
            assert_eq!(r.get(&table, b"m").unwrap(), None);
            assert_eq!(db.siread_holder_count(), 0);
            assert_eq!(db.lock_manager().grant_count(), 1, "the fallback SIREAD");
            let mut w = db.begin();
            w.get(&table, b"a").unwrap();
            w.put(&table, b"m", b"w").unwrap();
            assert!(has_incoming_conflict(&db, w.id()), "{variant:?}");
            close_the_cycle(&db, &table, r, w);

            const ROUNDS: u64 = 300;
            let mut load = db.begin();
            for i in 0..ROUNDS {
                load.put(&table, &plain(i), b"0").unwrap();
            }
            load.commit().unwrap();
            let start = Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for i in 0..ROUNDS {
                        start.wait();
                        let mut r = db.begin();
                        let _ = r
                            .get(&table, &missing(i))
                            .and_then(|_| r.put(&table, &plain(i), b"r"))
                            .and_then(|()| r.commit());
                    }
                });
                for i in 0..ROUNDS {
                    start.wait();
                    let mut w = db.begin();
                    let _ = w
                        .get(&table, &plain(i))
                        .and_then(|_| w.put(&table, &missing(i), b"w"))
                        .and_then(|()| w.commit());
                }
            });
            let report = db.history().unwrap().analyze();
            assert!(report.is_serializable(), "cycle {:?}", report.cycle);
            db.transaction_manager()
                .cleanup_suspended(db.lock_manager());
            assert_eq!(db.lock_manager().grant_count(), 0);
            assert_eq!(db.siread_holder_count(), 0);
        }
    }

    fn plain(i: u64) -> Vec<u8> {
        [b"p", &i.to_be_bytes()[..]].concat()
    }

    fn missing(i: u64) -> Vec<u8> {
        [b"q", &i.to_be_bytes()[..]].concat()
    }
}

// ---------------------------------------------------------------------------
// Range-SIREAD choreography
// ---------------------------------------------------------------------------
//
// A scan's SIREAD is its predicate: one registration of its bounds with the
// table, made before it lists a key, and found by every install of a version
// of a key between the bounds (`ssi_storage::table`, § Why scans stay
// consistent under SSI). The scanner registers, then lists, then reads; the
// writer makes its version reachable, then looks for ranges. Each order in
// which the two can meet gets a test of its own. Every case is a phantom
// write skew around a key `m` and a plain row `a`,
//
//   S: scan(t) w(a)        W: r(a) w(m)
//
// run once per SSI variant. The edge S → W through the range is the
// choreographed one; with W → S on `a` closing the cycle one of the two must
// abort. The committed history is verified besides.

mod range_siread {
    use std::ops::Bound;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Sender};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use serializable_si::{AbortKind, Database, IsolationLevel, TableRef, Transaction};

    use super::choreography::{has_incoming_conflict, open, VARIANTS};

    fn scan_all(txn: &mut Transaction, table: &TableRef) -> usize {
        let rows = txn.scan(table, Bound::Unbounded, Bound::Unbounded);
        rows.unwrap().len()
    }

    fn assert_nothing_left(db: &Database) {
        let report = db.history().unwrap().analyze();
        assert!(report.is_serializable(), "cycle {:?}", report.cycle);
        db.transaction_manager()
            .cleanup_suspended(db.lock_manager());
        assert_eq!(db.lock_manager().grant_count(), 0);
        assert_eq!(db.siread_holder_count(), 0);
        let held = db.metrics().txn;
        assert_eq!((held.siread_rows_now, held.siread_ranges_now), (0, 0));
    }

    /// W → S on `a` (W has read it), both commits, and the verdict.
    fn close_the_cycle(db: &Database, table: &TableRef, mut s: Transaction, w: Transaction) {
        let s_done = s.put(table, b"a", b"s").and_then(|()| s.commit());
        let w_done = w.commit();
        assert!(
            s_done.is_err() || w_done.is_err(),
            "phantom write skew committed: the cycle S -> W -> S went unnoticed"
        );
        assert_nothing_left(db);
    }

    /// (a) The insert links its key before the scan lists: the inserter
    /// cannot know the scan, which has not registered yet, so the scan has to
    /// find the key. It does by listing it: the key is on its page, and its
    /// read reports the creator of the version it cannot see.
    #[test]
    fn insert_that_links_before_the_scan_lists() {
        for variant in VARIANTS {
            let (db, table) = open(variant, &[]);
            let mut s = db.begin();
            let mut w = db.begin();
            w.get(&table, b"a").unwrap();
            w.put(&table, b"m", b"w").unwrap();
            assert!(!has_incoming_conflict(&db, w.id()), "nobody has scanned");
            assert_eq!(scan_all(&mut s, &table), 2, "`m` is not S's to see");
            assert!(has_incoming_conflict(&db, w.id()), "{variant:?}");
            assert_eq!(db.siread_holder_count(), 2, "S's range, W's read of `a`");
            close_the_cycle(&db, &table, s, w);
        }
    }

    /// (b) The scan registers first: the install is handed the scan — the
    /// first version of a new key by the critical section that links it, an
    /// update and a delete by the one that pushes onto the row's chain —
    /// without a lock-table entry or a registration on any chain. The
    /// writer's one lock request is its EXCLUSIVE lock on `m`.
    ///
    /// Guards `self.ranges.report_to(key, creator, &mut range_readers)` in
    /// `Table::install` (the insert) and in `Table::push_pruning` (the update
    /// and the delete): without it W's incoming-conflict flag stays clear.
    #[test]
    fn write_after_the_scan_registered() {
        type Write = fn(&mut Transaction, &TableRef) -> serializable_si::Result<()>;
        let writes: [(&str, &[&[u8]], Write); 3] = [
            ("insert", &[], |w, t| w.put(t, b"m", b"w")),
            ("update", &[b"m"], |w, t| w.put(t, b"m", b"w")),
            ("delete", &[b"m"], |w, t| w.delete(t, b"m")),
        ];
        for variant in VARIANTS {
            for (what, rows, write) in writes {
                let (db, table) = open(variant, rows);
                let mut s = db.begin();
                let mut w = db.begin();
                w.get(&table, b"a").unwrap();
                assert_eq!(scan_all(&mut s, &table), 2 + rows.len());
                assert_eq!(db.siread_holder_count(), 2, "S's range, W's read of `a`");
                let before = db.metrics();
                write(&mut w, &table).unwrap();
                assert!(has_incoming_conflict(&db, w.id()), "{variant:?} {what}");
                // The scan was found on the table's range list: all the lock
                // table saw is the writer's own EXCLUSIVE requests.
                let after = db.metrics();
                let requested = after.locks.requests - before.locks.requests;
                assert_eq!(requested, 1, "{variant:?} {what}");
                close_the_cycle(&db, &table, s, w);
                let registered = db.metrics().txn;
                assert_eq!(registered.siread_range_registrations, 1, "{what}");
            }
        }
    }

    /// Two threads meeting without going to sleep — whoever arrives second
    /// must not get a head start the length of a wake-up — and a handicap for
    /// one of them that sweeps, round by round, back and forth across the
    /// instant the race is about, so that the operations behind the meeting
    /// point collide there instead of passing each other by the width of a
    /// scheduling quantum.
    struct Race {
        arrived: AtomicUsize,
        /// Spins the writer is held back by; negative, the other side is.
        handicap: AtomicI64,
        /// Which way the handicap moves next round: turned around whenever
        /// the writer came clear of the other side's operation.
        drift: AtomicI64,
        /// Set when a side fails (see [`Race::side`]), so that the other does
        /// not wait at the next meeting for ever.
        abandoned: AtomicBool,
        started: Instant,
        /// When the writer's operation began and ended, in nanoseconds since
        /// `started`.
        wrote: [AtomicU64; 2],
    }

    /// How a round's two operations fell in time.
    #[derive(PartialEq)]
    enum Order {
        WriterFirst,
        Overlapped,
        WriterLast,
    }

    impl Race {
        fn new() -> Self {
            Race {
                arrived: AtomicUsize::new(0),
                handicap: AtomicI64::new(0),
                drift: AtomicI64::new(1),
                abandoned: AtomicBool::new(false),
                started: Instant::now(),
                wrote: [AtomicU64::new(0), AtomicU64::new(0)],
            }
        }

        fn now(&self) -> u64 {
            self.started.elapsed().as_nanos() as u64
        }

        /// The `nth` meeting (from 1) of the two. The first to arrive stays
        /// on its core for a while before it starts yielding: on a busy
        /// machine a thread that yields is gone for a quantum, and the other
        /// would be through its operation before it is back.
        fn meet(&self, nth: usize) {
            self.arrived.fetch_add(1, Ordering::SeqCst);
            let mut spins = 0u32;
            while self.arrived.load(Ordering::SeqCst) < 2 * nth {
                assert!(
                    !self.abandoned.load(Ordering::SeqCst),
                    "the other side failed"
                );
                if spins < 100_000 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }

        /// To be held by each side for as long as it takes part: a side that
        /// panics abandons the race on its way out.
        fn side(&self) -> impl Drop + '_ {
            struct Side<'a>(&'a Race);
            impl Drop for Side<'_> {
                fn drop(&mut self) {
                    if std::thread::panicking() {
                        self.0.abandoned.store(true, Ordering::SeqCst);
                    }
                }
            }
            Side(self)
        }

        fn hold_back(&self, writer: bool) {
            let handicap = self.handicap.load(Ordering::SeqCst);
            let spins = if writer { handicap } else { -handicap };
            for _ in 0..spins.max(0) {
                std::hint::spin_loop();
            }
        }

        /// The writer's side of a round: held back, then `write`, timed.
        fn write<T>(&self, write: impl FnOnce() -> T) -> T {
            self.hold_back(true);
            self.wrote[0].store(self.now(), Ordering::SeqCst);
            let done = write();
            self.wrote[1].store(self.now(), Ordering::SeqCst);
            done
        }

        /// The other side: held back, then `op`, and when it began and ended.
        fn against<T>(&self, op: impl FnOnce() -> T) -> (T, [u64; 2]) {
            self.hold_back(false);
            let began = self.now();
            let done = op();
            (done, [began, self.now()])
        }

        /// How a round fell, given when the other side's operation `began`
        /// and `ended`; to be asked once the writer is through as well. Moves
        /// the handicap on for the next round.
        fn fell(&self, [began, ended]: [u64; 2]) -> Order {
            let [wrote_from, wrote_to] = [&self.wrote[0], &self.wrote[1]];
            let order = if wrote_to.load(Ordering::SeqCst) < began {
                Order::WriterFirst
            } else if wrote_from.load(Ordering::SeqCst) > ended {
                Order::WriterLast
            } else {
                Order::Overlapped
            };
            match order {
                Order::WriterFirst => self.drift.store(1, Ordering::SeqCst),
                Order::WriterLast => self.drift.store(-1, Ordering::SeqCst),
                Order::Overlapped => {}
            }
            let step = 40 * self.drift.load(Ordering::SeqCst);
            self.handicap.fetch_add(step, Ordering::SeqCst);
            order
        }
    }

    /// (c) Scan against insert, raced for real over a three-page table, the
    /// insert swept through the scan from round to round: 300 rounds, and on
    /// until the two have overlapped. Wherever the link lands — before
    /// the scan registers, between its registration and the listing of the
    /// key's page, behind that listing — there is no second pass to rescue an
    /// order the first one missed, so no outcome may have both commit: the
    /// insert commits after the scan is over, the scan never sees the key, and
    /// W → S is on the row next to the new key.
    #[test]
    fn scan_raced_against_an_insert_into_its_range() {
        for variant in VARIANTS {
            const KEYS: usize = 300;
            const MAX_ROUNDS: usize = 3000;
            let (db, table) = open(variant, &[]);
            let mut load = db.begin();
            for i in 0..KEYS {
                load.put(&table, &plain(i), b"0").unwrap();
            }
            load.commit().unwrap();
            let race = Race::new();
            let (db, table, race) = (&db, &table, &race);
            let enough = AtomicUsize::new(usize::MAX);
            let mut overlapped = 0;
            std::thread::scope(|scope| {
                let enough = &enough;
                scope.spawn(move || {
                    let _side = race.side();
                    for i in 0..MAX_ROUNDS {
                        let mut w = db.begin();
                        w.get(table, &plain(i % KEYS)).unwrap();
                        race.meet(3 * i + 1);
                        let key = fresh(i % KEYS, i / KEYS);
                        let inserted = race.write(|| w.put(table, &key, b"w"));
                        race.meet(3 * i + 2);
                        let _ = inserted.and_then(|()| w.commit());
                        race.meet(3 * i + 3);
                        if enough.load(Ordering::SeqCst) == i {
                            break;
                        }
                    }
                });
                let _side = race.side();
                for i in 0..MAX_ROUNDS {
                    let mut s = db.begin();
                    race.meet(3 * i + 1);
                    let (seen, scanned) = race.against(|| scan_all(&mut s, table));
                    race.meet(3 * i + 2);
                    overlapped += usize::from(race.fell(scanned) == Order::Overlapped);
                    let done = i + 1 >= KEYS && overlapped > 0;
                    if done {
                        enough.store(i, Ordering::SeqCst);
                    }
                    race.meet(3 * i + 3);
                    let key = plain(i % KEYS);
                    let s_done = s.put(table, &key, b"s").and_then(|()| s.commit());
                    let w_committed = table_has(db, table, &fresh(i % KEYS, i / KEYS));
                    assert!(
                        s_done.is_err() || !w_committed,
                        "{variant:?} round {i}: S scanned {seen} rows without W's key, \
                         and both committed"
                    );
                    if done {
                        break;
                    }
                }
            });
            assert!(overlapped > 0, "{variant:?}: scan and insert never met");
            assert_nothing_left(db);
        }
    }

    /// (d) The scanner updates a row inside its own range. Its install walks
    /// the range list like any other and must not take the scanner for its
    /// own reader; and nothing about the write may cost it the range — there
    /// is no Sec. 3.7.3 upgrade for a predicate: first-committer-wins covers
    /// the next writer of that one row, the registration the rest. So the
    /// scanner still suspends at commit for the sake of its range, a
    /// concurrent writer of the row is stopped by first-committer-wins, and a
    /// concurrent insert elsewhere in the range still finds the scanner.
    ///
    /// Guards `sireads.ranges = std::mem::take(&mut self.siread_ranges)` in
    /// `Transaction::commit_inner`: without it the scanner holds nothing at
    /// commit, is not suspended, and W commits into its range unnoticed.
    #[test]
    fn scanner_that_updates_a_row_in_its_own_range_keeps_the_range() {
        for variant in VARIANTS {
            let (db, table) = open(variant, &[b"m"]);
            let mut s = db.begin();
            let mut w = db.begin();
            let mut rival = db.begin();
            assert_eq!(scan_all(&mut s, &table), 3);
            w.get(&table, b"m").unwrap();
            rival.get(&table, b"a").unwrap();
            assert_eq!(db.siread_holder_count(), 3, "a range and two point reads");
            s.put(&table, b"m", b"s").unwrap();
            let own = db.transaction_manager().find(s.id()).unwrap();
            assert_eq!(
                own.conflict_flags(),
                (true, false),
                "W -> S on `m`, no more"
            );
            assert_eq!(db.siread_holder_count(), 3, "S still holds its range");
            s.commit().unwrap();
            assert_eq!(db.transaction_manager().suspended_len(), 1);
            assert_eq!(db.metrics().txn.siread_ranges_now, 1);

            // The row itself: its next writer, concurrent with S, is
            // first-committer-wins' business.
            let err = rival.put(&table, b"m", b"rival").unwrap_err();
            assert_eq!(err.abort_kind(), Some(AbortKind::UpdateConflict), "{err}");
            // W -> S on `m` is there; S -> W through the range makes W a
            // pivot whose way out committed first.
            let w_id = w.id();
            let inserted = w.put(&table, b"f", b"w");
            assert!(
                inserted.is_err() || has_incoming_conflict(&db, w_id),
                "{variant:?}: the insert into the range missed the scanner"
            );
            let done = inserted.and_then(|()| w.commit());
            assert!(done.is_err(), "{variant:?}: S -> W -> S committed whole");
            assert_nothing_left(&db);
        }
    }

    /// (e) The holder is reclaimed while a writer is inside `install` on a
    /// key in its range. The writer either finds the range on the list and
    /// reports a holder that is gone from the registry by the time the
    /// conflict is marked, or finds the list without it. Nothing is handed
    /// from one to the other, so whichever way a round falls no registration
    /// is left, nothing panics and the table's range count is back to zero.
    /// 300 rounds, sweeping the write across the instant the holder lets go,
    /// and then one forced round of each order: the write done while the
    /// reclaiming commit is held in its horizon sweep, before it reclaims
    /// (the sweep pause hook), and the write done after that commit returned.
    ///
    /// Guards the `range.release()` pass over `entry.sireads.ranges` in
    /// `TransactionManager::reclaim_pass`: without it every round leaves S's
    /// range on the table.
    #[test]
    fn holder_reclaimed_while_a_writer_installs_into_its_range() {
        for variant in VARIANTS {
            const ROUNDS: usize = 300;
            let (db, table) = open(variant, &[]);
            let race = Race::new();
            let (mut writer_first, mut writer_last) = (0, 0);
            for i in 0..ROUNDS + 2 {
                // S commits and stays suspended for as long as `overlap`,
                // which began before S committed, is active.
                let mut overlap = db.begin_with(IsolationLevel::SnapshotIsolation);
                overlap.get(&table, b"a").unwrap();
                let mut s = db.begin();
                assert!(scan_all(&mut s, &table) >= 2);
                s.put(&table, b"a", b"s").unwrap();
                s.commit().unwrap();
                assert_eq!(db.transaction_manager().suspended_len(), 1);
                assert_eq!(db.siread_holder_count(), 1);
                // Began after S committed: not what keeps S suspended.
                let mut w = db.begin();
                let order = if i < ROUNDS {
                    std::thread::scope(|scope| {
                        let reclaiming = scope.spawn(|| {
                            let _side = race.side();
                            race.meet(i + 1);
                            // Its finish reclaims S.
                            race.against(|| overlap.commit().unwrap()).1
                        });
                        let _side = race.side();
                        race.meet(i + 1);
                        race.write(|| w.put(&table, &above(i), b"w").unwrap());
                        race.fell(reclaiming.join().unwrap())
                    })
                } else if i == ROUNDS {
                    // The first horizon sweep from here on reports that it
                    // is paused and waits to be let go.
                    let armed = AtomicBool::new(true);
                    let (paused, paused_rx) = channel::<Sender<()>>();
                    let paused = Mutex::new(paused);
                    let hook = move |_shard| {
                        if armed.swap(false, Ordering::SeqCst) {
                            let (resume, resume_rx) = channel();
                            paused.lock().unwrap().send(resume).unwrap();
                            resume_rx.recv().unwrap();
                        }
                    };
                    let manager = db.transaction_manager();
                    manager.set_sweep_pause_hook(Some(Arc::new(hook)));
                    std::thread::scope(|scope| {
                        let reclaiming = scope.spawn(|| overlap.commit().unwrap());
                        let resume = paused_rx
                            .recv_timeout(Duration::from_secs(10))
                            .expect("the reclaiming commit swept the horizon");
                        assert_eq!(db.siread_holder_count(), 1, "S is not reclaimed yet");
                        w.put(&table, &above(i), b"w").unwrap();
                        resume.send(()).unwrap();
                        reclaiming.join().unwrap();
                    });
                    manager.set_sweep_pause_hook(None);
                    Order::WriterFirst
                } else {
                    overlap.commit().unwrap();
                    assert_eq!(db.siread_holder_count(), 0, "S is reclaimed");
                    w.put(&table, &above(i), b"w").unwrap();
                    Order::WriterLast
                };
                w.commit().unwrap();
                writer_first += usize::from(order == Order::WriterFirst);
                writer_last += usize::from(order == Order::WriterLast);
                assert_eq!(db.transaction_manager().suspended_len(), 0);
                assert_eq!(db.siread_holder_count(), 0, "{variant:?} round {i}");
                let held = db.metrics().txn;
                assert_eq!(
                    (held.siread_rows_now, held.siread_ranges_now),
                    (0, 0),
                    "{variant:?} round {i}"
                );
            }
            // The rounds crossed the instant they aim at, both ways.
            assert!(
                writer_first > 0 && writer_last > 0,
                "{variant:?}: {writer_first} before, {writer_last} after"
            );
            assert_nothing_left(&db);
        }
    }

    fn table_has(db: &Database, table: &TableRef, key: &[u8]) -> bool {
        let mut check = db.begin_with(IsolationLevel::SnapshotIsolation);
        check.get(table, key).unwrap().is_some()
    }

    fn plain(i: usize) -> Vec<u8> {
        [b"p", &i.to_be_bytes()[..]].concat()
    }

    /// Right behind `plain(i)` and every `fresh(i, _)` before it.
    fn fresh(i: usize, lap: usize) -> Vec<u8> {
        [b"p", &i.to_be_bytes()[..], b"+", &lap.to_be_bytes()[..]].concat()
    }

    /// Above `z` and every `above` before it.
    fn above(i: usize) -> Vec<u8> {
        [b"zz", &i.to_be_bytes()[..]].concat()
    }
}

// ---------------------------------------------------------------------------
// Shared-range choreography
// ---------------------------------------------------------------------------
//
// An S2PL scan registers its bounds as a blocking range (`ssi_storage::range`)
// before it lists anything. A write that links a key new to the table, or an
// entry new to an index, into the range undoes its install, waits for the
// scanner through the lock manager and installs again; nothing else about a
// write ever waits on a range. Every case runs twice: over a table's keys and
// over an index's entries.

mod shared_range {
    use std::ops::Bound;

    use serializable_si::{
        AbortReason, Database, FieldKind, IndexKeyPart, IndexKeySpec, IndexRef, IsolationLevel,
        Options, TableRef, Transaction,
    };

    /// Where the scans' predicate lives.
    #[derive(Clone, Copy, Debug)]
    enum Space {
        Rows,
        Entries,
    }

    const SPACES: [Space; 2] = [Space::Rows, Space::Entries];

    /// Row `n` has key `row(n)` and value `n`, which the index extracts, so
    /// `[lo, hi]` is a range of keys and of entries alike.
    struct World {
        db: Database,
        table: TableRef,
        index: IndexRef,
    }

    fn open() -> World {
        let db = Database::open(Options::default().with_history());
        let table = db.create_table("t").unwrap();
        let spec = IndexKeySpec {
            layout: vec![FieldKind::U32],
            parts: vec![IndexKeyPart::ValueField(0)],
        };
        let index = db.create_index("t_by_number", &table, false, spec).unwrap();
        let mut load = db.begin();
        for n in [10, 20, 30] {
            load.put(&table, &row(n), &n.to_le_bytes()).unwrap();
        }
        load.commit().unwrap();
        World { db, table, index }
    }

    fn row(n: u32) -> Vec<u8> {
        format!("r{n:03}").into_bytes()
    }

    impl World {
        /// The keys of the rows in `[lo, hi]`.
        fn scan(
            &self,
            txn: &mut Transaction,
            space: Space,
            [lo, hi]: [u32; 2],
        ) -> serializable_si::Result<Vec<Vec<u8>>> {
            let rows = match space {
                Space::Rows => {
                    let (lo, hi) = (row(lo), row(hi));
                    txn.scan(&self.table, Bound::Included(&lo), Bound::Included(&hi))
                }
                Space::Entries => {
                    let (lo, hi) = (lo.to_be_bytes(), hi.to_be_bytes());
                    txn.index_scan(&self.index, Bound::Included(&lo), Bound::Included(&hi))
                }
            };
            Ok(rows?.into_iter().map(|(key, _)| key).collect())
        }

        fn insert(&self, txn: &mut Transaction, n: u32) -> serializable_si::Result<()> {
            txn.put(&self.table, &row(n), &n.to_le_bytes())
        }

        fn has(&self, n: u32) -> bool {
            let mut check = self.db.begin_with(IsolationLevel::SnapshotIsolation);
            check.get(&self.table, &row(n)).unwrap().is_some()
        }

        fn assert_nothing_left(&self) {
            let report = self.db.history().unwrap().analyze();
            assert!(report.is_serializable(), "cycle {:?}", report.cycle);
            self.db
                .transaction_manager()
                .cleanup_suspended(self.db.lock_manager());
            assert_eq!(self.db.lock_manager().grant_count(), 0);
            assert_eq!(self.db.siread_holder_count(), 0);
        }
    }

    /// An insert into a live `Shared` range — at any level — waits with
    /// nothing of it in storage: the table holds neither the key nor a
    /// version, and an SI reader sees none. The scanner lists its range again
    /// meanwhile, finds what it found before and does not wait: a writer
    /// that waited with its version linked would be on that listing, and the
    /// scanner would wait for its EXCLUSIVE lock while it waits for the
    /// scanner. The insert installs once the scanner commits.
    #[test]
    fn an_insert_into_a_shared_range_waits_with_nothing_installed() {
        let levels = [
            IsolationLevel::ReadCommitted,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::SerializableSnapshotIsolation,
            IsolationLevel::StrictTwoPhaseLocking,
        ];
        for space in SPACES {
            for level in levels {
                let world = open();
                let (db, table) = (&world.db, &world.table);
                let mut s = db.begin_with(IsolationLevel::StrictTwoPhaseLocking);
                let seen = world.scan(&mut s, space, [10, 29]).unwrap();
                assert_eq!(seen, [row(10), row(20)]);
                let mut w = db.begin_with(level);
                let stored = (table.key_count(), table.version_count());
                let waits = db.metrics().locks.waits;
                std::thread::scope(|scope| {
                    let inserting = scope.spawn(|| {
                        world.insert(&mut w, 15).unwrap();
                        w
                    });
                    while db.metrics().locks.waits == waits && !inserting.is_finished() {
                        std::thread::yield_now();
                    }
                    assert!(
                        !inserting.is_finished(),
                        "{space:?} {level:?}: did not wait"
                    );
                    let now = (table.key_count(), table.version_count());
                    assert_eq!(now, stored, "{space:?} {level:?}: installed while waiting");
                    let mut reader = db.begin_with(IsolationLevel::SnapshotIsolation);
                    assert_eq!(reader.get(table, &row(15)).unwrap(), None);
                    let again = world.scan(&mut s, space, [10, 29]).unwrap();
                    assert_eq!(again, seen, "{space:?} {level:?}: a phantom");
                    s.commit().unwrap();
                    inserting.join().unwrap().commit().unwrap();
                });
                assert!(world.has(15), "{space:?} {level:?}");
                assert_eq!(db.metrics().locks.deadlocks, 0);
                world.assert_nothing_left();
            }
        }
    }

    /// A key whose chain a reader keeps mapped without a version — what an
    /// SSI point read leaves when it lands between an insert's link and its
    /// undo, reached here through a rolled-back insert the reader saw. The
    /// scan lists that chain and skips it without a lock, and a push onto it
    /// links the key into the range. The first inserter waits for the scanner
    /// while the scanner waits for it, and is the deadlock's victim; the
    /// second still waits, with nothing installed, and the scanner lists its
    /// range again without a phantom and without waiting.
    #[test]
    fn an_insert_onto_a_chain_a_reader_keeps_without_a_version_waits() {
        for space in SPACES {
            let world = open();
            let (db, table) = (&world.db, &world.table);
            let mut rolled_back = db.begin_with(IsolationLevel::SnapshotIsolation);
            world.insert(&mut rolled_back, 15).unwrap();
            let mut reader = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            assert_eq!(reader.get(table, &row(15)).unwrap(), None);
            rolled_back.rollback();
            let stored = (table.key_count(), table.version_count());
            assert_eq!(stored, (4, 3), "`15` stays mapped, with no version");

            let mut s = db.begin_with(IsolationLevel::StrictTwoPhaseLocking);
            let requests = db.metrics().locks.requests;
            let seen = world.scan(&mut s, space, [10, 29]).unwrap();
            assert_eq!(seen, [row(10), row(20)]);
            let requests = db.metrics().locks.requests - requests;
            assert_eq!(requests, 3, "{space:?}: two rows and the wait target");

            let mut first = db.begin_with(IsolationLevel::ReadCommitted);
            first.put(table, &row(30), b"first").unwrap();
            let before = db.metrics().locks;
            std::thread::scope(|scope| {
                let scanner = scope.spawn(|| {
                    s.get(table, &row(30)).unwrap();
                    s
                });
                while db.metrics().locks.waits == before.waits {
                    std::thread::yield_now();
                }
                let err = world.insert(&mut first, 15).unwrap_err();
                assert_eq!(
                    err.abort_reason(),
                    Some(AbortReason::LockDeadlock),
                    "{space:?}: {err}"
                );
                drop(first);
                let mut s = scanner.join().unwrap();

                let mut second = db.begin_with(IsolationLevel::SnapshotIsolation);
                let waits = db.metrics().locks.waits;
                let inserting = scope.spawn(|| {
                    world.insert(&mut second, 15).unwrap();
                    second
                });
                while db.metrics().locks.waits == waits && !inserting.is_finished() {
                    std::thread::yield_now();
                }
                assert!(!inserting.is_finished(), "{space:?}: did not wait");
                let now = (table.key_count(), table.version_count());
                assert_eq!(now, stored, "{space:?}: installed while waiting");
                let mut si = db.begin_with(IsolationLevel::SnapshotIsolation);
                assert_eq!(si.get(table, &row(15)).unwrap(), None);
                let again = world.scan(&mut s, space, [10, 29]).unwrap();
                assert_eq!(again, seen, "{space:?}: a phantom");
                s.commit().unwrap();
                inserting.join().unwrap().commit().unwrap();
            });
            assert!(world.has(15), "{space:?}");
            let after = db.metrics().locks;
            assert_eq!(after.deadlocks - before.deadlocks, 1, "{space:?}");
            assert_eq!(after.timeouts, 0);
            reader.commit().unwrap();
            world.assert_nothing_left();
        }
    }

    /// Two S2PL scans of two ranges, then each inserts into the other's: the
    /// second insert closes the wait-for cycle and is the one `lock-deadlock`;
    /// the first installs once its victim has let go and commits.
    #[test]
    fn crossed_scans_and_inserts_deadlock_once() {
        for space in SPACES {
            let world = open();
            let db = &world.db;
            let mut s1 = db.begin_with(IsolationLevel::StrictTwoPhaseLocking);
            let mut s2 = db.begin_with(IsolationLevel::StrictTwoPhaseLocking);
            assert_eq!(world.scan(&mut s1, space, [10, 19]).unwrap(), [row(10)]);
            assert_eq!(world.scan(&mut s2, space, [20, 29]).unwrap(), [row(20)]);
            let before = db.metrics().locks;
            std::thread::scope(|scope| {
                let first = scope.spawn(|| {
                    world.insert(&mut s1, 25).unwrap();
                    s1
                });
                while db.metrics().locks.waits == before.waits && !first.is_finished() {
                    std::thread::yield_now();
                }
                assert!(
                    !first.is_finished(),
                    "{space:?}: the first insert did not wait"
                );
                let err = world.insert(&mut s2, 15).unwrap_err();
                assert_eq!(
                    err.abort_reason(),
                    Some(AbortReason::LockDeadlock),
                    "{space:?}: {err}"
                );
                drop(s2);
                first.join().unwrap().commit().unwrap();
            });
            let after = db.metrics().locks;
            assert_eq!(after.deadlocks - before.deadlocks, 1, "{space:?}");
            assert_eq!(after.timeouts, 0);
            assert!(world.has(25) && !world.has(15), "{space:?}");
            world.assert_nothing_left();
        }
    }
}
