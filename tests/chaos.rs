//! Chaos net: the full engine driven over a fault-injecting storage layer.
//!
//! Every scenario opens a real `Database` on a [`FaultVfs`] with a scripted
//! (or seeded) schedule of disk failures and asserts the durability
//! contract end to end:
//!
//! * **no acknowledged commit is ever lost** — an `Ok` from `commit()` in
//!   group-commit mode means the record was fsynced; after any fault
//!   schedule plus a clean reopen, every acknowledged key must be present;
//! * **the log is fail-stop** — the first failed append, segment creation
//!   or fsync, transient or not, degrades the database: `Degraded{OutOfSpace}`
//!   for ENOSPC, `Degraded{WalPoisoned}` otherwise. The committer gets a
//!   durability error, snapshot reads keep serving, writers fail fast with
//!   the typed [`Error::Degraded`], and a reopen is healthy again with the
//!   acknowledged prefix;
//! * **no segment is fsynced after a failed fsync** — not even by a later
//!   checkpoint's rotation;
//! * **a panicking flush leader degrades, never hangs** — committers
//!   parked behind it are woken with an error.
//!
//! The seeded net (`seeded_fault_schedules_*`) generates random fault
//! schedules from `CHAOS_SEEDS` (comma-separated u64 list; a fixed default
//! otherwise) and checks a SmallBank-style invariant: transfers conserve
//! the total balance, so *any* recovered state must sum to the initial
//! total. On failure it prints the seed, the injected-event log and the
//! exact reproduction command.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serializable_si::wal::{StdVfs, Vfs, VfsFile};
use serializable_si::{
    Database, DbHealth, DegradedReason, Durability, Error, FaultMode, FaultOp, FaultRule, FaultVfs,
    IsolationLevel, Options, TableRef,
};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ssi-chaos-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Group-commit options over the given fault-injecting VFS.
fn faulty_options(dir: &std::path::Path, fault: &FaultVfs) -> Options {
    Options::default()
        .with_durability(Durability::GroupCommit, dir)
        .with_vfs(fault.handle())
}

/// Reopens the directory on the production VFS (no faults) and returns the
/// database — the "replace the broken disk" step of every scenario.
fn reopen_clean(dir: &std::path::Path) -> Database {
    Database::open(Options::default().with_durability(Durability::GroupCommit, dir))
}

#[test]
fn clean_path_keeps_every_fault_counter_at_zero() {
    // Contract for the observability counters: a fault-free run (even
    // through a FaultVfs with no rules) costs zero — no observed faults, no
    // degraded transitions, nothing injected — in both logging modes, with
    // eight writers committing at once (the fail-stop log would degrade on
    // its first failure).
    const WRITERS: u64 = 8;
    const COMMITS: u64 = 40;
    for mode in [Durability::GroupCommit, Durability::Buffered] {
        let dir = temp_dir("clean");
        let fault = FaultVfs::new(vec![]);
        let options = Options::default()
            .with_durability(mode, &dir)
            .with_vfs(fault.handle());
        let db = Database::open(options);
        let t = db.create_table("t").unwrap();
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (db, t) = (&db, &t);
                // Disjoint fresh keys: no transaction can abort.
                s.spawn(move || {
                    for i in 0..COMMITS {
                        put_one(db, t, w << 32 | i, b"v").unwrap();
                    }
                });
            }
        });
        assert_eq!(db.health(), DbHealth::Healthy, "{mode:?}");
        let stats = db.transaction_manager().stats();
        assert_eq!(stats.degraded_transitions.load(Ordering::Relaxed), 0);
        let wal = db.durability_stats().unwrap();
        assert_eq!(wal.io_failures.load(Ordering::Relaxed), 0, "{mode:?}");
        assert!(wal.records.load(Ordering::Relaxed) >= WRITERS * COMMITS);
        assert_eq!(fault.injected(), 0);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Commits `k -> value` in one transaction.
fn put_one(db: &Database, t: &TableRef, k: u64, value: &[u8]) -> serializable_si::Result<()> {
    let mut txn = db.begin();
    txn.put(t, &k.to_be_bytes(), value)?;
    txn.commit()
}

/// Reopens `dir` cleanly and asserts that keys `0..n` of table `t` are
/// all present: nothing acknowledged was lost.
fn assert_acked_survive_reopen(dir: &Path, n: u64) {
    let db = reopen_clean(dir);
    assert_eq!(db.health(), DbHealth::Healthy);
    let t = db.table("t").unwrap();
    let mut check = db.begin_read_only();
    for k in 0..n {
        assert!(
            check.get(&t, &k.to_be_bytes()).unwrap().is_some(),
            "acknowledged key {k} lost"
        );
    }
    check.commit().unwrap();
    put_one(&db, &t, n, b"after reopen").expect("a reopened database takes writes");
}

#[test]
fn one_transient_fsync_fault_degrades_and_the_acked_prefix_survives_reopen() {
    // A single interrupted fsync of the log segment. Nothing retries it:
    // the committer gets the durability error, the database degrades as
    // WalPoisoned and writers fail fast, and a reopen recovers every
    // earlier acknowledged commit.
    let dir = temp_dir("transient");
    let fault = FaultVfs::new(vec![]);
    let db = Database::open(faulty_options(&dir, &fault));
    let t = db.create_table("t").unwrap();
    for k in 0..5u64 {
        put_one(&db, &t, k, b"acked").unwrap();
    }
    fault.add_rule(
        FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailOnce,
            io::ErrorKind::Interrupted,
        )
        .on_path("segment-"),
    );
    let err = put_one(&db, &t, 5, b"v").unwrap_err();
    assert!(matches!(err, Error::Durability(_)), "got {err:?}");
    assert_eq!(
        db.health(),
        DbHealth::Degraded {
            reason: DegradedReason::WalPoisoned
        }
    );
    let err = db.begin().put(&t, b"rejected", b"v").unwrap_err();
    assert!(
        matches!(err, Error::Degraded(DegradedReason::WalPoisoned)),
        "got {err:?}"
    );
    assert_eq!(fault.injected(), 1);
    let wal = db.durability_stats().unwrap();
    assert_eq!(wal.io_failures.load(Ordering::Relaxed), 1);
    drop(db);
    assert_acked_survive_reopen(&dir, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_fatal_fsync_degrades_reads_serve_writes_fail_typed() {
    // A disk that permanently fails fsync: commits acknowledged before the
    // fault survive, the database degrades (one-way), snapshot reads keep
    // serving the committed prefix, and new writers fail fast with the
    // typed degradation error instead of hanging or corrupting.
    let dir = temp_dir("fatal");
    let fault = FaultVfs::new(vec![]);
    let db = Database::open(faulty_options(&dir, &fault));
    let t = db.create_table("t").unwrap();
    for k in 0..5u64 {
        let mut txn = db.begin();
        txn.put(&t, &k.to_be_bytes(), b"acked").unwrap();
        txn.commit().unwrap();
    }

    // The disk dies: every further segment fsync fails, so the first
    // flush pass poisons the log.
    fault.add_rule(
        FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailAlways,
            std::io::ErrorKind::Other,
        )
        .on_path("segment-"),
    );
    let mut txn = db.begin();
    txn.put(&t, b"doomed", b"v").unwrap();
    let err = txn.commit().unwrap_err();
    assert!(
        matches!(err, Error::Durability(_)),
        "the in-flight committer gets the durability error, got {err:?}"
    );

    assert_eq!(
        db.health(),
        DbHealth::Degraded {
            reason: DegradedReason::WalPoisoned
        }
    );
    let stats = db.transaction_manager().stats();
    assert_eq!(stats.degraded_transitions.load(Ordering::Relaxed), 1);

    // Reads keep serving the committed prefix.
    let mut read = db.begin_read_only();
    for k in 0..5u64 {
        assert_eq!(
            read.get(&t, &k.to_be_bytes()).unwrap().as_deref(),
            Some(b"acked".as_slice())
        );
    }
    read.commit().unwrap();

    // Writers fail fast with the typed error — before taking any locks.
    let mut writer = db.begin();
    let err = writer.put(&t, b"rejected", b"v").unwrap_err();
    assert!(
        matches!(err, Error::Degraded(DegradedReason::WalPoisoned)),
        "a degraded database must reject writes with the typed error, got {err:?}"
    );
    drop(writer);
    drop(db);

    // "Replace the disk": every acknowledged commit is still there.
    let db = reopen_clean(&dir);
    let t = db.table("t").unwrap();
    let mut check = db.begin_read_only();
    for k in 0..5u64 {
        assert!(
            check.get(&t, &k.to_be_bytes()).unwrap().is_some(),
            "acknowledged key {k} lost after fatal-fault run"
        );
    }
    check.commit().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_on_append_degrades_out_of_space_and_a_cleared_disk_reopens_healthy() {
    // A byte-budgeted log volume: once cumulative writes exceed the budget,
    // segment appends fail with StorageFull. The first such append
    // degrades the database as out of space. Once the disk has room again
    // (the rules cleared), a reopen on the same VFS is healthy and every
    // hot key holds its last acknowledged value.
    let dir = temp_dir("enospc");
    let fault = FaultVfs::new(vec![FaultRule::new(
        FaultOp::Write,
        FaultMode::NoSpaceAfter { bytes: 8192 },
        io::ErrorKind::StorageFull,
    )
    .on_path("segment-")]);
    let db = Database::open(faulty_options(&dir, &fault));
    let t = db.create_table("t").unwrap();
    let mut acked = [None; 4];
    for i in 0..400u64 {
        match put_one(&db, &t, i % 4, &i.to_be_bytes()) {
            Ok(()) => acked[(i % 4) as usize] = Some(i),
            Err(e) => {
                assert!(matches!(e, Error::Durability(_)), "got {e:?}");
                break;
            }
        }
    }
    assert!(fault.injected() >= 1, "the budget never depleted");
    assert_eq!(
        db.health(),
        DbHealth::Degraded {
            reason: DegradedReason::OutOfSpace
        }
    );
    let err = db.begin().put(&t, b"rejected", b"v").unwrap_err();
    assert!(
        matches!(err, Error::Degraded(DegradedReason::OutOfSpace)),
        "got {err:?}"
    );
    drop(db);

    fault.clear_rules();
    let db = Database::open(faulty_options(&dir, &fault));
    assert_eq!(db.health(), DbHealth::Healthy);
    let t = db.table("t").unwrap();
    let mut check = db.begin_read_only();
    for (k, last) in acked.iter().enumerate() {
        let got = check.get(&t, &(k as u64).to_be_bytes()).unwrap();
        assert_eq!(
            got.as_deref(),
            last.map(u64::to_be_bytes).as_ref().map(|v| v.as_slice()),
            "hot key {k} must hold its last acknowledged value"
        );
    }
    check.commit().unwrap();
    put_one(&db, &t, 0, b"after reopen").unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn enospc_on_fsync_degrades_out_of_space_and_checkpoint_never_refsyncs() {
    // The leader's fsync of segment 1 fails with ENOSPC: the database
    // degrades as out of space. A checkpoint afterwards must fail without
    // fsyncing segment 1 again (a second fsync may succeed spuriously and
    // vouch for frames the device dropped). Every later segment-1 fsync
    // would show up as a zero-length delay event.
    let dir = temp_dir("enospc-fsync");
    let fault = FaultVfs::new(vec![]);
    let db = Database::open(faulty_options(&dir, &fault));
    let t = db.create_table("t").unwrap();
    for k in 0..5u64 {
        put_one(&db, &t, k, b"acked").unwrap();
    }
    fault.add_rule(
        FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailOnce,
            io::ErrorKind::StorageFull,
        )
        .on_path("segment-"),
    );
    fault.add_rule(
        FaultRule::new(
            FaultOp::Fsync,
            FaultMode::Delay { millis: 0 },
            io::ErrorKind::Other,
        )
        .on_path("segment-0000000001"),
    );
    let err = put_one(&db, &t, 5, b"v").unwrap_err();
    assert!(matches!(err, Error::Durability(_)), "got {err:?}");
    assert_eq!(
        db.health(),
        DbHealth::Degraded {
            reason: DegradedReason::OutOfSpace
        }
    );
    let err = db.checkpoint().unwrap_err();
    assert!(matches!(err, Error::Durability(_)), "got {err:?}");
    assert_eq!(fault.delayed(), 0, "segment 1 was fsynced again");
    assert_eq!(fault.injected(), 1);
    drop(db);
    assert_acked_survive_reopen(&dir, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_that_cannot_create_its_segment_degrades_out_of_space() {
    // A checkpoint's rotation fsyncs the old segment, then cannot create
    // the next one (ENOSPC). Segment creation is a log write like any
    // other: the database degrades at once, and a reopen recovers.
    let dir = temp_dir("create-enospc");
    let fault = FaultVfs::new(vec![]);
    let db = Database::open(faulty_options(&dir, &fault));
    let t = db.create_table("t").unwrap();
    for k in 0..3u64 {
        put_one(&db, &t, k, b"acked").unwrap();
    }
    fault.add_rule(
        FaultRule::new(
            FaultOp::Create,
            FaultMode::FailOnce,
            io::ErrorKind::StorageFull,
        )
        .on_path("segment-"),
    );
    let err = db.checkpoint().unwrap_err();
    assert!(matches!(err, Error::Durability(_)), "got {err:?}");
    assert_eq!(
        db.health(),
        DbHealth::Degraded {
            reason: DegradedReason::OutOfSpace
        }
    );
    assert!(matches!(
        put_one(&db, &t, 9, b"v"),
        Err(Error::Degraded(DegradedReason::OutOfSpace))
    ));
    drop(db);
    assert_acked_survive_reopen(&dir, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_create_table_append_degrades_at_once() {
    // DDL appends its control record directly; that append failing poisons
    // the log like any other, and the database degrades right there — not
    // at the next commit. The table is not created.
    let dir = temp_dir("ddl-fails");
    let fault = FaultVfs::new(vec![]);
    let db = Database::open(faulty_options(&dir, &fault));
    let t = db.create_table("t").unwrap();
    put_one(&db, &t, 0, b"acked").unwrap();
    fault.add_rule(
        FaultRule::new(
            FaultOp::Write,
            FaultMode::FailOnce,
            io::ErrorKind::Interrupted,
        )
        .on_path("segment-"),
    );
    let err = db.create_table("u").unwrap_err();
    assert!(matches!(err, Error::Durability(_)), "got {err:?}");
    assert_eq!(
        db.health(),
        DbHealth::Degraded {
            reason: DegradedReason::WalPoisoned
        }
    );
    assert!(db.table("u").is_err());
    let mut read = db.begin_read_only();
    assert!(read.get(&t, &0u64.to_be_bytes()).unwrap().is_some());
    read.commit().unwrap();
    drop(db);
    assert_acked_survive_reopen(&dir, 1);
    assert!(reopen_clean(&dir).table("u").is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn buffered_checkpoint_poisons_on_its_first_fsync_failure() {
    // Buffered durability never fsyncs at commit, so the checkpoint's
    // fsync of the old segment is the first one — and its failure,
    // transient or not, poisons the log like any other.
    let dir = temp_dir("buffered");
    let fault = FaultVfs::new(vec![]);
    let db = Database::open(
        Options::default()
            .with_durability(Durability::Buffered, &dir)
            .with_vfs(fault.handle()),
    );
    let t = db.create_table("t").unwrap();
    for k in 0..5u64 {
        let mut txn = db.begin();
        txn.put(&t, &k.to_be_bytes(), b"buffered").unwrap();
        txn.commit().unwrap();
    }
    let wal = db.durability_stats().unwrap();
    assert_eq!(wal.fsyncs.load(Ordering::Relaxed), 0);
    fault.add_rule(
        FaultRule::new(
            FaultOp::Fsync,
            FaultMode::FailOnce,
            std::io::ErrorKind::Interrupted,
        )
        .on_path("segment-"),
    );
    let err = db.checkpoint().unwrap_err();
    assert!(matches!(err, Error::Durability(_)), "got {err:?}");
    assert_eq!(wal.io_failures.load(Ordering::Relaxed), 1);
    assert_eq!(
        db.health(),
        DbHealth::Degraded {
            reason: DegradedReason::WalPoisoned
        }
    );
    let mut read = db.begin_read_only();
    for k in 0..5u64 {
        assert!(read.get(&t, &k.to_be_bytes()).unwrap().is_some());
    }
    read.commit().unwrap();
    let mut writer = db.begin();
    let err = writer.put(&t, b"rejected", b"v").unwrap_err();
    assert!(
        matches!(err, Error::Degraded(DegradedReason::WalPoisoned)),
        "got {err:?}"
    );
    drop(writer);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs on the fsync that fires it; gets the database's attention by polling.
type FsyncGate = Arc<Mutex<Option<Box<dyn Fn() -> bool + Send>>>>;

/// The production VFS, except that a segment fsync taking an armed gate
/// waits until the gate opens and then panics: a flush leader that unwinds
/// in the middle of its pass.
struct PanickingFsyncVfs {
    inner: Arc<dyn Vfs>,
    gate: FsyncGate,
}

struct PanickingFsyncFile {
    inner: Arc<dyn VfsFile>,
    gate: FsyncGate,
}

impl Vfs for PanickingFsyncVfs {
    fn create_segment(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        Ok(Arc::new(PanickingFsyncFile {
            inner: self.inner.create_segment(path)?,
            gate: self.gate.clone(),
        }))
    }
    fn create_truncate(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        self.inner.create_truncate(path)
    }
    fn open_write(&self, path: &Path) -> io::Result<Arc<dyn VfsFile>> {
        self.inner.open_write(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir(dir)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
}

impl VfsFile for PanickingFsyncFile {
    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }
    fn sync_all(&self) -> io::Result<()> {
        let Some(open) = self.gate.lock().unwrap().take() else {
            return self.inner.sync_all();
        };
        while !open() {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(open);
        panic!("injected fsync panic");
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

#[test]
fn panicking_flush_leader_degrades_instead_of_hanging() {
    // The committer leading a flush panics inside fsync once a second
    // commit is sealed behind it. The leader's guard must poison the log,
    // wake the parked committer with an error, and degrade health to
    // WalLeaderPanic — the next writer fails fast instead of parking
    // forever behind a flush nobody ends.
    let dir = temp_dir("leader-panic");
    let gate: FsyncGate = Arc::default();
    let vfs = Arc::new(PanickingFsyncVfs {
        inner: StdVfs::handle(),
        gate: gate.clone(),
    });
    let db = Database::open(
        Options::default()
            .with_durability(Durability::GroupCommit, &dir)
            .with_vfs(vfs),
    );
    let t = db.create_table("t").unwrap();
    let mut txn = db.begin();
    txn.put(&t, b"before", b"v").unwrap();
    txn.commit().unwrap();

    let sealed = db
        .durability_stats()
        .unwrap()
        .records
        .load(Ordering::Relaxed);
    let watched = db.clone();
    *gate.lock().unwrap() = Some(Box::new(move || {
        let records = &watched.durability_stats().unwrap().records;
        records.load(Ordering::Relaxed) >= sealed + 2
    }));
    // Whichever of the two commits leads the flush panics; the other one
    // has sealed by then, and is parked behind the leader or finds the
    // log poisoned.
    let committers: Vec<_> = [b"during-1", b"during-2"]
        .into_iter()
        .map(|key| {
            let (db, t) = (db.clone(), t.clone());
            std::thread::spawn(move || {
                let mut txn = db.begin();
                txn.put(&t, key, b"v").unwrap();
                txn.commit()
            })
        })
        .collect();
    let outcomes: Vec<_> = committers.into_iter().map(|c| c.join()).collect();
    assert_eq!(
        outcomes.iter().filter(|o| o.is_err()).count(),
        1,
        "exactly one committer led the flush and panicked"
    );
    for outcome in outcomes.into_iter().flatten() {
        assert!(
            matches!(outcome, Err(Error::Durability(_))),
            "the parked committer must be woken with an error, got {outcome:?}"
        );
    }
    assert_eq!(
        db.health(),
        DbHealth::Degraded {
            reason: DegradedReason::WalLeaderPanic
        }
    );
    // Both commits were published before the flush: only their
    // persistence is uncertain, so neither is rolled back in memory — not
    // even the one whose committer unwound. A reader sees them, and its
    // commit reports that uncertainty instead of acknowledging them.
    let mut read = db.begin_read_only();
    for key in [b"during-1", b"during-2"] {
        assert!(read.get(&t, key).unwrap().is_some());
    }
    assert!(matches!(read.commit(), Err(Error::Durability(_))));
    let mut writer = db.begin();
    let err = writer.put(&t, b"after", b"v").unwrap_err();
    assert!(matches!(
        err,
        Error::Degraded(DegradedReason::WalLeaderPanic)
    ));
    drop(writer);
    drop(db); // the final sync must not wait for the dead leader
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Read-only commits wait for the log to cover what they read.
// ---------------------------------------------------------------------------

/// How long every segment fsync is held once a scenario's writer starts.
const FSYNC_DELAY: Duration = Duration::from_millis(600);

/// A group-commit database over `fault` holding the durable keys 0..4.
fn seeded_log(dir: &Path, fault: &FaultVfs) -> (Database, TableRef) {
    let db = Database::open(faulty_options(dir, fault));
    let t = db.create_table("t").unwrap();
    let mut setup = db.begin();
    for k in 0..4u64 {
        setup.put(&t, &k.to_be_bytes(), b"seed").unwrap();
    }
    setup.commit().unwrap();
    (db, t)
}

/// Holds every later segment fsync for [`FSYNC_DELAY`] (failing it
/// fatally afterwards when `then_fail`), starts `write` on its own thread
/// and returns once its commit is published and its flush is under way.
fn start_delayed_writer(
    db: &Database,
    fault: &FaultVfs,
    then_fail: bool,
    write: impl FnOnce(&Database) -> serializable_si::Result<()> + Send + 'static,
) -> std::thread::JoinHandle<serializable_si::Result<()>> {
    let delay = FaultMode::Delay {
        millis: FSYNC_DELAY.as_millis() as u64,
    };
    fault.add_rule(FaultRule::new(FaultOp::Fsync, delay, io::ErrorKind::Other).on_path("segment-"));
    if then_fail {
        fault.add_rule(
            FaultRule::new(FaultOp::Fsync, FaultMode::FailOnce, io::ErrorKind::Other)
                .on_path("segment-"),
        );
    }
    let writer_db = db.clone();
    let writer = std::thread::spawn(move || write(&writer_db));
    while fault.delayed() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    writer
}

fn fsyncs(db: &Database) -> u64 {
    db.durability_stats()
        .unwrap()
        .fsyncs
        .load(Ordering::Relaxed)
}

#[test]
fn read_only_commit_waits_for_the_fsync_of_the_value_it_read() {
    let dir = temp_dir("ro-waits");
    let fault = FaultVfs::new(vec![]);
    let (db, t) = seeded_log(&dir, &fault);
    let wt = t.clone();
    let writer = start_delayed_writer(&db, &fault, false, move |db| {
        let mut txn = db.begin();
        txn.put(&wt, &0u64.to_be_bytes(), b"new")?;
        txn.commit()
    });
    let before = fsyncs(&db);
    let mut reader = db.begin_read_only();
    let value = reader.get(&t, &0u64.to_be_bytes()).unwrap();
    assert_eq!(value.as_deref(), Some(b"new".as_slice()));
    let started = Instant::now();
    reader.commit().unwrap();
    assert!(
        fsyncs(&db) > before && started.elapsed() >= FSYNC_DELAY / 2,
        "the reader acknowledged a value before its writer's fsync finished"
    );
    writer.join().unwrap().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_only_commit_of_a_value_whose_fsync_fails_reports_durability() {
    let dir = temp_dir("ro-fails");
    let fault = FaultVfs::new(vec![]);
    let (db, t) = seeded_log(&dir, &fault);
    let wt = t.clone();
    let writer = start_delayed_writer(&db, &fault, true, move |db| {
        let mut txn = db.begin();
        txn.put(&wt, &0u64.to_be_bytes(), b"lost")?;
        txn.commit()
    });
    let mut reader = db.begin_read_only();
    let value = reader.get(&t, &0u64.to_be_bytes()).unwrap();
    assert_eq!(value.as_deref(), Some(b"lost".as_slice()));
    let outcome = reader.commit();
    assert!(
        matches!(outcome, Err(Error::Durability(_))),
        "a reader of a value whose fsync failed must not be acknowledged, got {outcome:?}"
    );
    assert!(matches!(writer.join().unwrap(), Err(Error::Durability(_))));
    assert_eq!(
        db.health(),
        DbHealth::Degraded {
            reason: DegradedReason::WalPoisoned
        }
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_only_commit_of_rows_the_writer_did_not_touch_does_not_wait() {
    let dir = temp_dir("ro-no-wait");
    let fault = FaultVfs::new(vec![]);
    let (db, t) = seeded_log(&dir, &fault);
    let wt = t.clone();
    let writer = start_delayed_writer(&db, &fault, false, move |db| {
        let mut txn = db.begin();
        txn.put(&wt, &0u64.to_be_bytes(), b"new")?;
        txn.commit()
    });
    let before = fsyncs(&db);
    let started = Instant::now();
    let mut reader = db.begin_read_only();
    let value = reader.get(&t, &1u64.to_be_bytes()).unwrap();
    assert_eq!(value.as_deref(), Some(b"seed".as_slice()));
    reader.commit().unwrap();
    assert!(
        fsyncs(&db) == before && started.elapsed() < FSYNC_DELAY / 2,
        "a reader of durable rows waited behind an unrelated fsync"
    );
    writer.join().unwrap().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_only_point_miss_waits_for_a_purged_s2pl_delete() {
    // An S2PL delete holds no snapshot, so nothing holds the purge horizon
    // below it: its tombstone can be unlinked while its fsync is still
    // under way. A later reader then finds no chain at all, and only the
    // snapshot rule keeps it from acknowledging that absence early.
    let dir = temp_dir("ro-miss");
    let fault = FaultVfs::new(vec![]);
    let (db, t) = seeded_log(&dir, &fault);
    let wt = t.clone();
    let writer = start_delayed_writer(&db, &fault, false, move |db| {
        let mut txn = db.begin_with(IsolationLevel::StrictTwoPhaseLocking);
        txn.delete(&wt, &0u64.to_be_bytes())?;
        txn.commit()
    });
    // A snapshot transaction finishing moves the horizon past the delete.
    let mut bump = db.begin_with(IsolationLevel::SnapshotIsolation);
    bump.get(&t, &1u64.to_be_bytes()).unwrap();
    bump.commit().unwrap();
    assert_eq!(db.purge().chains, 1, "the tombstoned key was not unlinked");
    let before = fsyncs(&db);
    let mut reader = db.begin_read_only();
    assert_eq!(reader.get(&t, &0u64.to_be_bytes()).unwrap(), None);
    let started = Instant::now();
    reader.commit().unwrap();
    assert!(
        fsyncs(&db) > before && started.elapsed() >= FSYNC_DELAY / 2,
        "the reader acknowledged an absence before the delete's fsync finished"
    );
    writer.join().unwrap().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Seeded random fault schedules: the SmallBank-style invariant net.
// ---------------------------------------------------------------------------

const ACCOUNTS: u64 = 8;
const INITIAL_BALANCE: u64 = 1000;
const TRANSFERS: u64 = 150;

fn balance(raw: &[u8]) -> u64 {
    u64::from_be_bytes(raw.try_into().expect("8-byte balance"))
}

/// Generates a random fault schedule from the seed: mostly transient fsync
/// and write hiccups, sometimes a delay, occasionally a fatal fault. The
/// log is fail-stop, so any of them but a delay degrades the run when it
/// fires; a seed whose faults never fire (or only delay) runs clean. Both
/// must preserve the invariants.
fn random_schedule(rng: &mut SmallRng) -> Vec<FaultRule> {
    let mut rules = Vec::new();
    for _ in 0..rng.gen_range(1..4u32) {
        let op = if rng.gen_range(0..10u32) < 6 {
            FaultOp::Fsync
        } else {
            FaultOp::Write
        };
        let roll = rng.gen_range(0..10u32);
        let (mode, kind) = if roll < 4 {
            (
                FaultMode::FailTimes(rng.gen_range(1..3u32)),
                std::io::ErrorKind::Interrupted,
            )
        } else if roll < 6 {
            // Out of space, on a write or an fsync.
            (
                FaultMode::FailTimes(rng.gen_range(1..3u32)),
                std::io::ErrorKind::StorageFull,
            )
        } else if roll < 8 {
            (
                FaultMode::Delay {
                    millis: rng.gen_range(1..5u64),
                },
                std::io::ErrorKind::Other,
            )
        } else {
            // Fatal.
            (FaultMode::FailOnce, std::io::ErrorKind::Other)
        };
        rules.push(
            FaultRule::new(op, mode, kind)
                .on_path("segment-")
                .after(rng.gen_range(0..40u64)),
        );
    }
    rules
}

/// One seeded run. Returns an error description on invariant violation.
fn run_seed(seed: u64) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let dir = temp_dir(&format!("seed-{seed}"));
    let fault = FaultVfs::new(random_schedule(&mut rng));
    let db = Database::open(faulty_options(&dir, &fault));

    // DDL appends its control record directly, so a fault can fire here:
    // that makes this a degraded run — no workload, but recovery over
    // whatever is on disk must still succeed below.
    let table = db.create_table("bank").ok();

    // Seed the accounts (a fatal rule can fire here too, so failure again
    // just means a degraded run).
    let seeded = match &table {
        None => false,
        Some(t) => {
            let mut setup = db.begin();
            let mut setup_ok = true;
            for a in 0..ACCOUNTS {
                if setup
                    .put(t, &a.to_be_bytes(), &INITIAL_BALANCE.to_be_bytes())
                    .is_err()
                {
                    setup_ok = false;
                    break;
                }
            }
            setup_ok && setup.commit().is_ok()
        }
    };
    let t = table;

    // Random transfers; each conserves the total and stamps an ack marker
    // in the same transaction, so "marker present" == "transfer applied".
    let mut acked = Vec::new();
    if seeded {
        let t = t.as_ref().expect("seeded implies table");
        for i in 0..TRANSFERS {
            if db.health() != DbHealth::Healthy {
                break; // degraded: writers fail fast from here on
            }
            let from = rng.gen_range(0..ACCOUNTS);
            let to = (from + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
            let amount = rng.gen_range(1..20u64);
            let mut txn = db.begin();
            let result = (|| {
                let f = balance(&txn.get(t, &from.to_be_bytes())?.expect("seeded"));
                let b = balance(&txn.get(t, &to.to_be_bytes())?.expect("seeded"));
                txn.put(
                    t,
                    &from.to_be_bytes(),
                    &f.saturating_sub(amount).to_be_bytes(),
                )?;
                txn.put(t, &to.to_be_bytes(), &(b + amount.min(f)).to_be_bytes())?;
                txn.put(t, format!("ack-{i:06}").as_bytes(), b"1")?;
                txn.commit()
            })();
            if result.is_ok() {
                acked.push(i);
            }
        }
    }
    drop(db);

    // Clean reopen: recovery over whatever the fault schedule left behind.
    let db = reopen_clean(&dir);
    let mut failures = Vec::new();
    if seeded {
        let t = db.table("bank").map_err(|e| format!("reopen table: {e}"))?;
        let mut check = db.begin_read_only();
        let mut total = 0u64;
        for a in 0..ACCOUNTS {
            match check.get(&t, &a.to_be_bytes()) {
                Ok(Some(raw)) => total += balance(&raw),
                other => failures.push(format!("account {a} unreadable: {other:?}")),
            }
        }
        if total != ACCOUNTS * INITIAL_BALANCE {
            failures.push(format!(
                "total balance {total} != {} — transfers must conserve the total",
                ACCOUNTS * INITIAL_BALANCE
            ));
        }
        for i in &acked {
            match check.get(&t, format!("ack-{i:06}").as_bytes()) {
                Ok(Some(_)) => {}
                other => failures.push(format!(
                    "acknowledged transfer {i} lost across recovery: {other:?}"
                )),
            }
        }
        check.commit().map_err(|e| format!("check commit: {e}"))?;
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} violation(s):\n  {}\ninjected events:\n  {}",
            failures.len(),
            failures.join("\n  "),
            fault.events().join("\n  ")
        ))
    }
}

#[test]
fn seeded_fault_schedules_preserve_invariants() {
    let seeds: Vec<u64> = match std::env::var("CHAOS_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect(),
        Err(_) => vec![1, 7, 42, 0xC4A05, 20080610],
    };
    for seed in seeds {
        if let Err(report) = run_seed(seed) {
            panic!(
                "chaos seed {seed} failed: {report}\n\
                 reproduce with: CHAOS_SEEDS={seed} cargo test --test chaos \
                 seeded_fault_schedules -- --nocapture"
            );
        }
    }
}
