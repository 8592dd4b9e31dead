//! Randomized stress net for safe version garbage collection.
//!
//! Eight threads of reads, writes, scans and insert/delete churn run with
//! version GC firing continuously — both automatically, in shard slices on
//! the commit cadence (`Options::purge_every_commits`), and from a
//! dedicated purge thread hammering `Database::purge` — under both
//! conflict-flag variants.
//! The oracle is three-fold:
//!
//! * **visibility** — the preloaded hot keys are only ever overwritten,
//!   never deleted, so a successful read of one must always find a value:
//!   a purge that reclaims a version some live snapshot needs surfaces
//!   here as a `None` read (exactly the TOCTOU failure shape);
//! * **serializability** — every committed history is replayed through the
//!   MVSG verifier, as in the commit-pipeline net: GC must not disturb the
//!   conflict-detection machinery;
//! * **horizon discipline** — the horizons the purge thread observes are
//!   monotone, and a proptest drives random begin/commit/pin/unpin
//!   schedules checking the horizon never regresses and never exceeds the
//!   oldest live pin.
//!
//! A second net (`indexed_gc_stress`) runs the same 8-thread churn against
//! a table with a *secondary index*: point lookups and range scans go
//! through entry space while inserts, renames and deletes move index
//! entries underneath them and GC purges the stale ones. The visibility
//! oracle becomes "every hot row is always reachable through its index
//! key", and the MVSG verifier replays the history *including the
//! index-space read and write records*.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serializable_si::common::encoding::{KeyBuilder, ValueReader, ValueWriter};
use serializable_si::{
    Database, Error, FieldKind, IndexKeyPart, IndexKeySpec, IndexRef, IsolationLevel, Options,
    SsiVariant, TableRef,
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

/// Churn keys live between the preloaded hot keys (odd suffix byte), so
/// inserts/deletes race with scans without ever touching a hot key.
fn churn_key(i: u64) -> Vec<u8> {
    let mut k = i.to_be_bytes().to_vec();
    k.push(1);
    k
}

/// One randomized transaction. Hot keys are only ever overwritten, so any
/// successful read of one must see a value — the visibility oracle.
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
    match rng.gen_range(0..12u32) {
        // Write skew: read both hot keys, overwrite one.
        0..=3 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let ra = txn.get(table, &a.to_be_bytes())?;
            assert!(ra.is_some(), "hot key {a} vanished under purge");
            let rb = txn.get(table, &b.to_be_bytes())?;
            assert!(rb.is_some(), "hot key {b} vanished under purge");
            let victim = if rng.gen_range(0..2u32) == 0 { a } else { b };
            txn.put(table, &victim.to_be_bytes(), &value)?;
            txn.commit()
        }
        // Read-modify-write through a locking read.
        4..=5 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let r = txn.get_for_update(table, &a.to_be_bytes())?;
            assert!(r.is_some(), "hot key {a} vanished under purge");
            txn.put(table, &a.to_be_bytes(), &value)?;
            txn.commit()
        }
        // Read-only multi-get: holds its snapshot across several reads, so
        // a purge racing its begin is exactly the TOCTOU shape.
        6..=7 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            for _ in 0..4 {
                let k = rng.gen_range(0..keys);
                let r = txn.get(table, &k.to_be_bytes())?;
                assert!(r.is_some(), "hot key {k} vanished under purge");
            }
            txn.commit()
        }
        // Whole-range scan (paging cursor + gap SIREADs) followed by a
        // write; the scan must always see every hot key.
        8..=9 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let rows = txn.scan_prefix(table, b"")?;
            let hot = rows.iter().filter(|(k, _)| k.len() == 8).count() as u64;
            assert_eq!(hot, keys, "scan lost hot keys under purge");
            txn.put(table, &a.to_be_bytes(), &value)?;
            txn.commit()
        }
        // Insert a churn key (new chains, ordered-index writes).
        10 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            txn.put(table, &churn_key(rng.gen_range(0..keys)), &value)?;
            txn.commit()
        }
        // Delete a churn key (tombstones — the chains purge removes whole).
        _ => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            txn.delete(table, &churn_key(rng.gen_range(0..keys)))?;
            txn.commit()
        }
    }
}

fn gc_stress(variant: SsiVariant, threads: usize, iters: u64, keys: u64, seed: u64) {
    let options = Options {
        ssi: serializable_si::SsiOptions {
            variant,
            ..Default::default()
        },
        ..Options::default()
    }
    .with_history()
    .with_auto_purge(16);
    let db = Database::open(options);
    let table = setup(&db, keys);
    let stats = StressStats::default();
    let stop = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Dedicated purge hammer on top of the commit-cadence trigger; the
        // horizons it observes must be monotone.
        {
            let db = db.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut last = 0;
                while stop.load(Ordering::Relaxed) == 0 {
                    let h = db.purge().horizon;
                    assert!(h >= last, "purge horizon went backwards: {h} < {last}");
                    last = h;
                    std::thread::yield_now();
                }
            });
        }
        let mut writers = Vec::new();
        for t in 0..threads {
            let db = db.clone();
            let table = table.clone();
            let stats = &stats;
            writers.push(scope.spawn(move || {
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
            }));
        }
        // Join the writers first so the purge hammer covers the whole
        // write window, then stop it.
        for w in writers {
            w.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
    });

    let committed = stats.committed.load(Ordering::Relaxed);
    assert!(committed > 0, "stress run committed nothing");

    // Serializability oracle: replay the committed history through the
    // multiversion serialization graph.
    let report = db.history().unwrap().analyze();
    assert!(
        report.is_serializable(),
        "non-serializable history committed under {variant:?} with GC on: cycle {:?}, \
         lost reads {:?} (committed {committed}, aborted {})",
        report.cycle,
        report.lost_reads,
        stats.aborted.load(Ordering::Relaxed),
    );

    // Reclamation must actually have happened (auto cadence + hammer).
    let counters = db.transaction_manager().stats();
    assert!(
        counters.purge_runs.load(Ordering::Relaxed) > 0,
        "no purge ran during the stress window"
    );

    // Resource invariants: with every handle finished, one cleanup + purge
    // round drains the suspended list, the registry, every SIREAD lock —
    // and trims every hot chain to one reachable version.
    let mgr = db.transaction_manager();
    mgr.cleanup_suspended(db.lock_manager());
    assert_eq!(mgr.suspended_len(), 0, "suspended transactions leaked");
    assert_eq!(mgr.registry_len(), 0, "registry entries leaked");
    assert_eq!(db.lock_manager().grant_count(), 0, "lock grants leaked");
    assert_eq!(db.siread_holder_count(), 0, "row SIREADs leaked");
    db.purge();
    let versions = table.version_count();
    let key_floor = keys as usize; // hot keys survive; churn keys may too
    assert!(
        versions <= key_floor + keys as usize + 1,
        "purge left {versions} versions for at most {} live keys",
        key_floor + keys as usize
    );
    // And the hot keys are all still there.
    let mut check = db.begin_read_only();
    for k in 0..keys {
        assert!(
            check.get(&table, &k.to_be_bytes()).unwrap().is_some(),
            "hot key {k} lost after final purge"
        );
    }
    check.commit().unwrap();
}

#[test]
fn enhanced_variant_stays_serializable_under_continuous_gc() {
    gc_stress(SsiVariant::Enhanced, 8, 400, 8, 0x6C0FFEE);
}

#[test]
fn basic_variant_stays_serializable_under_continuous_gc() {
    gc_stress(SsiVariant::Basic, 8, 400, 8, 0x6CBEEF);
}

#[test]
fn wider_key_range_with_gc_keeps_chains_bounded() {
    // Fewer collisions, more commits per thread: exercises the steady-state
    // watermark path (cached horizon, generation-gated sweeps) and keeps
    // version chains from growing without bound.
    gc_stress(SsiVariant::Enhanced, 6, 500, 64, 42);
}

// ---------------------------------------------------------------------
// Indexed churn: the same stress shape, but every predicate goes through
// a secondary index while writers move entries underneath it.
// ---------------------------------------------------------------------

/// Hot rows carry a fixed name (their index key never moves); churn rows
/// carry one of a few shared names, so renames and deletes constantly
/// create and strand entries for GC to reap.
fn person(name: &str, counter: u64) -> Vec<u8> {
    ValueWriter::new().str(name).u64(counter).build()
}

fn name_key(name: &str) -> Vec<u8> {
    KeyBuilder::new().str(name).build()
}

fn hot_name(k: u64) -> String {
    format!("hot-{k:03}")
}

fn churn_name(n: u64) -> String {
    format!("churn-{:02}", n % 6)
}

/// One randomized indexed transaction. The oracle: a hot row is only ever
/// overwritten under its fixed name, so a point lookup of that name must
/// always surface exactly that row, and a range scan over the hot names
/// must surface all of them — no matter how many stale entries churn and
/// GC have created or reaped around them.
fn run_one_indexed(
    db: &Database,
    table: &TableRef,
    index: &IndexRef,
    rng: &mut SmallRng,
    keys: u64,
    payload: u64,
) -> Result<(), Error> {
    let k = rng.gen_range(0..keys);
    match rng.gen_range(0..12u32) {
        // Index point lookup of a hot name, then overwrite the row it
        // claims (same name, bumped counter): an entry-stable rewrite.
        0..=2 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let rows = txn.index_lookup(index, &name_key(&hot_name(k)))?;
            assert_eq!(
                rows.len(),
                1,
                "hot name {} resolved to {} rows",
                hot_name(k),
                rows.len()
            );
            assert_eq!(rows[0].0, k.to_be_bytes(), "index resolved the wrong row");
            txn.put(table, &k.to_be_bytes(), &person(&hot_name(k), payload))?;
            txn.commit()
        }
        // Range scan over the whole hot-name band: every hot row must be
        // visible through the index, exactly once.
        3..=4 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let rows = txn.index_scan(
                index,
                std::ops::Bound::Included(name_key("hot-").as_slice()),
                std::ops::Bound::Excluded(name_key("hot.").as_slice()),
            )?;
            assert_eq!(
                rows.len() as u64,
                keys,
                "index range scan lost hot rows under purge"
            );
            txn.commit()
        }
        // Predicate-then-write: look up a churn name and record what was
        // seen into a hot row — the write-skew shape through the index.
        5..=6 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let seen = txn
                .index_lookup(index, &name_key(&churn_name(payload)))?
                .len();
            txn.put(table, &k.to_be_bytes(), &person(&hot_name(k), seen as u64))?;
            txn.commit()
        }
        // Insert or rename a churn row: the entry moves between names.
        7..=9 => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            let name = churn_name(rng.gen_range(0..6));
            txn.put(
                table,
                &churn_key(rng.gen_range(0..keys)),
                &person(&name, payload),
            )?;
            txn.commit()
        }
        // Delete a churn row: its entries go stale until GC reaps them.
        _ => {
            let mut txn = db.begin_with(IsolationLevel::SerializableSnapshotIsolation);
            txn.delete(table, &churn_key(rng.gen_range(0..keys)))?;
            txn.commit()
        }
    }
}

fn indexed_gc_stress(variant: SsiVariant, threads: usize, iters: u64, keys: u64, seed: u64) {
    let options = Options {
        ssi: serializable_si::SsiOptions {
            variant,
            ..Default::default()
        },
        ..Options::default()
    }
    .with_history()
    .with_auto_purge(4);
    let db = Database::open(options);
    let table = db.create_table("people").unwrap();
    // Created before any write so the index covers every version ever
    // installed (and the verifier sees matched index read/write records).
    let index = db
        .create_index(
            "people_by_name",
            &table,
            false,
            IndexKeySpec {
                layout: vec![FieldKind::Str, FieldKind::U64],
                parts: vec![IndexKeyPart::ValueField(0)],
            },
        )
        .unwrap();
    let mut setup = db.begin();
    for k in 0..keys {
        setup
            .put(&table, &k.to_be_bytes(), &person(&hot_name(k), 0))
            .unwrap();
    }
    setup.commit().unwrap();

    let stats = StressStats::default();
    let stop = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Purge hammer on top of the commit-cadence slices, as in the row
        // net; horizons stay monotone.
        {
            let db = db.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut last = 0;
                while stop.load(Ordering::Relaxed) == 0 {
                    let h = db.purge().horizon;
                    assert!(h >= last, "purge horizon went backwards: {h} < {last}");
                    last = h;
                    std::thread::yield_now();
                }
            });
        }
        let mut writers = Vec::new();
        for t in 0..threads {
            let db = db.clone();
            let table = table.clone();
            let index = index.clone();
            let stats = &stats;
            writers.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
                for i in 0..iters {
                    let payload = (t as u64) << 32 | i;
                    match run_one_indexed(&db, &table, &index, &mut rng, keys, payload) {
                        Ok(()) => {
                            stats.committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if e.is_retryable() => {
                            stats.aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
    });

    let committed = stats.committed.load(Ordering::Relaxed);
    assert!(committed > 0, "indexed stress run committed nothing");

    // Serializability oracle, now over histories that include index-space
    // read and write records.
    let report = db.history().unwrap().analyze();
    assert!(
        report.is_serializable(),
        "non-serializable indexed history under {variant:?}: cycle {:?}, lost reads {:?} \
         (committed {committed}, aborted {})",
        report.cycle,
        report.lost_reads,
        stats.aborted.load(Ordering::Relaxed),
    );

    // Index maintenance must stay on the clean paths: nothing ever parked
    // on version publication (in memory only a durable commit waits for
    // it) and no fault counter moved.
    let metrics = db.metrics();
    assert_eq!(
        metrics.txn.publish_parks, 0,
        "an in-memory run parked on version publication"
    );
    assert_eq!(metrics.wal.io_failures, 0, "clean run logged I/O faults");

    // Resource invariants: locks and registry drain, and after a final
    // purge the stale entries left by churn renames and deletes are gone —
    // the entry count converges to the number of live claims.
    let mgr = db.transaction_manager();
    mgr.cleanup_suspended(db.lock_manager());
    assert_eq!(mgr.suspended_len(), 0, "suspended transactions leaked");
    assert_eq!(mgr.registry_len(), 0, "registry entries leaked");
    assert_eq!(db.lock_manager().grant_count(), 0, "lock grants leaked");
    assert_eq!(db.siread_holder_count(), 0, "row SIREADs leaked");
    db.purge();
    let live_rows = table.key_count() as u64;
    let entries = index.entry_count() as u64;
    assert!(
        entries <= live_rows + keys,
        "GC left {entries} index entries for {live_rows} live rows"
    );
    let mut check = db.begin_read_only();
    for k in 0..keys {
        let rows = check.index_lookup(&index, &name_key(&hot_name(k))).unwrap();
        assert_eq!(
            rows.len(),
            1,
            "hot name {} lost after final purge",
            hot_name(k)
        );
    }
    // Every name, hot or churn, resolves through the index to exactly the
    // rows that a scan of the table filtered by name finds (both in
    // primary-key order).
    let all = check.scan_prefix(&table, b"").unwrap();
    for name in (0..keys).map(hot_name).chain((0..6).map(churn_name)) {
        let via_index = check.index_lookup(&index, &name_key(&name)).unwrap();
        let via_scan: Vec<_> = all
            .iter()
            .filter(|(_, value)| ValueReader::new(value).str() == name)
            .cloned()
            .collect();
        assert_eq!(via_index, via_scan, "index and scan disagree on {name}");
    }
    check.commit().unwrap();
}

#[test]
fn indexed_churn_stays_serializable_under_gc_enhanced_variant() {
    indexed_gc_stress(SsiVariant::Enhanced, 8, 300, 8, 0x1DC0DE);
}

#[test]
fn indexed_churn_stays_serializable_under_gc_basic_variant() {
    indexed_gc_stress(SsiVariant::Basic, 8, 300, 8, 0x1DBEEF);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Per-shard purge is exactly whole-table purge, piecewise: the same
    /// random version history is installed into two tables, one purged in
    /// a single whole-table pass and one shard by shard (scrambled order)
    /// at the same pinned horizon — reclaimed counts and surviving state
    /// must agree exactly. This is the equivalence committers' purge
    /// slices rest on.
    fn per_shard_purge_matches_whole_table_purge(
        (ops, horizon) in (proptest::collection::vec((0u8..48, 0u8..4), 1..120), 1u64..40)
    ) {
        use serializable_si::storage::{Table, SHARD_COUNT};
        use serializable_si::common::{TableId, TxnId};

        let build = || {
            let tbl = Table::new(TableId(1), "t");
            let mut ts = 1u64;
            for &(key, op) in &ops {
                let key = [key];
                match op {
                    // Committed value version.
                    0 | 1 => {
                        let v = tbl.install_version(&key, TxnId(1), Some(vec![key[0], op]));
                        v.mark_committed(ts);
                        ts += 1;
                    }
                    // Committed tombstone.
                    2 => {
                        let v = tbl.install_version(&key, TxnId(1), None);
                        v.mark_committed(ts);
                        ts += 1;
                    }
                    // Aborted leftover.
                    _ => {
                        let v = tbl.install_version(&key, TxnId(2), Some(vec![9]));
                        v.mark_aborted();
                    }
                }
            }
            tbl
        };
        let whole = build();
        let sharded = build();

        let whole_stats = whole.purge_old_versions(horizon);
        let mut sharded_stats = serializable_si::PurgeStats::at(horizon);
        // Scrambled, wrapping shard order: equivalence may not depend on it.
        for i in 0..SHARD_COUNT {
            let idx = (i * 37 + 11) % SHARD_COUNT + SHARD_COUNT;
            sharded_stats.merge(&sharded.purge_shard(idx, horizon));
        }
        prop_assert_eq!(sharded_stats, whole_stats);
        prop_assert_eq!(sharded.version_count(), whole.version_count());
        prop_assert_eq!(sharded.key_count(), whole.key_count());
        for key in 0u8..48 {
            let a = whole.read(&[key], TxnId(9), u64::MAX);
            let b = sharded.read(&[key], TxnId(9), u64::MAX);
            prop_assert_eq!(a.value, b.value, "key {} diverged", key);
        }
    }

    /// Random schedules of begin/commit/abort/pin/unpin/advance: the GC
    /// horizon must never regress and never exceed the oldest live pin.
    fn gc_horizon_is_monotone_and_respects_pins(ops in proptest::collection::vec(0u8..6, 1..80)) {
        let db = Database::open_default();
        let table = db.create_table("t").unwrap();
        let mut txns: Vec<serializable_si::Transaction> = Vec::new();
        let mut pins: Vec<serializable_si::GcPin<'_>> = Vec::new();
        let mut last_horizon = 0u64;
        let mut n = 0u64;

        for op in ops {
            match op {
                // Begin a transaction and acquire its snapshot.
                0 => {
                    let mut txn = db.begin();
                    let _ = txn.get(&table, b"probe");
                    txns.push(txn);
                }
                // Commit the oldest live transaction (with a write, so the
                // clock advances).
                1 => {
                    if !txns.is_empty() {
                        let mut txn = txns.remove(0);
                        n += 1;
                        let _ = txn.put(&table, b"k", &n.to_be_bytes());
                        let _ = txn.commit();
                    }
                }
                // Roll back the youngest live transaction.
                2 => {
                    if let Some(txn) = txns.pop() {
                        txn.rollback();
                    }
                }
                // Pin the horizon at the current clock.
                3 => pins.push(db.pin_purge_horizon()),
                // Drop the oldest pin.
                4 => {
                    if !pins.is_empty() {
                        pins.remove(0);
                    }
                }
                // Advance the clock with an independent write commit.
                _ => {
                    let mut txn = db.begin();
                    n += 1;
                    let _ = txn.put(&table, b"clock", &n.to_be_bytes());
                    let _ = txn.commit();
                }
            }

            let horizon = db.transaction_manager().gc_horizon();
            prop_assert!(
                horizon >= last_horizon,
                "horizon regressed: {} -> {}", last_horizon, horizon
            );
            if let Some(oldest_pin) = pins.iter().map(|p| p.ts()).min() {
                prop_assert!(
                    horizon <= oldest_pin,
                    "horizon {} passed the oldest pin {}", horizon, oldest_pin
                );
            }
            last_horizon = horizon;
        }
    }
}
