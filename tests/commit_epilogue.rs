//! The Serializable-SI commit epilogue: what happens to a transaction after
//! its commit is decided (Sec. 3.3 suspension, Sec. 4.6.1 eager cleanup).
//!
//! Three nets. The protocol test pins *when* a committed transaction is kept
//! and when it goes: kept exactly while some active transaction began before
//! it committed, reclaimed — with everything else that became reclaimable —
//! by the single pass of the finish that removes the last such transaction,
//! and never listed at all when nothing is concurrent with it. The handshake
//! test freezes a committer between its horizon read and its insert while the
//! last concurrent transaction finishes and finds the list empty: the
//! committer's second look at the finish generation must reclaim it. The hammer
//! runs the lock-free begin watermark under real interleavings: the horizon
//! never passes a snapshot that is held open, versions that snapshot reads
//! survive purges at that horizon, and a quiesced system is left with no
//! suspended transaction, registry record, lock-table key or row SIREAD.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use serializable_si::core::manager::REGISTRY_SHARDS;
use serializable_si::{Database, Options, SsiOptions, SsiVariant, TableRef};

fn open(variant: SsiVariant) -> (Database, TableRef) {
    let db = Database::open(Options {
        ssi: SsiOptions {
            variant,
            ..Default::default()
        },
        ..Options::default()
    });
    let table = db.create_table("t").unwrap();
    let mut load = db.begin();
    for k in 0..64u64 {
        load.put(&table, &k.to_be_bytes(), &0u64.to_be_bytes())
            .unwrap();
    }
    load.commit().unwrap();
    (db, table)
}

fn epilogue_protocol(variant: SsiVariant) {
    const N: u64 = 5;
    let (db, table) = open(variant);
    let mgr = db.transaction_manager();
    let locks = db.lock_manager();
    // The loader had nothing concurrent with it: it was never listed.
    assert_eq!(mgr.suspended_len(), 0);
    assert_eq!(locks.key_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
    let listed = |db: &Database| {
        let txn = db.metrics().txn;
        assert_eq!(txn.suspended - txn.cleaned, txn.suspended_now);
        (txn.suspended, txn.cleaned)
    };
    assert_eq!(listed(&db), (0, 0));

    // A long-running reader holds a snapshot.
    let mut reader = db.begin();
    reader.get(&table, &63u64.to_be_bytes()).unwrap();

    // N read-write commits after it, one at a time: each stays suspended,
    // its SIREAD registered on the row it read, because the reader is
    // concurrent with it. (The reader holds one registration of its own.)
    let mut suspended = Vec::new();
    for i in 0..N {
        let mut txn = db.begin();
        let id = txn.id();
        txn.get(&table, &i.to_be_bytes()).unwrap();
        txn.put(&table, &(32 + i).to_be_bytes(), &1u64.to_be_bytes())
            .unwrap();
        txn.commit().unwrap();
        suspended.push(id);
        assert_eq!(mgr.suspended_len() as u64, i + 1);
        assert_eq!(listed(&db), (i + 1, 0));
        assert_eq!(db.siread_holder_count() as u64, i + 2);
        assert_eq!(db.metrics().txn.siread_rows_now, i + 1);
    }
    // A row read is no lock request: only the EXCLUSIVE locks were, and they
    // went at commit.
    assert_eq!(locks.key_count(), 0);
    for id in &suspended {
        assert!(mgr.find(*id).is_some(), "suspended records stay findable");
    }

    // The reader finishes. It is a pure query, concurrent with every one of
    // the N, so its own commit suspends it too — and nothing is reclaimable
    // before it is gone. Its finish is the single pass that takes all N and
    // the reader itself, which never enters the list.
    reader.commit().unwrap();
    assert_eq!(mgr.suspended_len(), 0);
    assert_eq!(listed(&db), (N, N));
    for id in &suspended {
        assert!(mgr.find(*id).is_none());
    }
    assert_eq!(db.siread_holder_count(), 0);
    let txn = db.metrics().txn;
    assert_eq!(
        (txn.siread_row_registrations, txn.siread_rows_now),
        (N + 1, 0)
    );
    assert_eq!(locks.key_count(), 0);
    assert_eq!(mgr.registry_len(), 0);

    // Same again with a reader that rolls back: the abort's finish does the
    // one pass.
    let mut reader = db.begin();
    reader.get(&table, &63u64.to_be_bytes()).unwrap();
    for i in 0..N {
        let mut txn = db.begin();
        txn.get(&table, &i.to_be_bytes()).unwrap();
        txn.put(&table, &(32 + i).to_be_bytes(), &2u64.to_be_bytes())
            .unwrap();
        txn.commit().unwrap();
    }
    assert_eq!(mgr.suspended_len() as u64, N);
    reader.rollback();
    assert_eq!(mgr.suspended_len(), 0);
    assert_eq!(listed(&db), (2 * N, 2 * N));
    assert_eq!(locks.key_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);

    // With nothing concurrent, a commit holding SIREAD locks is reclaimed on
    // the spot: the counters that track the list do not move.
    let mut alone = db.begin();
    let id = alone.id();
    alone.get(&table, &7u64.to_be_bytes()).unwrap();
    alone
        .put(&table, &8u64.to_be_bytes(), &3u64.to_be_bytes())
        .unwrap();
    alone.commit().unwrap();
    assert_eq!(mgr.suspended_len(), 0);
    assert_eq!(listed(&db), (2 * N, 2 * N));
    assert!(mgr.find(id).is_none());
    assert_eq!(locks.key_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
    assert_eq!(db.metrics().txn.siread_rows_now, 0);
}

#[test]
fn epilogue_protocol_enhanced() {
    epilogue_protocol(SsiVariant::Enhanced);
}

#[test]
fn epilogue_protocol_basic() {
    epilogue_protocol(SsiVariant::Basic);
}

/// The race the second `finish_gen` look in `suspend_and_reclaim` closes,
/// made deterministic with the sweep pause hook. The committer's horizon
/// read is frozen after it has seen the last concurrent transaction as
/// active; that transaction then finishes, finds the suspended list empty
/// (count 0) and leaves; the committer resumes and files itself. No finish
/// is left to come, so only the committer's own re-check can reclaim it.
#[test]
fn committer_reclaims_itself_when_the_last_finisher_saw_an_empty_list() {
    let (db, table) = open(SsiVariant::Enhanced);
    let mgr = db.transaction_manager();

    let mut other = db.begin();
    other.get(&table, &63u64.to_be_bytes()).unwrap();
    let other_shard = other.id().0 as usize & (REGISTRY_SHARDS - 1);

    let mut committer = db.begin();
    let id = committer.id();
    committer.get(&table, &1u64.to_be_bytes()).unwrap();
    committer
        .put(&table, &2u64.to_be_bytes(), &1u64.to_be_bytes())
        .unwrap();

    // Freeze the first sweep that reads `other`'s shard: the committer's.
    let reached = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let fired = Arc::new(AtomicBool::new(false));
    {
        let (reached, release, fired) = (reached.clone(), release.clone(), fired.clone());
        mgr.set_sweep_pause_hook(Some(Arc::new(move |shard| {
            if shard == other_shard && !fired.swap(true, Ordering::SeqCst) {
                reached.wait();
                release.wait();
            }
        })));
    }

    std::thread::scope(|scope| {
        let committing = scope.spawn(move || committer.commit().unwrap());
        // The committer has read `other`'s begin: its horizon is below its
        // own commit timestamp, so it will enter the list.
        reached.wait();
        // `other` leaves, bumping the generation, and sees nothing to
        // reclaim: the committer is not in the list yet.
        other.rollback();
        assert_eq!(mgr.suspended_len(), 0);
        assert_eq!(db.metrics().txn.suspended, 0);
        release.wait();
        committing.join().unwrap();
    });
    mgr.set_sweep_pause_hook(None);

    // It was filed, noticed the generation had moved, and took itself out.
    let txn = db.metrics().txn;
    assert_eq!((txn.suspended, txn.cleaned, txn.suspended_now), (1, 1, 0));
    assert_eq!(mgr.suspended_len(), 0);
    assert!(mgr.find(id).is_none());
    assert_eq!(mgr.registry_len(), 0);
    assert_eq!(db.lock_manager().key_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
}

/// Four threads of read-write SSI transactions against a checker that keeps
/// opening a snapshot and, while it holds it, watches the horizon, purges at
/// it and re-reads.
#[test]
fn watermark_hammer_horizon_never_passes_an_open_snapshot() {
    const WORKERS: u64 = 4;
    const COMMITS: u64 = 50_000;
    let (db, table) = open(SsiVariant::Enhanced);
    let mgr = db.transaction_manager();
    let stop = AtomicBool::new(false);
    let commits = AtomicU64::new(0);

    /// Stops the workers when the checker leaves the scope, also by panic:
    /// the scope joins them before it lets a failed assertion out.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        for w in 0..WORKERS {
            let (db, table, stop, commits) = (db.clone(), table.clone(), &stop, &commits);
            scope.spawn(move || {
                let mut n = w;
                while !stop.load(Ordering::Relaxed) {
                    n = n
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let (a, b, c) = ((n >> 33) % 64, (n >> 41) % 64, (n >> 49) % 64);
                    let mut txn = db.begin();
                    let result = (|| {
                        txn.get(&table, &a.to_be_bytes())?;
                        txn.get(&table, &b.to_be_bytes())?;
                        txn.put(&table, &c.to_be_bytes(), &n.to_be_bytes())?;
                        txn.commit()
                    })();
                    match result {
                        Ok(()) => {
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => assert!(e.is_retryable(), "unexpected error: {e}"),
                    }
                }
            });
        }

        let mut last_horizon = 0;
        let mut round = 0u64;
        while commits.load(Ordering::Relaxed) < COMMITS {
            round += 1;
            let key = (round % 64).to_be_bytes();
            let mut held = db.begin();
            // A read of a row whose overwriter already committed with an
            // outgoing conflict of its own aborts the reader; try again.
            let first = match held.get(&table, &key) {
                Ok(value) => value,
                Err(e) => {
                    assert!(e.is_retryable(), "unexpected error: {e}");
                    continue;
                }
            };
            let snapshot = held.snapshot_ts().unwrap();
            for _ in 0..20 {
                let horizon = mgr.gc_horizon();
                assert!(
                    horizon <= snapshot,
                    "horizon {horizon} passed open snapshot {snapshot}"
                );
                assert!(horizon >= last_horizon, "horizon went backwards");
                last_horizon = horizon;
                assert!(mgr.oldest_active_begin() <= snapshot);
            }
            // A purge at the horizon leaves what the snapshot reads. (The
            // re-read and the commit can fail the way the first read can.)
            assert!(db.purge().horizon <= snapshot);
            let outcome = held.get(&table, &key).and_then(|again| {
                assert_eq!(again, first, "snapshot {snapshot} lost its version");
                held.commit()
            });
            if let Err(e) = outcome {
                assert!(e.is_retryable(), "unexpected error: {e}");
            }
        }
    });

    // Quiesced: the last finishes reclaimed everything themselves.
    assert_eq!(mgr.suspended_len(), 0, "suspended transactions leaked");
    assert_eq!(mgr.registry_len(), 0, "registry records leaked");
    assert_eq!(db.lock_manager().grant_count(), 0);
    assert_eq!(db.lock_manager().key_count(), 0);
    assert_eq!(db.siread_holder_count(), 0);
    let txn = db.metrics().txn;
    assert_eq!(txn.suspended, txn.cleaned);
    assert_eq!(txn.suspended_now, 0);
    assert_eq!(txn.siread_rows_now, 0);
}
