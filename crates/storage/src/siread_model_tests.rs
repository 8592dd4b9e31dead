//! Row-SIREAD model test.
//!
//! Random schedules of register / install / release / rollback-unlink /
//! purge over a few keys and transactions drive the system under test — a
//! table whose chains carry the row SIREADs, next to a lock manager for what
//! the engine still keeps there: EXCLUSIVE locks, and the SIREAD of a read
//! that found no chain — side by side with the oracle: a second lock manager
//! that is asked for every SIREAD and EXCLUSIVE lock the way the engine asked
//! before row SIREADs moved onto the chain.
//!
//! What each read and write is told must agree: the readers handed to a
//! writer are the oracle's SIREAD holders, the writers handed to a reader are
//! its EXCLUSIVE holders. So must, after every step, who holds an SIREAD on
//! each key. The differences the move makes on purpose are spelled out where
//! they are checked (`Model::table_only`, `Model::expected_writers`).
//! After every quiesce nothing is held anywhere.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use ssi_common::rng::WorkloadRng;
use ssi_common::{TableId, Timestamp, TxnId, TS_ZERO};
use ssi_lock::{LockKey, LockManager, LockMode};

use super::{RowHandle, ScanPage, Siread, Table};
use crate::version::Version;

const KEYS: usize = 3;
const MAX_TXNS: usize = 5;
const SEEDS: u64 = 300;
const STEPS: usize = 200;

fn key(k: usize) -> [u8; 2] {
    [b'k', k as u8]
}

fn lock_key(k: usize) -> LockKey {
    LockKey::record(TableId(1), key(k).to_vec())
}

type Ids = BTreeSet<TxnId>;

fn ids<'a>(list: impl IntoIterator<Item = &'a TxnId>) -> Ids {
    list.into_iter().copied().collect()
}

struct Txn {
    id: TxnId,
    /// Committed and suspended: its EXCLUSIVE locks are gone, its SIREADs
    /// stay until it is released.
    committed: bool,
    /// Chain registrations (one handle per new one, upgraded or not).
    rows: Vec<RowHandle>,
    /// Keys SIREAD-locked in the table's own lock manager: reads that found
    /// no chain.
    fallback: Vec<usize>,
    /// Keys SIREAD-locked in the oracle.
    oracle_sireads: Vec<usize>,
    /// Keys it holds EXCLUSIVE (in both lock managers).
    exclusive: Vec<usize>,
    /// Keys on which taking the EXCLUSIVE lock cost it its SIREAD.
    upgraded: Vec<usize>,
    /// Keys it registered on while it held their EXCLUSIVE lock and had not
    /// written them.
    covered: Vec<usize>,
    writes: Vec<(usize, Arc<Version>)>,
}

struct Model {
    seed: u64,
    /// The schedule is a function of the seed alone.
    rng: WorkloadRng,
    /// Whether writers drop their own SIREAD (Sec. 3.7.3).
    upgrade: bool,
    table: Table,
    locks: LockManager,
    oracle: LockManager,
    clock: Timestamp,
    next_txn: u64,
    txns: Vec<Txn>,
    /// A page of chain handles taken some steps ago.
    stale_page: Option<ScanPage>,
    fallback_reads: usize,
    kept_mapped: usize,
}

impl Model {
    fn new(seed: u64) -> Self {
        Model {
            seed,
            rng: WorkloadRng::new(seed),
            upgrade: !seed.is_multiple_of(3),
            table: Table::new(TableId(1), "model"),
            locks: LockManager::with_defaults(),
            oracle: LockManager::with_defaults(),
            clock: 1,
            next_txn: 10,
            txns: Vec::new(),
            stale_page: None,
            fallback_reads: 0,
            kept_mapped: 0,
        }
    }

    fn exclusive_holder(&self, k: usize) -> Option<TxnId> {
        let holder = self.txns.iter().find(|t| t.exclusive.contains(&k));
        holder.map(|t| t.id)
    }

    /// **Difference 1: SIREAD holders the table side has and the oracle has
    /// not.** Both are its own SIREAD on a row a transaction also holds
    /// EXCLUSIVE, so all either can add is a conflict with a later writer
    /// that overlaps the holder — which first-committer-wins aborts anyway if
    /// the holder wrote the row.
    ///
    /// * A writer's own SIREAD goes when it takes the row's EXCLUSIVE lock
    ///   (Sec. 3.7.3). The oracle releases it whatever it was; the engine
    ///   drops a chain registration inside the install or the locking read's
    ///   probe, but leaves an SIREAD that a read of the then missing key put
    ///   into the lock table, to be freed with the rest at cleanup.
    /// * The lock table grants no SIREAD to the holder of the EXCLUSIVE
    ///   lock. A chain knows its writer only by the version it installed, so
    ///   a holder that reads the row before writing it registers.
    fn table_only(&self, k: usize) -> Ids {
        let only = |t: &&Txn| {
            (t.fallback.contains(&k) && t.upgraded.contains(&k)) || t.covered.contains(&k)
        };
        self.txns.iter().filter(only).map(|t| t.id).collect()
    }

    /// **Difference 2.** A read that registers on the chain is told of the
    /// key's EXCLUSIVE holder only through the version it installed. One
    /// that holds the lock and has installed nothing (a locking read so far)
    /// is not reported: its install, if it comes, reports the reader
    /// instead. A read that goes through the lock table sees it as before.
    fn expected_writers(&self, oracle_says: Ids, k: usize, on_chain: bool) -> Ids {
        let has_version = |id: &TxnId| {
            let t = self.txns.iter().find(|t| t.id == *id).expect("live holder");
            t.writes.iter().any(|(w, _)| *w == k)
        };
        let reported = |id: &TxnId| !on_chain || has_version(id);
        oracle_says.into_iter().filter(reported).collect()
    }

    fn begin(&mut self) {
        if self.txns.len() < MAX_TXNS {
            self.txns.push(Txn {
                id: TxnId(self.next_txn),
                committed: false,
                rows: Vec::new(),
                fallback: Vec::new(),
                oracle_sireads: Vec::new(),
                exclusive: Vec::new(),
                upgraded: Vec::new(),
                covered: Vec::new(),
                writes: Vec::new(),
            });
            self.next_txn += 1;
        }
    }

    fn pick(&mut self, committed: bool) -> Option<usize> {
        let matching: Vec<usize> = (0..self.txns.len())
            .filter(|&i| self.txns[i].committed == committed)
            .collect();
        (!matching.is_empty()).then(|| matching[self.rng.index(matching.len())])
    }

    /// The Serializable-SI read of key `k`, by key or through a stale scan
    /// handle, as `ssi-core` does it.
    fn read(&mut self, at: usize, k: usize, through_stale_handle: bool) {
        let id = self.txns[at].id;
        let context = format!("seed {} read of key {k} by {id:?}", self.seed);
        let stale = self.stale_page.as_ref().and_then(|page| {
            let row = page.rows.iter().find(|row| row.key[..] == key(k)[..]);
            row.map(|row| row.handle.clone())
        });
        let (read, siread) = match stale {
            Some(handle) if through_stale_handle => {
                self.table
                    .read_row_registering(&key(k), handle, id, self.clock)
            }
            _ => self.table.read_registering(&key(k), id, self.clock),
        };
        let mut writers = ids(&read.newer_creators);
        let on_chain = !matches!(siread, Siread::NoChain);
        match siread {
            Siread::New(handle) => {
                let txn = &mut self.txns[at];
                txn.rows.push(handle);
                if txn.exclusive.contains(&k) {
                    debug_assert!(txn.writes.iter().all(|(w, _)| *w != k));
                    txn.covered.push(k);
                }
            }
            Siread::Held => {}
            Siread::NoChain => {
                self.fallback_reads += 1;
                let outcome = self.locks.lock(id, &lock_key(k), LockMode::SiRead);
                let outcome = outcome.expect("SIREAD never fails");
                if outcome.newly_acquired {
                    self.txns[at].fallback.push(k);
                }
                writers.extend(outcome.rw_conflicts);
                let read = self.table.read(&key(k), id, self.clock);
                writers.extend(read.newer_creators.iter());
            }
        }
        writers.remove(&id);

        let outcome = self.oracle.lock(id, &lock_key(k), LockMode::SiRead);
        let outcome = outcome.expect("SIREAD never fails");
        if outcome.newly_acquired {
            self.txns[at].oracle_sireads.push(k);
        }
        let expected = self.expected_writers(ids(&outcome.rw_conflicts), k, on_chain);
        assert_eq!(writers, expected, "{context}: writers reported");
    }

    /// EXCLUSIVE lock, then either the locking read's probe or an install.
    fn write(&mut self, at: usize, k: usize, install: bool) {
        let id = self.txns[at].id;
        if self.exclusive_holder(k).is_some_and(|holder| holder != id) {
            return; // would block
        }
        let context = format!("seed {} write of key {k} by {id:?}", self.seed);
        let granted = self.locks.lock(id, &lock_key(k), LockMode::Exclusive);
        let mut readers = ids(&granted.expect("no other holder").rw_conflicts);
        let upgraded = if install {
            let value = (self.rng.index(4) != 0).then(|| vec![k as u8].into());
            let done = self
                .table
                .install(&key(k), id, value, self.upgrade, || TS_ZERO);
            readers.extend(done.readers.iter());
            self.txns[at].writes.push((k, done.version));
            done.upgraded
        } else {
            let found = self.table.probe_for_update(&key(k), id, self.upgrade);
            readers.extend(found.readers.iter());
            found.upgraded
        };
        assert!(!upgraded || self.upgrade, "{context}");
        if upgraded {
            self.txns[at].covered.retain(|held| *held != k);
        }
        if !self.txns[at].exclusive.contains(&k) {
            self.txns[at].exclusive.push(k);
        }

        let granted = self.oracle.lock(id, &lock_key(k), LockMode::Exclusive);
        let mut expected = ids(&granted.expect("no other holder").rw_conflicts);
        if self.upgrade {
            self.oracle.unlock(id, &lock_key(k), LockMode::SiRead);
            self.txns[at].oracle_sireads.retain(|held| *held != k);
            self.txns[at].upgraded.push(k);
        }
        expected.extend(self.table_only(k));
        expected.remove(&id);
        assert_eq!(readers, expected, "{context}: readers reported");
    }

    fn release_exclusive(&mut self, at: usize) {
        let id = self.txns[at].id;
        for k in std::mem::take(&mut self.txns[at].exclusive) {
            self.locks.unlock(id, &lock_key(k), LockMode::Exclusive);
            self.oracle.unlock(id, &lock_key(k), LockMode::Exclusive);
        }
    }

    fn commit(&mut self, at: usize) {
        if !self.txns[at].writes.is_empty() {
            self.clock += 1;
        }
        for (_, version) in &self.txns[at].writes {
            version.mark_committed(self.clock);
        }
        self.release_exclusive(at);
        self.txns[at].committed = true;
    }

    /// Releases every SIREAD of a finished transaction and forgets it.
    fn release(&mut self, at: usize) {
        let txn = self.txns.swap_remove(at);
        for row in &txn.rows {
            row.release_siread(txn.id);
        }
        let keys = |held: &[usize]| held.iter().map(|k| lock_key(*k)).collect::<Vec<_>>();
        self.locks
            .unlock_batch(txn.id, &keys(&txn.fallback), LockMode::SiRead);
        self.oracle
            .unlock_batch(txn.id, &keys(&txn.oracle_sireads), LockMode::SiRead);
    }

    fn abort(&mut self, at: usize) {
        for (_, version) in &self.txns[at].writes {
            version.mark_aborted();
        }
        if self.rng.index(3) == 0 {
            // A purge pass gets to the leftovers before the rollback does.
            self.table.purge_old_versions(self.clock);
        }
        // The engine's order: SIREADs first, so that a chain the rollback
        // empties can go at once.
        let writes = std::mem::take(&mut self.txns[at].writes);
        self.release_exclusive(at);
        self.release(at);
        for (k, version) in &writes {
            self.table.unlink_version(&key(*k), version);
        }
    }

    /// Who holds an SIREAD on each key, on both sides; and that a chain
    /// someone is registered on is still the one the key maps to.
    fn check(&mut self) {
        let mapped: Vec<_> = (0..KEYS).map(|k| self.table.chain(&key(k))).collect();
        for txn in &self.txns {
            for row in &txn.rows {
                let registered = row.chain.state.lock().readers.iter().any(|id| id == txn.id);
                let is_mapped = mapped.iter().flatten().any(|c| Arc::ptr_eq(c, &row.chain));
                assert!(
                    !registered || is_mapped,
                    "seed {}: {:?} is registered on an unmapped chain",
                    self.seed,
                    txn.id
                );
            }
        }
        for (k, chain) in mapped.iter().enumerate() {
            let context = format!("seed {} key {k}", self.seed);
            let mut held: Ids = chain.as_ref().map_or(Ids::new(), |chain| {
                chain.state.lock().readers.iter().collect()
            });
            let no_versions = |c: &Arc<super::RowChain>| c.state.lock().versions.is_empty();
            if chain.as_ref().is_some_and(no_versions) && !held.is_empty() {
                self.kept_mapped += 1;
            }
            let invalid = TxnId::INVALID;
            held.extend(
                self.locks
                    .peek_rw_conflicts(invalid, &lock_key(k), LockMode::Exclusive),
            );
            let mut expected =
                ids(&self
                    .oracle
                    .peek_rw_conflicts(invalid, &lock_key(k), LockMode::Exclusive));
            expected.extend(self.table_only(k));
            assert_eq!(held, expected, "{context}: SIREAD holders");
        }
    }

    fn quiesce(&mut self) {
        while let Some(at) = self.pick(false) {
            match self.rng.index(2) {
                0 => self.commit(at),
                _ => self.abort(at),
            }
        }
        while !self.txns.is_empty() {
            self.release(0);
        }
        let context = format!("seed {}", self.seed);
        assert_eq!(self.table.siread_holder_count(), 0, "{context}");
        assert_eq!(self.locks.grant_count(), 0, "{context}");
        assert_eq!(self.oracle.grant_count(), 0, "{context}");
        // With nobody registered, a pass takes every chain left unused.
        self.table.purge_old_versions(self.clock);
        for k in 0..KEYS {
            let unused = self
                .table
                .chain(&key(k))
                .is_some_and(|c| c.state.lock().is_unused());
            assert!(!unused, "{context}: key {k} left mapped with nothing in it");
        }
    }

    fn step(&mut self) {
        let k = self.rng.index(KEYS);
        match self.rng.index(20) {
            0..=2 => self.begin(),
            3..=7 => {
                if let Some(at) = self.pick(false) {
                    let through_stale_handle = self.rng.index(3) == 0;
                    self.read(at, k, through_stale_handle);
                }
            }
            8..=11 => {
                if let Some(at) = self.pick(false) {
                    self.write(at, k, true);
                }
            }
            12 => {
                if let Some(at) = self.pick(false) {
                    self.write(at, k, false);
                }
            }
            13 | 14 => {
                if let Some(at) = self.pick(false) {
                    self.commit(at);
                }
            }
            15 => {
                if let Some(at) = self.pick(false) {
                    self.abort(at);
                }
            }
            16 => {
                if let Some(at) = self.pick(true) {
                    self.release(at);
                }
            }
            17 => {
                self.table.purge_old_versions(self.clock);
            }
            18 => {
                let mut cursor = self.table.cursor(Bound::Unbounded, Bound::Unbounded);
                self.stale_page = cursor.next_page();
            }
            _ => self.quiesce(),
        }
        self.check();
    }
}

#[test]
fn chain_resident_sireads_report_what_the_lock_table_would() {
    let (mut fallback_reads, mut kept_mapped) = (0, 0);
    for seed in 1..=SEEDS {
        let mut model = Model::new(seed);
        for _ in 0..STEPS {
            model.step();
        }
        model.quiesce();
        fallback_reads += model.fallback_reads;
        kept_mapped += model.kept_mapped;
    }
    // The schedules must actually reach the lock-table fallback and the
    // chains that only their readers keep mapped.
    assert!(
        fallback_reads > SEEDS as usize,
        "{fallback_reads} fallbacks"
    );
    assert!(kept_mapped > SEEDS as usize, "{kept_mapped} kept mapped");
}
