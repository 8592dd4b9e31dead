//! Chain-SIREAD model test.
//!
//! Random schedules of register / install / release / rollback-unlink /
//! purge over a few keys and transactions drive the system under test — a
//! table whose chains carry the SIREADs of rows and of the gaps in front of
//! them, next to a lock manager for what the engine still keeps there:
//! EXCLUSIVE locks, and the SIREAD of a point read that found no chain — side
//! by side with the oracle: a second lock manager that is asked for every
//! SIREAD and EXCLUSIVE lock, on records and on next-key gaps, the way the
//! engine asked before SIREADs moved onto the chain.
//!
//! What each read and write is told must agree: the readers handed to a
//! writer are the oracle's SIREAD holders — of the record for an update, of
//! `gap(next)` as well for the first version of a new key and for a delete —
//! and the writers handed to a reader are its EXCLUSIVE holders. So must,
//! after every step, who holds an SIREAD on each key and on the gap in front
//! of it. The differences the move makes on purpose are spelled out where
//! they are checked (`Model::table_only`, `Model::gap_table_only`,
//! `Model::expected_writers`). After every quiesce nothing is held anywhere.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use ssi_common::rng::WorkloadRng;
use ssi_common::{TableId, Timestamp, TxnId, TS_ZERO};
use ssi_lock::{LockKey, LockManager, LockMode};

use super::{RowChain, RowHandle, ScanEnd, ScanPage, Siread, SireadCover, Table};
use crate::version::Version;

const KEYS: usize = 4;
const MAX_TXNS: usize = 5;
const SEEDS: u64 = 300;
const STEPS: usize = 200;

fn key(k: usize) -> [u8; 2] {
    [b'k', k as u8]
}

fn index_of(key: &[u8]) -> usize {
    key[1] as usize
}

fn lock_key(k: usize) -> LockKey {
    LockKey::record(TableId(1), key(k).to_vec())
}

/// The lock name of the gap in front of key `k`, or above the last key.
fn gap_key(k: Option<usize>) -> LockKey {
    match k {
        Some(k) => LockKey::gap(TableId(1), key(k).to_vec()),
        None => LockKey::supremum(TableId(1)),
    }
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
    /// Gap SIREADs it holds by inheritance: the key whose chain was created
    /// with a copy, and the handle it was given to release it through.
    adopted: Vec<(usize, RowHandle)>,
    /// Keys SIREAD-locked in the table's own lock manager: point reads that
    /// found no chain.
    fallback: Vec<usize>,
    /// Keys SIREAD-locked in the oracle.
    oracle_sireads: Vec<usize>,
    /// Gaps SIREAD-locked in the oracle.
    oracle_gap_sireads: Vec<Option<usize>>,
    /// Keys it holds EXCLUSIVE (in both lock managers).
    exclusive: Vec<usize>,
    /// Gaps it holds EXCLUSIVE in the oracle: it inserted or deleted the key
    /// in front.
    gap_exclusive: Vec<Option<usize>>,
    /// Keys on which taking the EXCLUSIVE lock cost it its SIREAD.
    upgraded: Vec<usize>,
    /// Keys it registered on while it held their EXCLUSIVE lock and had not
    /// written them.
    covered: Vec<usize>,
    /// Gaps it registered on while it held their EXCLUSIVE lock.
    covered_gaps: Vec<Option<usize>>,
    writes: Vec<(usize, Arc<Version>)>,
}

/// How often the schedules reached what they are there to reach.
#[derive(Default)]
struct Reached {
    fallback_reads: usize,
    kept_mapped: usize,
    /// Holders an insert or delete was told of by the gap above its key.
    told_by_the_gap: usize,
    /// Gap SIREADs copied onto new keys.
    inherited: usize,
    /// Holders an insert was told of that only a copy could tell of.
    told_by_a_copy: usize,
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
    /// The end of a scan up to the given key, found some steps ago.
    stale_end: Option<(usize, ScanEnd)>,
    reached: Reached,
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
            stale_end: None,
            reached: Reached::default(),
        }
    }

    fn exclusive_holder(&self, k: usize) -> Option<TxnId> {
        let holder = self.txns.iter().find(|t| t.exclusive.contains(&k));
        holder.map(|t| t.id)
    }

    fn gap_exclusive_holder(&self, gap: Option<usize>) -> Option<TxnId> {
        let holder = self.txns.iter().find(|t| t.gap_exclusive.contains(&gap));
        holder.map(|t| t.id)
    }

    /// The chain that carries the gap a key at `k` lies in, as the table
    /// finds it: the first key above that is mapped and in use, or `None` for
    /// the supremum chain.
    fn successor(&self, k: usize) -> Option<usize> {
        let in_use = |j: &usize| {
            let chain = self.table.chain(&key(*j));
            chain.is_some_and(|c| !c.state.lock().is_unused())
        };
        (k + 1..KEYS).find(in_use)
    }

    /// Whether `id` is registered on the row of key `k`'s chain.
    fn holds_row(&self, k: usize, id: TxnId) -> bool {
        let chain = self.table.chain(&key(k));
        let holders = chain.map(|c| c.state.lock().readers.holders(SireadCover::ROW));
        holders.is_some_and(|holders| holders.contains(&id))
    }

    /// **Difference 1: holders of a row's SIREAD the table side has and the
    /// oracle has not.** Both are its own SIREAD on a row a transaction also
    /// holds EXCLUSIVE, so all either can add is a conflict with a later
    /// writer that overlaps the holder — which first-committer-wins aborts
    /// anyway if the holder wrote the row.
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

    /// **Difference 3: holders of a gap's SIREAD the table side has and the
    /// oracle has not.** The intended one is inheritance: a key inserted into
    /// a gap starts out with the gap's holders on the gap in front of it,
    /// where the oracle — the lock table as it was — has nobody, because
    /// nobody ever asked for a lock of that name. The other is the lock table
    /// granting no SIREAD to the holder of the gap's EXCLUSIVE lock, as for
    /// rows.
    fn gap_table_only(&self, gap: Option<usize>) -> Ids {
        let only = |t: &&Txn| {
            let adopted = gap.is_some_and(|k| t.adopted.iter().any(|(on, _)| *on == k));
            adopted || t.covered_gaps.contains(&gap)
        };
        self.txns.iter().filter(only).map(|t| t.id).collect()
    }

    /// The oracle's SIREAD holders of a gap, plus difference 3.
    fn expected_gap_holders(&self, gap: Option<usize>) -> Ids {
        let name = gap_key(gap);
        let held = self
            .oracle
            .peek_rw_conflicts(TxnId::INVALID, &name, LockMode::Exclusive);
        let mut expected = ids(&held);
        expected.extend(self.gap_table_only(gap));
        expected
    }

    /// **Difference 2.** A read that registers on the chain is told of the
    /// key's EXCLUSIVE holder only through the version it installed. One
    /// that holds the lock and has installed nothing (a locking read so far)
    /// is not reported: its install, if it comes, reports the reader
    /// instead. A read that goes through the lock table sees it as before.
    /// Likewise the EXCLUSIVE holder of a gap, which the oracle's gap SIREAD
    /// reports and no registration does: a scan meets it by reading the key
    /// it inserted.
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
                adopted: Vec::new(),
                fallback: Vec::new(),
                oracle_sireads: Vec::new(),
                oracle_gap_sireads: Vec::new(),
                exclusive: Vec::new(),
                gap_exclusive: Vec::new(),
                upgraded: Vec::new(),
                covered: Vec::new(),
                covered_gaps: Vec::new(),
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

    /// Files a registration the table made for `at` on the gap in front of
    /// `gap`, and asks the oracle for the SIREAD lock of that name.
    fn keep_gap(&mut self, at: usize, gap: Option<usize>, siread: Siread) {
        if let Siread::New(handle) = siread {
            self.txns[at].rows.push(handle);
        }
        let txn = &mut self.txns[at];
        let outcome = self.oracle.lock(txn.id, &gap_key(gap), LockMode::SiRead);
        if outcome.expect("SIREAD never fails").newly_acquired {
            txn.oracle_gap_sireads.push(gap);
        } else if !txn.oracle_gap_sireads.contains(&gap) && !txn.covered_gaps.contains(&gap) {
            assert!(txn.gap_exclusive.contains(&gap), "refused without a reason");
            txn.covered_gaps.push(gap);
        }
    }

    /// The Serializable-SI read of key `k`, by key or through a stale scan
    /// handle, as `ssi-core` does it: a point read registers on the row, a
    /// predicate read (`scan`) on the row and on the gap in front of it.
    fn read(&mut self, at: usize, k: usize, through_stale_handle: bool, scan: bool) {
        let id = self.txns[at].id;
        let context = format!("seed {} read of key {k} by {id:?}", self.seed);
        let cover = if scan {
            SireadCover::ROW_AND_GAP
        } else {
            SireadCover::ROW
        };
        let stale = self.stale_page.as_ref().and_then(|page| {
            let row = page.rows.iter().find(|row| row.key[..] == key(k)[..]);
            row.map(|row| row.handle.clone())
        });
        let held_row = self.holds_row(k, id);
        let (read, siread) = match stale {
            Some(handle) if through_stale_handle => {
                self.table
                    .read_row_registering(&key(k), handle, id, self.clock, cover)
            }
            _ => self.table.read_registering(&key(k), id, self.clock, cover),
        };
        let mut writers = ids(&read.newer_creators);
        let on_chain = !matches!(siread, Siread::NoChain);
        match siread {
            Siread::New(handle) => self.txns[at].rows.push(handle),
            Siread::Held => {}
            Siread::NoChain if scan => {
                // The key is not there: the scan covers the place where it
                // would be, on the gap above, and finds it still missing.
                let upper = Bound::Included(&key(k)[..]);
                let (above, on) = self.table.register_gap_above(upper, id);
                self.keep_gap(at, on.map(|key| index_of(&key)), above);
                let again = self.table.read_registering(&key(k), id, self.clock, cover);
                assert!(matches!(again.1, Siread::NoChain), "{context}");
                return;
            }
            Siread::NoChain => {
                self.reached.fallback_reads += 1;
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
        if !held_row && self.holds_row(k, id) && self.txns[at].exclusive.contains(&k) {
            debug_assert!(self.txns[at].writes.iter().all(|(w, _)| *w != k));
            self.txns[at].covered.push(k);
        }

        let outcome = self.oracle.lock(id, &lock_key(k), LockMode::SiRead);
        let outcome = outcome.expect("SIREAD never fails");
        if outcome.newly_acquired {
            self.txns[at].oracle_sireads.push(k);
        }
        let expected = self.expected_writers(ids(&outcome.rw_conflicts), k, on_chain);
        assert_eq!(writers, expected, "{context}: writers reported");
        if scan {
            // The registration that read the row took the gap with it.
            self.keep_gap(at, Some(k), Siread::Held);
        }
    }

    /// The gap that closes a scan up to key `k`, through the handle a page
    /// found for it now or some steps ago.
    fn end_gap(&mut self, at: usize, k: usize, through_stale_handle: bool) {
        let id = self.txns[at].id;
        let upper = Bound::Included(&key(k)[..]);
        let stale = self
            .stale_end
            .take_if(|(of, _)| through_stale_handle && *of == k);
        let end = stale.map(|(_, end)| end).unwrap_or_else(|| {
            let page = self.table.cursor(Bound::Unbounded, upper).next_page();
            page.and_then(|page| page.end_gap).expect("one short page")
        });
        let (siread, on) = self.table.register_end_gap(end, upper, id);
        let on = on.map(|key| index_of(&key));
        assert!(on.is_none_or(|on| on > k), "seed {}", self.seed);
        self.keep_gap(at, on, siread);
    }

    /// EXCLUSIVE lock, then either the locking read's probe or an install.
    fn write(&mut self, at: usize, k: usize, install: bool) {
        let id = self.txns[at].id;
        if self.exclusive_holder(k).is_some_and(|holder| holder != id) {
            return; // would block
        }
        let context = format!("seed {} write of key {k} by {id:?}", self.seed);
        let delete = install && self.rng.index(4) == 0;
        // What the engine looks at under the EXCLUSIVE lock. A key without a
        // live version is inserted, not updated: its first version ever
        // (`fresh`: the key has no chain) goes into the gap above it, which
        // is what a delete reports to as well; one onto a chain that a
        // rolled-back insert left mapped goes where the chain is.
        let live = self.table.contains_key(&key(k));
        let fresh = self.table.chain(&key(k)).is_none();
        let above = (install && (fresh || (live && delete))).then(|| self.successor(k));
        if above.is_some_and(|gap| self.gap_exclusive_holder(gap).is_some_and(|h| h != id)) {
            return; // would block
        }
        let granted = self.locks.lock(id, &lock_key(k), LockMode::Exclusive);
        let mut readers = ids(&granted.expect("no other holder").rw_conflicts);
        let upgraded = if install {
            let value = (!delete).then(|| vec![k as u8].into());
            let done = self
                .table
                .install(&key(k), id, value, self.upgrade, || TS_ZERO);
            readers.extend(done.readers.iter());
            self.txns[at].writes.push((k, done.version));
            assert!(done.inherited.is_none() || fresh, "{context}");
            if let Some(inherited) = done.inherited {
                // The engine's adoption. Everyone here is active or
                // suspended, so nobody is past taking the handle.
                self.reached.inherited += inherited.holders.len();
                for holder in &inherited.holders {
                    let heir = self.txns.iter_mut().find(|t| t.id == *holder);
                    let heir = heir.expect("a holder has not been released");
                    heir.adopted.push((k, inherited.chain.clone()));
                }
            }
            if live && delete {
                readers.extend(self.table.gap_holders_above(&key(k), id).iter());
            }
            done.upgraded
        } else {
            let found = self.table.probe_for_update(&key(k), id, self.upgrade);
            readers.extend(found.readers.iter());
            found.upgraded
        };
        assert!(!upgraded || self.upgrade, "{context}");
        if !self.holds_row(k, id) {
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
        if !live && !fresh {
            // Whoever covers the place of a key whose chain is mapped holds
            // the key's own gap: it scanned the key, or was copied there
            // when the key split the gap it was holding.
            expected.extend(self.expected_gap_holders(Some(k)));
        }
        if let Some(gap) = above {
            let granted = self.oracle.lock(id, &gap_key(gap), LockMode::Exclusive);
            let told = ids(&granted.expect("no other holder").rw_conflicts);
            let copies = self.gap_table_only(gap);
            let others = |set: &Ids| set.iter().filter(|t| **t != id).count();
            self.reached.told_by_the_gap += others(&told);
            self.reached.told_by_a_copy += others(&copies.difference(&told).copied().collect());
            expected.extend(told);
            expected.extend(copies);
            if !self.txns[at].gap_exclusive.contains(&gap) {
                self.txns[at].gap_exclusive.push(gap);
            }
        }
        expected.remove(&id);
        assert_eq!(readers, expected, "{context}: readers reported");
    }

    fn release_exclusive(&mut self, at: usize) {
        let id = self.txns[at].id;
        for k in std::mem::take(&mut self.txns[at].exclusive) {
            self.locks.unlock(id, &lock_key(k), LockMode::Exclusive);
            self.oracle.unlock(id, &lock_key(k), LockMode::Exclusive);
        }
        for gap in std::mem::take(&mut self.txns[at].gap_exclusive) {
            self.oracle.unlock(id, &gap_key(gap), LockMode::Exclusive);
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
        for (k, chain) in &txn.adopted {
            let released = chain.release_siread(txn.id);
            assert!(released, "seed {}: copy on key {k} gone early", self.seed);
        }
        let keys = |held: &[usize]| held.iter().map(|k| lock_key(*k)).collect::<Vec<_>>();
        self.locks
            .unlock_batch(txn.id, &keys(&txn.fallback), LockMode::SiRead);
        self.oracle
            .unlock_batch(txn.id, &keys(&txn.oracle_sireads), LockMode::SiRead);
        let gaps: Vec<_> = txn.oracle_gap_sireads.iter().map(|g| gap_key(*g)).collect();
        self.oracle.unlock_batch(txn.id, &gaps, LockMode::SiRead);
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

    /// Who holds an SIREAD on each key and on each gap, on both sides; and
    /// that a chain someone is registered on is still the one the key maps
    /// to.
    fn check(&mut self) {
        let mapped: Vec<_> = (0..KEYS).map(|k| self.table.chain(&key(k))).collect();
        for txn in &self.txns {
            let adopted = txn.adopted.iter().map(|(_, chain)| chain);
            for row in txn.rows.iter().chain(adopted) {
                let registered = row.chain.state.lock().readers.iter().any(|id| id == txn.id);
                let is_mapped = mapped.iter().flatten().any(|c| Arc::ptr_eq(c, &row.chain))
                    || Arc::ptr_eq(&self.table.supremum, &row.chain);
                assert!(
                    !registered || is_mapped,
                    "seed {}: {:?} is registered on an unmapped chain",
                    self.seed,
                    txn.id
                );
            }
        }
        let holders = |chain: &Arc<RowChain>, cover: SireadCover| {
            let held = chain.state.lock().readers.holders(cover);
            ids(&held)
        };
        for (k, chain) in mapped.iter().enumerate() {
            let context = format!("seed {} key {k}", self.seed);
            let on_chain = |cover| chain.as_ref().map_or(Ids::new(), |c| holders(c, cover));
            let no_versions = |c: &Arc<RowChain>| c.state.lock().versions.is_empty();
            let anyone = !on_chain(SireadCover::ROW_AND_GAP).is_empty();
            if chain.as_ref().is_some_and(no_versions) && anyone {
                self.reached.kept_mapped += 1;
            }
            let invalid = TxnId::INVALID;
            let mut held = on_chain(SireadCover::ROW);
            held.extend(
                self.locks
                    .peek_rw_conflicts(invalid, &lock_key(k), LockMode::Exclusive),
            );
            let mut expected =
                ids(&self
                    .oracle
                    .peek_rw_conflicts(invalid, &lock_key(k), LockMode::Exclusive));
            expected.extend(self.table_only(k));
            assert_eq!(held, expected, "{context}: SIREAD holders of the row");
            assert_eq!(
                on_chain(SireadCover::GAP),
                self.expected_gap_holders(Some(k)),
                "{context}: SIREAD holders of the gap"
            );
        }
        assert_eq!(
            holders(&self.table.supremum, SireadCover::ROW_AND_GAP),
            self.expected_gap_holders(None),
            "seed {}: SIREAD holders of the gap above the last key",
            self.seed
        );
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
        match self.rng.index(25) {
            0..=2 => self.begin(),
            3..=6 => {
                if let Some(at) = self.pick(false) {
                    let through_stale_handle = self.rng.index(3) == 0;
                    self.read(at, k, through_stale_handle, false);
                }
            }
            7..=10 => {
                if let Some(at) = self.pick(false) {
                    self.write(at, k, true);
                }
            }
            11 => {
                if let Some(at) = self.pick(false) {
                    self.write(at, k, false);
                }
            }
            12 | 13 => {
                if let Some(at) = self.pick(false) {
                    self.commit(at);
                }
            }
            14 => {
                if let Some(at) = self.pick(false) {
                    self.abort(at);
                }
            }
            15 => {
                if let Some(at) = self.pick(true) {
                    self.release(at);
                }
            }
            16 => {
                self.table.purge_old_versions(self.clock);
            }
            17 | 18 => {
                let mut cursor = self.table.cursor(Bound::Unbounded, Bound::Unbounded);
                self.stale_page = cursor.next_page();
                let upper = Bound::Included(&key(k)[..]);
                let page = self.table.cursor(Bound::Unbounded, upper).next_page();
                self.stale_end = page.and_then(|page| page.end_gap).map(|end| (k, end));
            }
            19..=21 => {
                if let Some(at) = self.pick(false) {
                    let through_stale_handle = self.rng.index(3) == 0;
                    self.read(at, k, through_stale_handle, true);
                }
            }
            22 | 23 => {
                if let Some(at) = self.pick(false) {
                    let through_stale_handle = self.rng.index(2) == 0;
                    self.end_gap(at, k, through_stale_handle);
                }
            }
            _ => self.quiesce(),
        }
        self.check();
    }
}

#[test]
fn chain_resident_sireads_report_what_the_lock_table_would() {
    let mut reached = [0; 5];
    for seed in 1..=SEEDS {
        let mut model = Model::new(seed);
        for _ in 0..STEPS {
            model.step();
        }
        model.quiesce();
        let r = model.reached;
        let of_this_seed = [
            r.fallback_reads,
            r.kept_mapped,
            r.told_by_the_gap,
            r.inherited,
            r.told_by_a_copy,
        ];
        for (total, n) in reached.iter_mut().zip(of_this_seed) {
            *total += n;
        }
    }
    // The schedules must actually reach the lock-table fallback, the chains
    // that only their holders keep mapped, the inserts and deletes that a
    // gap's holders are told of, the copies new keys start out with, and the
    // inserts that only a copy can tell of.
    let often = SEEDS as usize;
    let [fallback_reads, kept_mapped, told_by_the_gap, inherited, told_by_a_copy] = reached;
    assert!(fallback_reads > often, "{fallback_reads} fallbacks");
    assert!(kept_mapped > often, "{kept_mapped} kept mapped");
    assert!(told_by_the_gap > often, "{told_by_the_gap} told by the gap");
    assert!(inherited > often, "{inherited} inherited");
    assert!(
        told_by_a_copy > often / 2,
        "{told_by_a_copy} told by a copy"
    );
}
