//! SIREAD model test: point readers on the chain, range scans on the table.
//!
//! Random schedules of point read / register range / insert / update /
//! delete / release / rollback-unlink / purge over a few keys and
//! transactions drive the system under test — a table whose chains carry the
//! SIREADs of point reads and whose range list carries the scans, next to a
//! lock manager for what the engine still keeps there: EXCLUSIVE locks, and
//! the SIREAD of a point read that found no chain — side by side with the
//! oracle: a second lock manager that is asked the way the engine asked
//! before SIREADs left the lock table. It has two lock spaces:
//!
//! * the **point space** ([`lock_key`]): an SIREAD per point read and the
//!   writer's EXCLUSIVE lock on the record, as today;
//! * the **scan space** ([`scanned`], [`gap_key`]): a scan's next-key locks —
//!   an SIREAD on every key it listed and on the gap in front of it, plus the
//!   gap that closes its range — which a writer consults under the record's
//!   name and, for a key without a live version and for a delete, under
//!   `gap(next)`. Next-key locks under *names* are only sound with InnoDB's
//!   `lock_rec_inherit_to_gap`, so the model performs it on the oracle: a key
//!   that enters the index inherits the next-key locks of its successor, and
//!   the gap locks of a key that leaves the index go to its successor.
//!
//! Every range registration gets a random [`RangeMode`]: an SIREAD, as a
//! Serializable-SI scan makes, or a `Shared` range, as an S2PL scan does.
//!
//! What each write is told must agree. The row's point readers are the point
//! space's SIREAD holders, exactly (`Model::table_only` has the two
//! differences the chain's SIREAD makes on purpose). The SIREAD range holders
//! an install reports are holders in the scan space too — a range is never
//! wider than the next-key locks of the scan that registered it — and they
//! are all of them whose range is an SIREAD one but `oracle_only`: the
//! oracle's next-key lock also covers the keys between a scan's bound and the
//! neighbouring key, which the range, stopping at the bound, does not. The
//! `Shared` holders an install reports are the `Shared` ranges that contain
//! the key when the install links it — its first version, or one onto a chain
//! that holds no live version — and nobody otherwise.
//! After every quiesce nothing is held anywhere.

use std::collections::BTreeSet;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

use ssi_common::rng::WorkloadRng;
use ssi_common::{TableId, Timestamp, TxnId, TS_ZERO};
use ssi_lock::{LockKey, LockManager, LockMode};

use super::{RowChain, RowHandle, Siread, Table};
use crate::range::{RangeHandle, RangeMode};
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

/// Point space: the record.
fn lock_key(k: usize) -> LockKey {
    LockKey::record(TableId(1), key(k).to_vec())
}

/// Scan space: the record half of the next-key lock on key `k`.
fn scanned(k: usize) -> LockKey {
    LockKey::record(TableId(2), key(k).to_vec())
}

/// Scan space: the gap in front of key `k`, or above the last key.
fn gap_key(k: Option<usize>) -> LockKey {
    match k {
        Some(k) => LockKey::gap(TableId(2), key(k).to_vec()),
        None => LockKey::supremum(TableId(2)),
    }
}

type Ids = BTreeSet<TxnId>;

fn ids<'a>(list: impl IntoIterator<Item = &'a TxnId>) -> Ids {
    list.into_iter().copied().collect()
}

/// The bounds of a scan, over key numbers.
type Bounds = (Bound<usize>, Bound<usize>);

fn key_bound(bound: Bound<usize>) -> Bound<Vec<u8>> {
    match bound {
        Bound::Included(k) => Bound::Included(key(k).to_vec()),
        Bound::Excluded(k) => Bound::Excluded(key(k).to_vec()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

struct Txn {
    id: TxnId,
    /// Committed and suspended: its EXCLUSIVE locks are gone, its SIREADs
    /// stay until it is released.
    committed: bool,
    /// Chain registrations (one handle per new one, upgraded or not).
    rows: Vec<RowHandle>,
    /// Range registrations, with the bounds and mode they were made for.
    ranges: Vec<(Bounds, RangeMode, RangeHandle)>,
    /// Keys SIREAD-locked in the table's own lock manager: point reads that
    /// found no chain.
    fallback: Vec<usize>,
    /// Keys SIREAD-locked in the oracle's point space.
    oracle_sireads: Vec<usize>,
    /// What it holds in the oracle's scan space, asked for or inherited.
    oracle_scan_locks: Vec<LockKey>,
    /// Keys it holds EXCLUSIVE (in both lock managers).
    exclusive: Vec<usize>,
    /// Gaps whose EXCLUSIVE lock the engine would have it hold: it wrote a
    /// key without a live version, or deleted one, in front of them.
    gap_exclusive: Vec<Option<usize>>,
    /// Keys on which taking the EXCLUSIVE lock cost it its SIREAD.
    upgraded: Vec<usize>,
    /// Keys it registered on while it held their EXCLUSIVE lock and had not
    /// written them.
    covered: Vec<usize>,
    writes: Vec<(usize, Arc<Version>)>,
}

impl Txn {
    fn has_range_with(&self, k: usize) -> bool {
        self.ranges.iter().any(|(bounds, _, _)| bounds.contains(&k))
    }

    fn has_range_in(&self, mode: RangeMode, k: usize) -> bool {
        let mut ranges = self.ranges.iter();
        ranges.any(|(bounds, held, _)| *held == mode && bounds.contains(&k))
    }
}

/// How often the schedules reached what they are there to reach.
#[derive(Default)]
struct Reached {
    fallback_reads: usize,
    kept_mapped: usize,
    /// Range holders an install was told of.
    told_by_a_range: usize,
    /// Of those, for the first version of a key that entered the index.
    told_of_a_phantom: usize,
    /// `Shared` holders a link into their range was told of.
    blocked_links: usize,
    /// Of those, for a push onto a chain a point reader kept without one.
    blocked_pushes: usize,
    /// Holders the oracle's next-key locks reported and no range contained.
    oracle_only: usize,
    /// Next-key locks a key inherited when it entered the index.
    inherited: usize,
    /// Gap locks that went to the successor of a key that left the index.
    merged: usize,
    /// Scans that registered nothing: a range of the holder's covered them.
    repeated_scans: usize,
}

struct Model {
    seed: u64,
    /// The schedule is a function of the seed alone.
    rng: WorkloadRng,
    table: Table,
    locks: LockManager,
    oracle: LockManager,
    clock: Timestamp,
    next_txn: u64,
    txns: Vec<Txn>,
    /// Which keys the table had a chain for when the oracle's scan space was
    /// last brought up to date.
    mapped: [bool; KEYS],
    reached: Reached,
}

impl Model {
    fn new(seed: u64) -> Self {
        Model {
            seed,
            rng: WorkloadRng::new(seed),
            table: Table::new(TableId(1), "model"),
            locks: LockManager::with_defaults(),
            oracle: LockManager::with_defaults(),
            clock: 1,
            next_txn: 10,
            txns: Vec::new(),
            mapped: [false; KEYS],
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

    /// The first mapped key above `k`: whose gap a key at `k` lies in.
    fn successor(&self, k: usize) -> Option<usize> {
        let next = self.table.next_key_after(&key(k));
        next.map(|key| index_of(&key))
    }

    /// The SIREAD holders of a name in the oracle's scan space: what an
    /// EXCLUSIVE request there would be told. (Writers only ask: whom a gap's
    /// EXCLUSIVE lock would make wait is decided by `gap_exclusive`, and an
    /// EXCLUSIVE grant in this space would make the oracle refuse its holder
    /// the SIREADs it is due by inheritance.)
    fn scan_holders(&self, name: &LockKey) -> Ids {
        let held = self
            .oracle
            .peek_rw_conflicts(TxnId::INVALID, name, LockMode::Exclusive);
        ids(&held)
    }

    /// Grants `holder` an SIREAD in the oracle's scan space.
    fn grant_scan_lock(&mut self, holder: TxnId, name: LockKey) -> bool {
        let outcome = self.oracle.lock(holder, &name, LockMode::SiRead);
        let fresh = outcome.expect("SIREAD never fails").newly_acquired;
        let txn = self.txns.iter_mut().find(|t| t.id == holder);
        let txn = txn.expect("a holder has not been released");
        assert!(fresh || txn.oracle_scan_locks.contains(&name), "refused");
        if fresh {
            txn.oracle_scan_locks.push(name);
        }
        fresh
    }

    /// `lock_rec_inherit_to_gap` for a key that just entered the index: the
    /// holders of the gap it went into hold its next-key lock from now on.
    fn inherit(&mut self, k: usize) {
        assert!(!self.mapped[k], "seed {}: key {k} entered twice", self.seed);
        self.mapped[k] = true;
        for holder in self.scan_holders(&gap_key(self.successor(k))) {
            let record = self.grant_scan_lock(holder, scanned(k));
            let gap = self.grant_scan_lock(holder, gap_key(Some(k)));
            self.reached.inherited += usize::from(record || gap);
        }
    }

    /// The same for the keys that left the index since the scan space was
    /// last looked at: their gap locks go to the key that is next now.
    fn merge_unmapped(&mut self) {
        for k in 0..KEYS {
            if self.mapped[k] && self.table.chain(&key(k)).is_none() {
                self.mapped[k] = false;
                for holder in self.scan_holders(&gap_key(Some(k))) {
                    let moved = self.grant_scan_lock(holder, gap_key(self.successor(k)));
                    self.reached.merged += usize::from(moved);
                }
            }
        }
    }

    /// **Difference 1: holders of a row's SIREAD the table side has and the
    /// oracle's point space has not.** Both are its own SIREAD on a row a
    /// transaction also holds EXCLUSIVE, so all either can add is a conflict
    /// with a later writer that overlaps the holder — which
    /// first-committer-wins aborts anyway if the holder wrote the row.
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
                ranges: Vec::new(),
                fallback: Vec::new(),
                oracle_sireads: Vec::new(),
                oracle_scan_locks: Vec::new(),
                exclusive: Vec::new(),
                gap_exclusive: Vec::new(),
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

    /// The Serializable-SI point read of key `k`, as `ssi-core` does it.
    fn read(&mut self, at: usize, k: usize) {
        let id = self.txns[at].id;
        let context = format!("seed {} read of key {k} by {id:?}", self.seed);
        let (read, siread) = self.table.read_registering(&key(k), id, self.clock);
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

        let outcome = self.oracle.lock(id, &lock_key(k), LockMode::SiRead);
        let outcome = outcome.expect("SIREAD never fails");
        if outcome.newly_acquired {
            self.txns[at].oracle_sireads.push(k);
        }
        let expected = self.expected_writers(ids(&outcome.rw_conflicts), k, on_chain);
        assert_eq!(writers, expected, "{context}: writers reported");
    }

    /// The range scan, as `ssi-core` does it: register the bounds, in
    /// `mode`, then list, then read each listed row like a snapshot scan
    /// does. The oracle takes the scan's next-key locks.
    fn scan(&mut self, at: usize, bounds: Bounds, mode: RangeMode) {
        let id = self.txns[at].id;
        let context = format!("seed {} {mode:?} scan of {bounds:?} by {id:?}", self.seed);
        let (lower, upper) = (key_bound(bounds.0), key_bound(bounds.1));
        let (lower, upper) = (super::as_ref_bound(&lower), super::as_ref_bound(&upper));
        let held = |k: usize| self.txns[at].has_range_in(mode, k);
        let covered = (0..KEYS).all(|k| !bounds.contains(&k) || held(k));
        match self.table.register_range(lower, upper, id, mode) {
            Some(handle) => self.txns[at].ranges.push((bounds, mode, handle)),
            None => {
                assert!(covered, "{context}: refused a range nothing covers");
                self.reached.repeated_scans += 1;
            }
        }
        for listed in self.table.keys_in_range(lower, upper) {
            let k = index_of(&listed);
            let read = self.table.read(&listed, id, self.clock);
            // Everything committed is visible at the model's clock: what is
            // left over is the unsettled versions of others.
            let unsettled =
                |t: &&Txn| t.id != id && !t.committed && t.writes.iter().any(|(w, _)| *w == k);
            let expected: Ids = self.txns.iter().filter(unsettled).map(|t| t.id).collect();
            let mut writers = ids(&read.newer_creators);
            writers.remove(&id);
            assert_eq!(writers, expected, "{context}: writers of key {k}");
            self.grant_scan_lock(id, scanned(k));
            self.grant_scan_lock(id, gap_key(Some(k)));
        }
        let beyond = match upper {
            Bound::Included(last) => self.table.next_key_after(last),
            Bound::Excluded(end) => self.table.next_key_at_or_after(end),
            Bound::Unbounded => None,
        };
        self.grant_scan_lock(id, gap_key(beyond.map(|key| index_of(&key))));
    }

    /// EXCLUSIVE lock, then either the locking read's probe or an install.
    fn write(&mut self, at: usize, k: usize, install: bool) {
        let id = self.txns[at].id;
        if self.exclusive_holder(k).is_some_and(|holder| holder != id) {
            return; // would block
        }
        let context = format!("seed {} write of key {k} by {id:?}", self.seed);
        let delete = install && self.rng.index(4) == 0;
        // What the engine looks at under the EXCLUSIVE lock: a key without a
        // live version is inserted, not updated, and an insert and a delete
        // take the EXCLUSIVE lock of the gap above the key. The key's first
        // version ever (`fresh`: it has no chain) brings it into the index.
        let live = self.table.contains_key(&key(k));
        let fresh = self.table.chain(&key(k)).is_none();
        let above = (install && (!live || delete)).then(|| self.successor(k));
        if above.is_some_and(|gap| self.gap_exclusive_holder(gap).is_some_and(|h| h != id)) {
            return; // would block
        }
        let granted = self.locks.lock(id, &lock_key(k), LockMode::Exclusive);
        let mut readers = ids(&granted.expect("no other holder").rw_conflicts);
        let (mut range_readers, mut blocked_by) = (Ids::new(), Ids::new());
        let upgraded = if install {
            let value = (!delete).then(|| vec![k as u8].into());
            let done = self.table.install(&key(k), id, value, || TS_ZERO);
            readers.extend(done.readers.iter());
            range_readers.extend(done.range_readers.iter());
            blocked_by.extend(done.blocked_by.iter());
            self.txns[at].writes.push((k, done.version));
            done.upgraded
        } else {
            let found = self.table.probe_for_update(&key(k), id);
            readers.extend(found.readers.iter());
            found.upgraded
        };
        if upgraded {
            self.txns[at].covered.retain(|held| *held != k);
        }
        if !self.txns[at].exclusive.contains(&k) {
            self.txns[at].exclusive.push(k);
        }

        // The point space: the row's readers.
        let granted = self.oracle.lock(id, &lock_key(k), LockMode::Exclusive);
        let mut expected = ids(&granted.expect("no other holder").rw_conflicts);
        self.oracle.unlock(id, &lock_key(k), LockMode::SiRead);
        self.txns[at].oracle_sireads.retain(|held| *held != k);
        self.txns[at].upgraded.push(k);
        expected.extend(self.table_only(k));
        expected.remove(&id);
        assert_eq!(readers, expected, "{context}: readers reported");
        if !install {
            // A locking read changes nothing a scan could have missed: the
            // scans are for the install that may follow to find.
            return;
        }

        // The scan space: whoever holds the next-key lock on the key, and
        // for an insert or a delete the gap above it.
        let mut told = self.scan_holders(&scanned(k));
        if let Some(gap) = above {
            told.extend(self.scan_holders(&gap_key(gap)));
            if !self.txns[at].gap_exclusive.contains(&gap) {
                self.txns[at].gap_exclusive.push(gap);
            }
        }
        told.remove(&id);
        assert!(
            range_readers.is_subset(&told) && blocked_by.is_subset(&told),
            "{context}: ranges told of {range_readers:?} and {blocked_by:?}, \
             next-key locks of {told:?}"
        );
        // **Difference 3**, the intended one: next-key locks reach from the
        // scan's bound to the neighbouring key, the range stops at the bound.
        let txns = &self.txns;
        let holds = |mode, t: &TxnId| {
            let holder = txns.iter().find(|txn| txn.id == *t);
            holder.expect("live holder").has_range_in(mode, k)
        };
        let sireads: Ids = told
            .iter()
            .copied()
            .filter(|t| holds(RangeMode::SiRead, t))
            .collect();
        let shared: Ids = told
            .iter()
            .copied()
            .filter(|t| holds(RangeMode::Shared, t))
            .collect();
        let oracle_only = told
            .iter()
            .filter(|t| !sireads.contains(t) && !shared.contains(t));
        let oracle_only = oracle_only.count();
        assert_eq!(range_readers, sireads, "{context}: SIREAD range holders");
        // A `Shared` range blocks what enters it — a key with no live
        // version, on a new chain or on one a point reader kept — and
        // nothing else.
        let linked = if live { Ids::new() } else { shared };
        assert_eq!(blocked_by, linked, "{context}: Shared range holders");
        self.reached.told_by_a_range += range_readers.len();
        self.reached.oracle_only += oracle_only;
        self.reached.blocked_links += blocked_by.len();
        if !fresh {
            self.reached.blocked_pushes += blocked_by.len();
        }
        if fresh {
            self.reached.told_of_a_phantom += range_readers.len();
            self.inherit(k);
        }
    }

    fn release_exclusive(&mut self, at: usize) {
        let id = self.txns[at].id;
        for k in std::mem::take(&mut self.txns[at].exclusive) {
            self.locks.unlock(id, &lock_key(k), LockMode::Exclusive);
            self.oracle.unlock(id, &lock_key(k), LockMode::Exclusive);
        }
        self.txns[at].gap_exclusive.clear();
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
        for (bounds, _, range) in &txn.ranges {
            assert!(range.release(), "seed {}: {bounds:?} gone early", self.seed);
        }
        let keys = |held: &[usize]| held.iter().map(|k| lock_key(*k)).collect::<Vec<_>>();
        self.locks
            .unlock_batch(txn.id, &keys(&txn.fallback), LockMode::SiRead);
        self.oracle
            .unlock_batch(txn.id, &keys(&txn.oracle_sireads), LockMode::SiRead);
        self.oracle
            .unlock_batch(txn.id, &txn.oracle_scan_locks, LockMode::SiRead);
    }

    /// Rollback: of an update, a delete, or a fresh insert, whose key leaves
    /// the index again unless a point reader holds its chain.
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
        self.merge_unmapped();
    }

    fn purge(&mut self) {
        self.table.purge_old_versions(self.clock);
        self.merge_unmapped();
    }

    /// Who holds an SIREAD on each key, on both sides; that a chain someone
    /// is registered on is still the one the key maps to; and that the
    /// oracle's scan space covers, with its next-key locks, every key of
    /// every range — the invariant inheritance is there to keep.
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
            assert_eq!(
                chain.is_some(),
                self.mapped[k],
                "{context}: scan space stale"
            );
            let mut held: Ids = chain.as_ref().map_or(Ids::new(), |chain| {
                chain.state.lock().readers.iter().collect()
            });
            let no_versions = |c: &Arc<RowChain>| c.state.lock().versions.is_empty();
            if chain.as_ref().is_some_and(no_versions) && !held.is_empty() {
                self.reached.kept_mapped += 1;
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
            assert_eq!(held, expected, "{context}: SIREAD holders of the row");

            let covering = if chain.is_some() {
                self.scan_holders(&scanned(k))
            } else {
                self.scan_holders(&gap_key(self.successor(k)))
            };
            for txn in self.txns.iter().filter(|t| t.has_range_with(k)) {
                assert!(covering.contains(&txn.id), "{context}: {:?} lost", txn.id);
            }
        }
        let ranges: usize = self.txns.iter().map(|t| t.ranges.len()).sum();
        let rows: usize = mapped
            .iter()
            .flatten()
            .map(|chain| chain.state.lock().readers.iter().count())
            .sum();
        assert_eq!(self.table.siread_holder_count(), rows + ranges);
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
        self.purge();
        for k in 0..KEYS {
            let unused = self
                .table
                .chain(&key(k))
                .is_some_and(|c| c.state.lock().is_unused());
            assert!(!unused, "{context}: key {k} left mapped with nothing in it");
        }
    }

    /// Bounds over the key numbers that the ordered index accepts: not
    /// inverted, and not empty by excluding the same key twice.
    fn bounds(&mut self) -> Bounds {
        let (a, b) = (self.rng.index(KEYS), self.rng.index(KEYS));
        let (low, high) = (a.min(b), a.max(b));
        let lower = match self.rng.index(3) {
            0 => Bound::Unbounded,
            1 => Bound::Included(low),
            _ => Bound::Excluded(low),
        };
        let upper = match self.rng.index(3) {
            0 => Bound::Unbounded,
            1 => Bound::Included(high),
            _ if low == high && matches!(lower, Bound::Excluded(_)) => Bound::Included(high),
            _ => Bound::Excluded(high),
        };
        (lower, upper)
    }

    fn step(&mut self) {
        let k = self.rng.index(KEYS);
        match self.rng.index(23) {
            0..=2 => self.begin(),
            3..=6 => {
                if let Some(at) = self.pick(false) {
                    self.read(at, k);
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
            16 => self.purge(),
            17..=21 => {
                if let Some(at) = self.pick(false) {
                    let bounds = self.bounds();
                    let mode = if self.rng.chance(0.5) {
                        RangeMode::SiRead
                    } else {
                        RangeMode::Shared
                    };
                    self.scan(at, bounds, mode);
                }
            }
            _ => self.quiesce(),
        }
        self.check();
    }
}

#[test]
fn chain_and_range_sireads_report_what_the_lock_table_would() {
    let mut reached = [0; 10];
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
            r.told_by_a_range,
            r.told_of_a_phantom,
            r.blocked_links,
            r.blocked_pushes,
            r.oracle_only,
            r.inherited,
            r.merged,
            r.repeated_scans,
        ];
        for (total, n) in reached.iter_mut().zip(of_this_seed) {
            *total += n;
        }
    }
    // The schedules must actually reach the lock-table fallback, the chains
    // that only their point readers keep mapped, the installs that a range
    // tells of (phantoms among them, and links that a `Shared` range blocks,
    // pushes onto a kept chain among those), the holders that only next-key
    // locking would tell of, both directions of inheritance in the oracle,
    // and the scans that a held range covers.
    let often = SEEDS as usize;
    let [fallback_reads, kept_mapped, told_by_a_range, told_of_a_phantom, blocked_links, blocked_pushes, oracle_only, inherited, merged, repeated_scans] =
        reached;
    assert!(fallback_reads > often, "{fallback_reads} fallbacks");
    assert!(kept_mapped > often, "{kept_mapped} kept mapped");
    assert!(
        told_by_a_range > 4 * often,
        "{told_by_a_range} told by a range"
    );
    assert!(told_of_a_phantom > often, "{told_of_a_phantom} phantoms");
    assert!(blocked_links > often / 2, "{blocked_links} blocked links");
    assert!(blocked_pushes > 0, "{blocked_pushes} blocked pushes");
    assert!(
        oracle_only > often / 2,
        "{oracle_only} by next-key locks only"
    );
    assert!(inherited > often, "{inherited} inherited");
    assert!(merged > often / 10, "{merged} merged");
    assert!(repeated_scans > often, "{repeated_scans} repeated scans");
}
