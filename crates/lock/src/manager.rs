//! The lock manager: a sharded lock table with blocking waits, inline
//! deadlock detection and non-blocking SIREAD bookkeeping.
//!
//! Design notes (mirroring the prototypes described in Chapter 4):
//!
//! * the lock table is a hash map from [`LockKey`] to the set of granted
//!   modes per owner plus a FIFO-ish wait list. The usual one or two owners
//!   of an item are stored inline in the entry, and a record or gap key is an
//!   `Arc<[u8]>` shared with the storage index, so granting a lock on an
//!   unlocked item allocates nothing and copies no key bytes;
//! * the table is sharded to reduce mutex contention. The shard is picked
//!   from the table id and the key bytes only (`LockKey::hash_placement`),
//!   not from the target kind, so `Record(k)` and `Gap(k)` — distinct locks
//!   that never conflict with each other — always sit in the same shard.
//!   The engine names records, pages, unique markers and S2PL transactions'
//!   wait targets here; gap names are left to the tests (see the crate docs);
//! * a transaction may hold several modes on one item (e.g. SIREAD and
//!   EXCLUSIVE); re-requesting a mode that is already covered is a no-op;
//! * requests that must wait register edges in a wait-for graph; the request
//!   that closes a cycle is aborted with [`Error::Aborted`] of kind
//!   `Deadlock`. Only a request that actually has to wait pays for the wait
//!   machinery (deadline clock read, wait node, graph mutex);
//! * SIREAD locks never wait and never cause waits, but every grant reports
//!   the other holders whose modes form a read-write conflict with the
//!   requested mode, which is exactly the hook the Serializable SI algorithm
//!   needs (Figs. 3.4 and 3.5 of the thesis);
//! * locks owned by committed-but-suspended transactions simply stay in the
//!   table until the engine releases them during cleanup (Sec. 3.3).
//!
//! ## Batched SIREAD for predicate reads
//!
//! A Serializable-SI table scan at page granularity takes an SIREAD lock on
//! every row's page; at row granularity neither a row's SIREAD nor a scan's
//! is a lock (see the crate docs). Because SIREAD never waits, a whole page of such requests
//! needs none of the blocking protocol: [`LockManager::lock_siread_batch`]
//! groups the page's keys by shard, takes each shard mutex once, and for every key does what
//! [`LockManager::lock`] would do for a lone SIREAD request — grant unless
//! already covered, and report the EXCLUSIVE holders. Keys of one shard are
//! processed in batch order, so the outcome (grants, reported conflicts,
//! requests counted) equals that of the same requests issued one by one; the
//! tests below check that equivalence over random holder layouts. Whatever
//! the scan reads under these locks it reads only after the batch returns,
//! which keeps the paper's lock-then-read order: a writer either finds the
//! scan's SIREAD when it takes its EXCLUSIVE lock, is found holding that lock
//! by the batch, or has released it — and then what it wrote is already in
//! place for the scan to find.
//! [`LockManager::unlock_batch`] is the release-side counterpart, used when
//! a suspended transaction's SIREAD locks are reclaimed.

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use ssi_common::{Error, InlineVec, Result, TxnId};

use crate::fxhash::{FxBuildHasher, FxHasher};
use crate::key::LockKey;
use crate::mode::{LockMode, ModeSet};
use crate::waitfor::WaitForGraph;

/// Configuration of the lock manager.
#[derive(Clone, Debug)]
pub struct LockConfig {
    /// Number of hash shards for the lock table.
    pub shards: usize,
    /// Upper bound on the total time a single lock request may wait before
    /// it gives up with [`Error::LockTimeout`]. Deadlocks are normally
    /// detected long before this fires; the timeout is a safety net for
    /// tests.
    pub wait_timeout: Duration,
}

impl Default for LockConfig {
    fn default() -> Self {
        LockConfig {
            shards: 64,
            wait_timeout: Duration::from_secs(10),
        }
    }
}

/// Counters of the slow paths. Requests themselves are counted in the shard
/// that serves them ([`Shard::requests`]): one counter shared by every
/// request would move its cache line between cores on each of them.
#[derive(Default, Debug)]
struct SlowPathStats {
    /// Requests that blocked at least once.
    waits: AtomicU64,
    /// Requests aborted because they closed a wait-for cycle.
    deadlocks: AtomicU64,
    /// Requests that exhausted the wait timeout.
    timeouts: AtomicU64,
}

/// Counters exposed for benchmarks and tests (see [`LockManager::stats`]).
pub struct LockStats<'a> {
    manager: &'a LockManager,
}

impl LockStats<'_> {
    /// Snapshot of the counters as plain integers
    /// `(requests, waits, deadlocks, timeouts)`: total lock requests
    /// (including re-acquisitions; one per key of a batch), requests that
    /// blocked at least once, requests aborted because they closed a
    /// wait-for cycle, and requests that exhausted the wait timeout.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        let shards = &self.manager.shards;
        let slow = &self.manager.stats;
        (
            shards.iter().map(|shard| shard.lock().requests).sum(),
            slow.waits.load(Ordering::Relaxed),
            slow.deadlocks.load(Ordering::Relaxed),
            slow.timeouts.load(Ordering::Relaxed),
        )
    }
}

/// Result of a successful lock acquisition.
#[derive(Clone, Debug, Default)]
pub struct LockOutcome {
    /// True if the mode was newly added for this transaction (false when the
    /// transaction already held a covering mode).
    pub newly_acquired: bool,
    /// Other transactions holding a mode on the same item that forms a
    /// read-write conflict with the requested mode (SIREAD holders when an
    /// EXCLUSIVE lock is granted and vice versa). The Serializable SI layer
    /// turns each of these into a `markConflict` call.
    pub rw_conflicts: Vec<TxnId>,
    /// True if the request had to block before being granted.
    pub waited: bool,
}

/// Result of [`LockManager::lock_siread_batch`].
#[derive(Clone, Debug, Default)]
pub struct SireadBatch {
    /// Per requested key, in request order: true if the SIREAD mode was
    /// newly added for the transaction (false when it already held SIREAD or
    /// EXCLUSIVE on the item, or the key appeared earlier in the batch).
    pub newly_acquired: Vec<bool>,
    /// Distinct other transactions holding EXCLUSIVE on any requested item:
    /// the union of the `rw_conflicts` the single requests would report.
    pub rw_conflicts: Vec<TxnId>,
}

/// Per-waiter synchronization block.
struct WaitNode {
    txn: TxnId,
    mode: LockMode,
    signalled: Mutex<bool>,
    cond: Condvar,
}

impl WaitNode {
    fn new(txn: TxnId, mode: LockMode) -> Self {
        WaitNode {
            txn,
            mode,
            signalled: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    /// Wakes the waiter (idempotent).
    fn notify(&self) {
        let mut sig = self.signalled.lock();
        *sig = true;
        self.cond.notify_all();
    }

    /// Sleeps until notified or until `slice` elapses, consuming the signal.
    fn wait(&self, slice: Duration) {
        let mut sig = self.signalled.lock();
        if !*sig {
            self.cond.wait_for(&mut sig, slice);
        }
        *sig = false;
    }
}

/// Owners stored inline in a lock entry before it spills to the heap: an
/// item is almost always held by one transaction, or by a reader and a
/// writer.
const INLINE_HOLDERS: usize = 2;

/// Largest batch [`LockManager::visit_by_shard`] groups on the stack. A
/// SmallBank transaction holds three or four SIREAD locks; eight covers
/// every point transaction of the bundled workloads, and the quadratic
/// grouping is still a handful of compares.
const SMALL_BATCH: usize = 8;

/// One lock table entry: who holds what, and who is waiting.
#[derive(Default)]
struct LockEntry {
    granted: InlineVec<(TxnId, ModeSet), INLINE_HOLDERS>,
    waiters: Vec<Arc<WaitNode>>,
}

/// One shard of the lock table.
#[derive(Default)]
struct Shard {
    table: HashMap<LockKey, LockEntry, FxBuildHasher>,
    /// Lock requests this shard has served, counted under its mutex.
    requests: u64,
}

impl LockEntry {
    /// Entry for an item nobody held or waited for, granted to `txn`.
    fn granted_to(txn: TxnId, mode: LockMode) -> Self {
        let mut entry = LockEntry::default();
        entry.granted.push((txn, ModeSet::single(mode)));
        entry
    }

    fn holder_modes(&self, txn: TxnId) -> ModeSet {
        self.granted
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m)
            .unwrap_or(ModeSet::EMPTY)
    }

    fn add_mode(&mut self, txn: TxnId, mode: LockMode) {
        if let Some((_, m)) = self
            .granted
            .as_mut_slice()
            .iter_mut()
            .find(|(t, _)| *t == txn)
        {
            m.insert(mode);
        } else {
            self.granted.push((txn, ModeSet::single(mode)));
        }
    }

    fn blocking_holders(&self, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        self.granted
            .iter()
            .filter(|(t, m)| *t != txn && m.blocks_request(mode))
            .map(|(t, _)| *t)
            .collect()
    }

    fn rw_conflict_holders(&self, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        self.granted
            .iter()
            .filter(|(t, m)| *t != txn && m.rw_conflicts_with(mode))
            .map(|(t, _)| *t)
            .collect()
    }

    /// Waiters queued *ahead* of `upto` (or all waiters when the requester is
    /// not queued yet) whose requested mode conflicts with `mode`. Used both
    /// for the no-barging fairness rule and for wait-for edges, so a waiter
    /// never appears to wait for requests queued behind it.
    fn conflicting_waiters_ahead(
        &self,
        txn: TxnId,
        mode: LockMode,
        upto: Option<&Arc<WaitNode>>,
    ) -> Vec<TxnId> {
        let end = upto
            .and_then(|node| self.waiters.iter().position(|w| Arc::ptr_eq(w, node)))
            .unwrap_or(self.waiters.len());
        self.waiters[..end]
            .iter()
            .filter(|w| {
                w.txn != txn && (mode.blocks_against(w.mode) || w.mode.blocks_against(mode))
            })
            .map(|w| w.txn)
            .collect()
    }

    fn remove_waiter(&mut self, node: &Arc<WaitNode>) {
        self.waiters.retain(|w| !Arc::ptr_eq(w, node));
    }

    fn notify_waiters(&self) {
        for w in &self.waiters {
            w.notify();
        }
    }

    fn is_empty(&self) -> bool {
        self.granted.is_empty() && self.waiters.is_empty()
    }
}

/// The lock manager. Shared by reference (usually `Arc`) between all
/// transactions of a database.
pub struct LockManager {
    shards: Vec<Mutex<Shard>>,
    waits_for: Mutex<WaitForGraph>,
    config: LockConfig,
    stats: SlowPathStats,
}

impl LockManager {
    /// Creates a lock manager with the given configuration.
    pub fn new(config: LockConfig) -> Self {
        let shards = (0..config.shards.max(1))
            .map(|_| Mutex::new(Shard::default()))
            .collect();
        LockManager {
            shards,
            waits_for: Mutex::new(WaitForGraph::new()),
            config,
            stats: SlowPathStats::default(),
        }
    }

    /// Creates a lock manager with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(LockConfig::default())
    }

    /// Access to the counters.
    pub fn stats(&self) -> LockStats<'_> {
        LockStats { manager: self }
    }

    fn shard_index(&self, key: &LockKey) -> usize {
        let mut hasher = FxHasher::default();
        key.hash_placement(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Visits `count` keys grouped by lock-table shard: `visit(shard, i)` runs
    /// for every position `i < count` (`key_at(i)` names the key), with each
    /// shard's mutex taken once for all of that shard's keys. Within a
    /// shard, keys are visited in position order, so repeated keys and a
    /// row's record/gap pair are seen in the order the caller gave them.
    ///
    /// A batch of up to [`SMALL_BATCH`] keys — the lock set of a point
    /// transaction — keeps its shard indices on the stack and groups them
    /// by rescanning, allocating nothing; a scan page's worth of keys goes
    /// through a stable counting sort over the shards.
    fn visit_by_shard<'k>(
        &self,
        count: usize,
        key_at: impl Fn(usize) -> &'k LockKey,
        mut visit: impl FnMut(&mut Shard, usize),
    ) {
        if count <= SMALL_BATCH {
            let shard_of: InlineVec<usize, SMALL_BATCH> =
                (0..count).map(|i| self.shard_index(key_at(i))).collect();
            let mut visited = 0u32;
            for first in 0..count {
                if visited & (1 << first) != 0 {
                    continue;
                }
                let mut shard = self.shards[shard_of[first]].lock();
                for i in first..count {
                    if shard_of[i] == shard_of[first] {
                        visit(&mut shard, i);
                        visited |= 1 << i;
                    }
                }
            }
            return;
        }
        let shard_of: Vec<usize> = (0..count).map(|i| self.shard_index(key_at(i))).collect();
        let mut next = vec![0usize; self.shards.len() + 1];
        for &shard in &shard_of {
            next[shard + 1] += 1;
        }
        for shard in 0..self.shards.len() {
            next[shard + 1] += next[shard];
        }
        let mut order = vec![0usize; count];
        for (i, &shard) in shard_of.iter().enumerate() {
            order[next[shard]] = i;
            next[shard] += 1;
        }
        let mut at = 0;
        while at < order.len() {
            let shard = shard_of[order[at]];
            let mut guard = self.shards[shard].lock();
            while at < order.len() && shard_of[order[at]] == shard {
                visit(&mut guard, order[at]);
                at += 1;
            }
        }
    }

    /// Acquires `mode` on `key` for `txn`, blocking if necessary.
    ///
    /// On success, reports whether the mode was newly acquired and which
    /// other transactions hold read-write-conflicting modes on the item. On
    /// failure the transaction was chosen as a deadlock victim or timed out;
    /// the caller is expected to abort it.
    pub fn lock(&self, txn: TxnId, key: &LockKey, mode: LockMode) -> Result<LockOutcome> {
        let shard = &self.shards[self.shard_index(key)];
        // Taken when the request first has to wait: a request granted at
        // once reads no clock.
        let mut deadline: Option<Instant> = None;
        let mut waited = false;
        let mut wait_node: Option<Arc<WaitNode>> = None;

        loop {
            let mut guard = shard.lock();
            if wait_node.is_none() {
                // The request's first pass: a later one has queued.
                guard.requests += 1;
            }
            let map = &mut guard.table;
            let Some(entry) = map.get_mut(key) else {
                // Nobody holds or waits for the item: grant at once. (A
                // queued waiter keeps its entry alive, so this is always
                // the request's first pass.)
                map.insert(key.clone(), LockEntry::granted_to(txn, mode));
                debug_assert!(!waited, "a queued waiter keeps its entry alive");
                return Ok(LockOutcome {
                    newly_acquired: true,
                    ..LockOutcome::default()
                });
            };
            let own = entry.holder_modes(txn);

            // Re-acquisition of a covered mode is free.
            if own.covers(mode) {
                let rw = entry.rw_conflict_holders(txn, mode);
                if let Some(node) = &wait_node {
                    entry.remove_waiter(node);
                    entry.notify_waiters();
                }
                drop(guard);
                if waited {
                    self.waits_for.lock().clear_waiter(txn);
                }
                return Ok(LockOutcome {
                    newly_acquired: false,
                    rw_conflicts: rw,
                    waited,
                });
            }

            let upgrading = !own.is_empty();
            let blockers = entry.blocking_holders(txn, mode);
            // Fairness: a brand-new request does not barge past waiters it
            // conflicts with; an upgrade does (the classic rule that keeps
            // lock upgrades from deadlocking behind their own shared lock).
            let queue_blockers = if upgrading {
                Vec::new()
            } else {
                entry.conflicting_waiters_ahead(txn, mode, wait_node.as_ref())
            };

            if blockers.is_empty() && queue_blockers.is_empty() {
                entry.add_mode(txn, mode);
                let rw = entry.rw_conflict_holders(txn, mode);
                if let Some(node) = &wait_node {
                    entry.remove_waiter(node);
                    entry.notify_waiters();
                }
                drop(guard);
                if waited {
                    self.waits_for.lock().clear_waiter(txn);
                }
                return Ok(LockOutcome {
                    newly_acquired: true,
                    rw_conflicts: rw,
                    waited,
                });
            }

            // We must wait: register wait-for edges and check for deadlock.
            let mut edge_targets = blockers;
            edge_targets.extend(queue_blockers);
            let deadlocked = self
                .waits_for
                .lock()
                .reset_edges_and_check(txn, &edge_targets);
            if deadlocked {
                self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                if let Some(node) = &wait_node {
                    entry.remove_waiter(node);
                    entry.notify_waiters();
                }
                drop(guard);
                self.waits_for.lock().clear_waiter(txn);
                return Err(Error::deadlock(txn));
            }

            let node = wait_node
                .get_or_insert_with(|| Arc::new(WaitNode::new(txn, mode)))
                .clone();
            if !entry.waiters.iter().any(|w| Arc::ptr_eq(w, &node)) {
                entry.waiters.push(node.clone());
            }
            drop(guard);

            if !waited {
                self.stats.waits.fetch_add(1, Ordering::Relaxed);
                waited = true;
            }

            let deadline =
                *deadline.get_or_insert_with(|| Instant::now() + self.config.wait_timeout);
            node.wait(Duration::from_millis(20));
            // NB: our wait-for edges stay registered while we remain blocked,
            // so whichever transaction later closes a cycle sees them and
            // detection never misses a deadlock; they are cleared on every
            // exit path from this function.

            if Instant::now() >= deadline {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                let map = &mut shard.lock().table;
                if let Some(entry) = map.get_mut(key) {
                    entry.remove_waiter(&node);
                    entry.notify_waiters();
                    if entry.is_empty() {
                        map.remove(key);
                    }
                }
                self.waits_for.lock().clear_waiter(txn);
                return Err(Error::LockTimeout);
            }
        }
    }

    /// Acquires SIREAD on every key of `keys` for `txn` without ever
    /// blocking, taking each lock-table shard's mutex once for the whole
    /// batch (see the module docs). Equivalent to calling
    /// [`LockManager::lock`] with [`LockMode::SiRead`] on each key in order:
    /// same grants, same reported EXCLUSIVE holders, one counted request per
    /// key.
    pub fn lock_siread_batch(&self, txn: TxnId, keys: &[LockKey]) -> SireadBatch {
        const MODE: LockMode = LockMode::SiRead;
        let mut out = SireadBatch {
            newly_acquired: vec![false; keys.len()],
            rw_conflicts: Vec::new(),
        };
        self.visit_by_shard(
            keys.len(),
            |i| &keys[i],
            |shard, i| {
                shard.requests += 1;
                let key = &keys[i];
                let Some(entry) = shard.table.get_mut(key) else {
                    shard
                        .table
                        .insert(key.clone(), LockEntry::granted_to(txn, MODE));
                    out.newly_acquired[i] = true;
                    return;
                };
                if !entry.holder_modes(txn).covers(MODE) {
                    entry.add_mode(txn, MODE);
                    out.newly_acquired[i] = true;
                }
                for holder in entry.rw_conflict_holders(txn, MODE) {
                    if !out.rw_conflicts.contains(&holder) {
                        out.rw_conflicts.push(holder);
                    }
                }
            },
        );
        out
    }

    /// Releases one mode held by `txn` on `key`. Releasing a mode that is
    /// not held is a no-op.
    pub fn unlock(&self, txn: TxnId, key: &LockKey, mode: LockMode) {
        let shard = &self.shards[self.shard_index(key)];
        Self::unlock_locked(&mut shard.lock(), txn, key, mode);
    }

    /// Single-key release against an already-locked shard map; shared by
    /// [`LockManager::unlock`] and [`LockManager::unlock_batch`].
    fn unlock_locked(shard: &mut Shard, txn: TxnId, key: &LockKey, mode: LockMode) {
        let map = &mut shard.table;
        if let Some(entry) = map.get_mut(key) {
            if let Some(pos) = entry.granted.iter().position(|(t, _)| *t == txn) {
                let modes = &mut entry.granted.as_mut_slice()[pos].1;
                modes.remove(mode);
                if modes.is_empty() {
                    entry.granted.swap_remove(pos);
                }
                entry.notify_waiters();
            }
            if entry.is_empty() {
                map.remove(key);
            }
        }
    }

    /// Releases every mode held by `txn` on `key`.
    pub fn unlock_all_modes(&self, txn: TxnId, key: &LockKey) {
        let shard = &self.shards[self.shard_index(key)];
        let map = &mut shard.lock().table;
        if let Some(entry) = map.get_mut(key) {
            if let Some(pos) = entry.granted.iter().position(|(t, _)| *t == txn) {
                entry.granted.swap_remove(pos);
                entry.notify_waiters();
            }
            if entry.is_empty() {
                map.remove(key);
            }
        }
    }

    /// Releases `mode` on every key of `keys` for `txn`, grouped by
    /// lock-table shard so each shard mutex is taken once per shard touched
    /// rather than once per key — the batch analogue of
    /// [`LockManager::unlock`], used when a suspended Serializable-SI
    /// transaction's SIREAD locks are reclaimed all at once. Allocates
    /// nothing for up to eight keys (`SMALL_BATCH`).
    pub fn unlock_batch(&self, txn: TxnId, keys: &[LockKey], mode: LockMode) {
        self.visit_by_shard(
            keys.len(),
            |i| &keys[i],
            |shard, i| Self::unlock_locked(shard, txn, &keys[i], mode),
        );
    }

    /// Returns the set of modes `txn` currently holds on `key`.
    pub fn holds(&self, txn: TxnId, key: &LockKey) -> ModeSet {
        let shard = self.shards[self.shard_index(key)].lock();
        shard
            .table
            .get(key)
            .map(|e| e.holder_modes(txn))
            .unwrap_or(ModeSet::EMPTY)
    }

    /// Returns the transactions (other than `txn`) whose locks on `key` form
    /// a read-write conflict with `mode`, without acquiring anything. Used
    /// by the engine when it discovers conflicts through version visibility
    /// rather than through a lock request.
    pub fn peek_rw_conflicts(&self, txn: TxnId, key: &LockKey, mode: LockMode) -> Vec<TxnId> {
        let shard = self.shards[self.shard_index(key)].lock();
        shard
            .table
            .get(key)
            .map(|e| e.rw_conflict_holders(txn, mode))
            .unwrap_or_default()
    }

    /// Total number of (key, owner) lock grants currently in the table.
    /// Used by tests and by the cleanup logic's sanity checks.
    pub fn grant_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock();
                shard.table.values().map(|e| e.granted.len()).sum::<usize>()
            })
            .sum()
    }

    /// Number of distinct keys present in the lock table.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().table.len()).sum()
    }
}

impl Default for LockManager {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::LockKey;
    use ssi_common::rng::WorkloadRng;
    use ssi_common::{AbortKind, TableId};
    use std::sync::atomic::{AtomicBool, Ordering as AOrd};

    fn t(id: u64) -> TxnId {
        TxnId(id)
    }

    fn key(k: u8) -> LockKey {
        LockKey::record(TableId(1), vec![k])
    }

    #[test]
    fn grant_and_reacquire() {
        let lm = LockManager::with_defaults();
        let out = lm.lock(t(1), &key(1), LockMode::Exclusive).unwrap();
        assert!(out.newly_acquired);
        assert!(!out.waited);
        let again = lm.lock(t(1), &key(1), LockMode::Exclusive).unwrap();
        assert!(!again.newly_acquired);
        assert_eq!(lm.grant_count(), 1);
    }

    #[test]
    fn exclusive_covers_other_modes() {
        let lm = LockManager::with_defaults();
        lm.lock(t(1), &key(1), LockMode::Exclusive).unwrap();
        let s = lm.lock(t(1), &key(1), LockMode::Shared).unwrap();
        assert!(!s.newly_acquired);
        let r = lm.lock(t(1), &key(1), LockMode::SiRead).unwrap();
        assert!(!r.newly_acquired);
    }

    #[test]
    fn shared_locks_are_compatible() {
        let lm = LockManager::with_defaults();
        lm.lock(t(1), &key(1), LockMode::Shared).unwrap();
        let out = lm.lock(t(2), &key(1), LockMode::Shared).unwrap();
        assert!(out.newly_acquired);
        assert!(!out.waited);
        assert_eq!(lm.grant_count(), 2);
    }

    #[test]
    fn siread_never_blocks_or_is_blocked() {
        let lm = LockManager::with_defaults();
        lm.lock(t(1), &key(1), LockMode::Exclusive).unwrap();
        // SIREAD against a held X lock: granted immediately, conflict reported.
        let out = lm.lock(t(2), &key(1), LockMode::SiRead).unwrap();
        assert!(out.newly_acquired);
        assert!(!out.waited);
        assert_eq!(out.rw_conflicts, vec![t(1)]);
        // And an X request sees the SIREAD holder as a conflict but must wait
        // only for the other X, not the SIREAD.
        let out2 = lm.lock(t(3), &key(2), LockMode::SiRead).unwrap();
        assert!(out2.rw_conflicts.is_empty());
    }

    #[test]
    fn exclusive_reports_siread_holders() {
        let lm = LockManager::with_defaults();
        lm.lock(t(1), &key(7), LockMode::SiRead).unwrap();
        lm.lock(t(2), &key(7), LockMode::SiRead).unwrap();
        let out = lm.lock(t(3), &key(7), LockMode::Exclusive).unwrap();
        assert!(out.newly_acquired);
        let mut holders = out.rw_conflicts.clone();
        holders.sort();
        assert_eq!(holders, vec![t(1), t(2)]);
    }

    #[test]
    fn peek_rw_conflicts_does_not_acquire() {
        let lm = LockManager::with_defaults();
        lm.lock(t(1), &key(3), LockMode::SiRead).unwrap();
        let found = lm.peek_rw_conflicts(t(2), &key(3), LockMode::Exclusive);
        assert_eq!(found, vec![t(1)]);
        assert!(lm.holds(t(2), &key(3)).is_empty());
    }

    #[test]
    fn unlock_removes_grants() {
        let lm = LockManager::with_defaults();
        lm.lock(t(1), &key(1), LockMode::SiRead).unwrap();
        lm.lock(t(1), &key(1), LockMode::Exclusive).unwrap();
        lm.unlock(t(1), &key(1), LockMode::SiRead);
        assert!(lm.holds(t(1), &key(1)).contains(LockMode::Exclusive));
        assert!(!lm.holds(t(1), &key(1)).contains(LockMode::SiRead));
        lm.unlock_all_modes(t(1), &key(1));
        assert!(lm.holds(t(1), &key(1)).is_empty());
        assert_eq!(lm.key_count(), 0);
    }

    #[test]
    fn exclusive_blocks_until_release() {
        let lm = Arc::new(LockManager::with_defaults());
        lm.lock(t(1), &key(1), LockMode::Exclusive).unwrap();
        let released = Arc::new(AtomicBool::new(false));

        std::thread::scope(|s| {
            let lm2 = lm.clone();
            let released2 = released.clone();
            let h = s.spawn(move || {
                let out = lm2.lock(t(2), &key(1), LockMode::Exclusive).unwrap();
                assert!(out.waited);
                // The holder must have released before we were granted.
                assert!(released2.load(AOrd::SeqCst));
            });
            std::thread::sleep(Duration::from_millis(50));
            released.store(true, AOrd::SeqCst);
            lm.unlock(t(1), &key(1), LockMode::Exclusive);
            h.join().unwrap();
        });
    }

    #[test]
    fn shared_blocks_exclusive() {
        let lm = Arc::new(LockManager::with_defaults());
        lm.lock(t(1), &key(1), LockMode::Shared).unwrap();
        std::thread::scope(|s| {
            let lm2 = lm.clone();
            let h = s.spawn(move || lm2.lock(t(2), &key(1), LockMode::Exclusive).unwrap());
            std::thread::sleep(Duration::from_millis(30));
            lm.unlock(t(1), &key(1), LockMode::Shared);
            let out = h.join().unwrap();
            assert!(out.waited);
        });
    }

    #[test]
    fn deadlock_is_detected_and_victim_aborted() {
        let lm = Arc::new(LockManager::with_defaults());
        lm.lock(t(1), &key(1), LockMode::Exclusive).unwrap();
        lm.lock(t(2), &key(2), LockMode::Exclusive).unwrap();

        std::thread::scope(|s| {
            let lm1 = lm.clone();
            let h1 = s.spawn(move || lm1.lock(t(1), &key(2), LockMode::Exclusive));
            std::thread::sleep(Duration::from_millis(30));
            // T2 closes the cycle: it must be chosen as the victim.
            let res = lm.lock(t(2), &key(1), LockMode::Exclusive);
            match res {
                Err(Error::Aborted {
                    kind,
                    reason,
                    victim,
                }) => {
                    assert_eq!(reason, ssi_common::AbortReason::LockDeadlock);
                    assert_eq!(kind, AbortKind::Deadlock);
                    assert_eq!(victim, t(2));
                }
                other => panic!("expected deadlock, got {other:?}"),
            }
            // Release T2's lock so T1 can proceed.
            lm.unlock(t(2), &key(2), LockMode::Exclusive);
            let out = h1.join().unwrap().unwrap();
            assert!(out.waited);
        });
        let (_, _, deadlocks, _) = lm.stats().snapshot();
        assert_eq!(deadlocks, 1);
    }

    #[test]
    fn upgrade_shared_to_exclusive_waits_for_other_readers() {
        let lm = Arc::new(LockManager::with_defaults());
        lm.lock(t(1), &key(1), LockMode::Shared).unwrap();
        lm.lock(t(2), &key(1), LockMode::Shared).unwrap();

        std::thread::scope(|s| {
            let lm1 = lm.clone();
            let h = s.spawn(move || lm1.lock(t(1), &key(1), LockMode::Exclusive).unwrap());
            std::thread::sleep(Duration::from_millis(30));
            lm.unlock(t(2), &key(1), LockMode::Shared);
            let out = h.join().unwrap();
            assert!(out.waited);
            assert!(out.newly_acquired);
        });
        assert!(lm.holds(t(1), &key(1)).contains(LockMode::Exclusive));
        assert!(lm.holds(t(1), &key(1)).contains(LockMode::Shared));
    }

    #[test]
    fn waiters_do_not_starve_behind_stream_of_readers() {
        // A writer is queued behind one reader; a second reader arriving
        // later must not barge past the queued writer.
        let lm = Arc::new(LockManager::with_defaults());
        lm.lock(t(1), &key(1), LockMode::Shared).unwrap();
        std::thread::scope(|s| {
            let lmw = lm.clone();
            let writer = s.spawn(move || lmw.lock(t(2), &key(1), LockMode::Exclusive).unwrap());
            std::thread::sleep(Duration::from_millis(30));
            let lmr = lm.clone();
            let reader = s.spawn(move || lmr.lock(t(3), &key(1), LockMode::Shared).unwrap());
            std::thread::sleep(Duration::from_millis(30));
            // The late reader must still be waiting (it cannot barge).
            assert!(lm.holds(t(3), &key(1)).is_empty());
            lm.unlock(t(1), &key(1), LockMode::Shared);
            let wout = writer.join().unwrap();
            assert!(wout.waited);
            lm.unlock(t(2), &key(1), LockMode::Exclusive);
            let rout = reader.join().unwrap();
            assert!(rout.waited);
        });
    }

    #[test]
    fn timeout_fires_when_no_deadlock_resolution_possible() {
        let lm = LockManager::new(LockConfig {
            shards: 4,
            wait_timeout: Duration::from_millis(80),
        });
        lm.lock(t(1), &key(1), LockMode::Exclusive).unwrap();
        let res = lm.lock(t(2), &key(1), LockMode::Exclusive);
        assert_eq!(res.unwrap_err(), Error::LockTimeout);
        let (_, _, _, timeouts) = lm.stats().snapshot();
        assert_eq!(timeouts, 1);
    }

    #[test]
    fn gap_and_record_locks_do_not_interact() {
        let lm = LockManager::with_defaults();
        let rec = LockKey::record(TableId(1), vec![5]);
        let gap = LockKey::gap(TableId(1), vec![5]);
        lm.lock(t(1), &rec, LockMode::Exclusive).unwrap();
        // Another transaction can take an exclusive gap lock on the same key
        // without waiting because the lock names differ.
        let out = lm.lock(t(2), &gap, LockMode::Exclusive).unwrap();
        assert!(!out.waited);
    }

    #[test]
    fn record_and_gap_of_a_key_share_a_shard_and_stay_distinct_locks() {
        let lm = LockManager::with_defaults();
        for i in 0..200u64 {
            let bytes = i.to_be_bytes();
            let rec = LockKey::record(TableId(1), bytes);
            let gap = LockKey::gap(TableId(1), bytes);
            assert_eq!(lm.shard_index(&rec), lm.shard_index(&gap), "key {i}");
        }
        // Same shard, two locks: EXCLUSIVE on one neither blocks nor covers
        // the other, and each is released on its own.
        let rec = LockKey::record(TableId(1), vec![5]);
        let gap = LockKey::gap(TableId(1), vec![5]);
        lm.lock(t(1), &rec, LockMode::Exclusive).unwrap();
        let out = lm.lock(t(2), &gap, LockMode::Exclusive).unwrap();
        assert!(out.newly_acquired && !out.waited);
        assert!(lm.holds(t(1), &gap).is_empty());
        assert!(lm.holds(t(2), &rec).is_empty());
        assert_eq!(lm.key_count(), 2);
        lm.unlock(t(1), &rec, LockMode::Exclusive);
        assert!(lm.holds(t(2), &gap).contains(LockMode::Exclusive));
        assert_eq!(lm.key_count(), 1);
        // The 200 keys still spread over the shards.
        let used: std::collections::HashSet<usize> = (0..200u64)
            .map(|i| lm.shard_index(&LockKey::record(TableId(1), i.to_be_bytes())))
            .collect();
        assert!(
            used.len() > lm.shards.len() / 2,
            "{} shards used",
            used.len()
        );
    }

    /// A random lock-table state that no request has to wait in: per item
    /// either one EXCLUSIVE holder or some SHARED holders, plus any SIREAD
    /// holders; owner 1 (the transaction that will scan) is among them.
    fn random_layout(
        rng: &mut WorkloadRng,
        universe: &[LockKey],
    ) -> Vec<(TxnId, LockKey, LockMode)> {
        let mut layout = Vec::new();
        for key in universe {
            if rng.chance(0.4) {
                continue;
            }
            let owners = 1 + rng.index(5) as u64;
            if rng.chance(0.5) {
                layout.push((t(1 + rng.index(5) as u64), key.clone(), LockMode::Exclusive));
            } else {
                for owner in 1..=owners {
                    if rng.chance(0.5) {
                        layout.push((t(owner), key.clone(), LockMode::Shared));
                    }
                }
            }
            for owner in 1..=owners {
                if rng.chance(0.5) {
                    layout.push((t(owner), key.clone(), LockMode::SiRead));
                }
            }
        }
        layout
    }

    /// The keys of a [`random_layout`], per owner and mode: what it takes to
    /// release the layout through `unlock_batch`.
    fn holdings(layout: &[(TxnId, LockKey, LockMode)]) -> Vec<(TxnId, LockMode, Vec<LockKey>)> {
        let mut out = Vec::new();
        for mode in [LockMode::Exclusive, LockMode::Shared, LockMode::SiRead] {
            for owner in (1..=5).map(t) {
                let held = layout
                    .iter()
                    .filter(|(o, _, m)| *o == owner && *m == mode)
                    .map(|(_, key, _)| key.clone())
                    .collect();
                out.push((owner, mode, held));
            }
        }
        out
    }

    #[test]
    fn siread_batch_equals_the_same_requests_issued_one_by_one() {
        let mut universe = Vec::new();
        for table in [TableId(1), TableId(2)] {
            for k in 0..6u8 {
                universe.push(LockKey::record(table, vec![k]));
                universe.push(LockKey::gap(table, vec![k]));
            }
            universe.push(LockKey::supremum(table));
            universe.push(LockKey::page(table, 3));
        }
        let me = t(1);
        for seed in 0..300 {
            let mut rng = WorkloadRng::new(seed);
            let layout = random_layout(&mut rng, &universe);
            // Repeated keys, keys already held by `me`, keys held by others.
            // Even seeds stay around the inline threshold of
            // `visit_by_shard`, odd seeds go well past it.
            let len = rng.index(if seed % 2 == 0 { 13 } else { 40 });
            let batch: Vec<LockKey> = (0..len)
                .map(|_| universe[rng.index(universe.len())].clone())
                .collect();

            let batched = LockManager::new(LockConfig {
                shards: 1 + rng.index(8),
                ..LockConfig::default()
            });
            let single = LockManager::with_defaults();
            for lm in [&batched, &single] {
                for (owner, key, mode) in &layout {
                    assert!(!lm.lock(*owner, key, *mode).unwrap().waited);
                }
            }
            let requests = |lm: &LockManager| lm.stats().snapshot().0;
            let (before_batched, before_single) = (requests(&batched), requests(&single));

            let out = batched.lock_siread_batch(me, &batch);
            let mut expected_conflicts = Vec::new();
            for (i, key) in batch.iter().enumerate() {
                let one = single.lock(me, key, LockMode::SiRead).unwrap();
                assert!(!one.waited);
                assert_eq!(
                    out.newly_acquired[i], one.newly_acquired,
                    "seed {seed} key {i}"
                );
                expected_conflicts.extend(one.rw_conflicts);
            }
            expected_conflicts.sort();
            expected_conflicts.dedup();
            let mut conflicts = out.rw_conflicts.clone();
            conflicts.sort();
            assert_eq!(conflicts, expected_conflicts, "seed {seed}");
            assert!(!conflicts.contains(&me));
            assert_eq!(
                requests(&batched) - before_batched,
                requests(&single) - before_single,
                "one counted request per key"
            );
            assert_eq!(requests(&batched) - before_batched, batch.len() as u64);
            for key in &universe {
                for owner in 1..=5 {
                    assert_eq!(
                        batched.holds(t(owner), key),
                        single.holds(t(owner), key),
                        "seed {seed} {key:?} owner {owner}"
                    );
                }
            }
            assert_eq!(batched.grant_count(), single.grant_count(), "seed {seed}");
            assert_eq!(batched.key_count(), single.key_count(), "seed {seed}");

            // Release everything through the batch path: the table drains.
            batched.unlock_batch(me, &batch, LockMode::SiRead);
            for (owner, mode, held) in holdings(&layout) {
                batched.unlock_batch(owner, &held, mode);
            }
            assert_eq!(batched.key_count(), 0, "seed {seed}");
            assert_eq!(batched.grant_count(), 0, "seed {seed}");
        }
    }

    #[test]
    fn siread_batch_reports_exclusive_holders_and_never_waits() {
        let lm = LockManager::with_defaults();
        lm.lock(t(2), &key(1), LockMode::Exclusive).unwrap();
        lm.lock(t(3), &key(2), LockMode::Exclusive).unwrap();
        lm.lock(t(3), &key(3), LockMode::Shared).unwrap();
        let out = lm.lock_siread_batch(t(1), &[key(1), key(2), key(3), key(4), key(1)]);
        assert_eq!(out.newly_acquired, vec![true, true, true, true, false]);
        let mut holders = out.rw_conflicts;
        holders.sort();
        assert_eq!(holders, vec![t(2), t(3)]);
        // A later writer finds the batch's SIREADs.
        let w = lm.lock(t(4), &key(4), LockMode::Exclusive).unwrap();
        assert_eq!(w.rw_conflicts, vec![t(1)]);
        assert_eq!(lm.stats().snapshot().1, 0, "nothing waited");
    }

    #[test]
    fn unlock_batch_equals_the_same_releases_issued_one_by_one() {
        // Few shards, so batches of every size put several keys in one
        // shard; record and gap locks of one row always share theirs.
        let universe: Vec<LockKey> = (0..10u8)
            .flat_map(|k| {
                [
                    LockKey::record(TableId(1), vec![k]),
                    LockKey::gap(TableId(1), vec![k]),
                ]
            })
            .collect();
        let me = t(1);
        for seed in 0..300 {
            let mut rng = WorkloadRng::new(seed);
            let layout = random_layout(&mut rng, &universe);
            let config = LockConfig {
                shards: 1 + rng.index(6),
                ..LockConfig::default()
            };
            let batched = LockManager::new(config.clone());
            let single = LockManager::new(config);
            // Sizes 0..=12 straddle the inline threshold. Keys may repeat,
            // and `me` holds only some of them.
            let len = seed as usize % 13;
            let batch: Vec<LockKey> = (0..len)
                .map(|_| universe[rng.index(universe.len())].clone())
                .collect();
            let mine: Vec<&LockKey> = batch.iter().filter(|_| rng.chance(0.7)).collect();
            for lm in [&batched, &single] {
                for (owner, key, mode) in &layout {
                    assert!(!lm.lock(*owner, key, *mode).unwrap().waited);
                }
                for key in &mine {
                    lm.lock(me, key, LockMode::SiRead).unwrap();
                }
            }

            batched.unlock_batch(me, &batch, LockMode::SiRead);
            for key in &batch {
                single.unlock(me, key, LockMode::SiRead);
            }
            for key in &universe {
                for owner in 1..=5 {
                    assert_eq!(
                        batched.holds(t(owner), key),
                        single.holds(t(owner), key),
                        "seed {seed} {key:?} owner {owner}"
                    );
                }
            }
            assert_eq!(batched.grant_count(), single.grant_count(), "seed {seed}");
            assert_eq!(batched.key_count(), single.key_count(), "seed {seed}");

            // Everything else goes the same two ways: both tables drain.
            for (owner, mode, held) in holdings(&layout) {
                batched.unlock_batch(owner, &held, mode);
                for key in &held {
                    single.unlock(owner, key, mode);
                }
            }
            assert_eq!(batched.key_count(), 0, "seed {seed}");
            assert_eq!(single.key_count(), 0, "seed {seed}");
        }
    }

    #[test]
    fn siread_survives_owner_release_of_other_keys() {
        let lm = LockManager::with_defaults();
        lm.lock(t(1), &key(1), LockMode::SiRead).unwrap();
        lm.lock(t(1), &key(2), LockMode::Exclusive).unwrap();
        lm.unlock(t(1), &key(2), LockMode::Exclusive);
        assert!(lm.holds(t(1), &key(1)).contains(LockMode::SiRead));
        assert_eq!(lm.key_count(), 1);
    }

    #[test]
    fn stats_count_requests_and_waits() {
        let lm = Arc::new(LockManager::with_defaults());
        lm.lock(t(1), &key(1), LockMode::Exclusive).unwrap();
        std::thread::scope(|s| {
            let lm2 = lm.clone();
            let h = s.spawn(move || lm2.lock(t(2), &key(1), LockMode::Shared).unwrap());
            std::thread::sleep(Duration::from_millis(30));
            lm.unlock(t(1), &key(1), LockMode::Exclusive);
            h.join().unwrap();
        });
        let (requests, waits, deadlocks, timeouts) = lm.stats().snapshot();
        assert_eq!(requests, 2);
        assert_eq!(waits, 1);
        assert_eq!(deadlocks, 0);
        assert_eq!(timeouts, 0);
    }

    #[test]
    fn many_threads_increment_under_exclusive_lock() {
        // A little stress test: N threads each acquire X on the same key and
        // increment a shared counter; mutual exclusion must hold.
        let lm = Arc::new(LockManager::with_defaults());
        let counter = Arc::new(Mutex::new(0u64));
        let in_section = Arc::new(AtomicBool::new(false));
        let threads = 8;
        let iters = 50;
        std::thread::scope(|s| {
            for i in 0..threads {
                let lm = lm.clone();
                let counter = counter.clone();
                let in_section = in_section.clone();
                s.spawn(move || {
                    for j in 0..iters {
                        let txn = t(1 + i * iters + j);
                        lm.lock(txn, &key(9), LockMode::Exclusive).unwrap();
                        assert!(!in_section.swap(true, AOrd::SeqCst));
                        {
                            let mut c = counter.lock();
                            *c += 1;
                        }
                        in_section.store(false, AOrd::SeqCst);
                        lm.unlock(txn, &key(9), LockMode::Exclusive);
                    }
                });
            }
        });
        assert_eq!(*counter.lock(), threads * iters);
        assert_eq!(lm.key_count(), 0);
    }
}
