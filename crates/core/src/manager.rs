//! The transaction manager: timestamps, the transaction registry, the
//! committed-but-suspended list and its cleanup.
//!
//! Responsibilities, mapped to the thesis:
//!
//! * issue begin (snapshot) and commit timestamps from a single counter so
//!   that "committed before T began" has one global meaning (Sec. 2.5);
//! * keep a registry of transaction records so that other transactions can
//!   be found by id when a conflict is discovered through a newer row
//!   version (Fig. 3.4 line 8);
//! * keep committed Serializable-SI transactions *suspended* — their record
//!   and their SIREADs (lock-table keys and row registrations,
//!   [`HeldSireads`]) stay alive until no concurrent transaction remains
//!   (Sec. 3.3), and clean them up eagerly in commit order
//!   (Sec. 4.6.1, the InnoDB strategy).
//!
//! # The commit pipeline
//!
//! The thesis prototype serializes all conflict marking and commit-time
//! flag checks under InnoDB's kernel mutex; earlier revisions of this crate
//! mirrored that with a global `Mutex<()>`. That mutex is gone; its last
//! measurement against the pipeline is `BENCH_commit.json`. The commit and
//! conflict paths are built from three fine-grained pieces:
//!
//! 1. **The per-transaction state word** — commit timestamp, status, doomed
//!    flag and both conflict flags packed into one `AtomicU64` on
//!    [`TxnShared`] (layout in [`crate::txn_shared`]). Under the basic
//!    variant, conflict marking and the commit-time flag check are CAS
//!    loops on the two participants' words; no locks at all.
//!
//! 2. **The pair-lock ordering rule** — the enhanced variant additionally
//!    tracks conflict-neighbour *identities*, which need more than one
//!    word. Where a pair of transactions must be updated atomically
//!    together (recording an edge plus the pivot test of Fig. 3.9), the two
//!    per-transaction conflict mutexes are taken **in increasing
//!    transaction-id order** — never more than two, never nested with a
//!    third. A committing transaction holds only its *own* conflict mutex,
//!    which suffices: any edge recorded against it is serialized either
//!    before its commit check (and is seen) or after its status flips to
//!    committed (and the marker sees a committed counterpart, Fig. 3.9's
//!    committed-writer case).
//!
//! 3. **Ordered timestamp publication (deposit-drain)** — commit
//!    timestamps are *allocated* from one counter (`next_ts`, a fetch-add)
//!    but *published* to the snapshot clock (`clock`) strictly in
//!    allocation order. The owner of timestamp `t` stamps its versions
//!    first, then *deposits* `t`; whoever completes the pending prefix
//!    drains every consecutive deposited timestamp into the clock in one
//!    step, so no committer ever needs a predecessor to be scheduled again
//!    after it finished stamping. New snapshots read `clock`, so a
//!    snapshot at `s` sees every commit with timestamp `<= s` at least
//!    *provisionally* stamped, while commits whose write sets touch
//!    different keys run the whole pipeline in parallel.
//!
//!    **No committer waits for its own timestamp to be published.** A
//!    non-durable commit deposits its timestamp mid-window (between
//!    provisional stamping and finalize) and returns as soon as its own
//!    finalize settles — its latency is decoupled from straggler
//!    predecessors entirely. The price is that a new snapshot can cover a
//!    commit that is still in its window: the reader then finds a
//!    *provisionally* stamped version and resolves it **itself** from the
//!    creator's state word — committed, pending (take the read
//!    speculatively and register a commit dependency), or aborted — instead
//!    of parking on the publication condvar (the protocol lives in
//!    [`crate::txn_shared`], § the `Committing` state machine). The read
//!    path therefore never blocks on publication;
//!    [`ManagerStats::read_publication_waits`] counts the read-side slow
//!    path — which no longer has any engine call site — to prove it.
//!
//!    The SSI checks used to lean on publication as a fence ("once
//!    `clock >= t`, anything still unstamped commits after `t`"); they now
//!    get the same bound cheaper from the state word: timestamps are
//!    allocated only *after* the `Active → Committing` transition, so a
//!    word still showing `Active` belongs to a transaction whose eventual
//!    commit timestamp exceeds everything already allocated — no waiting
//!    required (see [`crate::ssi`]).
//!
//!    Ordered publication itself survives for the two consumers that
//!    genuinely need a prefix-closed clock: snapshot acquisition, and the
//!    WAL seal order in durable mode — durable commits finalize *before*
//!    stamping (no provisional window, since a checkpoint must never
//!    stream a version that can still roll back) and keep a commit-path
//!    [`TransactionManager::wait_for_publication`] so log sealing follows
//!    timestamp order.
//!
//! Every allocated timestamp **must** be published exactly once, even when
//! the commit fails between allocation and publication (the timestamp is
//! then published "empty"); otherwise the publication chain would stall.
//!
//! # Sharding
//!
//! The registry is sharded the same way as the lock table and the storage
//! layer: `REGISTRY_SHARDS` small mutex-protected hash maps, selected by
//! transaction id (ids are sequential, so the low bits spread perfectly).
//! Begin/find/retire on different transactions therefore never contend on
//! one mutex.
//!
//! Two auxiliary ordered structures keep the operations that used to be
//! full-registry scans cheap:
//!
//! * each shard maintains an **active-begin index** (`BTreeSet` of
//!   `(begin_ts, id)` for its active snapshot-holding transactions) and
//!   publishes the index's minimum in an `AtomicU64` of its own
//!   (`Timestamp::MAX` when empty), stored under the shard's mutex wherever
//!   the index changes. [`TransactionManager::oldest_active_begin`] is one
//!   atomic load per shard — 64 loads, no mutex, independent of how many
//!   transactions are live;
//! * the **suspended list** is a `BTreeMap` keyed by `(commit_ts, id)` with
//!   its length mirrored in an atomic. The commit epilogue
//!   (`reclaim_pass`, run by every finish) reads the horizon, then
//!   takes the list's mutex once: it pops the reclaimable prefix in commit
//!   order, stopping at the first survivor — O(reclaimed), not
//!   O(suspended × registry) — and files the committer behind it, unless
//!   the committer is itself reclaimable, in which case it never enters
//!   the list. A finish that suspends nothing (every SI and S2PL finish,
//!   every abort) looks at the atomic length first and touches the mutex
//!   only when the list is non-empty. Reclaimed SIREADs are dropped
//!   outside the mutex: the row registrations one chain-mutex visit each,
//!   through the handle the transaction kept, the range registrations (one
//!   per scan, whatever it listed) one visit of their table's or index's
//!   range list each, and the lock-table keys (pages, rows that had no
//!   chain) with one batched lock-manager call per transaction (one
//!   shard-lock acquisition per lock-table shard touched, not one per key;
//!   no heap allocation for sets of up to eight keys).
//!
//! What a Serializable-SI commit pays after its outcome is decided is
//! therefore: one registry-shard mutex to leave the active set, one horizon
//! read, one `suspended` mutex, one chain visit per row point-read and one
//! range-list visit per scan (one lock-table visit per SIREAD key that is a
//! lock), and one more registry-shard mutex when a record is retired. The horizon
//! read is two atomic loads while no snapshot-holding transaction has
//! finished since the last read; otherwise it is the 64-load sweep. Every
//! finish invalidates the cached horizon, so under load the sweep is the
//! steady state — `ManagerStats::watermark_sweeps` runs at about one per
//! commit — which is why the sweep has to be cheap rather than rare.
//!
//! # Reclamation: the pinned GC horizon
//!
//! Version garbage collection ([`ssi_storage::Table::purge_old_versions`])
//! may only drop a version once no snapshot can ever need it again. The
//! horizon it runs at comes from [`TransactionManager::gc_horizon`], which
//! is built from two pieces:
//!
//! * **the clamped begin-watermark** — the raw shard-by-shard sweep of
//!   [`TransactionManager::oldest_active_begin`] has a TOCTOU: a transaction
//!   registering in an already-read shard can be missed while the sweep
//!   returns a later shard's minimum (or `MAX`), so purging at the raw
//!   result can reclaim a version a just-started snapshot still needs. The
//!   fix is a clamp, shared with suspended-cleanup: read the snapshot
//!   clock *before* the sweep and take the minimum. The claim is that
//!   `min(sweep, clock_before)` is `<=` every active *and every future*
//!   begin timestamp, forever.
//!
//!   The sweep reads each shard's published minimum without the shard's
//!   mutex, so the claim rests on the order in which a beginning
//!   transaction and a sweeper touch two atomics, the clock and the
//!   shard's slot, all with `SeqCst` (one total order `S` over these
//!   operations, consistent with each variable's modification order):
//!
//!   - *begin* (`ensure_snapshot`, under the shard mutex): if the shard's
//!     index is empty, **store** the current clock value into the slot as
//!     a reservation; then **load** the clock — that value `b` is the
//!     begin timestamp; insert `(b, id)`; tighten the slot to `b` if the
//!     clock moved in between. If the index is not empty the slot already
//!     holds a begin that was read from the clock earlier under the same
//!     mutex, hence `<= b`, and stays;
//!   - *sweep*: **load** the clock (`clock_before`), then **load** every
//!     slot.
//!
//!   Take any transaction `T` with begin `b`. Either `T`'s clock load
//!   follows the sweeper's in `S`, and then `b >= clock_before` because the
//!   clock is monotone; or it precedes it, and then so does the slot store
//!   sequenced before it (the reservation, or the earlier store that made
//!   the slot `<= b`), so the sweeper's later load of that slot returns
//!   that store or a newer one. Every newer store is made under the shard
//!   mutex from an index that still contains `(b, id)` — or from another
//!   reservation that found the index empty, which means `T` has finished
//!   — so while `T` is active the sweeper reads a value `<= b`. In both
//!   cases the clamped result is `<= b`. A reservation *before* the clock
//!   read is what the mutex used to provide by making the sweeper wait;
//!   storing the slot only after reading the clock would let a sweeper
//!   read a newer clock, find the slot still `MAX`, and return a horizon
//!   above `b`.
//!
//!   Because begins come from the monotone clock, a bound that was valid
//!   when computed stays valid, so the clamped value is cached as the
//!   monotone `begin_watermark`, gated on a generation (`finish_gen`) that
//!   moves whenever a snapshot-holding transaction finishes — the only
//!   event that can raise the oldest active begin. A horizon read with the
//!   generation unchanged costs two atomic loads; otherwise 64 more and no
//!   mutex;
//!
//! * **horizon pins** ([`GcHorizon`], [`GcPin`]) — consumers of old
//!   versions that are *not* transactions register a floor the horizon may
//!   not pass. A checkpoint pins the horizon at the published clock before
//!   rotating the log and streaming its fuzzy table snapshot (a concurrent
//!   purge past the cut would otherwise steal versions the snapshot still
//!   has to stream); long scans and recovery can pin the same way. A pin
//!   taken at the current clock is also safe against purges already in
//!   flight: any horizon computed earlier was `<=` the clock at that
//!   moment, hence `<=` the pin — so the pin never needs to chase a racing
//!   purge, it only has to exist before the clock-ordered work it protects.
//!
//! The resulting horizon is monotone (the base watermark only grows, and
//! pins are created at the current clock, which is `>=` every horizon
//! handed out so far) and never exceeds the oldest live pin — the two
//! invariants the GC stress net's proptest checks.
//!
//! ## The horizon read takes no mutex
//!
//! Version GC has two callers: the purge pass (`Database::purge`, the
//! background GC thread), and every writer that finds a long version chain
//! and prunes it on the spot (`ssi_storage::Table::install`, counted in
//! [`ManagerStats::pruned_inline_versions`]). The writer asks for the
//! horizon while it holds the chain's mutex, so
//! [`TransactionManager::gc_horizon`] must not block: the watermark is the
//! lock-free sweep above, and the oldest pin is mirrored in an atomic
//! (`GcHorizon::oldest_pin`, stored only under the pins mutex) that the read
//! loads instead of taking that mutex.
//!
//! * **Why the pin is still honoured.** [`TransactionManager::pin_gc_horizon`]
//!   uses the publish-then-read-clock order of `ensure_snapshot`: under the
//!   pins mutex a first pin stores the current clock into the mirror as a
//!   reservation, *then* reads the clock for the pin's own timestamp `p`,
//!   inserts it and tightens the mirror (all `SeqCst`). A horizon read takes
//!   its watermark — bounded by a clock value `c` loaded in that read or,
//!   for a cached watermark, in the sweep that produced it, which
//!   happens-before this read — and then loads the mirror. If `c` was
//!   loaded after the pin's clock read, the mirror load comes later still
//!   and finds the reservation or the pin, so the result is capped at or
//!   below `p`. Otherwise `c <= p` because the clock is monotone, and the
//!   watermark is `<= c`. A later pin finds the mirror already at or below
//!   the clock and needs no reservation.
//! * **Why watermark first, pin second.** Loading the mirror first would
//!   let a pin be taken and the clock move on between the two loads: the
//!   read would then pair "no pin" with a watermark above the pin.
//! * **Why a stale horizon is safe.** Every horizon ever computed is `<=`
//!   the clock at its computation, hence `<=` every begin timestamp and
//!   every pin taken later, and `<=` every begin and pin that was live
//!   then. A writer that prunes at a horizon read a while ago — or at the
//!   cached watermark of a sweep another thread made — reclaims less than
//!   it could, never more. Nothing is owed to a version at or below a
//!   horizon except by readers that horizon already accounted for.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use ssi_common::{AbortReason, IsolationLevel, Timestamp, TxnId, TS_ZERO};
use ssi_lock::{FxBuildHasher, LockKey, LockManager, LockMode};
use ssi_obs::{EventKind, TraceHandle};
use ssi_storage::{RangeHandle, RowHandle};

use crate::txn_shared::TxnShared;

/// Number of registry shards. Power of two; ids are assigned sequentially
/// so `id % shards` spreads consecutive transactions across all shards.
/// Public so tests that choreograph sweep/begin interleavings can compute a
/// transaction's shard.
pub const REGISTRY_SHARDS: usize = 64;

/// Test-only instrumentation callback: invoked with the shard index after
/// each registry shard's minimum is read by the `oldest_active_begin` sweep
/// (no lock held), so tests can deterministically interleave a begin with
/// a mid-flight sweep. See
/// [`TransactionManager::set_sweep_pause_hook`].
pub type SweepPauseHook = Arc<dyn Fn(usize) + Send + Sync>;

/// The shared spin budget for the commit pipeline's short waits — the
/// publication wait loop, the `Allocating` settle loop in [`crate::ssi`]
/// and the dependency wait in [`crate::txn`]. On multi-core machines the
/// awaited thread is typically a few instructions from done on another
/// core, so a short spin beats parking or yielding. On a single-core
/// machine spinning is counterproductive — the awaited thread cannot run
/// until we sleep — so the budget drops to zero and waiters go straight to
/// their fallback (park or yield), a clean scheduler handoff exactly like
/// a contended futex mutex.
fn commit_spin_limit() -> u32 {
    match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => 64,
        _ => 0,
    }
}

/// Test-only instrumentation callback: invoked with the committing
/// transaction's id at the [`CommitPhase`] points of the write-commit
/// pipeline, so tests and benchmarks can hold a committer mid-window (the
/// "straggler" choreography) while readers and later committers proceed.
/// See [`TransactionManager::set_commit_pause_hook`].
pub type CommitPauseHook = Arc<dyn Fn(TxnId, CommitPhase) + Send + Sync>;

/// Points in the write-commit pipeline where the commit pause hook fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitPhase {
    /// After versions are provisionally stamped, before the commit
    /// timestamp is deposited for publication: a committer held here has
    /// allocated its timestamp but new snapshots cannot cover it yet.
    PreDeposit,
    /// After the timestamp is deposited, before the dependency wait and
    /// finalize: a committer held here is the straggler scenario — its
    /// timestamp is published, readers can take its versions
    /// speculatively, later committers must not wait for it.
    PreFinalize,
}

/// The SIREADs a committed Serializable-SI transaction leaves behind, to be
/// released when nothing concurrent with it remains (Sec. 3.3).
#[derive(Default)]
pub struct HeldSireads {
    /// Keys still granted to it in the lock table: pages, and rows that had
    /// no version chain when it read them.
    pub locks: Vec<LockKey>,
    /// Rows whose chains it registered on. May include rows whose
    /// registration its own write upgraded away since; releasing those is a
    /// no-op.
    pub rows: Vec<RowHandle>,
    /// How many of `rows` are still registered.
    pub live_rows: usize,
    /// The ranges it scanned, on tables and on secondary indexes: one
    /// registration per scan.
    pub ranges: Vec<RangeHandle>,
}

impl HeldSireads {
    /// True if there is nothing to release.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty() && self.live_rows == 0 && self.ranges.is_empty()
    }
}

/// A committed Serializable-SI transaction kept around because transactions
/// concurrent with it may still discover conflicts against it.
struct SuspendedTxn {
    shared: Arc<TxnShared>,
    sireads: HeldSireads,
}

/// One registry shard: the id → record map plus the ordered index of
/// active transactions that already hold a snapshot. Aligned to a cache
/// line, so that neighbouring shards — consecutive transaction ids, which are
/// concurrent transactions — never share one.
#[derive(Default)]
#[repr(align(64))]
struct RegistryShard {
    records: HashMap<TxnId, Arc<TxnShared>, FxBuildHasher>,
    /// `(begin_ts, id)` for every registered transaction that received a
    /// snapshot and has not finished yet. `first()` is this shard's oldest
    /// active begin timestamp.
    active_begins: BTreeSet<(Timestamp, TxnId)>,
}

/// The pinned version-reclamation horizon (see the module docs, §
/// Reclamation). Owns the multiset of active pins; the monotone base
/// watermark lives on the [`TransactionManager`] (it is shared with
/// suspended-cleanup).
pub struct GcHorizon {
    /// Active pins: pinned timestamp → number of live [`GcPin`] guards at
    /// it. `first_key_value` is the binding floor.
    pins: Mutex<BTreeMap<Timestamp, u64>>,
    /// The binding floor again, for readers that must not take the mutex
    /// (a writer pruning a chain holds the chain's): the smallest key of
    /// `pins`, `Timestamp::MAX` when there is none. Stored only under the
    /// `pins` mutex and equal to the map's minimum whenever that mutex is
    /// free — except while a first pin is being taken, when it already
    /// holds a reservation at or below the pin to come (see
    /// [`TransactionManager::pin_gc_horizon`]).
    oldest_pin: AtomicU64,
    /// Highest horizon ever returned by
    /// [`TransactionManager::gc_horizon`], for observability (the stress
    /// net's monotonicity proptest reads the returned values directly; this
    /// is for stats).
    published: AtomicU64,
}

impl GcHorizon {
    fn new() -> Self {
        GcHorizon {
            pins: Mutex::new(BTreeMap::new()),
            oldest_pin: AtomicU64::new(Timestamp::MAX),
            published: AtomicU64::new(0),
        }
    }

    /// Republishes the oldest pin after `pins` changed (mutex held).
    fn publish_oldest(&self, pins: &BTreeMap<Timestamp, u64>) {
        let oldest = pins.first_key_value().map_or(Timestamp::MAX, |(&ts, _)| ts);
        self.oldest_pin.store(oldest, Ordering::SeqCst);
    }
}

/// An RAII horizon pin: while this guard lives, no purge computes a horizon
/// above [`GcPin::ts`], so every version some snapshot at or after `ts` can
/// read stays reachable. Created by
/// [`TransactionManager::pin_gc_horizon`]; dropping it unpins.
pub struct GcPin<'a> {
    horizon: &'a GcHorizon,
    ts: Timestamp,
}

impl GcPin<'_> {
    /// The pinned timestamp.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }
}

impl Drop for GcPin<'_> {
    fn drop(&mut self) {
        let mut pins = self.horizon.pins.lock();
        match pins.get_mut(&self.ts) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                pins.remove(&self.ts);
                self.horizon.publish_oldest(&pins);
            }
        }
    }
}

impl std::fmt::Debug for GcPin<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcPin").field("ts", &self.ts).finish()
    }
}

/// Counters describing transaction-manager activity, exposed for tests and
/// the experiment harness.
#[derive(Default, Debug)]
pub struct ManagerStats {
    /// Transactions begun.
    pub started: AtomicU64,
    /// Transactions committed.
    pub committed: AtomicU64,
    /// Transactions aborted (any reason).
    pub aborted: AtomicU64,
    /// Commits that entered the suspended list: Serializable-SI commits
    /// with SIREAD locks or an outgoing conflict that some active
    /// transaction was still concurrent with. (One that nothing is
    /// concurrent with is reclaimed on the spot and counted in neither
    /// this nor `cleaned`.)
    pub suspended: AtomicU64,
    /// Suspended transactions reclaimed from the list;
    /// `suspended - cleaned` is the list's current length.
    pub cleaned: AtomicU64,
    /// Publication waits that outlasted the spin phase and parked the
    /// thread (commit pipeline contention signal).
    pub publish_parks: AtomicU64,
    /// Publication waits taken on the *read* path. After the read-side
    /// commit-resolution change this has no engine call site left, so the
    /// stress net asserts it stays zero — readers resolve in-flight
    /// commits from the creator's state word instead of parking.
    pub read_publication_waits: AtomicU64,
    /// Reads that took a provisionally stamped version speculatively
    /// (creator still in its commit window, timestamp covered by the
    /// reader's snapshot).
    pub speculative_reads: AtomicU64,
    /// Commit dependencies registered by speculative readers on
    /// still-committing creators (a subset of `speculative_reads`: a
    /// creator that settles before registration needs no dependency).
    pub commit_dependencies: AtomicU64,
    /// Transactions doomed because a creator they speculatively read from
    /// aborted out of its commit window (dependency-abort cascades).
    pub dependency_cascade_aborts: AtomicU64,
    /// SIREADs registered on version chains (one per row a Serializable-SI
    /// transaction newly read; see `ssi_storage::table`, § SIREAD on the
    /// row). Each transaction counts its own in a plain field and adds them
    /// here once, when it finishes.
    pub siread_row_registrations: AtomicU64,
    /// Gauge: row SIREAD registrations held by committed transactions that
    /// have not been cleaned up yet. Moved by the same per-transaction
    /// flush, and back when the registrations are released.
    pub siread_rows_now: AtomicU64,
    /// Lock-free refreshes of the cached `oldest_active_begin` watermark:
    /// one per horizon read that found `finish_gen` moved, each 64 atomic
    /// loads and no mutex. Every finish of a snapshot-holding transaction
    /// moves the generation, so under load this runs close to one per
    /// commit.
    pub watermark_sweeps: AtomicU64,
    /// Pages of S2PL scans whose phantom sweep ran because the table's
    /// membership epoch had moved since the page was listed. (A
    /// Serializable-SI scan registers its range before it lists and has
    /// nothing to sweep for.)
    pub scan_sweeps_run: AtomicU64,
    /// Pages of S2PL scans whose phantom sweep was skipped because
    /// the epoch was unchanged (nothing entered or left the key range's
    /// table, so the sweep could not have found anything).
    pub scan_sweeps_skipped: AtomicU64,
    /// Version-GC passes run (`Database::purge`, manual or automatic).
    pub purge_runs: AtomicU64,
    /// Version-GC passes run by the background maintenance thread (a
    /// subset of `purge_runs`): with background GC on and inline
    /// `purge_every_commits` off, `purge_runs == background_purge_runs`
    /// proves the commit path did zero purge work.
    pub background_purge_runs: AtomicU64,
    /// Row versions reclaimed by version-GC passes.
    pub purged_versions: AtomicU64,
    /// Row versions reclaimed by writers: a write that finds a long chain
    /// drops what a pass at the current horizon would (see
    /// [`ssi_storage::Table::install`]). `purged_versions +
    /// pruned_inline_versions` is every version reclaimed.
    pub pruned_inline_versions: AtomicU64,
    /// Whole key chains removed by version GC (dead tombstoned keys).
    pub purged_chains: AtomicU64,
    /// WAL fsync retries taken by the background flusher's retry loop
    /// (transient I/O failures absorbed without poisoning the log). Zero on
    /// a clean run — the stress nets assert it.
    pub wal_fsync_retries: AtomicU64,
    /// Storage faults observed by the durability subsystem (failed appends,
    /// fsyncs, renames — whether or not they were retried away). Under
    /// fault injection this counts the injected faults that actually hit
    /// the engine; zero on a clean run.
    pub wal_faults_observed: AtomicU64,
    /// `Healthy → Degraded` health transitions (at most 1 per database:
    /// degradation is one-way and first-cause-wins).
    pub degraded_transitions: AtomicU64,
    /// Aborts broken down by typed [`AbortReason`], indexed by
    /// `AbortReason::index()`. Bumped in the same place as `aborted`
    /// ([`TransactionManager::finish_abort`] is the only incrementer of
    /// either), so the per-reason counts always sum to `aborted`.
    pub abort_reasons: [AtomicU64; AbortReason::COUNT],
    /// Last, so that the counters in front of them stay where they were
    /// (the manager's hot words are layout-sensitive, see ROADMAP). Range
    /// SIREADs registered: one per Serializable-SI range scan of a table or
    /// of a secondary index that no range the transaction already held
    /// covered (`ssi_storage::range`). Each transaction counts its own and
    /// adds them here once, when it finishes.
    pub siread_range_registrations: AtomicU64,
    /// Gauge: range registrations held by committed transactions that have
    /// not been cleaned up yet; the sibling of `siread_rows_now`.
    pub siread_ranges_now: AtomicU64,
}

impl ManagerStats {
    /// Folds one version-GC pass into the counters, attributing it to the
    /// background GC thread when `background` (the single accounting point
    /// shared by `Database::purge` and the maintenance hub's GC loop).
    pub fn record_purge(&self, stats: &ssi_storage::PurgeStats, background: bool) {
        self.purge_runs.fetch_add(1, Ordering::Relaxed);
        if background {
            self.background_purge_runs.fetch_add(1, Ordering::Relaxed);
        }
        self.purged_versions
            .fetch_add(stats.versions, Ordering::Relaxed);
        self.purged_chains
            .fetch_add(stats.chains, Ordering::Relaxed);
    }

    /// Loads the per-reason abort counters as plain values.
    pub fn abort_reason_counts(&self) -> [u64; AbortReason::COUNT] {
        std::array::from_fn(|i| self.abort_reasons[i].load(Ordering::Relaxed))
    }

    /// Aborts recorded for one specific reason.
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.abort_reasons[reason.index()].load(Ordering::Relaxed)
    }
}

/// The transaction manager.
pub struct TransactionManager {
    /// The snapshot clock: the highest *published* commit timestamp. Only
    /// ever advances in timestamp order (see the module docs).
    clock: AtomicU64,
    /// The allocation counter: the highest commit timestamp handed out.
    /// Always `>= clock`; the gap is the set of in-flight commits.
    next_ts: AtomicU64,
    /// Next transaction id.
    next_id: AtomicU64,
    /// Sharded registry of all transaction records that may still be
    /// referenced: active transactions plus committed-but-suspended
    /// Serializable SI transactions.
    registry: Box<[Mutex<RegistryShard>]>,
    /// Per registry shard, the oldest begin timestamp in its
    /// `active_begins` (`Timestamp::MAX` when empty). Stored only under the
    /// shard's own mutex, wherever `active_begins` changes, and equal to the
    /// set's minimum whenever that mutex is free; loaded without it by
    /// [`TransactionManager::oldest_active_begin`]. Kept apart from the
    /// shards so the sweep reads eight cache lines, not sixty-four. See the
    /// module docs, § Reclamation, for why reading it without the mutex is
    /// sound.
    shard_oldest_begin: Box<[AtomicU64]>,
    /// Suspended committed transactions, ordered by commit timestamp.
    suspended: Mutex<BTreeMap<(Timestamp, TxnId), SuspendedTxn>>,
    /// `suspended.len()`, stored under the `suspended` mutex after every
    /// change, so a finish that has nothing to reclaim (every SI and S2PL
    /// finish, and SSI ones while the list is empty) never takes the mutex.
    suspended_now: AtomicUsize,
    /// Timestamps whose owners finished stamping but whose predecessors
    /// have not all published yet. Deposited here so *any* later publisher
    /// can advance the clock through them — the owner of a timestamp never
    /// has to be scheduled again just to move the clock past its commit.
    pending_publish: Mutex<BTreeSet<Timestamp>>,
    /// Number of threads parked waiting for the clock to advance. Checked
    /// by publishers so the common, uncontended publish never touches the
    /// condvar at all.
    publish_waiters: AtomicU64,
    /// Parking lot for publication waiters (see
    /// [`TransactionManager::wait_until_published`]): waiting threads sleep
    /// here instead of burning the scheduler with yields — essential when
    /// committers outnumber cores and the owner of the next timestamp has
    /// been preempted mid-pipeline.
    publish_mu: Mutex<()>,
    publish_cv: Condvar,
    /// Pre-publication spins before parking (see [`commit_spin_limit`]).
    publish_spins: u32,
    /// Cached lower bound on [`TransactionManager::oldest_active_begin`],
    /// shared by suspended-cleanup and the GC horizon so a horizon read
    /// with no finish since the last one skips the sweep. Safety: begin
    /// timestamps are assigned from the monotone snapshot clock, so any
    /// value that was `<=` the oldest active begin (or `<=` the clock, when
    /// nothing was active) when computed remains a valid lower bound
    /// forever — the cache can only be *conservative*, never unsafe. See
    /// [`TransactionManager::refresh_begin_watermark`].
    begin_watermark: AtomicU64,
    /// Value of [`Self::finish_gen`] when `begin_watermark` was last
    /// refreshed. The oldest active begin can only *increase* when a
    /// snapshot-holding transaction finishes, so an unchanged generation
    /// proves a fresh sweep would find nothing new.
    watermark_gen: AtomicU64,
    /// Bumped whenever a snapshot-holding transaction finishes (commit or
    /// abort) — the only event that can raise the oldest active begin.
    finish_gen: AtomicU64,
    /// The pinned reclamation horizon (see the module docs, § Reclamation).
    gc: GcHorizon,
    /// Test-only sweep instrumentation; `None` (and one relaxed atomic
    /// check per sweep) in normal operation.
    sweep_pause_hook: Mutex<Option<SweepPauseHook>>,
    sweep_hook_set: std::sync::atomic::AtomicBool,
    /// Test-only commit-pipeline instrumentation (straggler choreography);
    /// same `None` + relaxed-flag fast path as the sweep hook, checked
    /// twice per write commit.
    commit_pause_hook: Mutex<Option<CommitPauseHook>>,
    commit_hook_set: std::sync::atomic::AtomicBool,
    /// Activity counters.
    stats: ManagerStats,
    /// Event-trace handle, bound once by `Database::try_open` (disabled for
    /// managers built outside a `Database`, e.g. in unit tests).
    trace: std::sync::OnceLock<TraceHandle>,
}

impl TransactionManager {
    /// Creates a transaction manager with the clock at 1 (so the first
    /// snapshot is 1 and the first commit timestamp is 2).
    pub fn new() -> Self {
        TransactionManager {
            clock: AtomicU64::new(1),
            next_ts: AtomicU64::new(1),
            next_id: AtomicU64::new(1),
            registry: (0..REGISTRY_SHARDS)
                .map(|_| Mutex::new(RegistryShard::default()))
                .collect(),
            shard_oldest_begin: (0..REGISTRY_SHARDS)
                .map(|_| AtomicU64::new(Timestamp::MAX))
                .collect(),
            suspended: Mutex::new(BTreeMap::new()),
            suspended_now: AtomicUsize::new(0),
            pending_publish: Mutex::new(BTreeSet::new()),
            publish_waiters: AtomicU64::new(0),
            publish_mu: Mutex::new(()),
            publish_cv: Condvar::new(),
            publish_spins: commit_spin_limit(),
            begin_watermark: AtomicU64::new(0),
            watermark_gen: AtomicU64::new(u64::MAX),
            finish_gen: AtomicU64::new(0),
            gc: GcHorizon::new(),
            sweep_pause_hook: Mutex::new(None),
            sweep_hook_set: std::sync::atomic::AtomicBool::new(false),
            commit_pause_hook: Mutex::new(None),
            commit_hook_set: std::sync::atomic::AtomicBool::new(false),
            stats: ManagerStats::default(),
            trace: std::sync::OnceLock::new(),
        }
    }

    /// Binds the event-trace handle. Called once at database open, before
    /// any transaction begins; later calls are ignored.
    pub(crate) fn set_trace(&self, trace: TraceHandle) {
        let _ = self.trace.set(trace);
    }

    /// The bound trace handle (disabled when none was bound).
    #[inline]
    pub(crate) fn trace(&self) -> &TraceHandle {
        self.trace.get_or_init(TraceHandle::disabled)
    }

    /// Restores the clocks after crash recovery: the snapshot clock and the
    /// allocation counter resume from `clock`, so the first post-recovery
    /// snapshot sees every replayed commit and the next commit timestamp is
    /// `clock + 1`. Must be called before any transaction begins.
    pub fn restore_clock(&self, clock: Timestamp) {
        let clock = clock.max(1);
        self.clock.store(clock, Ordering::SeqCst);
        self.next_ts.store(clock, Ordering::SeqCst);
    }

    /// Activity counters.
    pub fn stats(&self) -> &ManagerStats {
        &self.stats
    }

    #[inline]
    fn shard_index(id: TxnId) -> usize {
        id.0 as usize & (REGISTRY_SHARDS - 1)
    }

    #[inline]
    fn shard(&self, id: TxnId) -> &Mutex<RegistryShard> {
        &self.registry[Self::shard_index(id)]
    }

    /// Current value of the snapshot clock (highest published commit
    /// timestamp).
    pub fn current_ts(&self) -> Timestamp {
        self.clock.load(Ordering::Acquire)
    }

    /// Starts a new transaction at `isolation` and registers it.
    pub fn begin(&self, isolation: IsolationLevel) -> Arc<TxnShared> {
        let id = TxnId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let shared = Arc::new(TxnShared::new(id, isolation));
        self.shard(id).lock().records.insert(id, shared.clone());
        self.stats.started.fetch_add(1, Ordering::Relaxed);
        self.trace()
            .emit(EventKind::TxnBegin, id.0, self.current_ts(), 0);
        shared
    }

    /// Assigns the transaction's snapshot to the current clock value if it
    /// does not have one yet, and returns it. Deferring this call until
    /// after the first lock acquisition implements the optimization of
    /// Sec. 4.5 (single-statement updates never abort under
    /// first-committer-wins).
    pub fn ensure_snapshot(&self, txn: &TxnShared) -> Timestamp {
        if let Some(ts) = txn.begin_ts() {
            return ts;
        }
        // Take the shard lock across assign + index insert so a concurrent
        // finish cannot miss the index entry.
        let index = Self::shard_index(txn.id());
        let mut shard = self.registry[index].lock();
        if let Some(ts) = txn.begin_ts() {
            return ts;
        }
        if !shard.records.contains_key(&txn.id()) {
            // Already retired: a snapshot for the record's own sake, not an
            // active begin anyone has to respect.
            txn.set_begin_ts(self.current_ts());
            return txn.begin_ts().expect("begin timestamp was just set");
        }
        // Publish, then read the clock (module docs, § Reclamation). While
        // the shard has an active begin its published minimum already
        // covers this one: that begin was read from the clock under this
        // mutex, so it is `<=` whatever the clock says now. An empty shard
        // publishes `MAX`, so it first reserves the current clock value and
        // only then reads the clock for the begin itself — SeqCst on all
        // three, so a sweep that reads the clock after this begin did also
        // sees the reservation.
        let slot = &self.shard_oldest_begin[index];
        let reserved = shard.active_begins.is_empty().then(|| {
            let floor = self.clock.load(Ordering::SeqCst);
            slot.store(floor, Ordering::SeqCst);
            floor
        });
        let ts = self.clock.load(Ordering::SeqCst);
        txn.set_begin_ts(ts);
        shard.active_begins.insert((ts, txn.id()));
        if reserved.is_some_and(|floor| floor != ts) {
            // The clock moved between the two reads: tighten the
            // reservation to the begin actually taken.
            slot.store(ts, Ordering::SeqCst);
        }
        ts
    }

    /// Allocates the next commit timestamp. The new value is *not* visible
    /// to readers until [`TransactionManager::publish_commit_ts`] is called,
    /// so the caller can stamp its versions first and new snapshots can
    /// never observe a half-committed transaction. Every allocated
    /// timestamp must eventually be published exactly once, even on commit
    /// failure, or the publication chain stalls.
    pub fn allocate_commit_ts(&self) -> Timestamp {
        self.next_ts.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Publishes a commit timestamp allocated with
    /// [`TransactionManager::allocate_commit_ts`], making it visible to new
    /// snapshots. The clock still advances strictly in allocation order —
    /// out-of-order finishers *deposit* their timestamp instead of queueing
    /// to store it themselves: whoever completes the pending prefix drains
    /// every consecutive deposited timestamp in one step. A committer
    /// therefore never needs its predecessors to be *scheduled again* after
    /// they finished stamping, and a pile-up behind one preempted commit
    /// clears with a single group wakeup rather than a serial chain of
    /// handoffs.
    ///
    /// **Deposit-only**: this never waits, not even for `ts` itself — a
    /// straggling predecessor delays when *new snapshots* start seeing this
    /// commit, but no longer delays the commit's own completion. Paths that
    /// genuinely need `clock >= ts` (the durable WAL seal order, tests)
    /// call [`TransactionManager::wait_for_publication`] explicitly.
    pub fn publish_commit_ts(&self, ts: Timestamp) {
        debug_assert!(ts > 0);
        let advanced = {
            let mut pending = self.pending_publish.lock();
            pending.insert(ts);
            let mut advanced = false;
            // Drain the ready prefix. The clock is only ever stored under
            // this mutex, so the +1 steps stay prefix-closed.
            while let Some(&next) = pending.first() {
                if next != self.clock.load(Ordering::Acquire) + 1 {
                    break;
                }
                pending.pop_first();
                self.clock.store(next, Ordering::Release);
                advanced = true;
            }
            advanced
        };
        if advanced && self.publish_waiters.load(Ordering::SeqCst) > 0 {
            // The empty lock section orders this notify after any waiter's
            // clock re-check, closing the lost-wakeup window; it is skipped
            // entirely when nobody is parked.
            drop(self.publish_mu.lock());
            self.publish_cv.notify_all();
        }
    }

    /// Waits until every commit timestamp `<= ts` has been published.
    ///
    /// After this returns the snapshot clock covers `ts`: every commit at
    /// or below it has deposited. The durable commit path uses this to keep
    /// the WAL seal order aligned with timestamp order; **the read path
    /// never calls it** — readers resolve in-flight commits from the
    /// creator's state word instead (see the module docs).
    pub fn wait_for_publication(&self, ts: Timestamp) {
        if self.clock.load(Ordering::Acquire) < ts {
            self.wait_until_published(ts);
        }
    }

    /// Read-path variant of [`TransactionManager::wait_for_publication`],
    /// instrumented with [`ManagerStats::read_publication_waits`]. The
    /// read-side commit-resolution protocol removed every engine call site
    /// of this function; it is kept (and counted) so the stress net can
    /// assert the counter stays at zero — any future change that re-blocks
    /// the read path on publication shows up as a counted regression, not
    /// a silent tail-latency bug.
    pub fn wait_for_publication_for_read(&self, ts: Timestamp) {
        if self.clock.load(Ordering::Acquire) < ts {
            self.stats
                .read_publication_waits
                .fetch_add(1, Ordering::Relaxed);
            self.wait_until_published(ts);
        }
    }

    /// The parallelism-gated spin budget shared by the commit pipeline's
    /// short waits (see [`commit_spin_limit`]). Zero on single-core
    /// machines, where spinning only delays the awaited thread.
    #[inline]
    pub(crate) fn spin_limit(&self) -> u32 {
        self.publish_spins
    }

    /// Blocks until `clock >= ts`: a short spin for the common case (the
    /// predecessor is mid-stamping on another core), then parks on the
    /// publication condvar. Parking matters when committers outnumber
    /// cores: a yield loop would burn whole scheduler quanta while the
    /// owner of the next timestamp waits to run, serializing the system on
    /// context-switch latency. The wait carries a timeout backstop so a
    /// missed wakeup degrades to a periodic re-check, never a hang.
    fn wait_until_published(&self, ts: Timestamp) {
        for _ in 0..self.publish_spins {
            if self.clock.load(Ordering::Acquire) >= ts {
                return;
            }
            std::hint::spin_loop();
        }
        self.stats.publish_parks.fetch_add(1, Ordering::Relaxed);
        self.publish_waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.publish_mu.lock();
        while self.clock.load(Ordering::Acquire) < ts {
            // The waiter-count increment (SeqCst) and the publisher's
            // empty lock section make the wakeup precise: a publisher that
            // advances the clock either sees the count and notifies after
            // this thread is parked, or this re-check sees the new clock.
            // The long timeout is a pure backstop, not a polling interval.
            self.publish_cv
                .wait_for(&mut guard, Duration::from_millis(5));
        }
        drop(guard);
        self.publish_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Looks up a (possibly suspended) transaction record by id.
    pub fn find(&self, id: TxnId) -> Option<Arc<TxnShared>> {
        self.shard(id).lock().records.get(&id).cloned()
    }

    /// The smallest begin timestamp among active transactions, or
    /// `Timestamp::MAX` if none is active (used to decide which suspended
    /// transactions can be reclaimed). One atomic load per registry shard
    /// of the minimum the shard publishes; no mutex, independent of how
    /// many transactions are live.
    ///
    /// **The raw sweep result must never be used as a reclamation horizon
    /// on its own**: the shards are read one at a time, so a transaction
    /// acquiring its snapshot in an already-read shard is missed while a
    /// later shard's minimum (or `MAX`) is returned. Clamp with the
    /// pre-sweep clock — [`TransactionManager::gc_horizon`] does — before
    /// reclaiming anything at the result.
    pub fn oldest_active_begin(&self) -> Timestamp {
        let hook = self
            .sweep_hook_set
            .load(Ordering::Relaxed)
            .then(|| self.sweep_pause_hook.lock().clone())
            .flatten();
        let mut min_ts = Timestamp::MAX;
        for (i, slot) in self.shard_oldest_begin.iter().enumerate() {
            min_ts = min_ts.min(slot.load(Ordering::SeqCst));
            if let Some(hook) = &hook {
                hook(i);
            }
        }
        min_ts
    }

    /// Installs (or clears) the test-only sweep instrumentation hook: it is
    /// called with the shard index after each registry shard's minimum is
    /// read by the [`TransactionManager::oldest_active_begin`] sweep (which
    /// holds no lock). Tests use it to pause a sweep mid-flight and
    /// interleave a snapshot acquisition — the TOCTOU the clamped horizon
    /// exists to survive. Not for production use.
    #[doc(hidden)]
    pub fn set_sweep_pause_hook(&self, hook: Option<SweepPauseHook>) {
        self.sweep_hook_set.store(hook.is_some(), Ordering::Relaxed);
        *self.sweep_pause_hook.lock() = hook;
    }

    /// Installs (or clears) the test-only commit-pipeline pause hook: it is
    /// called with the committing transaction's id at each [`CommitPhase`]
    /// point. Tests and the straggler benchmark use it to hold one
    /// committer inside its commit window — timestamp allocated and
    /// published, versions provisionally stamped, finalize withheld — while
    /// readers and later committers proceed. Not for production use.
    #[doc(hidden)]
    pub fn set_commit_pause_hook(&self, hook: Option<CommitPauseHook>) {
        self.commit_hook_set
            .store(hook.is_some(), Ordering::Relaxed);
        *self.commit_pause_hook.lock() = hook;
    }

    /// Fires the commit pause hook, if one is installed (one relaxed load
    /// when not).
    #[inline]
    pub(crate) fn fire_commit_pause(&self, id: TxnId, phase: CommitPhase) {
        if self.commit_hook_set.load(Ordering::Relaxed) {
            let hook = self.commit_pause_hook.lock().clone();
            if let Some(hook) = hook {
                hook(id, phase);
            }
        }
    }

    /// Refreshes (or reuses) the cached begin-watermark: a monotone lower
    /// bound on every active — and every future — begin timestamp. The
    /// sweep (64 atomic loads, no mutex) runs only when a snapshot-holding
    /// transaction finished since the last sweep; otherwise a sweep could
    /// not return a higher value and the cached bound is reused. See
    /// the field docs of `begin_watermark` for why every computed bound
    /// stays valid forever.
    fn refresh_begin_watermark(&self) -> Timestamp {
        let gen = self.finish_gen.load(Ordering::Acquire);
        if self.watermark_gen.load(Ordering::Acquire) == gen {
            // The watermark is loaded *after* the generation check: a
            // racing sweep publishes its fetch_max before its generation
            // store, so a matching generation (acquire) guarantees this
            // load sees that sweep's value. Loading before the check could
            // pair a fresh generation with a stale watermark and hand out
            // a lower horizon than one already returned elsewhere.
            return self.begin_watermark.load(Ordering::Acquire);
        }
        // Clock read *before* the sweep, SeqCst like the sweep's loads and
        // like the publish-then-read-clock sequence of `ensure_snapshot`:
        // a begin whose clock read precedes this one has already published
        // its shard's minimum, so the sweep sees it (or a later, still
        // covering value); a begin whose clock read follows this one is
        // `>= clock_before` (the clock is monotone). So
        // `min(sweep, clock_before)` is `<=` every active begin — including
        // begins the sweep raced past — and, begins being issued from the
        // monotone clock, it stays a valid lower bound forever. (The raw
        // sweep alone has a TOCTOU: a transaction registering in an
        // already-read shard can be missed while a later-shard minimum — or
        // MAX — is returned.)
        let clock_before = self.clock.load(Ordering::SeqCst);
        self.stats.watermark_sweeps.fetch_add(1, Ordering::Relaxed);
        let swept = self.oldest_active_begin().min(clock_before);
        // fetch_max, not store: two racing sweeps may finish in either
        // order, and a plain store could pair an older (lower) horizon with
        // the newest generation — wedging the fast path until some future
        // finish bumps the generation. Every computed bound stays valid
        // forever, so keeping the maximum is always safe.
        let previous = self.begin_watermark.fetch_max(swept, Ordering::AcqRel);
        self.watermark_gen.store(gen, Ordering::Release);
        swept.max(previous)
    }

    /// The safe version-reclamation horizon: the clamped begin-watermark,
    /// capped by the oldest live [`GcPin`]. Purging at this value never
    /// reclaims a version that any active snapshot, any snapshot acquired
    /// later, or any pinned consumer (a checkpoint streaming its fuzzy
    /// snapshot, a long scan) can still need. The returned value is
    /// monotone across calls (see the module docs, § Reclamation).
    ///
    /// Takes no mutex — the watermark is the lock-free sweep (or its cached
    /// result) and the pin floor one atomic load — so a writer may call it
    /// while holding a version chain's mutex. The watermark is read first
    /// and the pin floor second; § Reclamation says why that order.
    pub fn gc_horizon(&self) -> Timestamp {
        let base = self.refresh_begin_watermark();
        let horizon = base.min(self.gc.oldest_pin.load(Ordering::SeqCst));
        self.gc.published.fetch_max(horizon, Ordering::AcqRel);
        horizon
    }

    /// Pins the reclamation horizon at the current published clock and
    /// returns the RAII guard; while the guard lives,
    /// [`TransactionManager::gc_horizon`] never exceeds the pinned
    /// timestamp. Pinning at the *current* clock is also safe against
    /// purges already in flight: any horizon computed before this call was
    /// `<=` the clock at its computation, hence `<=` this pin — so versions
    /// visible at or after the pin cannot have been scheduled for
    /// reclamation by an earlier read of the horizon either.
    pub fn pin_gc_horizon(&self) -> GcPin<'_> {
        let mut pins = self.gc.pins.lock();
        // Publish, then read the clock: the order `ensure_snapshot` uses for
        // a shard's first begin, for the same reason. A `gc_horizon` whose
        // clock read precedes this pin's returns at most that clock value,
        // hence at most the pin. One whose clock read follows it loads the
        // floor later still, and finds the reservation stored before the
        // pin's clock read (or the pin itself): it is capped at or below
        // the pin. Reading the clock first and publishing afterwards would
        // leave a window in which a horizon *above* the pin about to be
        // published is handed out, breaking both the pin contract and
        // horizon monotonicity. While a pin is live the floor already is at
        // or below the clock, so only the first pin reserves.
        if pins.is_empty() {
            let floor = self.clock.load(Ordering::SeqCst);
            self.gc.oldest_pin.store(floor, Ordering::SeqCst);
        }
        let ts = self.clock.load(Ordering::SeqCst);
        *pins.entry(ts).or_insert(0) += 1;
        self.gc.publish_oldest(&pins);
        GcPin {
            horizon: &self.gc,
            ts,
        }
    }

    /// The oldest live pinned timestamp, if any (tests and stats).
    pub fn oldest_gc_pin(&self) -> Option<Timestamp> {
        let oldest = self.gc.oldest_pin.load(Ordering::SeqCst);
        (oldest != Timestamp::MAX).then_some(oldest)
    }

    /// Highest reclamation horizon handed out so far (stats; `0` before the
    /// first purge).
    pub fn last_gc_horizon(&self) -> Timestamp {
        self.gc.published.load(Ordering::Acquire)
    }

    /// Number of entries in the registry (active + suspended), for tests.
    pub fn registry_len(&self) -> usize {
        self.registry.iter().map(|s| s.lock().records.len()).sum()
    }

    /// Number of suspended committed transactions (one atomic load; the
    /// `txn.suspended_now` gauge).
    pub fn suspended_len(&self) -> usize {
        self.suspended_now.load(Ordering::SeqCst)
    }

    /// Removes a finished transaction's record and active-begin entry.
    fn retire(&self, txn: &Arc<TxnShared>) {
        let index = Self::shard_index(txn.id());
        let mut shard = self.registry[index].lock();
        shard.records.remove(&txn.id());
        self.remove_active_begin(index, &mut shard, txn);
    }

    /// Removes only the active-begin entry (the record stays, e.g. while
    /// suspended).
    fn deactivate(&self, txn: &Arc<TxnShared>) {
        let index = Self::shard_index(txn.id());
        let mut shard = self.registry[index].lock();
        self.remove_active_begin(index, &mut shard, txn);
    }

    /// Drops `txn` from its shard's active-begin index (shard mutex held by
    /// the caller), republishes the shard's oldest active begin and bumps
    /// `finish_gen` so the next horizon read sweeps again.
    fn remove_active_begin(&self, index: usize, shard: &mut RegistryShard, txn: &TxnShared) {
        let Some(ts) = txn.begin_ts() else { return };
        if shard.active_begins.remove(&(ts, txn.id())) {
            let oldest = shard
                .active_begins
                .first()
                .map_or(Timestamp::MAX, |&(ts, _)| ts);
            self.shard_oldest_begin[index].store(oldest, Ordering::SeqCst);
            // A sweep that sees this generation (acquire load in
            // `refresh_begin_watermark`) also sees the minimum published
            // just above. SeqCst for the handshake with the count in
            // `suspend_and_reclaim`.
            self.finish_gen.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Records that `txn` committed and runs the commit epilogue (eager
    /// cleanup, Sec. 4.6.1). When `suspend` is true the transaction needs
    /// the suspended treatment of Sec. 3.3 — its record and SIREAD locks
    /// must outlive it while any transaction concurrent with it is active;
    /// otherwise the record is retired immediately and its conflict edges
    /// cleared. A transaction must be suspended when it still holds SIREADs
    /// (`sireads`: lock-table keys and chain registrations alike), and also
    /// — with the SIREAD-upgrade optimization of Sec. 3.7.3 — when it has
    /// recorded an outgoing conflict, even if its SIREADs were all upgraded
    /// away.
    ///
    /// A suspending commit reads the horizon once and makes one pass over
    /// the suspended list (`reclaim_pass`);
    /// if nothing active is concurrent with it, it is reclaimed on the spot
    /// and never enters the list. A commit that does not suspend only looks
    /// at the list when its atomic length says it is non-empty.
    pub fn finish_commit(
        &self,
        txn: &Arc<TxnShared>,
        sireads: HeldSireads,
        suspend: bool,
        locks: &LockManager,
    ) {
        self.stats.committed.fetch_add(1, Ordering::Relaxed);
        self.trace().emit(
            EventKind::TxnCommit,
            txn.id().0,
            txn.commit_ts().unwrap_or(TS_ZERO),
            0,
        );
        if !suspend {
            debug_assert!(sireads.is_empty());
            self.retire(txn);
            txn.clear_conflicts();
            self.suspend_and_reclaim(None, locks);
        } else {
            // Leave the active set first: the horizon read below must not
            // count the committer as concurrent with itself.
            self.deactivate(txn);
            self.stats
                .siread_rows_now
                .fetch_add(sireads.live_rows as u64, Ordering::Relaxed);
            if !sireads.ranges.is_empty() {
                self.stats
                    .siread_ranges_now
                    .fetch_add(sireads.ranges.len() as u64, Ordering::Relaxed);
            }
            let entry = SuspendedTxn {
                shared: txn.clone(),
                sireads,
            };
            self.suspend_and_reclaim(Some(entry), locks);
        }
    }

    /// Records that `txn` aborted (with its typed provenance), retires its
    /// record and reclaims whatever its departure made reclaimable. This is
    /// the single incrementer of both `aborted` and the per-reason
    /// counters, so the per-reason sum equals `aborted` by construction.
    pub fn finish_abort(&self, txn: &Arc<TxnShared>, reason: AbortReason, locks: &LockManager) {
        self.stats.aborted.fetch_add(1, Ordering::Relaxed);
        self.stats.abort_reasons[reason.index()].fetch_add(1, Ordering::Relaxed);
        self.trace()
            .emit(EventKind::TxnAbort, txn.id().0, reason.index() as u64, 0);
        self.retire(txn);
        txn.clear_conflicts();
        self.suspend_and_reclaim(None, locks);
    }

    /// Reclaims suspended transactions that are no longer concurrent with
    /// any active transaction: their SIREADs are released (row registrations
    /// and lock-table keys), their conflict edges cleared and their records
    /// removed from the registry (Sec. 4.6.1). Every finish does this
    /// itself; the public entry point is for tests and tools that want the
    /// list drained after a quiesce. Returns how many were reclaimed.
    pub fn cleanup_suspended(&self, locks: &LockManager) -> usize {
        self.suspend_and_reclaim(None, locks)
    }

    /// The commit epilogue: one pass over the suspended list (see
    /// [`TransactionManager::reclaim_pass`]) that files `committer`, if
    /// any, and reclaims what has become reclaimable. Returns how many
    /// entries left the list. A finish with nobody to file looks at the
    /// atomic length first and stops there when the list is empty.
    ///
    /// A committer that did enter the list looks at `finish_gen` once more
    /// and makes a second pass if it moved. That closes the race with a
    /// finisher who read `suspended_now == 0` just before the insert: the
    /// finisher bumps the generation and then loads the count, the
    /// committer stores the count and then loads the generation, all
    /// SeqCst, so at least one of them sees the other and nobody is left
    /// suspended with no finish to come.
    fn suspend_and_reclaim(&self, committer: Option<SuspendedTxn>, locks: &LockManager) -> usize {
        if committer.is_none() && self.suspended_len() == 0 {
            // Nothing to file, nothing to reclaim: no SSI mutex taken. This
            // is every SI and S2PL finish.
            return 0;
        }
        let gen = self.finish_gen.load(Ordering::SeqCst);
        let (mut reclaimed, entered) = self.reclaim_pass(committer, locks);
        if entered && self.finish_gen.load(Ordering::SeqCst) != gen {
            reclaimed += self.reclaim_pass(None, locks).0;
        }
        if reclaimed > 0 {
            self.stats
                .cleaned
                .fetch_add(reclaimed as u64, Ordering::Relaxed);
        }
        reclaimed
    }

    /// Reads the horizon (two atomic loads when no snapshot-holding
    /// transaction finished since the last read, else the lock-free sweep),
    /// then
    /// under a single acquisition of the `suspended` mutex pops every entry
    /// with `commit_ts <= horizon` — the list is ordered by commit
    /// timestamp, so that is a prefix and the pass stops at the first
    /// survivor — and files `committer` behind them unless it is itself at
    /// or below the horizon. A record is kept exactly while some active
    /// transaction began before it committed: the two are concurrent and
    /// may still discover conflicts against each other.
    ///
    /// The reclaimed transactions' SIREADs are released after the mutex is
    /// dropped: one batched lock-manager call each for the lock-table keys,
    /// one chain visit per registered row. Returns how
    /// many entries left the list and whether `committer` entered it (a
    /// committer reclaimed on the spot was never in it and is counted in
    /// neither `suspended` nor `cleaned`).
    fn reclaim_pass(&self, committer: Option<SuspendedTxn>, locks: &LockManager) -> (usize, bool) {
        let horizon = self.refresh_begin_watermark();
        let mut reclaimed = Vec::new();
        let mut on_the_spot = None;
        let mut entered = false;
        {
            let mut suspended = self.suspended.lock();
            while let Some(entry) = suspended.first_entry() {
                if entry.key().0 > horizon {
                    break;
                }
                reclaimed.push(entry.remove());
            }
            if let Some(entry) = committer {
                let commit_ts = entry.shared.commit_ts().unwrap_or(Timestamp::MAX);
                if commit_ts > horizon {
                    suspended.insert((commit_ts, entry.shared.id()), entry);
                    entered = true;
                } else {
                    on_the_spot = Some(entry);
                }
            }
            self.suspended_now.store(suspended.len(), Ordering::SeqCst);
        }
        if entered {
            self.stats.suspended.fetch_add(1, Ordering::Relaxed);
        }
        let count = reclaimed.len();
        for entry in reclaimed.into_iter().chain(on_the_spot) {
            let id = entry.shared.id();
            locks.unlock_batch(id, &entry.sireads.locks, LockMode::SiRead);
            let rows = &entry.sireads.rows;
            let released = rows.iter().filter(|row| row.release_siread(id)).count();
            debug_assert_eq!(released, entry.sireads.live_rows);
            self.stats
                .siread_rows_now
                .fetch_sub(released as u64, Ordering::Relaxed);
            let ranges = &entry.sireads.ranges;
            if !ranges.is_empty() {
                let released = ranges.iter().filter(|range| range.release()).count();
                debug_assert_eq!(released, ranges.len());
                self.stats
                    .siread_ranges_now
                    .fetch_sub(released as u64, Ordering::Relaxed);
            }
            entry.shared.clear_conflicts();
            self.retire(&entry.shared);
        }
        (count, entered)
    }
}

impl Default for TransactionManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssi_common::TableId;

    fn mgr() -> TransactionManager {
        TransactionManager::new()
    }

    /// Allocates, "stamps" (no versions in these tests) and publishes the
    /// next commit timestamp, as the write-commit pipeline does.
    fn tick(m: &TransactionManager) -> Timestamp {
        let ts = m.allocate_commit_ts();
        m.publish_commit_ts(ts);
        ts
    }

    #[test]
    fn begin_assigns_unique_ids_and_registers() {
        let m = mgr();
        let a = m.begin(IsolationLevel::SnapshotIsolation);
        let b = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        assert_ne!(a.id(), b.id());
        assert_eq!(m.registry_len(), 2);
        assert!(m.find(a.id()).is_some());
        assert!(m.find(TxnId(999)).is_none());
    }

    #[test]
    fn snapshot_assignment_is_sticky() {
        let m = mgr();
        let t = m.begin(IsolationLevel::SnapshotIsolation);
        let s1 = m.ensure_snapshot(&t);
        // Advance the clock as if another transaction committed.
        tick(&m);
        let s2 = m.ensure_snapshot(&t);
        assert_eq!(s1, s2, "snapshot must not move once assigned");
    }

    #[test]
    fn commit_timestamps_are_monotonic_and_published() {
        let m = mgr();
        let before = m.current_ts();
        let ts = tick(&m);
        assert_eq!(ts, before + 1);
        assert_eq!(m.current_ts(), ts);
    }

    #[test]
    fn publication_is_in_allocation_order() {
        // Publish two timestamps in the wrong order: the deposit must not
        // block the out-of-order publisher, the clock must not advance past
        // the gap, and depositing the missing prefix must drain both in one
        // step.
        let m = mgr();
        let t2 = m.allocate_commit_ts();
        let t3 = m.allocate_commit_ts();
        assert_eq!((t2, t3), (2, 3));
        m.publish_commit_ts(t3); // returns immediately — deposit only
        assert_eq!(m.current_ts(), 1, "t3 must not publish before t2");
        m.publish_commit_ts(t2);
        assert_eq!(m.current_ts(), 3, "prefix drain publishes both");
        m.wait_for_publication(3);
    }

    #[test]
    fn wait_for_publication_blocks_until_prefix_drains() {
        // An explicit waiter (the durable seal path's shape) parks until a
        // straggling predecessor deposits.
        let m = mgr();
        let t2 = m.allocate_commit_ts();
        let t3 = m.allocate_commit_ts();
        m.publish_commit_ts(t3);
        std::thread::scope(|s| {
            let m2 = &m;
            let waiter = s.spawn(move || {
                m2.wait_for_publication(t3);
                m2.current_ts()
            });
            // Give the waiter a head start so it really parks.
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(m.current_ts(), 1);
            m.publish_commit_ts(t2);
            assert_eq!(waiter.join().unwrap(), 3);
        });
        assert_eq!(m.current_ts(), 3);
    }

    #[test]
    fn read_path_publication_wait_is_counted() {
        let m = mgr();
        // Published prefix: the fast path takes no wait and counts nothing.
        let ts = tick(&m);
        m.wait_for_publication_for_read(ts);
        assert_eq!(
            m.stats().read_publication_waits.load(Ordering::Relaxed),
            0,
            "covered timestamps must not count as read waits"
        );
        let t2 = m.allocate_commit_ts();
        std::thread::scope(|s| {
            let m2 = &m;
            let waiter = s.spawn(move || m2.wait_for_publication_for_read(t2));
            std::thread::sleep(std::time::Duration::from_millis(10));
            m.publish_commit_ts(t2);
            waiter.join().unwrap();
        });
        assert_eq!(m.stats().read_publication_waits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn commit_pause_hook_fires_and_clears() {
        let m = mgr();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        m.set_commit_pause_hook(Some(Arc::new(move |id, phase| {
            s2.lock().push((id, phase));
        })));
        m.fire_commit_pause(TxnId(7), CommitPhase::PreDeposit);
        m.fire_commit_pause(TxnId(7), CommitPhase::PreFinalize);
        m.set_commit_pause_hook(None);
        m.fire_commit_pause(TxnId(8), CommitPhase::PreDeposit);
        assert_eq!(
            *seen.lock(),
            vec![
                (TxnId(7), CommitPhase::PreDeposit),
                (TxnId(7), CommitPhase::PreFinalize)
            ]
        );
    }

    #[test]
    fn commit_without_sireads_retires_immediately() {
        let m = mgr();
        let locks = LockManager::with_defaults();
        let t = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&t);
        t.mark_committed(5);
        m.finish_commit(&t, HeldSireads::default(), false, &locks);
        assert_eq!(m.registry_len(), 0);
        assert_eq!(m.suspended_len(), 0);
        assert_eq!(m.oldest_active_begin(), Timestamp::MAX);
    }

    #[test]
    fn suspended_commit_stays_until_its_last_concurrent_finishes() {
        let m = mgr();
        let locks = LockManager::with_defaults();
        let key = LockKey::record(TableId(1), vec![1]);

        // Reader R commits holding an SIREAD lock while a concurrent
        // transaction C is still active.
        let r = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&r);
        let c = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&c);
        locks.lock(r.id(), &key, LockMode::SiRead).unwrap();

        r.mark_committed(tick(&m));
        let held = HeldSireads {
            locks: vec![key.clone()],
            ..HeldSireads::default()
        };
        m.finish_commit(&r, held, true, &locks);
        assert_eq!(m.suspended_len(), 1);
        assert!(m.find(r.id()).is_some(), "suspended txns stay findable");

        // Cleanup cannot reclaim R while C (begun before R committed) lives.
        assert_eq!(m.cleanup_suspended(&locks), 0);
        assert!(locks.holds(r.id(), &key).contains(LockMode::SiRead));

        // C's own finish reclaims R: the record and the SIREAD lock go.
        c.mark_committed(tick(&m));
        m.finish_commit(&c, HeldSireads::default(), false, &locks);
        assert_eq!(m.suspended_len(), 0);
        assert!(m.find(r.id()).is_none());
        assert!(locks.holds(r.id(), &key).is_empty());
        let stats = m.stats();
        assert_eq!(stats.suspended.load(Ordering::Relaxed), 1);
        assert_eq!(stats.cleaned.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn commit_nothing_is_concurrent_with_is_reclaimed_on_the_spot() {
        // A reader holding SIREAD locks spread over many lock-table shards
        // commits with no other transaction active: it never enters the
        // suspended list and every lock is dropped by its own finish.
        let m = mgr();
        let locks = LockManager::with_defaults();
        let r = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&r);
        let keys: Vec<LockKey> = (0..100u64)
            .map(|i| LockKey::record(TableId(1), i.to_be_bytes().to_vec()))
            .collect();
        for key in &keys {
            locks.lock(r.id(), key, LockMode::SiRead).unwrap();
        }
        r.mark_committed(tick(&m));
        let held = HeldSireads {
            locks: keys.clone(),
            ..HeldSireads::default()
        };
        m.finish_commit(&r, held, true, &locks);
        assert_eq!(m.suspended_len(), 0);
        assert_eq!(m.registry_len(), 0);
        assert_eq!(locks.grant_count(), 0, "all SIREAD locks must be dropped");
        let stats = m.stats();
        assert_eq!(stats.suspended.load(Ordering::Relaxed), 0);
        assert_eq!(stats.cleaned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn oldest_active_begin_ignores_finished_transactions() {
        let m = mgr();
        let locks = LockManager::with_defaults();
        let a = m.begin(IsolationLevel::SnapshotIsolation);
        m.ensure_snapshot(&a);
        tick(&m);
        let b = m.begin(IsolationLevel::SnapshotIsolation);
        m.ensure_snapshot(&b);
        assert_eq!(m.oldest_active_begin(), a.begin_ts().unwrap());
        a.mark_committed(tick(&m));
        m.finish_commit(&a, HeldSireads::default(), false, &locks);
        assert_eq!(m.oldest_active_begin(), b.begin_ts().unwrap());
        b.mark_aborted();
        m.finish_abort(&b, AbortReason::UserRollback, &locks);
        assert_eq!(m.oldest_active_begin(), Timestamp::MAX);
    }

    #[test]
    fn oldest_active_begin_scales_across_shards() {
        // Many concurrent snapshot holders spread over every shard; the
        // minimum must be exact regardless of which shard holds it.
        let m = mgr();
        let locks = LockManager::with_defaults();
        let mut txns = Vec::new();
        for i in 0..(REGISTRY_SHARDS * 3) {
            let t = m.begin(IsolationLevel::SnapshotIsolation);
            m.ensure_snapshot(&t);
            // Advance the clock between begins so begin timestamps differ.
            if i % 3 == 0 {
                tick(&m);
            }
            txns.push(t);
        }
        let expected = txns.iter().filter_map(|t| t.begin_ts()).min().unwrap();
        assert_eq!(m.oldest_active_begin(), expected);
        // Retire the oldest; the minimum must move.
        let oldest = txns
            .iter()
            .position(|t| t.begin_ts() == Some(expected))
            .unwrap();
        let t = txns.remove(oldest);
        t.mark_aborted();
        m.finish_abort(&t, AbortReason::UserRollback, &locks);
        let expected = txns.iter().filter_map(|t| t.begin_ts()).min().unwrap();
        assert_eq!(m.oldest_active_begin(), expected);
    }

    #[test]
    fn one_finish_reclaims_the_prefix_in_commit_order_and_stops_early() {
        let m = mgr();
        let locks = LockManager::with_defaults();
        // Three suspended readers committing at increasing timestamps, kept
        // by `old`, and one transaction that began between the second and
        // third commit: when `old` finishes, that one pass must reclaim
        // exactly the first two.
        let old = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&old);
        for _ in 0..2 {
            let r = m.begin(IsolationLevel::SerializableSnapshotIsolation);
            m.ensure_snapshot(&r);
            r.mark_committed(tick(&m));
            m.finish_commit(&r, HeldSireads::default(), true, &locks);
        }
        let active = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&active);
        let r3 = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&r3);
        r3.mark_committed(tick(&m));
        m.finish_commit(&r3, HeldSireads::default(), true, &locks);
        assert_eq!(m.suspended_len(), 3);

        old.mark_aborted();
        m.finish_abort(&old, AbortReason::UserRollback, &locks);
        assert_eq!(m.stats().cleaned.load(Ordering::Relaxed), 2);
        assert_eq!(m.suspended_len(), 1);
        assert!(m.find(r3.id()).is_some(), "r3 still concurrent with active");
    }

    #[test]
    fn horizon_reads_reuse_the_watermark_until_a_finish() {
        let m = mgr();
        let locks = LockManager::with_defaults();
        let sweeps = |m: &TransactionManager| m.stats().watermark_sweeps.load(Ordering::Relaxed);

        // A long-running reader pins the horizon; a suspended commit after
        // its begin is not reclaimable.
        let pin = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&pin);
        let r = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&r);
        r.mark_committed(tick(&m));
        m.finish_commit(&r, HeldSireads::default(), true, &locks);
        assert_eq!(m.suspended_len(), 1);
        let after_first = sweeps(&m);
        assert_eq!(after_first, 1, "one finish: one refresh");

        // Nothing finished since: further horizon reads must not sweep.
        for _ in 0..10 {
            assert_eq!(m.cleanup_suspended(&locks), 0);
            m.gc_horizon();
        }
        assert_eq!(sweeps(&m), after_first, "cached watermark must be reused");

        // The pinning reader finishes: its finish refreshes once and
        // reclaims.
        pin.mark_aborted();
        m.finish_abort(&pin, AbortReason::UserRollback, &locks);
        assert_eq!(sweeps(&m), after_first + 1);
        assert_eq!(m.suspended_len(), 0);
    }

    #[test]
    fn watermark_stays_safe_across_empty_active_set() {
        // Regression shape for the empty -> non-empty transition: after a
        // sweep finds no active transactions, a NEW transaction begins and
        // a reader commits suspended after it. The cached watermark must
        // not reclaim the reader while the new transaction is concurrent
        // with it.
        let m = mgr();
        let locks = LockManager::with_defaults();

        // Sweep with nothing active (a commit reclaimed on the spot).
        let r0 = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&r0);
        r0.mark_committed(tick(&m));
        m.finish_commit(&r0, HeldSireads::default(), true, &locks);
        assert_eq!(m.suspended_len(), 0);

        // New active transaction A, then reader R commits suspended at a
        // later timestamp: R is concurrent with A and must stay.
        let a = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&a);
        let r = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        m.ensure_snapshot(&r);
        r.mark_committed(tick(&m));
        m.finish_commit(&r, HeldSireads::default(), true, &locks);
        assert_eq!(m.suspended_len(), 1, "R is concurrent with A");
        assert_eq!(m.cleanup_suspended(&locks), 0);
        assert!(m.find(r.id()).is_some());

        // Once A finishes, R goes.
        a.mark_aborted();
        m.finish_abort(&a, AbortReason::UserRollback, &locks);
        assert_eq!(m.suspended_len(), 0);
        assert!(m.find(r.id()).is_none());
    }

    #[test]
    fn lock_free_watermark_equals_the_locked_minimum_on_random_schedules() {
        // The reference: what the sweep computed before the shards
        // published their minima — every shard's mutex, every index.
        fn locked_minimum(m: &TransactionManager) -> Timestamp {
            m.registry
                .iter()
                .filter_map(|shard| shard.lock().active_begins.first().map(|&(ts, _)| ts))
                .min()
                .unwrap_or(Timestamp::MAX)
        }
        for seed in 0..300 {
            let mut rng = ssi_common::rng::WorkloadRng::new(seed);
            let m = mgr();
            let locks = LockManager::with_defaults();
            // Registered transactions, with or without a snapshot yet.
            let mut live: Vec<Arc<TxnShared>> = Vec::new();
            let mut last_horizon = 0;
            for step in 0..200 {
                match rng.index(6) {
                    0 | 1 => live.push(m.begin(IsolationLevel::SerializableSnapshotIsolation)),
                    2 if !live.is_empty() => {
                        m.ensure_snapshot(&live[rng.index(live.len())]);
                    }
                    3 if !live.is_empty() => {
                        let t = live.swap_remove(rng.index(live.len()));
                        // Like the engine, suspend only what took a
                        // snapshot (SIREAD locks come from reads).
                        let suspend = t.begin_ts().is_some() && rng.chance(0.5);
                        t.mark_committed(tick(&m));
                        m.finish_commit(&t, HeldSireads::default(), suspend, &locks);
                    }
                    4 if !live.is_empty() => {
                        let t = live.swap_remove(rng.index(live.len()));
                        t.mark_aborted();
                        m.finish_abort(&t, AbortReason::UserRollback, &locks);
                    }
                    _ => {
                        tick(&m);
                    }
                }
                let oldest = m.oldest_active_begin();
                assert_eq!(oldest, locked_minimum(&m), "seed {seed} step {step}");
                let horizon = m.gc_horizon();
                assert!(horizon >= last_horizon, "seed {seed} step {step}");
                assert!(horizon <= oldest, "seed {seed} step {step}");
                last_horizon = horizon;
            }
            // Quiesce: nothing active, nothing suspended, nothing registered.
            for t in live.drain(..) {
                t.mark_aborted();
                m.finish_abort(&t, AbortReason::UserRollback, &locks);
            }
            assert_eq!(m.oldest_active_begin(), Timestamp::MAX, "seed {seed}");
            assert_eq!(m.suspended_len(), 0, "seed {seed}");
            assert_eq!(m.registry_len(), 0, "seed {seed}");
        }
    }

    #[test]
    fn gc_horizon_tracks_oldest_active_begin() {
        let m = mgr();
        let locks = LockManager::with_defaults();
        // Nothing active: the horizon is the (pre-sweep) clock.
        assert_eq!(m.gc_horizon(), m.current_ts());
        tick(&m);
        let a = m.begin(IsolationLevel::SnapshotIsolation);
        m.ensure_snapshot(&a);
        tick(&m);
        // The horizon never passes the oldest active begin. (It may lag
        // below it: the sweep reruns only once a snapshot holder finishes.)
        assert!(m.gc_horizon() <= a.begin_ts().unwrap());
        a.mark_committed(tick(&m));
        m.finish_commit(&a, HeldSireads::default(), false, &locks);
        assert_eq!(m.gc_horizon(), m.current_ts());
    }

    #[test]
    fn gc_horizon_is_monotone_across_begin_and_finish() {
        let m = mgr();
        let locks = LockManager::with_defaults();
        let mut last = 0;
        for i in 0..20u64 {
            let t = m.begin(IsolationLevel::SnapshotIsolation);
            m.ensure_snapshot(&t);
            if i % 2 == 0 {
                tick(&m);
            }
            let h = m.gc_horizon();
            assert!(h >= last, "horizon went backwards: {h} < {last}");
            last = h;
            t.mark_aborted();
            m.finish_abort(&t, AbortReason::UserRollback, &locks);
            let h = m.gc_horizon();
            assert!(h >= last, "horizon went backwards: {h} < {last}");
            last = h;
        }
        assert_eq!(m.last_gc_horizon(), last);
    }

    #[test]
    fn gc_pins_floor_the_horizon_until_dropped() {
        let m = mgr();
        let pin = m.pin_gc_horizon();
        let pinned_at = pin.ts();
        assert_eq!(m.oldest_gc_pin(), Some(pinned_at));
        // The clock marches on; the horizon must not pass the pin.
        for _ in 0..5 {
            tick(&m);
        }
        assert!(m.current_ts() > pinned_at);
        assert_eq!(m.gc_horizon(), pinned_at);
        // A second, younger pin does not loosen the floor.
        let pin2 = m.pin_gc_horizon();
        assert_eq!(m.gc_horizon(), pinned_at);
        drop(pin);
        // The younger pin now binds.
        assert_eq!(m.oldest_gc_pin(), Some(pin2.ts()));
        assert_eq!(m.gc_horizon(), pin2.ts());
        drop(pin2);
        assert_eq!(m.oldest_gc_pin(), None);
        assert_eq!(m.gc_horizon(), m.current_ts());
    }

    #[test]
    fn duplicate_pins_at_one_timestamp_are_counted() {
        let m = mgr();
        let a = m.pin_gc_horizon();
        let b = m.pin_gc_horizon(); // same clock, same timestamp
        assert_eq!(a.ts(), b.ts());
        tick(&m);
        drop(a);
        assert_eq!(
            m.oldest_gc_pin(),
            Some(b.ts()),
            "one guard down, the other must still pin"
        );
        assert_eq!(m.gc_horizon(), b.ts());
        drop(b);
        assert_eq!(m.oldest_gc_pin(), None);
    }

    #[test]
    fn sweep_pause_hook_fires_per_shard_and_clears() {
        let m = mgr();
        let visits = Arc::new(AtomicU64::new(0));
        let v = visits.clone();
        m.set_sweep_pause_hook(Some(Arc::new(move |_i| {
            v.fetch_add(1, Ordering::Relaxed);
        })));
        m.oldest_active_begin();
        assert_eq!(visits.load(Ordering::Relaxed), REGISTRY_SHARDS as u64);
        m.set_sweep_pause_hook(None);
        m.oldest_active_begin();
        assert_eq!(visits.load(Ordering::Relaxed), REGISTRY_SHARDS as u64);
    }

    #[test]
    fn restore_clock_resumes_allocation_past_recovered_commits() {
        let m = mgr();
        m.restore_clock(41);
        assert_eq!(m.current_ts(), 41);
        let t = m.begin(IsolationLevel::SnapshotIsolation);
        assert_eq!(m.ensure_snapshot(&t), 41);
        let ts = m.allocate_commit_ts();
        assert_eq!(ts, 42);
        m.publish_commit_ts(ts);
        assert_eq!(m.current_ts(), 42);
    }

    #[test]
    fn stats_count_lifecycle_events() {
        let m = mgr();
        let locks = LockManager::with_defaults();
        let a = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        let b = m.begin(IsolationLevel::SerializableSnapshotIsolation);
        a.mark_committed(2);
        m.finish_commit(&a, HeldSireads::default(), false, &locks);
        b.mark_aborted();
        m.finish_abort(&b, AbortReason::UserRollback, &locks);
        m.cleanup_suspended(&locks);
        let s = m.stats();
        assert_eq!(s.started.load(Ordering::Relaxed), 2);
        assert_eq!(s.committed.load(Ordering::Relaxed), 1);
        assert_eq!(s.aborted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_allocate_publish_keeps_clock_monotonic() {
        // 8 threads × 100 writer commits each: every thread allocates,
        // pretends to stamp, publishes. The clock must end exactly at
        // 1 + 800 and never be observed going backwards.
        let m = mgr();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = &m;
                s.spawn(move || {
                    let mut last_seen = 0;
                    for _ in 0..100 {
                        let ts = m.allocate_commit_ts();
                        m.publish_commit_ts(ts);
                        // Deposit alone need not cover ts (a predecessor
                        // may still be pending); the explicit wait must.
                        m.wait_for_publication(ts);
                        let now = m.current_ts();
                        assert!(now >= ts);
                        assert!(now >= last_seen, "clock went backwards");
                        last_seen = now;
                    }
                });
            }
        });
        assert_eq!(m.current_ts(), 1 + 800);
    }
}
