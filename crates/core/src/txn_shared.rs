//! Shared per-transaction state.
//!
//! The Serializable SI algorithm needs to consult and update the state of
//! *other* transactions — possibly transactions that have already committed
//! (the "suspended" transactions of Sec. 3.3). [`TxnShared`] is the
//! reference-counted record that outlives the client-side
//! [`crate::Transaction`] handle for exactly as long as the algorithm needs
//! it: until no concurrent transaction remains.
//!
//! # The state word
//!
//! Everything the conflict-marking and commit paths need to read or update
//! atomically about one transaction is packed into a single `AtomicU64`
//! (the *state word*), so that the paper's `atomic begin/end` blocks can be
//! implemented as CAS loops instead of a global mutex:
//!
//! ```text
//!  63    60  59  58  57 56  55                                        0
//!  +--+---+---+---+------+------------------------------------------+
//!  |unused|out| in|doomed|status|               commit_ts            |
//!  +--+---+---+---+------+------------------------------------------+
//! ```
//!
//! * bits 0–55: the commit timestamp (0 until allocated);
//! * bits 56–57: lifecycle status (0 active, 1 committed, 2 aborted,
//!   3 *committing*);
//! * bit 58: doomed — selected as a victim by another thread;
//! * bit 59: an incoming rw-conflict has been recorded;
//! * bit 60: an outgoing rw-conflict has been recorded.
//!
//! Because status, commit timestamp and both conflict flags live in one
//! word, checks like "has this transaction committed with an outgoing
//! conflict?" (Fig. 3.3) or "is this transaction a pivot?" (both flags set)
//! are single atomic loads, and state transitions that must be conditional
//! on them — most importantly the commit transitions, which under the basic
//! variant must fail iff the word shows `doomed` or `in && out` at the
//! instant the status changes — are single compare-and-swap loops.
//!
//! # The `Committing` state machine
//!
//! A write commit is not one transition but two, with a window in between
//! that conflict markers can see (the window is what lets them bound the
//! committer's timestamp without waiting for ordered publication — see
//! [`crate::manager`] and [`crate::ssi`]):
//!
//! ```text
//!            enter_committing            finalize_commit
//!   Active ───────────────────▶ Committing ─────────────▶ Committed
//!            (commit checks)        │       (re-checks)
//!                                   ▼ mark_aborted
//!                                Aborted
//! ```
//!
//! 1. [`TxnShared::enter_committing`] CASes `Active → Committing` with the
//!    timestamp field still zero, performing the same doomed/pivot checks
//!    the old single-shot commit CAS did. **The commit timestamp is
//!    allocated only after this transition** — that ordering is load-bearing:
//!    any observer that reads a word with status `Active` knows the
//!    transaction's eventual commit timestamp will be larger than every
//!    timestamp already allocated, with no racy window (the old design
//!    closed that window by waiting for ordered publication instead).
//! 2. [`TxnShared::set_pending_commit_ts`] stores the allocated timestamp
//!    into the word: observers now see `Committing(ts)`. A word with status
//!    `Committing` and a zero timestamp field is mid-allocation; observers
//!    spin the few instructions until the timestamp appears (they never
//!    park).
//! 3. [`TxnShared::finalize_commit`] CASes `Committing → Committed`,
//!    re-checking the doomed bit (and, for the basic variant, the pivot
//!    flags, which concurrent markers may have completed during the
//!    window). Failure aborts the transaction instead; its timestamp is
//!    then published empty.
//!
//! Nothing of the transaction is visible to readers during the window: its
//! versions are stamped only after `finalize_commit` succeeds, and its
//! timestamp is deposited for publication only after that.
//!
//! The *identities* of conflict neighbours (the enhanced variant's
//! [`ConflictEdge::Txn`] references, Sec. 3.6) cannot fit in the word; they
//! stay in a per-transaction mutex ([`TxnShared::conflicts`]). That mutex is
//! only ever taken by the enhanced code paths, which lock at most the two
//! participants of one conflict in transaction-id order (see
//! [`crate::ssi`]); the flag bits in the state word are kept in sync while
//! the mutex is held, so lock-free readers (commit suspension, statistics)
//! always see correct flags under both variants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ssi_common::{IsolationLevel, Timestamp, TxnId, TS_ZERO};

/// Width of the commit-timestamp field in the state word.
const WORD_TS_BITS: u32 = 56;
/// Mask of the commit-timestamp field.
const WORD_TS_MASK: u64 = (1 << WORD_TS_BITS) - 1;
/// Shift of the two status bits.
const WORD_STATUS_SHIFT: u32 = 56;
/// Mask of the status field (in place).
const WORD_STATUS_MASK: u64 = 0b11 << WORD_STATUS_SHIFT;
/// Doomed bit: selected as an abort victim by another thread.
pub(crate) const WORD_DOOMED: u64 = 1 << 58;
/// Incoming-conflict flag bit.
pub(crate) const WORD_IN: u64 = 1 << 59;
/// Outgoing-conflict flag bit.
pub(crate) const WORD_OUT: u64 = 1 << 60;

const STATUS_ACTIVE: u64 = 0;
const STATUS_COMMITTED: u64 = 1;
const STATUS_ABORTED: u64 = 2;
const STATUS_COMMITTING: u64 = 3;

/// Lifecycle status of a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnStatus {
    /// Running; operations are being executed.
    Active,
    /// Passed its commit checks and entered the commit window: a commit
    /// timestamp is allocated (or about to be), nothing is stamped yet, and
    /// the transaction can still abort. See the module docs for the state
    /// machine.
    Committing,
    /// Successfully committed.
    Committed,
    /// Rolled back (by the application or by the engine).
    Aborted,
}

/// Decodes the status field of a state word.
pub(crate) fn word_status(word: u64) -> TxnStatus {
    match (word & WORD_STATUS_MASK) >> WORD_STATUS_SHIFT {
        STATUS_ACTIVE => TxnStatus::Active,
        STATUS_COMMITTED => TxnStatus::Committed,
        STATUS_COMMITTING => TxnStatus::Committing,
        _ => TxnStatus::Aborted,
    }
}

/// Decodes the commit timestamp of a state word: `Some` only once the word
/// shows status `Committed`. A `Committing` word may carry an allocated
/// (pending) timestamp in its low bits, and an `Aborted` word may retain a
/// stale one from an abandoned commit window — neither is a commit
/// timestamp; use [`word_commit_resolution`] to see pending state.
pub(crate) fn word_commit_ts(word: u64) -> Option<Timestamp> {
    match word_status(word) {
        TxnStatus::Committed => Some(word & WORD_TS_MASK),
        _ => None,
    }
}

/// Full commit-progress reading of a state word, for observers (readers,
/// conflict markers) that resolve an in-flight commit themselves instead of
/// waiting for ordered publication.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CommitResolution {
    /// Still running. Because timestamps are allocated only *after* the
    /// `Active → Committing` transition, an observer holding an already
    /// allocated timestamp `t` knows this transaction's commit timestamp
    /// (if it ever commits) will exceed `t`.
    Active,
    /// In the commit window but the allocated timestamp is not in the word
    /// yet. This window is a handful of instructions wide; observers spin
    /// it out rather than parking.
    Allocating,
    /// In the commit window with timestamp allocated: will commit at the
    /// contained timestamp unless it aborts.
    Pending(Timestamp),
    /// Committed at the contained timestamp.
    Committed(Timestamp),
    /// Aborted.
    Aborted,
}

/// Decodes a state word into its [`CommitResolution`].
pub(crate) fn word_commit_resolution(word: u64) -> CommitResolution {
    match word_status(word) {
        TxnStatus::Active => CommitResolution::Active,
        TxnStatus::Aborted => CommitResolution::Aborted,
        TxnStatus::Committed => CommitResolution::Committed(word & WORD_TS_MASK),
        TxnStatus::Committing => match word & WORD_TS_MASK {
            TS_ZERO => CommitResolution::Allocating,
            ts => CommitResolution::Pending(ts),
        },
    }
}

/// Endpoint of a recorded rw-conflict edge (Sec. 3.6).
///
/// The basic algorithm only needs a boolean per direction (kept in the
/// state word); the enhanced algorithm keeps a reference to the single
/// conflicting transaction, or a self-loop marker once more than one
/// conflict has been seen in the same direction.
#[derive(Clone, Debug, Default)]
pub enum ConflictEdge {
    /// No conflict recorded in this direction.
    #[default]
    None,
    /// Exactly one conflict, with the referenced transaction.
    Txn(Arc<TxnShared>),
    /// More than one conflict in this direction (or the basic variant, which
    /// does not track identities). Semantically a self-loop in the MVSG.
    SelfLoop,
}

impl ConflictEdge {
    /// True if any conflict has been recorded in this direction.
    pub fn is_set(&self) -> bool {
        !matches!(self, ConflictEdge::None)
    }

    /// Commit-time bound of this edge when it is `owner`'s *outgoing*
    /// conflict, for the ordering test of Figs. 3.9/3.10 (`commit-time(out)
    /// <= commit-time(in)` means the structure may be dangerous).
    ///
    /// The bound must never over-estimate: a known single neighbour that is
    /// still `Active` will draw its timestamp later than anything already
    /// allocated ("infinity" — sound because allocation happens only after
    /// the `Committing` transition), a neighbour with a pending timestamp
    /// is bounded by that timestamp (exact if it commits, irrelevant if it
    /// aborts since the edge then carries no dangerous structure), and a
    /// neighbour caught mid-allocation may hold an arbitrarily early
    /// timestamp, so the only safe answer is zero. A self-loop stands for
    /// *several* (or forgotten) neighbours, any of which may have committed
    /// arbitrarily early, so the conservative bound is the owner's own
    /// (possibly pending) commit time — or zero while the owner runs.
    pub fn outgoing_commit_bound(&self, owner: &TxnShared) -> Timestamp {
        match self {
            ConflictEdge::None => Timestamp::MAX,
            ConflictEdge::SelfLoop => owner.allocated_commit_ts().unwrap_or(TS_ZERO),
            ConflictEdge::Txn(other) => match word_commit_resolution(other.load_word()) {
                CommitResolution::Committed(ts) | CommitResolution::Pending(ts) => ts,
                CommitResolution::Active | CommitResolution::Aborted => Timestamp::MAX,
                CommitResolution::Allocating => TS_ZERO,
            },
        }
    }

    /// Commit-time bound of this edge when it is `owner`'s *incoming*
    /// conflict. The bound must never under-estimate, so unknown, running
    /// or mid-allocation neighbours count as "infinity"; a pending
    /// timestamp is usable (exact if the neighbour commits, conservative —
    /// the edge evaporates — if it aborts).
    pub fn incoming_commit_bound(&self, owner: &TxnShared) -> Timestamp {
        match self {
            ConflictEdge::None => TS_ZERO,
            ConflictEdge::SelfLoop => owner.allocated_commit_ts().unwrap_or(Timestamp::MAX),
            ConflictEdge::Txn(other) => other.allocated_commit_ts().unwrap_or(Timestamp::MAX),
        }
    }
}

/// Conflict-neighbour identities of one transaction (enhanced variant
/// only), protected by this transaction's conflict mutex. The boolean
/// "is an edge present?" view lives in the state word; this structure adds
/// *who* the neighbour is so commit-time ordering can be checked.
#[derive(Default, Debug)]
pub struct ConflictState {
    /// Some concurrent transaction has an rw-dependency *into* this one
    /// (someone read an item this transaction overwrote).
    pub in_edge: ConflictEdge,
    /// This transaction has an rw-dependency *out* to a concurrent
    /// transaction (it read an item that someone else overwrote).
    pub out_edge: ConflictEdge,
}

/// Shared, reference-counted transaction record.
#[derive(Debug)]
pub struct TxnShared {
    id: TxnId,
    isolation: IsolationLevel,
    begin_ts: AtomicU64,
    /// The packed state word: commit timestamp, status, doomed flag and
    /// both conflict flags. See the module docs for the layout.
    state: AtomicU64,
    /// rw-conflict neighbour identities for the enhanced variant. The
    /// fine-grained lock ordering rule (see [`crate::ssi`]): when two
    /// transactions' conflict mutexes must be held together, they are
    /// acquired in increasing transaction-id order.
    pub(crate) conflicts: Mutex<ConflictState>,
    /// Unused: keeps the record at 104 bytes. Other threads' conflict
    /// markers CAS a running transaction's state word, and at 72 bytes the
    /// record cost `sibench_ssi_mem` about a quarter of its throughput on 2
    /// CPUs in most runs (which line it then shared, and with what, is
    /// unmeasured). `#[repr(align(64))]` restored the throughput but, as an
    /// aligned allocation per transaction, added 10 % to SmallBank's peak
    /// RSS.
    _layout: [u64; 4],
}

impl TxnShared {
    /// Creates the shared record for a new active transaction.
    pub fn new(id: TxnId, isolation: IsolationLevel) -> Self {
        TxnShared {
            id,
            isolation,
            begin_ts: AtomicU64::new(TS_ZERO),
            state: AtomicU64::new(0),
            conflicts: Mutex::new(ConflictState::default()),
            _layout: [0; 4],
        }
    }

    /// Transaction id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Isolation level the transaction runs at.
    pub fn isolation(&self) -> IsolationLevel {
        self.isolation
    }

    /// Begin timestamp (snapshot), once assigned.
    pub fn begin_ts(&self) -> Option<Timestamp> {
        match self.begin_ts.load(Ordering::Acquire) {
            TS_ZERO => None,
            ts => Some(ts),
        }
    }

    /// Assigns the begin timestamp. May be called once; later calls are
    /// ignored (the snapshot of a transaction never moves).
    pub fn set_begin_ts(&self, ts: Timestamp) {
        let _ = self
            .begin_ts
            .compare_exchange(TS_ZERO, ts, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Current value of the state word.
    #[inline]
    pub(crate) fn load_word(&self) -> u64 {
        self.state.load(Ordering::Acquire)
    }

    /// Single CAS on the state word; on failure returns the current word.
    #[inline]
    pub(crate) fn cas_word(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.state
            .compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Commit timestamp, once committed. `None` while the transaction is
    /// still committing, even if its timestamp is already allocated — use
    /// [`TxnShared::allocated_commit_ts`] to observe pending timestamps.
    pub fn commit_ts(&self) -> Option<Timestamp> {
        word_commit_ts(self.load_word())
    }

    /// Commit-progress reading of the state word (single atomic load).
    #[inline]
    pub(crate) fn commit_resolution(&self) -> CommitResolution {
        word_commit_resolution(self.load_word())
    }

    /// The allocated commit timestamp, whether still pending (the
    /// transaction is in its commit window and may yet abort) or settled.
    /// `None` while active, mid-allocation, or after an abort.
    pub(crate) fn allocated_commit_ts(&self) -> Option<Timestamp> {
        match self.commit_resolution() {
            CommitResolution::Committed(ts) | CommitResolution::Pending(ts) => Some(ts),
            _ => None,
        }
    }

    /// Current status.
    pub fn status(&self) -> TxnStatus {
        word_status(self.load_word())
    }

    /// True once committed.
    pub fn is_committed(&self) -> bool {
        self.status() == TxnStatus::Committed
    }

    /// True while active.
    pub fn is_active(&self) -> bool {
        self.status() == TxnStatus::Active
    }

    /// Marks the transaction committed at `ts` unconditionally (used by
    /// tests and by paths that have already performed their commit checks
    /// under this transaction's conflict mutex). Preserves the conflict
    /// flags.
    pub fn mark_committed(&self, ts: Timestamp) {
        debug_assert!(ts <= WORD_TS_MASK, "commit timestamp overflows the word");
        self.state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                Some(
                    (w & !(WORD_TS_MASK | WORD_STATUS_MASK))
                        | (ts & WORD_TS_MASK)
                        | (STATUS_COMMITTED << WORD_STATUS_SHIFT),
                )
            })
            .ok();
    }

    /// Atomically commits at `ts` *iff* the word passes the commit check at
    /// the instant of the transition: not doomed and — when `check_pivot`
    /// is set (the basic variant's Fig. 3.2 test) — not carrying both
    /// conflict flags. Returns the offending word on failure.
    ///
    /// This single-shot `Active → Committed` transition survives for
    /// transactions that never open a commit window (read-only commits,
    /// which have no versions to stamp); writers go through
    /// [`TxnShared::enter_committing`] / [`TxnShared::finalize_commit`]
    /// instead. Any concurrent `mark_conflict` that dooms this transaction
    /// or completes a pivot races with the CAS, and exactly one of the two
    /// observes the other.
    pub(crate) fn try_commit_word(&self, ts: Timestamp, check_pivot: bool) -> Result<(), u64> {
        debug_assert!(ts <= WORD_TS_MASK, "commit timestamp overflows the word");
        let mut current = self.load_word();
        loop {
            if current & WORD_DOOMED != 0 {
                return Err(current);
            }
            if check_pivot && current & WORD_IN != 0 && current & WORD_OUT != 0 {
                return Err(current);
            }
            debug_assert_eq!(word_status(current), TxnStatus::Active);
            let new = (current & !(WORD_TS_MASK | WORD_STATUS_MASK))
                | (ts & WORD_TS_MASK)
                | (STATUS_COMMITTED << WORD_STATUS_SHIFT);
            match self.cas_word(current, new) {
                Ok(_) => return Ok(()),
                Err(w) => current = w,
            }
        }
    }

    /// Atomically enters the commit window (`Active → Committing`) *iff*
    /// the word passes the commit check at the instant of the transition:
    /// not doomed and — when `check_pivot` is set (the basic variant's
    /// Fig. 3.2 test) — not carrying both conflict flags. Returns the
    /// offending word on failure.
    ///
    /// The timestamp field is left at zero; callers must allocate the
    /// commit timestamp strictly *after* this transition succeeds (see the
    /// module docs for why that ordering is load-bearing) and install it
    /// with [`TxnShared::set_pending_commit_ts`].
    pub(crate) fn enter_committing(&self, check_pivot: bool) -> Result<(), u64> {
        let mut current = self.load_word();
        loop {
            if current & WORD_DOOMED != 0 {
                return Err(current);
            }
            if check_pivot && current & WORD_IN != 0 && current & WORD_OUT != 0 {
                return Err(current);
            }
            debug_assert_eq!(word_status(current), TxnStatus::Active);
            debug_assert_eq!(current & WORD_TS_MASK, TS_ZERO);
            let new = (current & !WORD_STATUS_MASK) | (STATUS_COMMITTING << WORD_STATUS_SHIFT);
            match self.cas_word(current, new) {
                Ok(_) => return Ok(()),
                Err(w) => current = w,
            }
        }
    }

    /// Installs the allocated commit timestamp into a `Committing` word,
    /// moving observers from `Allocating` to `Pending(ts)`. Preserves the
    /// status and flag bits (markers may race flag updates in).
    pub(crate) fn set_pending_commit_ts(&self, ts: Timestamp) {
        debug_assert!(
            ts != TS_ZERO && ts <= WORD_TS_MASK,
            "commit timestamp out of range for the word"
        );
        self.state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                debug_assert_eq!(word_status(w), TxnStatus::Committing);
                Some((w & !WORD_TS_MASK) | (ts & WORD_TS_MASK))
            })
            .ok();
    }

    /// Atomically settles the commit (`Committing → Committed`) *iff* the
    /// word still passes the commit check: not doomed and — when
    /// `check_pivot` is set — not a pivot (markers may have completed the
    /// dangerous structure during the window; under the basic variant that
    /// must fail this transaction). Returns the offending word on failure,
    /// in which case the caller publishes its timestamp empty and aborts.
    pub(crate) fn finalize_commit(&self, check_pivot: bool) -> Result<(), u64> {
        let mut current = self.load_word();
        loop {
            if current & WORD_DOOMED != 0 {
                return Err(current);
            }
            if check_pivot && current & WORD_IN != 0 && current & WORD_OUT != 0 {
                return Err(current);
            }
            debug_assert_eq!(word_status(current), TxnStatus::Committing);
            debug_assert_ne!(current & WORD_TS_MASK, TS_ZERO);
            let new = (current & !WORD_STATUS_MASK) | (STATUS_COMMITTED << WORD_STATUS_SHIFT);
            match self.cas_word(current, new) {
                Ok(_) => return Ok(()),
                Err(w) => current = w,
            }
        }
    }

    /// Marks the transaction aborted.
    pub fn mark_aborted(&self) {
        self.state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                Some((w & !WORD_STATUS_MASK) | (STATUS_ABORTED << WORD_STATUS_SHIFT))
            })
            .ok();
    }

    /// Flags the transaction as a victim that must abort at its next
    /// operation (used by victim selection when the pivot is not the caller,
    /// Sec. 3.7.1/3.7.2).
    pub fn doom(&self) {
        self.state.fetch_or(WORD_DOOMED, Ordering::AcqRel);
    }

    /// Dooms the transaction only if it is still active; returns true when
    /// the doomed flag is set (newly or already) on an active transaction.
    pub(crate) fn doom_if_active(&self) -> bool {
        let mut current = self.load_word();
        loop {
            if word_status(current) != TxnStatus::Active {
                return false;
            }
            if current & WORD_DOOMED != 0 {
                return true;
            }
            match self.cas_word(current, current | WORD_DOOMED) {
                Ok(_) => return true,
                Err(w) => current = w,
            }
        }
    }

    /// True if some other thread selected this transaction as a victim.
    pub fn is_doomed(&self) -> bool {
        self.load_word() & WORD_DOOMED != 0
    }

    /// Sets the incoming-conflict flag in the state word. Enhanced-variant
    /// callers must hold this transaction's conflict mutex.
    pub(crate) fn set_in_flag(&self) {
        self.state.fetch_or(WORD_IN, Ordering::AcqRel);
    }

    /// Sets the outgoing-conflict flag in the state word. Enhanced-variant
    /// callers must hold this transaction's conflict mutex.
    pub(crate) fn set_out_flag(&self) {
        self.state.fetch_or(WORD_OUT, Ordering::AcqRel);
    }

    /// True if this transaction's lifetime overlapped transaction `other`,
    /// i.e. the two were concurrent (Sec. 2.1): each began before the other
    /// committed (or the other has not committed).
    pub fn concurrent_with(&self, other: &TxnShared) -> bool {
        let my_begin = self.begin_ts().unwrap_or(Timestamp::MAX);
        let their_begin = other.begin_ts().unwrap_or(Timestamp::MAX);
        let my_commit = self.commit_ts().unwrap_or(Timestamp::MAX);
        let their_commit = other.commit_ts().unwrap_or(Timestamp::MAX);
        my_begin < their_commit && their_begin < my_commit
    }

    /// Clears the conflict edges and flags (called on abort and on cleanup
    /// so that mutual `Arc` references between transactions cannot form
    /// reference cycles and leak).
    pub fn clear_conflicts(&self) {
        let mut c = self.conflicts.lock();
        c.in_edge = ConflictEdge::None;
        c.out_edge = ConflictEdge::None;
        self.state
            .fetch_and(!(WORD_IN | WORD_OUT), Ordering::AcqRel);
    }

    /// Snapshot of the conflict flags `(in_set, out_set)` — a single atomic
    /// load of the state word.
    pub fn conflict_flags(&self) -> (bool, bool) {
        let w = self.load_word();
        (w & WORD_IN != 0, w & WORD_OUT != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(id: u64) -> TxnShared {
        TxnShared::new(TxnId(id), IsolationLevel::SerializableSnapshotIsolation)
    }

    /// Records an edge the way the enhanced variant does: identity under the
    /// mutex, flag bit in the state word.
    fn set_out(t: &TxnShared, edge: ConflictEdge) {
        t.conflicts.lock().out_edge = edge;
        t.set_out_flag();
    }

    fn set_in(t: &TxnShared, edge: ConflictEdge) {
        t.conflicts.lock().in_edge = edge;
        t.set_in_flag();
    }

    #[test]
    fn record_keeps_its_measured_size() {
        assert_eq!(std::mem::size_of::<TxnShared>(), 104);
    }

    #[test]
    fn lifecycle() {
        let t = txn(1);
        assert_eq!(t.status(), TxnStatus::Active);
        assert!(t.is_active());
        assert_eq!(t.begin_ts(), None);
        t.set_begin_ts(5);
        assert_eq!(t.begin_ts(), Some(5));
        // Snapshot cannot move once assigned.
        t.set_begin_ts(9);
        assert_eq!(t.begin_ts(), Some(5));
        t.mark_committed(10);
        assert!(t.is_committed());
        assert_eq!(t.commit_ts(), Some(10));
    }

    #[test]
    fn abort_and_doom() {
        let t = txn(2);
        assert!(!t.is_doomed());
        t.doom();
        assert!(t.is_doomed());
        t.mark_aborted();
        assert_eq!(t.status(), TxnStatus::Aborted);
        assert!(!t.is_active());
    }

    #[test]
    fn try_commit_word_fails_on_doomed_or_pivot() {
        let t = txn(1);
        t.doom();
        assert!(t.try_commit_word(10, true).is_err());

        let p = txn(2);
        set_in(&p, ConflictEdge::SelfLoop);
        set_out(&p, ConflictEdge::SelfLoop);
        assert!(
            p.try_commit_word(10, true).is_err(),
            "pivot must not commit"
        );
        // Without the pivot check (enhanced variant decides separately) the
        // commit succeeds and preserves the flags.
        assert!(p.try_commit_word(10, false).is_ok());
        assert_eq!(p.commit_ts(), Some(10));
        assert_eq!(p.conflict_flags(), (true, true));
    }

    #[test]
    fn doom_if_active_respects_status() {
        let t = txn(1);
        assert!(t.doom_if_active());
        assert!(t.is_doomed());

        let c = txn(2);
        c.mark_committed(5);
        assert!(!c.doom_if_active());
        assert!(!c.is_doomed());
    }

    #[test]
    fn concurrency_overlap() {
        // a: [1, 10), b: [5, 20) — concurrent.
        let a = txn(1);
        a.set_begin_ts(1);
        a.mark_committed(10);
        let b = txn(2);
        b.set_begin_ts(5);
        b.mark_committed(20);
        assert!(a.concurrent_with(&b));
        assert!(b.concurrent_with(&a));

        // c begins after a committed — not concurrent with a.
        let c = txn(3);
        c.set_begin_ts(15);
        assert!(!a.concurrent_with(&c));
        assert!(!c.concurrent_with(&a));
        // but c is concurrent with b (b committed at 20 > 15).
        assert!(c.concurrent_with(&b));
    }

    #[test]
    fn conflict_edges_and_clearing() {
        let t = Arc::new(txn(1));
        let u = Arc::new(txn(2));
        set_out(&t, ConflictEdge::Txn(u.clone()));
        assert_eq!(t.conflict_flags(), (false, true));
        set_in(&u, ConflictEdge::SelfLoop);
        assert_eq!(u.conflict_flags(), (true, false));
        t.clear_conflicts();
        assert_eq!(t.conflict_flags(), (false, false));
        assert!(!t.conflicts.lock().out_edge.is_set());
    }

    #[test]
    fn edge_commit_time_bounds() {
        let owner = txn(1);
        let other = Arc::new(txn(2));

        // A known, still-running neighbour: it will commit later than
        // anything committed so far, regardless of direction.
        let edge = ConflictEdge::Txn(other.clone());
        assert_eq!(edge.outgoing_commit_bound(&owner), Timestamp::MAX);
        assert_eq!(edge.incoming_commit_bound(&owner), Timestamp::MAX);

        other.mark_committed(42);
        assert_eq!(edge.outgoing_commit_bound(&owner), 42);
        assert_eq!(edge.incoming_commit_bound(&owner), 42);

        // A self-loop is conservative in both directions: the unknown
        // outgoing neighbour may have committed arbitrarily early (bound 0
        // while the owner runs), the unknown incoming neighbour arbitrarily
        // late (bound infinity).
        assert_eq!(ConflictEdge::SelfLoop.outgoing_commit_bound(&owner), 0);
        assert_eq!(
            ConflictEdge::SelfLoop.incoming_commit_bound(&owner),
            Timestamp::MAX
        );
        owner.mark_committed(77);
        assert_eq!(ConflictEdge::SelfLoop.outgoing_commit_bound(&owner), 77);
        assert_eq!(ConflictEdge::SelfLoop.incoming_commit_bound(&owner), 77);

        // Absent edges: "no constraint".
        assert_eq!(
            ConflictEdge::None.outgoing_commit_bound(&owner),
            Timestamp::MAX
        );
        assert_eq!(ConflictEdge::None.incoming_commit_bound(&owner), 0);
    }

    #[test]
    fn edge_bounds_use_pending_timestamps() {
        let owner = txn(1);
        let other = Arc::new(txn(2));
        let edge = ConflictEdge::Txn(other.clone());

        // Mid-allocation: outgoing must assume "arbitrarily early",
        // incoming must assume "arbitrarily late".
        other.enter_committing(true).unwrap();
        assert_eq!(edge.outgoing_commit_bound(&owner), TS_ZERO);
        assert_eq!(edge.incoming_commit_bound(&owner), Timestamp::MAX);

        // Pending timestamp is usable in both directions.
        other.set_pending_commit_ts(42);
        assert_eq!(edge.outgoing_commit_bound(&owner), 42);
        assert_eq!(edge.incoming_commit_bound(&owner), 42);

        // An abort from the window withdraws the bound again.
        other.mark_aborted();
        assert_eq!(edge.outgoing_commit_bound(&owner), Timestamp::MAX);
        assert_eq!(edge.incoming_commit_bound(&owner), Timestamp::MAX);
    }

    #[test]
    fn committing_lifecycle_and_resolution() {
        let t = txn(1);
        assert_eq!(t.commit_resolution(), CommitResolution::Active);
        t.enter_committing(true).unwrap();
        assert_eq!(t.status(), TxnStatus::Committing);
        assert_eq!(t.commit_resolution(), CommitResolution::Allocating);
        assert_eq!(t.allocated_commit_ts(), None);
        t.set_pending_commit_ts(9);
        assert_eq!(t.commit_resolution(), CommitResolution::Pending(9));
        assert_eq!(t.allocated_commit_ts(), Some(9));
        // Pending is not committed: the strict decoder hides the timestamp.
        assert_eq!(t.commit_ts(), None);
        assert!(!t.is_committed());
        t.finalize_commit(true).unwrap();
        assert!(t.is_committed());
        assert_eq!(t.commit_ts(), Some(9));
        assert_eq!(t.commit_resolution(), CommitResolution::Committed(9));
    }

    #[test]
    fn commit_window_transitions_fail_on_doomed_or_pivot() {
        // Doomed before entry.
        let t = txn(1);
        t.doom();
        assert!(t.enter_committing(true).is_err());

        // Pivot entry under the basic check.
        let p = txn(2);
        set_in(&p, ConflictEdge::SelfLoop);
        set_out(&p, ConflictEdge::SelfLoop);
        assert!(p.enter_committing(true).is_err());
        // The enhanced variant decides the dangerous structure separately.
        assert!(p.enter_committing(false).is_ok());

        // Doomed during the window: finalize must fail.
        let d = txn(3);
        d.enter_committing(true).unwrap();
        d.set_pending_commit_ts(7);
        d.doom();
        assert!(d.finalize_commit(true).is_err());

        // Pivot completed during the window (basic variant).
        let q = txn(4);
        set_in(&q, ConflictEdge::SelfLoop);
        q.enter_committing(true).unwrap();
        q.set_pending_commit_ts(8);
        set_out(&q, ConflictEdge::SelfLoop);
        assert!(q.finalize_commit(true).is_err());
        // Aborting from the window hides the stale pending timestamp.
        q.mark_aborted();
        assert_eq!(q.commit_ts(), None);
        assert_eq!(q.allocated_commit_ts(), None);
        assert_eq!(q.commit_resolution(), CommitResolution::Aborted);
    }

    #[test]
    fn doom_if_active_leaves_committing_windows_alone() {
        let t = txn(1);
        t.enter_committing(true).unwrap();
        assert!(!t.doom_if_active());
        assert!(!t.is_doomed());
        // A direct doom still reaches the window and fails the finalize.
        t.set_pending_commit_ts(5);
        t.doom();
        assert!(t.finalize_commit(true).is_err());
    }

    #[test]
    fn commit_cas_races_with_flag_setting() {
        // A flag set between the commit check and the CAS must make the
        // commit retry and observe it: hammer the word from two threads.
        for _ in 0..200 {
            let t = Arc::new(txn(7));
            set_in(&t, ConflictEdge::SelfLoop);
            let t2 = t.clone();
            let setter = std::thread::spawn(move || {
                t2.set_out_flag();
            });
            let committed = t.try_commit_word(9, true).is_ok();
            setter.join().unwrap();
            let (i, o) = t.conflict_flags();
            assert!(i && o, "flags must never be lost");
            if committed {
                // The commit CAS must have happened strictly before the
                // OUT flag arrived; either way no pivot may ever show
                // status Committed *and* have been observed by the commit
                // CAS with both flags.
                assert!(t.is_committed());
            } else {
                assert!(t.is_active());
            }
        }
    }
}
