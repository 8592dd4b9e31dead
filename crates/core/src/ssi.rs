//! The heart of the paper: rw-antidependency tracking and the unsafe-structure
//! test of Serializable Snapshot Isolation (Chapter 3).
//!
//! Two entry points matter:
//!
//! * [`mark_conflict`] — called whenever a read-write dependency between two
//!   concurrent transactions is discovered, either through the lock table
//!   (SIREAD vs EXCLUSIVE) or through the existence of a newer row version.
//!   It implements Fig. 3.3 (basic variant) and Fig. 3.9 (enhanced variant),
//!   plus the abort-early and victim-selection refinements of Sec. 3.7.
//! * [`begin_commit`] / [`finalize_commit`] — the commit-time unsafe check
//!   of Fig. 3.2 / Fig. 3.10, split across the two halves of the
//!   `Committing` window (see [`crate::txn_shared`]): `begin_commit` runs
//!   the full check fused with the `Active → Committing` transition,
//!   `finalize_commit` re-validates what concurrent markers may have
//!   changed and flips the word to `Committed`.
//!
//! Both operate purely on [`TxnShared`] records; they know nothing about
//! tables or locks.
//!
//! # Synchronization: no global mutex, no publication fence
//!
//! The paper wraps these paths in `atomic begin/end` blocks backed by
//! InnoDB's kernel mutex. Here the same atomicity comes from two
//! fine-grained mechanisms (see [`crate::manager`] for the full protocol):
//!
//! * **Basic variant** — all the state the checks consult (status, commit
//!   timestamp, doomed flag, both conflict booleans) lives in one atomic
//!   state word per transaction, so `mark_conflict` is two CAS loops (one
//!   per participant) and each commit transition is a single CAS. No locks
//!   are taken at all. Markers keep setting flags on a word inside its
//!   commit window; the finalize CAS re-checks `in && out`, so a pivot
//!   completed mid-window fails its commit organically.
//! * **Enhanced variant** — conflict-neighbour identities also matter, so
//!   each transaction carries a small conflict mutex. `mark_conflict` locks
//!   the two participants **in increasing transaction-id order** (deadlock
//!   freedom: no path ever holds more than these two, and a committing
//!   transaction holds only its own, only for the duration of its check).
//!
//! Earlier revisions closed one race with a *publication fence*: an
//! out-neighbour whose timestamp was allocated but not yet stored looked
//! "uncommitted", so ordering tests blocked on
//! `TransactionManager::wait_for_publication` before trusting that
//! appearance. Those fences are gone. Commit timestamps are now allocated
//! only **after** the `Active → Committing` word transition, which makes
//! the state word self-sufficient ([`CommitResolution`]):
//!
//! * a word showing `Active` belongs to a transaction whose eventual
//!   commit timestamp exceeds every timestamp already allocated — "commits
//!   at infinity" is sound with no wait;
//! * a word showing `Committing` carries the pending timestamp, usable by
//!   the ordering tests (exact if the owner commits; conservative — the
//!   edge evaporates — if it aborts);
//! * the only opaque state is the few-instruction `Allocating` gap between
//!   the transition and the timestamp store, which observers spin out
//!   (parallelism-gated budget, never parking).
//!
//! Fig. 3.9's committed-writer rule is extended accordingly: a writer
//! inside its commit window counts as committed at its pending timestamp,
//! so an edge recorded against it mid-window is resolved by the *marker*
//! (which aborts itself if the structure is dangerous) — the committing
//! transaction's finalize only needs to re-check its doomed flag.

use std::sync::Arc;

use parking_lot::MutexGuard;

use ssi_common::{AbortReason, Error, Result, Timestamp, TxnId};
use ssi_obs::EventKind;

use crate::manager::TransactionManager;
use crate::options::{SsiOptions, SsiVariant};
use crate::txn_shared::{
    word_status, CommitResolution, ConflictEdge, ConflictState, TxnShared, TxnStatus, WORD_DOOMED,
    WORD_IN, WORD_OUT,
};

/// Which of the two parties of a conflict is executing the current
/// operation. The paper's `markConflict` aborts "the reader" or "the
/// writer"; in every reachable case that transaction is the caller, but the
/// caller role determines which side that is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CallerRole {
    /// The currently executing transaction is the reader of the
    /// rw-dependency (it called `read`/`scan`).
    Reader,
    /// The currently executing transaction is the writer (it called
    /// `write`/`insert`/`delete`).
    Writer,
}

/// Locks the conflict mutexes of both participants in increasing
/// transaction-id order (the lock-ordering rule that replaces the global
/// serialization mutex) and returns the guards in `(reader, writer)` order.
fn lock_pair<'a>(
    reader: &'a TxnShared,
    writer: &'a TxnShared,
) -> (MutexGuard<'a, ConflictState>, MutexGuard<'a, ConflictState>) {
    debug_assert_ne!(reader.id(), writer.id());
    if reader.id() < writer.id() {
        let r = reader.conflicts.lock();
        let w = writer.conflicts.lock();
        (r, w)
    } else {
        let w = writer.conflicts.lock();
        let r = reader.conflicts.lock();
        (r, w)
    }
}

/// Evaluates the "dangerous structure" condition for `txn` given its
/// conflict state: both edges present, and — in the enhanced variant — the
/// outgoing neighbour did not demonstrably commit after the incoming one
/// (Fig. 3.10 line 3–4). Running transactions count as "commit at infinity".
/// The caller must hold `txn`'s conflict mutex (enhanced paths).
fn conflict_state_unsafe(opts: &SsiOptions, txn: &TxnShared, st: &ConflictState) -> bool {
    if !(st.in_edge.is_set() && st.out_edge.is_set()) {
        return false;
    }
    match opts.variant {
        SsiVariant::Basic => true,
        SsiVariant::Enhanced => {
            st.out_edge.outgoing_commit_bound(txn) <= st.in_edge.incoming_commit_bound(txn)
        }
    }
}

/// Reads `txn`'s commit resolution, spinning out the `Allocating` gap (the
/// few instructions between the `Active → Committing` transition and the
/// pending-timestamp store — though a preempted owner can stretch it to a
/// scheduler quantum, hence the yield fallback once the parallelism-gated
/// spin budget is spent). Never returns `Allocating`; never parks. The
/// loop terminates because an owner in that gap executes only a fetch-add
/// and a store — it cannot block on anything.
fn settle_resolution(mgr: &TransactionManager, txn: &TxnShared) -> CommitResolution {
    let mut spins = 0;
    loop {
        let res = txn.commit_resolution();
        if res != CommitResolution::Allocating {
            return res;
        }
        if spins < mgr.spin_limit() {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// The commit-time variant of the dangerous-structure test. Earlier
/// revisions had to *wait for publication* here before trusting an
/// apparently uncommitted out-neighbour; the allocation-after-`Committing`
/// ordering makes the state word sufficient: an `Active` out-neighbour
/// provably commits later than the (already allocated) incoming bound, a
/// window-bound neighbour exposes its pending timestamp, and only the
/// `Allocating` gap is spun out.
fn unsafe_at_commit(mgr: &TransactionManager, txn: &TxnShared, st: &ConflictState) -> bool {
    if !(st.in_edge.is_set() && st.out_edge.is_set()) {
        return false;
    }
    let in_commit = st.in_edge.incoming_commit_bound(txn);
    let out_commit = match &st.out_edge {
        ConflictEdge::Txn(out) => match settle_resolution(mgr, out) {
            CommitResolution::Committed(ts) | CommitResolution::Pending(ts) => ts,
            // Still active: will allocate — and hence commit, if ever —
            // after every allocated timestamp, in particular after
            // `in_commit`. Aborted: the edge carries no dangerous
            // structure.
            CommitResolution::Active | CommitResolution::Aborted => Timestamp::MAX,
            CommitResolution::Allocating => unreachable!("settled above"),
        },
        edge => edge.outgoing_commit_bound(txn),
    };
    out_commit <= in_commit
}

/// Resolves the outgoing commit bound of a pivot candidate (`owner`,
/// committed or pending) for the committed-writer test of Fig. 3.9, with
/// the same no-wait resolution as [`unsafe_at_commit`].
fn settled_outgoing_bound(
    mgr: &TransactionManager,
    owner: &TxnShared,
    edge: &ConflictEdge,
) -> Timestamp {
    match edge {
        ConflictEdge::None => Timestamp::MAX,
        ConflictEdge::SelfLoop => edge.outgoing_commit_bound(owner),
        ConflictEdge::Txn(out) => match settle_resolution(mgr, out) {
            CommitResolution::Committed(ts) | CommitResolution::Pending(ts) => ts,
            CommitResolution::Active | CommitResolution::Aborted => Timestamp::MAX,
            CommitResolution::Allocating => unreachable!("settled above"),
        },
    }
}

/// Victim selection (Sec. 3.7.2) among the active pivots of the two
/// participants: abort a pivot, the caller when both are pivots (classic
/// write skew with mutual edges) so no cross-thread signalling is needed.
/// `pivots` holds the ids of the parties that are active, undoomed and
/// currently unsafe.
fn select_victim(caller_id: TxnId, pivots: &[TxnId]) -> Option<TxnId> {
    if pivots.contains(&caller_id) {
        Some(caller_id)
    } else {
        pivots.first().copied()
    }
}

/// The pivot-flavoured abort reason for a caller killed by victim selection
/// or a committed-pivot rule: a reader caller just gained the *outgoing*
/// edge of the dangerous structure, a writer caller the *incoming* one.
fn caller_pivot_reason(caller: CallerRole) -> AbortReason {
    match caller {
        CallerRole::Reader => AbortReason::PivotOut,
        CallerRole::Writer => AbortReason::PivotIn,
    }
}

/// Provenance for a failed basic-variant commit-word CAS: the word carries
/// either the doomed flag (another transaction selected us) or both
/// conflict flags (the Fig. 3.2 commit-time flag check fired).
fn basic_commit_word_reason(txn: &TxnShared) -> AbortReason {
    if txn.is_doomed() {
        AbortReason::DoomedByPeer
    } else {
        AbortReason::BasicFlagCheck
    }
}

/// Marks a read-write dependency from `reader` to `writer` (Figs. 3.3/3.9),
/// applying abort-early victim selection (Sec. 3.7.1, 3.7.2).
///
/// Returns an `Unsafe` abort error if the **caller** must abort; if the other
/// party is selected as the victim it is doomed instead (it will observe the
/// flag at its next operation or at commit) and `Ok(())` is returned.
pub(crate) fn mark_conflict(
    mgr: &TransactionManager,
    opts: &SsiOptions,
    reader: &Arc<TxnShared>,
    writer: &Arc<TxnShared>,
    caller: CallerRole,
) -> Result<()> {
    if reader.id() == writer.id() {
        return Ok(());
    }
    match opts.variant {
        SsiVariant::Basic => mark_conflict_basic(mgr, opts, reader, writer, caller),
        SsiVariant::Enhanced => mark_conflict_enhanced(mgr, opts, reader, writer, caller),
    }
}

/// Basic-variant conflict marking: two CAS loops on the participants' state
/// words, no locks. Each loop atomically re-validates the paper's
/// preconditions (Fig. 3.3) against the word it is about to update, so a
/// concurrent commit or doom is either observed here or observes the flag.
fn mark_conflict_basic(
    mgr: &TransactionManager,
    opts: &SsiOptions,
    reader: &Arc<TxnShared>,
    writer: &Arc<TxnShared>,
    caller: CallerRole,
) -> Result<()> {
    let caller_is_reader = caller == CallerRole::Reader;
    let (caller_txn, other) = if caller_is_reader {
        (reader, writer)
    } else {
        (writer, reader)
    };

    // An already-doomed caller aborts before recording anything, as the
    // global-mutex implementation did; the caller's CAS loop below
    // re-checks in case the doom lands mid-call.
    if caller_txn.is_doomed() {
        return Err(Error::abort_with_reason(
            AbortReason::DoomedByPeer,
            caller_txn.id(),
        ));
    }

    // The other party's word first: a transaction that already aborted — or
    // is doomed to — cannot be part of a cycle of committed transactions,
    // so no conflict is recorded at all (Sec. 3.7.1). If it *committed*
    // carrying the complementary flag, it is a committed pivot and aborting
    // the caller is the only way to break the potential cycle.
    let other_bit = if caller_is_reader { WORD_IN } else { WORD_OUT };
    let complement_bit = if caller_is_reader { WORD_OUT } else { WORD_IN };
    let mut word = other.load_word();
    loop {
        match word_status(word) {
            TxnStatus::Aborted => return Ok(()),
            _ if word & WORD_DOOMED != 0 => return Ok(()),
            TxnStatus::Committed if word & complement_bit != 0 => {
                let reason = caller_pivot_reason(caller);
                return Err(Error::abort_with_reason(reason, caller_txn.id()));
            }
            _ => {}
        }
        if word & other_bit != 0 {
            break;
        }
        match other.cas_word(word, word | other_bit) {
            Ok(_) => break,
            Err(current) => word = current,
        }
    }

    // The caller's word: the caller is executing this operation, so it is
    // active unless another thread doomed it in the meantime.
    let caller_bit = if caller_is_reader { WORD_OUT } else { WORD_IN };
    let mut word = caller_txn.load_word();
    loop {
        if word & WORD_DOOMED != 0 {
            return Err(Error::abort_with_reason(
                AbortReason::DoomedByPeer,
                caller_txn.id(),
            ));
        }
        if word & caller_bit != 0 {
            break;
        }
        match caller_txn.cas_word(word, word | caller_bit) {
            Ok(_) => break,
            Err(current) => word = current,
        }
    }
    mgr.trace()
        .emit(EventKind::ConflictEdge, reader.id().0, writer.id().0, 0);

    // Abort-early victim selection (Sec. 3.7.1/3.7.2) on fresh word loads:
    // a pivot is a single word showing active + in + out, so the test is
    // atomic per participant.
    if !opts.abort_early {
        return Ok(());
    }
    let is_pivot = |w: u64| {
        word_status(w) == TxnStatus::Active
            && w & WORD_DOOMED == 0
            && w & WORD_IN != 0
            && w & WORD_OUT != 0
    };
    let mut pivots: Vec<TxnId> = Vec::new();
    for t in [reader, writer] {
        if is_pivot(t.load_word()) {
            pivots.push(t.id());
        }
    }
    if let Some(victim) = select_victim(caller_txn.id(), &pivots) {
        let pivot = *pivots.first().unwrap_or(&victim);
        mgr.trace()
            .emit(EventKind::PivotDetected, pivot.0, victim.0, 0);
        if victim == caller_txn.id() {
            return Err(Error::abort_with_reason(
                caller_pivot_reason(caller),
                victim,
            ));
        }
        if other.id() == victim {
            // Doom the other party only while it is still active; a pivot
            // can never slip past this into a commit because the commit CAS
            // re-checks both flags atomically.
            other.doom_if_active();
        }
    }
    Ok(())
}

/// Enhanced-variant conflict marking: both participants' conflict mutexes
/// are held (in id order) for the duration, which serializes this call
/// against every other marking touching either party and against their
/// commit checks (a committing transaction holds its own conflict mutex).
fn mark_conflict_enhanced(
    mgr: &TransactionManager,
    opts: &SsiOptions,
    reader: &Arc<TxnShared>,
    writer: &Arc<TxnShared>,
    caller: CallerRole,
) -> Result<()> {
    let (caller_txn, other) = match caller {
        CallerRole::Reader => (reader, writer),
        CallerRole::Writer => (writer, reader),
    };

    let (mut rc, mut wc) = lock_pair(reader, writer);

    // A transaction that already aborted — or that is already doomed to —
    // cannot be part of a cycle of committed transactions, so no conflict is
    // recorded against it (Sec. 3.7.1).
    if other.status() == TxnStatus::Aborted || other.is_doomed() {
        return Ok(());
    }
    if caller_txn.is_doomed() {
        return Err(Error::abort_with_reason(
            AbortReason::DoomedByPeer,
            caller_txn.id(),
        ));
    }

    // Fig. 3.9: only the committed-writer case can require an abort; if the
    // reader has committed (or is committing), the writer — the caller,
    // still active, hence allocating later — is the outgoing transaction of
    // that pivot and cannot have committed first, so no abort is needed.
    //
    // A writer *inside its commit window* counts as committed at its
    // pending timestamp: its own finalize only re-checks the doomed flag,
    // so a dangerous structure completed by this very edge must be resolved
    // here, by aborting the caller. (If the writer later aborts instead of
    // finalizing, this was conservative — a spurious caller abort, never a
    // missed cycle.)
    if let CommitResolution::Committed(commit) | CommitResolution::Pending(commit) =
        settle_resolution(mgr, writer)
    {
        if wc.out_edge.is_set() {
            let out_commit = settled_outgoing_bound(mgr, writer, &wc.out_edge);
            if out_commit <= commit {
                let reason = caller_pivot_reason(caller);
                return Err(Error::abort_with_reason(reason, caller_txn.id()));
            }
        }
    }

    // Record the edge on both records (Sec. 3.6): keep the identity of the
    // single conflicting transaction, degrade to a self-loop once a second,
    // different counterpart shows up. Flag bits in the state words are kept
    // in sync under the same locks.
    rc.out_edge = match &rc.out_edge {
        ConflictEdge::None => ConflictEdge::Txn(writer.clone()),
        ConflictEdge::Txn(existing) if existing.id() == writer.id() => {
            ConflictEdge::Txn(writer.clone())
        }
        _ => ConflictEdge::SelfLoop,
    };
    reader.set_out_flag();
    wc.in_edge = match &wc.in_edge {
        ConflictEdge::None => ConflictEdge::Txn(reader.clone()),
        ConflictEdge::Txn(existing) if existing.id() == reader.id() => {
            ConflictEdge::Txn(reader.clone())
        }
        _ => ConflictEdge::SelfLoop,
    };
    writer.set_in_flag();
    mgr.trace()
        .emit(EventKind::ConflictEdge, reader.id().0, writer.id().0, 0);

    // Abort-early victim selection (Sec. 3.7.1/3.7.2).
    if !opts.abort_early {
        return Ok(());
    }
    let mut pivots: Vec<TxnId> = Vec::new();
    if reader.is_active() && !reader.is_doomed() && conflict_state_unsafe(opts, reader, &rc) {
        pivots.push(reader.id());
    }
    if writer.is_active() && !writer.is_doomed() && conflict_state_unsafe(opts, writer, &wc) {
        pivots.push(writer.id());
    }
    if let Some(victim) = select_victim(caller_txn.id(), &pivots) {
        let pivot = *pivots.first().unwrap_or(&victim);
        mgr.trace()
            .emit(EventKind::PivotDetected, pivot.0, victim.0, 0);
        if victim == caller_txn.id() {
            return Err(Error::abort_with_reason(
                caller_pivot_reason(caller),
                victim,
            ));
        }
        if other.id() == victim {
            // Dooming under the victim's conflict mutex: its commit check
            // holds the same mutex, so the doom is either seen there or
            // happens after the victim finished.
            other.doom();
        }
    }
    Ok(())
}

/// Records an outgoing rw-dependency from `reader` to a writer whose
/// transaction record has already been retired (a pure update that committed
/// and was cleaned up before the reader noticed its newer version).
///
/// The writer's own flags no longer matter — it has committed and nobody
/// will consult them again — but the *reader's* outgoing conflict must still
/// be recorded or a dangerous structure whose outgoing transaction is such a
/// pure writer would go undetected (the reader may be the pivot). Because
/// the retired writer's commit time is no longer known precisely, the edge
/// is recorded as a self-loop, whose conservative "commits as early as
/// possible" bound keeps the unsafe test sound at the cost of occasional
/// extra aborts.
pub(crate) fn mark_conflict_with_retired_writer(
    mgr: &TransactionManager,
    opts: &SsiOptions,
    reader: &Arc<TxnShared>,
) -> Result<()> {
    match opts.variant {
        SsiVariant::Basic => {
            let mut word = reader.load_word();
            loop {
                if word & WORD_DOOMED != 0 {
                    return Err(Error::abort_with_reason(
                        AbortReason::DoomedByPeer,
                        reader.id(),
                    ));
                }
                if word & WORD_OUT != 0 {
                    break;
                }
                match reader.cas_word(word, word | WORD_OUT) {
                    Ok(_) => break,
                    Err(current) => word = current,
                }
            }
            if opts.abort_early {
                let word = reader.load_word();
                if word_status(word) == TxnStatus::Active
                    && word & WORD_IN != 0
                    && word & WORD_OUT != 0
                {
                    mgr.trace()
                        .emit(EventKind::PivotDetected, reader.id().0, reader.id().0, 0);
                    return Err(Error::abort_with_reason(AbortReason::PivotOut, reader.id()));
                }
            }
            Ok(())
        }
        SsiVariant::Enhanced => {
            let mut st = reader.conflicts.lock();
            if reader.is_doomed() {
                return Err(Error::abort_with_reason(
                    AbortReason::DoomedByPeer,
                    reader.id(),
                ));
            }
            st.out_edge = ConflictEdge::SelfLoop;
            reader.set_out_flag();
            if opts.abort_early && reader.is_active() && conflict_state_unsafe(opts, reader, &st) {
                mgr.trace()
                    .emit(EventKind::PivotDetected, reader.id().0, reader.id().0, 0);
                return Err(Error::abort_with_reason(AbortReason::PivotOut, reader.id()));
            }
            Ok(())
        }
    }
}

/// Enhanced commit check, run while holding `txn`'s conflict mutex: doomed
/// flag, the ordering-aware unsafe test, and — on success — the Sec. 3.6
/// cleanup invariant (conflict references to transactions that have already
/// committed are replaced with self-loops so suspended transactions only
/// reference transactions with an equal or later commit).
fn enhanced_commit_check_locked(
    mgr: &TransactionManager,
    txn: &Arc<TxnShared>,
    st: &mut ConflictState,
) -> Result<()> {
    if txn.is_doomed() {
        return Err(Error::abort_with_reason(
            AbortReason::DoomedByPeer,
            txn.id(),
        ));
    }
    if unsafe_at_commit(mgr, txn, st) {
        return Err(Error::abort_with_reason(
            AbortReason::UnsafeAtCommit,
            txn.id(),
        ));
    }
    if let ConflictEdge::Txn(other) = &st.in_edge {
        if other.is_committed() {
            st.in_edge = ConflictEdge::SelfLoop;
        }
    }
    if let ConflictEdge::Txn(other) = &st.out_edge {
        if other.is_committed() {
            st.out_edge = ConflictEdge::SelfLoop;
        }
    }
    Ok(())
}

/// Commit-time unsafe check (Fig. 3.2 / Fig. 3.10) *without* the status
/// transition — used by tests that probe the check in isolation.
#[cfg(test)]
pub(crate) fn commit_check(
    mgr: &TransactionManager,
    opts: &SsiOptions,
    txn: &Arc<TxnShared>,
) -> Result<()> {
    match opts.variant {
        SsiVariant::Basic => {
            let word = txn.load_word();
            if word & WORD_DOOMED != 0 || (word & WORD_IN != 0 && word & WORD_OUT != 0) {
                return Err(Error::unsafe_abort(txn.id()));
            }
            Ok(())
        }
        SsiVariant::Enhanced => {
            let mut st = txn.conflicts.lock();
            enhanced_commit_check_locked(mgr, txn, &mut st)
        }
    }
}

/// Opens a writer's commit window: runs the commit-time unsafe check
/// (Fig. 3.2 / Fig. 3.10) fused with the `Active → Committing` transition,
/// then allocates the commit timestamp and installs it into the state word
/// as pending. Returns the timestamp the caller settles with
/// [`finalize_commit`] before it stamps its versions with it and deposits
/// it for publication — or publishes empty and aborts if the finalize
/// fails.
///
/// * Basic variant: check and transition are a single CAS on the state
///   word; a conflict flag arriving between the check and the CAS forces a
///   retry that observes it.
/// * Enhanced variant: the check and the transition run under the
///   transaction's own conflict mutex, which excludes concurrent edge
///   recording against it; the mutex is released before the allocation, so
///   markers are never blocked for the duration of the window.
///
/// The allocation happens strictly *after* the transition — the ordering
/// every no-wait resolution in this module leans on. A failed entry has
/// allocated nothing, so there is no timestamp to publish empty.
pub(crate) fn begin_commit(
    mgr: &TransactionManager,
    opts: &SsiOptions,
    txn: &Arc<TxnShared>,
) -> Result<Timestamp> {
    match opts.variant {
        SsiVariant::Basic => {
            if txn.enter_committing(true).is_err() {
                return Err(Error::abort_with_reason(
                    basic_commit_word_reason(txn),
                    txn.id(),
                ));
            }
        }
        SsiVariant::Enhanced => {
            let mut st = txn.conflicts.lock();
            enhanced_commit_check_locked(mgr, txn, &mut st)?;
            if txn.enter_committing(false).is_err() {
                return Err(Error::abort_with_reason(
                    AbortReason::DoomedByPeer,
                    txn.id(),
                ));
            }
        }
    }
    let ts = mgr.allocate_commit_ts();
    txn.set_pending_commit_ts(ts);
    Ok(ts)
}

/// Settles a writer's commit window (`Committing → Committed`). The basic
/// variant re-checks the pivot flags — markers kept setting them during
/// the window, so a dangerous structure completed mid-window fails here.
/// The enhanced variant only re-checks the doomed flag: structures
/// completed mid-window were resolved by the marker against the pending
/// timestamp (see [`mark_conflict_enhanced`]).
///
/// This runs before anything of the transaction is visible: its versions
/// are still unstamped and its timestamp is not deposited. On failure the
/// caller publishes the timestamp empty, so the publication chain does not
/// stall, and rolls the transaction back; no reader has seen any of it.
pub(crate) fn finalize_commit(opts: &SsiOptions, txn: &Arc<TxnShared>) -> Result<()> {
    let check_pivot = matches!(opts.variant, SsiVariant::Basic);
    match txn.finalize_commit(check_pivot) {
        Ok(()) => Ok(()),
        Err(word) if word & WORD_DOOMED != 0 => Err(Error::abort_with_reason(
            AbortReason::DoomedByPeer,
            txn.id(),
        )),
        Err(_) => Err(Error::abort_with_reason(
            AbortReason::BasicFlagCheck,
            txn.id(),
        )),
    }
}

/// Commits a transaction with no writes: the commit-time unsafe check plus
/// a single `Active → Committed` CAS at the current snapshot clock. No
/// window, no allocation, nothing to publish. Everything the transaction
/// read was committed and settled when it read it.
pub(crate) fn commit_read_only(
    mgr: &TransactionManager,
    opts: &SsiOptions,
    txn: &Arc<TxnShared>,
) -> Result<Timestamp> {
    match opts.variant {
        SsiVariant::Basic => {
            let ts = mgr.current_ts();
            match txn.try_commit_word(ts, true) {
                Ok(()) => Ok(ts),
                Err(_) => Err(Error::abort_with_reason(
                    basic_commit_word_reason(txn),
                    txn.id(),
                )),
            }
        }
        SsiVariant::Enhanced => {
            let mut st = txn.conflicts.lock();
            enhanced_commit_check_locked(mgr, txn, &mut st)?;
            let ts = mgr.current_ts();
            match txn.try_commit_word(ts, false) {
                Ok(()) => Ok(ts),
                Err(_) => Err(Error::abort_with_reason(
                    AbortReason::DoomedByPeer,
                    txn.id(),
                )),
            }
        }
    }
}

/// Whole write-commit pipeline in one call, minus stamping — a test helper probing the check/transition logic in isolation.
/// On a finalize failure the timestamp is deposited and the transaction
/// marked aborted, mirroring (in miniature) the engine's abort path.
#[cfg(test)]
pub(crate) fn commit_transaction(
    mgr: &TransactionManager,
    opts: &SsiOptions,
    txn: &Arc<TxnShared>,
    has_writes: bool,
) -> Result<Timestamp> {
    if !has_writes {
        return commit_read_only(mgr, opts, txn);
    }
    let ts = begin_commit(mgr, opts, txn)?;
    match finalize_commit(opts, txn) {
        Ok(()) => Ok(ts),
        Err(e) => {
            mgr.publish_commit_ts(ts);
            txn.mark_aborted();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssi_common::{AbortKind, IsolationLevel};

    fn setup() -> (TransactionManager, SsiOptions) {
        (TransactionManager::new(), SsiOptions::default())
    }

    fn basic() -> SsiOptions {
        SsiOptions {
            variant: SsiVariant::Basic,
            ..SsiOptions::default()
        }
    }

    fn begin(mgr: &TransactionManager) -> Arc<TxnShared> {
        let t = mgr.begin(IsolationLevel::SerializableSnapshotIsolation);
        mgr.ensure_snapshot(&t);
        t
    }

    #[test]
    fn single_conflict_sets_flags_but_aborts_nobody() {
        let (mgr, opts) = setup();
        let reader = begin(&mgr);
        let writer = begin(&mgr);
        mark_conflict(&mgr, &opts, &reader, &writer, CallerRole::Writer).unwrap();
        assert_eq!(reader.conflict_flags(), (false, true));
        assert_eq!(writer.conflict_flags(), (true, false));
        assert!(!reader.is_doomed());
        assert!(!writer.is_doomed());
        assert!(commit_check(&mgr, &opts, &reader).is_ok());
        assert!(commit_check(&mgr, &opts, &writer).is_ok());
    }

    #[test]
    fn self_conflict_is_ignored() {
        let (mgr, opts) = setup();
        let t = begin(&mgr);
        mark_conflict(&mgr, &opts, &t, &t, CallerRole::Reader).unwrap();
        assert_eq!(t.conflict_flags(), (false, false));
    }

    #[test]
    fn pivot_with_both_edges_is_aborted_early_when_caller() {
        let (mgr, opts) = setup();
        let t_in = begin(&mgr);
        let pivot = begin(&mgr);
        let t_out = begin(&mgr);
        // Pivot already has an outgoing edge (it read something t_out wrote
        // over)...
        mark_conflict(&mgr, &opts, &pivot, &t_out, CallerRole::Reader).unwrap();
        // ... and now, as the caller, discovers an incoming edge: it becomes
        // a pivot and is chosen as the victim.
        let err = mark_conflict(&mgr, &opts, &t_in, &pivot, CallerRole::Writer).unwrap_err();
        assert_eq!(err.abort_kind(), Some(AbortKind::Unsafe));
        match err {
            Error::Aborted { victim, .. } => assert_eq!(victim, pivot.id()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn pivot_is_doomed_when_not_the_caller() {
        let (mgr, opts) = setup();
        let t_in = begin(&mgr);
        let pivot = begin(&mgr);
        let t_out = begin(&mgr);
        // Incoming edge first: t_in -> pivot, reported by the writer (pivot).
        mark_conflict(&mgr, &opts, &t_in, &pivot, CallerRole::Writer).unwrap();
        // Outgoing edge discovered by t_out performing a write; the pivot is
        // not the caller, so it gets doomed instead of the caller aborting.
        mark_conflict(&mgr, &opts, &pivot, &t_out, CallerRole::Writer).unwrap();
        assert!(pivot.is_doomed());
        assert!(!t_out.is_doomed());
        // The doomed pivot fails its commit check.
        let err = commit_check(&mgr, &opts, &pivot).unwrap_err();
        assert_eq!(err.abort_kind(), Some(AbortKind::Unsafe));
    }

    #[test]
    fn basic_variant_aborts_against_committed_writer_with_out_edge() {
        let (mgr, _) = setup();
        let opts = basic();
        let reader = begin(&mgr);
        let writer = begin(&mgr);
        let other = begin(&mgr);
        // writer has an outgoing edge and then commits.
        mark_conflict(&mgr, &opts, &writer, &other, CallerRole::Reader).unwrap();
        writer.mark_committed(100);
        // reader now discovers a conflict with the committed writer: it must
        // abort (Fig. 3.3 line 3-5).
        let err = mark_conflict(&mgr, &opts, &reader, &writer, CallerRole::Reader).unwrap_err();
        assert_eq!(err.abort_kind(), Some(AbortKind::Unsafe));
    }

    #[test]
    fn basic_variant_aborts_writer_against_committed_reader_with_in_edge() {
        let (mgr, _) = setup();
        let opts = basic();
        let reader = begin(&mgr);
        let writer = begin(&mgr);
        let other = begin(&mgr);
        // reader picks up an incoming edge and then commits.
        mark_conflict(&mgr, &opts, &other, &reader, CallerRole::Writer).unwrap();
        reader.mark_committed(100);
        // writer now discovers the rw-dependency reader -> writer: the
        // reader is a committed pivot, so the caller must abort.
        let err = mark_conflict(&mgr, &opts, &reader, &writer, CallerRole::Writer).unwrap_err();
        assert_eq!(err.abort_kind(), Some(AbortKind::Unsafe));
    }

    #[test]
    fn enhanced_variant_spares_reader_when_out_neighbour_committed_later() {
        let (mgr, opts) = setup();
        let reader = begin(&mgr);
        let writer = begin(&mgr);
        let other = begin(&mgr);
        // writer -> other edge; other commits *after* writer, so the
        // dangerous-structure condition (Tout first to commit) is not met
        // and the reader does not need to abort.
        mark_conflict(&mgr, &opts, &writer, &other, CallerRole::Reader).unwrap();
        writer.mark_committed(100);
        other.mark_committed(150);
        assert!(mark_conflict(&mgr, &opts, &reader, &writer, CallerRole::Reader).is_ok());
    }

    #[test]
    fn enhanced_variant_aborts_reader_when_out_neighbour_committed_first() {
        let (mgr, opts) = setup();
        let reader = begin(&mgr);
        let writer = begin(&mgr);
        let other = begin(&mgr);
        mark_conflict(&mgr, &opts, &writer, &other, CallerRole::Reader).unwrap();
        other.mark_committed(90);
        writer.mark_committed(100);
        let err = mark_conflict(&mgr, &opts, &reader, &writer, CallerRole::Reader).unwrap_err();
        assert_eq!(err.abort_kind(), Some(AbortKind::Unsafe));
    }

    #[test]
    fn enhanced_commit_check_allows_false_positive_of_fig_3_8() {
        // Fig. 3.8: Tin committed before Tpivot's outgoing neighbour Tout,
        // so there is no path from Tout back to Tin and the pivot may
        // commit. The basic variant would abort here; the enhanced variant
        // must not.
        let (mgr, opts) = setup();
        let t_in = begin(&mgr);
        let pivot = begin(&mgr);
        let t_out = begin(&mgr);
        // Disable abort-early so we exercise the commit-time check.
        let opts = SsiOptions {
            abort_early: false,
            ..opts
        };
        mark_conflict(&mgr, &opts, &t_in, &pivot, CallerRole::Writer).unwrap();
        mark_conflict(&mgr, &opts, &pivot, &t_out, CallerRole::Writer).unwrap();
        t_in.mark_committed(50);
        t_out.mark_committed(80);
        // in-commit (50) < out-commit (80): not dangerous, commit allowed.
        assert!(commit_check(&mgr, &opts, &pivot).is_ok());

        // Under the basic variant the same situation is (conservatively)
        // rejected.
        let basic_opts = SsiOptions {
            abort_early: false,
            ..basic()
        };
        assert!(commit_check(&mgr, &basic_opts, &pivot).is_err());
    }

    #[test]
    fn enhanced_commit_check_rejects_true_dangerous_structure() {
        let (mgr, opts) = setup();
        let opts = SsiOptions {
            abort_early: false,
            ..opts
        };
        let t_in = begin(&mgr);
        let pivot = begin(&mgr);
        let t_out = begin(&mgr);
        mark_conflict(&mgr, &opts, &t_in, &pivot, CallerRole::Writer).unwrap();
        mark_conflict(&mgr, &opts, &pivot, &t_out, CallerRole::Writer).unwrap();
        // Tout commits first — the dangerous pattern of Theorem 2.
        t_out.mark_committed(40);
        let err = commit_check(&mgr, &opts, &pivot).unwrap_err();
        assert_eq!(err.abort_kind(), Some(AbortKind::Unsafe));
    }

    #[test]
    fn no_conflicts_recorded_against_doomed_or_aborted_transactions() {
        let (mgr, opts) = setup();
        let reader = begin(&mgr);
        let writer = begin(&mgr);
        writer.doom();
        mark_conflict(&mgr, &opts, &reader, &writer, CallerRole::Reader).unwrap();
        assert_eq!(reader.conflict_flags(), (false, false));

        let reader2 = begin(&mgr);
        let aborted = begin(&mgr);
        aborted.mark_aborted();
        mark_conflict(&mgr, &opts, &reader2, &aborted, CallerRole::Reader).unwrap();
        assert_eq!(reader2.conflict_flags(), (false, false));
    }

    #[test]
    fn doomed_caller_aborts_immediately() {
        let (mgr, opts) = setup();
        let reader = begin(&mgr);
        let writer = begin(&mgr);
        reader.doom();
        let err = mark_conflict(&mgr, &opts, &reader, &writer, CallerRole::Reader).unwrap_err();
        assert_eq!(err.abort_kind(), Some(AbortKind::Unsafe));
    }

    #[test]
    fn commit_check_replaces_committed_references_with_self_loops() {
        let (mgr, opts) = setup();
        let t_in = begin(&mgr);
        let pivot = begin(&mgr);
        mark_conflict(&mgr, &opts, &t_in, &pivot, CallerRole::Writer).unwrap();
        t_in.mark_committed(30);
        commit_check(&mgr, &opts, &pivot).unwrap();
        let c = pivot.conflicts.lock();
        assert!(matches!(c.in_edge, ConflictEdge::SelfLoop));
    }

    #[test]
    fn marker_treats_pending_writer_as_committed() {
        // The writer is inside its commit window (pending timestamp
        // installed, finalize withheld) with an out-neighbour that committed
        // earlier: a reader discovering an edge into it completes a
        // dangerous structure that the writer's finalize will not re-check
        // (enhanced variant), so the marker must abort the caller — exactly
        // the committed-writer rule, keyed off the pending timestamp.
        let (mgr, opts) = setup();
        let reader = begin(&mgr);
        let writer = begin(&mgr);
        let other = begin(&mgr);
        mark_conflict(&mgr, &opts, &writer, &other, CallerRole::Reader).unwrap();
        let other_ts = mgr.allocate_commit_ts();
        other.mark_committed(other_ts);
        mgr.publish_commit_ts(other_ts);
        let ts = begin_commit(&mgr, &opts, &writer).unwrap();
        assert!(
            ts > other_ts,
            "out-neighbour committed before the pending ts"
        );
        assert_eq!(writer.commit_ts(), None, "pending, not committed");
        let err = mark_conflict(&mgr, &opts, &reader, &writer, CallerRole::Reader).unwrap_err();
        assert_eq!(err.abort_kind(), Some(AbortKind::Unsafe));
        // The writer itself can still settle (enhanced finalize re-checks
        // only the doomed flag).
        finalize_commit(&opts, &writer).unwrap();
        mgr.publish_commit_ts(ts);
    }

    #[test]
    fn basic_finalize_fails_when_pivot_completes_mid_window() {
        let (mgr, _) = setup();
        let opts = basic();
        let t = begin(&mgr);
        let out = begin(&mgr);
        mark_conflict(&mgr, &opts, &t, &out, CallerRole::Reader).unwrap();
        let ts = begin_commit(&mgr, &opts, &t).unwrap();
        // A marker completes the pivot while t is in its window (the basic
        // CAS loop records flags on Committing words).
        let r = begin(&mgr);
        mark_conflict(&mgr, &opts, &r, &t, CallerRole::Reader).unwrap();
        assert_eq!(t.conflict_flags(), (true, true));
        // The finalize re-check catches it.
        assert!(finalize_commit(&opts, &t).is_err());
        mgr.publish_commit_ts(ts);
        t.mark_aborted();
        assert!(!t.is_committed());
    }

    #[test]
    fn commit_transaction_assigns_and_requires_publication() {
        let (mgr, opts) = setup();
        let t = begin(&mgr);
        let ts = commit_transaction(&mgr, &opts, &t, true).unwrap();
        assert_eq!(t.commit_ts(), Some(ts));
        assert!(t.is_committed());
        assert_eq!(
            mgr.current_ts(),
            ts - 1,
            "writer ts unpublished until stamped"
        );
        mgr.publish_commit_ts(ts);
        assert_eq!(mgr.current_ts(), ts);

        // Read-only commit reuses the published clock.
        let r = begin(&mgr);
        let rts = commit_transaction(&mgr, &opts, &r, false).unwrap();
        assert_eq!(rts, mgr.current_ts());
    }

    #[test]
    fn commit_transaction_rejects_doomed_and_publishes_nothing() {
        for opts in [SsiOptions::default(), basic()] {
            let mgr = TransactionManager::new();
            let t = begin(&mgr);
            t.doom();
            let before = mgr.current_ts();
            assert!(commit_transaction(&mgr, &opts, &t, true).is_err());
            assert!(t.is_active(), "failed commit leaves status untouched");
            assert_eq!(mgr.current_ts(), before);
            // The pipeline must not be stalled: the next writer commits fine.
            let w = begin(&mgr);
            let ts = commit_transaction(&mgr, &opts, &w, true).unwrap();
            mgr.publish_commit_ts(ts);
            assert_eq!(mgr.current_ts(), ts);
        }
    }

    #[test]
    fn basic_commit_cas_observes_concurrent_pivot_completion() {
        // Race a basic-variant commit against the arrival of the second
        // conflict flag from another thread: in every interleaving either
        // the commit fails, or it demonstrably happened before the flag
        // (in which case the marker sees a committed transaction).
        let opts = basic();
        for _ in 0..100 {
            let mgr = TransactionManager::new();
            let t = begin(&mgr);
            let other = begin(&mgr);
            mark_conflict(&mgr, &opts, &t, &other, CallerRole::Reader).unwrap();
            let (t2, mgr2, opts2) = (t.clone(), &mgr, &opts);
            std::thread::scope(|s| {
                let marker = s.spawn(move || {
                    // A reader discovers the edge reader -> t, completing
                    // the pivot on t.
                    let r = begin(mgr2);
                    mark_conflict(mgr2, opts2, &r, &t2, CallerRole::Reader)
                });
                let commit = commit_transaction(&mgr, &opts, &t, true);
                let marked = marker.join().unwrap();
                match commit {
                    Ok(ts) => {
                        mgr.publish_commit_ts(ts);
                        // Commit won the race, so the marker's CAS loop saw
                        // a committed writer carrying an OUT edge (Fig. 3.3
                        // line 3-5) and had to abort the caller.
                        assert!(
                            marked.is_err(),
                            "marker must abort against a committed pivot"
                        );
                    }
                    Err(_) => {
                        // The IN flag (or the doom that followed it) arrived
                        // before the entry CAS (t stays active) or inside
                        // the window (the finalize CAS observed it and the
                        // helper aborted t). Never a committed pivot.
                        assert!(!t.is_committed());
                    }
                }
            });
        }
    }
}
