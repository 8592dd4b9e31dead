//! Error taxonomy of the engine.
//!
//! The benchmark driver breaks abort counts down by cause exactly as the
//! thesis' figures do ("deadlocks", "conflicts", "unsafe"), so the error type
//! distinguishes those outcomes explicitly.

use std::fmt;

use crate::ids::TxnId;

/// Convenient result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Classification of transaction aborts, mirroring the error breakdown in the
/// performance figures of Chapter 6.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AbortKind {
    /// A deadlock in the lock manager was broken by aborting this
    /// transaction (traditional S2PL-style aborts; also possible for the
    /// write locks taken by SI/SSI).
    Deadlock,
    /// The first-committer-wins rule: a concurrent transaction committed a
    /// newer version of an item this transaction wanted to update
    /// (`DB_SNAPSHOT_CONFLICT` / `DB_UPDATE_CONFLICT` in the prototypes).
    UpdateConflict,
    /// The new abort introduced by Serializable SI: two consecutive
    /// rw-antidependencies were detected and this transaction was chosen as
    /// the victim (`DB_SNAPSHOT_UNSAFE` / `DB_UNSAFE_TRANSACTION`).
    Unsafe,
    /// The application requested a rollback (e.g. SmallBank's WriteCheck on a
    /// missing customer). Not an engine error; counted separately so it does
    /// not pollute the concurrency-control abort rates.
    UserRequested,
}

impl AbortKind {
    /// Stable label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            AbortKind::Deadlock => "deadlock",
            AbortKind::UpdateConflict => "conflict",
            AbortKind::Unsafe => "unsafe",
            AbortKind::UserRequested => "user",
        }
    }
}

impl fmt::Display for AbortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Fine-grained abort provenance: *which* site of the engine decided the
/// abort, not just the coarse [`AbortKind`] bucket the figures use. Every
/// engine abort records exactly one of these (counted per-reason by the
/// transaction manager and attached to the returned [`Error::Aborted`]),
/// so post-mortems can answer "why did this transaction die" without
/// re-running the workload under a debugger.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum AbortReason {
    /// First-committer-wins: a concurrent transaction committed a newer
    /// version of an item this transaction wanted to update.
    WriteConflict,
    /// The lock manager broke a waits-for cycle by aborting this
    /// transaction.
    LockDeadlock,
    /// A lock request waited past the configured limit. (Surfaced as
    /// [`Error::LockTimeout`], not as `Aborted`; counted here so the
    /// per-reason totals still cover the rollback it forces.)
    LockTimeout,
    /// Dangerous structure detected while this transaction, acting as the
    /// *writer*, gained the incoming rw-antidependency edge that completed
    /// a pivot (abort-early marking, or an edge into a committed pivot).
    PivotIn,
    /// Dangerous structure detected while this transaction, acting as the
    /// *reader*, gained the outgoing rw-antidependency edge that completed
    /// a pivot.
    PivotOut,
    /// The commit-time unsafe check (enhanced variant's ordering test, or
    /// a read-only commit against a completed structure) failed.
    UnsafeAtCommit,
    /// The basic variant's packed-word flag check failed at a commit
    /// transition (`in && out` observed by the entry or finalize CAS).
    BasicFlagCheck,
    /// A peer doomed this transaction (victim selection from another
    /// thread); the doom was observed at the next operation or commit.
    DoomedByPeer,
    /// The database is in degraded (read-only) mode and rejected a write.
    /// (Surfaced as [`Error::Degraded`]; counted here for the rollback.)
    DegradedRejected,
    /// The application rolled the transaction back (explicit `rollback`,
    /// drop without commit, or a non-engine error inside an operation).
    UserRollback,
    /// A write would have created a second live row under the same key of
    /// a *unique* secondary index. Enforced at every isolation level under
    /// an exclusive index-point lock, so of two concurrent inserts of the
    /// same unique key exactly one commits and the other gets this reason.
    UniqueViolation,
}

impl AbortReason {
    /// Number of distinct reasons (the length of [`AbortReason::ALL`]).
    pub const COUNT: usize = 11;

    /// Every reason, in `index()` order — iterate this to render the
    /// per-reason counters.
    pub const ALL: [AbortReason; AbortReason::COUNT] = [
        AbortReason::WriteConflict,
        AbortReason::LockDeadlock,
        AbortReason::LockTimeout,
        AbortReason::PivotIn,
        AbortReason::PivotOut,
        AbortReason::UnsafeAtCommit,
        AbortReason::BasicFlagCheck,
        AbortReason::DoomedByPeer,
        AbortReason::DegradedRejected,
        AbortReason::UserRollback,
        AbortReason::UniqueViolation,
    ];

    /// Dense index for per-reason counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable label used in metrics exposition and traces.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::WriteConflict => "write-conflict",
            AbortReason::LockDeadlock => "lock-deadlock",
            AbortReason::LockTimeout => "lock-timeout",
            AbortReason::PivotIn => "pivot-in",
            AbortReason::PivotOut => "pivot-out",
            AbortReason::UnsafeAtCommit => "unsafe-at-commit",
            AbortReason::BasicFlagCheck => "basic-flag-check",
            AbortReason::DoomedByPeer => "doomed-by-peer",
            AbortReason::DegradedRejected => "degraded-rejected",
            AbortReason::UserRollback => "user-rollback",
            AbortReason::UniqueViolation => "unique-violation",
        }
    }

    /// The coarse bucket this reason falls into (the thesis' breakdown).
    pub fn kind(self) -> AbortKind {
        match self {
            AbortReason::WriteConflict | AbortReason::UniqueViolation => AbortKind::UpdateConflict,
            AbortReason::LockDeadlock => AbortKind::Deadlock,
            AbortReason::UserRollback => AbortKind::UserRequested,
            AbortReason::LockTimeout
            | AbortReason::PivotIn
            | AbortReason::PivotOut
            | AbortReason::UnsafeAtCommit
            | AbortReason::BasicFlagCheck
            | AbortReason::DoomedByPeer
            | AbortReason::DegradedRejected => AbortKind::Unsafe,
        }
    }

    /// Reconstructs a reason from its dense index (inverse of `index()`).
    pub fn from_index(index: usize) -> Option<AbortReason> {
        AbortReason::ALL.get(index).copied()
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a database entered degraded (read-only) mode. Degradation is a
/// one-way transition taken when the durability subsystem can no longer
/// guarantee that acknowledged commits reach stable storage; snapshot
/// reads keep serving, writers fail fast with [`Error::Degraded`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DegradedReason {
    /// The write-ahead log was poisoned by its first failed append,
    /// segment creation or fsync; nothing is retried ("fsync reports an
    /// error only once" — a failed range is never re-fsynced as if nothing
    /// happened). Reopen to recover.
    WalPoisoned,
    /// As [`DegradedReason::WalPoisoned`], but the failure was ENOSPC or
    /// EDQUOT: free space, then reopen.
    OutOfSpace,
    /// A committer leading a WAL flush panicked mid-pass (a `Vfs`
    /// unwound); nothing vouches for the tail it was syncing.
    WalLeaderPanic,
}

impl DegradedReason {
    /// Stable label used in health output and logs.
    pub fn label(self) -> &'static str {
        match self {
            DegradedReason::WalPoisoned => "wal-poisoned",
            DegradedReason::OutOfSpace => "out-of-space",
            DegradedReason::WalLeaderPanic => "wal-leader-panic",
        }
    }
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors surfaced by the storage engine and concurrency control layer.
///
/// Equality ignores the `reason` provenance of [`Error::Aborted`]: two
/// aborts of the same kind and victim compare equal even when different
/// sites produced them, so tests asserting on outcomes stay independent of
/// which detection path fired first.
#[derive(Clone, Debug)]
pub enum Error {
    /// The transaction was aborted by the engine; the victim must roll back
    /// and may retry. Carries the abort classification, the provenance of
    /// the decision, and the id of the transaction that was sacrificed
    /// (usually the caller).
    Aborted {
        kind: AbortKind,
        reason: AbortReason,
        victim: TxnId,
    },
    /// An operation was attempted on a transaction that has already
    /// committed or rolled back.
    TransactionClosed,
    /// The named table does not exist in the catalog.
    NoSuchTable(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A lock request waited longer than the configured limit. Surfaced as
    /// its own variant so tests can distinguish stuck schedules from genuine
    /// deadlock victims.
    LockTimeout,
    /// Internal invariant violation; indicates a bug in the engine rather
    /// than a recoverable condition.
    Internal(String),
    /// The durability subsystem (write-ahead log, checkpoint or recovery)
    /// hit an I/O failure. When surfaced from `commit`, the transaction is
    /// committed in memory but its persistence is uncertain; when surfaced
    /// from open/recovery, the database could not be brought up.
    Durability(String),
    /// The database is in degraded (read-only) mode: a durability failure
    /// made further writes unsafe. Snapshot reads keep serving; write
    /// attempts fail fast with this error.
    Degraded(DegradedReason),
    /// The database was explicitly closed ([`Database::close`] or shutdown
    /// drain): new transactions and writes fail fast with this error.
    /// Distinct from [`Error::Degraded`] — closing is an orderly, requested
    /// stop, not a fault.
    ///
    /// [`Database::close`]: https://docs.rs/ssi-core
    Closed,
}

impl PartialEq for Error {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Error::Aborted { kind, victim, .. },
                Error::Aborted {
                    kind: k2,
                    victim: v2,
                    ..
                },
            ) => kind == k2 && victim == v2,
            (Error::TransactionClosed, Error::TransactionClosed) => true,
            (Error::NoSuchTable(a), Error::NoSuchTable(b)) => a == b,
            (Error::TableExists(a), Error::TableExists(b)) => a == b,
            (Error::LockTimeout, Error::LockTimeout) => true,
            (Error::Internal(a), Error::Internal(b)) => a == b,
            (Error::Durability(a), Error::Durability(b)) => a == b,
            (Error::Degraded(a), Error::Degraded(b)) => a == b,
            (Error::Closed, Error::Closed) => true,
            _ => false,
        }
    }
}

impl Eq for Error {}

impl Error {
    /// Constructs an abort error of the given kind for `victim`, with the
    /// default provenance for that kind.
    pub fn abort(kind: AbortKind, victim: TxnId) -> Self {
        let reason = match kind {
            AbortKind::Deadlock => AbortReason::LockDeadlock,
            AbortKind::UpdateConflict => AbortReason::WriteConflict,
            AbortKind::Unsafe => AbortReason::UnsafeAtCommit,
            AbortKind::UserRequested => AbortReason::UserRollback,
        };
        Error::Aborted {
            kind,
            reason,
            victim,
        }
    }

    /// Constructs an abort error from its precise provenance; the coarse
    /// kind is derived via [`AbortReason::kind`].
    pub fn abort_with_reason(reason: AbortReason, victim: TxnId) -> Self {
        Error::Aborted {
            kind: reason.kind(),
            reason,
            victim,
        }
    }

    /// Shorthand for a deadlock abort.
    pub fn deadlock(victim: TxnId) -> Self {
        Error::abort(AbortKind::Deadlock, victim)
    }

    /// Shorthand for a first-committer-wins conflict abort.
    pub fn update_conflict(victim: TxnId) -> Self {
        Error::abort(AbortKind::UpdateConflict, victim)
    }

    /// Shorthand for an SSI "unsafe" abort.
    pub fn unsafe_abort(victim: TxnId) -> Self {
        Error::abort(AbortKind::Unsafe, victim)
    }

    /// Returns the abort classification if this error is an abort.
    pub fn abort_kind(&self) -> Option<AbortKind> {
        match self {
            Error::Aborted { kind, .. } => Some(*kind),
            _ => None,
        }
    }

    /// Returns the fine-grained provenance if this error is an abort.
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self {
            Error::Aborted { reason, .. } => Some(*reason),
            _ => None,
        }
    }

    /// The provenance the engine records when this error rolls a
    /// transaction back: aborts carry their own reason, lock timeouts and
    /// degraded-mode rejections map to their dedicated reasons, and every
    /// other error (application logic, catalog misuse) counts as a user
    /// rollback.
    pub fn rollback_provenance(&self) -> AbortReason {
        match self {
            Error::Aborted { reason, .. } => *reason,
            Error::LockTimeout => AbortReason::LockTimeout,
            Error::Degraded(_) | Error::Closed => AbortReason::DegradedRejected,
            _ => AbortReason::UserRollback,
        }
    }

    /// True if the operation may be retried in a fresh transaction (all
    /// concurrency-control aborts are retryable; catalog and usage errors are
    /// not).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::Aborted {
                kind: AbortKind::Deadlock | AbortKind::UpdateConflict | AbortKind::Unsafe,
                ..
            } | Error::LockTimeout
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Aborted {
                kind,
                reason,
                victim,
            } => {
                write!(f, "transaction {victim} aborted ({kind}: {reason})")
            }
            Error::TransactionClosed => write!(f, "transaction is no longer active"),
            Error::NoSuchTable(name) => write!(f, "no such table: {name}"),
            Error::TableExists(name) => write!(f, "table already exists: {name}"),
            Error::LockTimeout => write!(f, "lock wait timed out"),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
            Error::Durability(msg) => write!(f, "durability error: {msg}"),
            Error::Degraded(reason) => {
                write!(f, "database is degraded (read-only): {reason}")
            }
            Error::Closed => write!(f, "database is closed"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_constructors_carry_kind() {
        let t = TxnId(9);
        assert_eq!(Error::deadlock(t).abort_kind(), Some(AbortKind::Deadlock));
        assert_eq!(
            Error::update_conflict(t).abort_kind(),
            Some(AbortKind::UpdateConflict)
        );
        assert_eq!(Error::unsafe_abort(t).abort_kind(), Some(AbortKind::Unsafe));
        assert_eq!(Error::TransactionClosed.abort_kind(), None);
    }

    #[test]
    fn retryability() {
        let t = TxnId(1);
        assert!(Error::deadlock(t).is_retryable());
        assert!(Error::update_conflict(t).is_retryable());
        assert!(Error::unsafe_abort(t).is_retryable());
        assert!(Error::LockTimeout.is_retryable());
        assert!(!Error::abort(AbortKind::UserRequested, t).is_retryable());
        assert!(!Error::NoSuchTable("x".into()).is_retryable());
        assert!(!Error::Internal("bug".into()).is_retryable());
        assert!(!Error::Durability("disk".into()).is_retryable());
    }

    #[test]
    fn display_messages() {
        let msg = format!("{}", Error::unsafe_abort(TxnId(4)));
        assert!(msg.contains("T4"));
        assert!(msg.contains("unsafe"));
        assert_eq!(
            format!("{}", Error::NoSuchTable("acct".into())),
            "no such table: acct"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AbortKind::Deadlock.label(), "deadlock");
        assert_eq!(AbortKind::UpdateConflict.label(), "conflict");
        assert_eq!(AbortKind::Unsafe.label(), "unsafe");
        assert_eq!(AbortKind::UserRequested.label(), "user");
    }

    #[test]
    fn reason_index_roundtrips_and_labels_are_unique() {
        for (i, reason) in AbortReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), i);
            assert_eq!(AbortReason::from_index(i), Some(*reason));
        }
        assert_eq!(AbortReason::from_index(AbortReason::COUNT), None);
        let mut labels: Vec<&str> = AbortReason::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), AbortReason::COUNT);
    }

    #[test]
    fn reason_carries_through_errors_but_not_equality() {
        let t = TxnId(3);
        let a = Error::abort_with_reason(AbortReason::PivotIn, t);
        let b = Error::abort_with_reason(AbortReason::BasicFlagCheck, t);
        assert_eq!(a.abort_reason(), Some(AbortReason::PivotIn));
        assert_eq!(a.abort_kind(), Some(AbortKind::Unsafe));
        // Provenance is metadata: same kind + victim compare equal.
        assert_eq!(a, b);
        assert_ne!(a, Error::update_conflict(t));
        assert_eq!(
            Error::unsafe_abort(t).abort_reason(),
            Some(AbortReason::UnsafeAtCommit)
        );
        assert_eq!(
            Error::deadlock(t).abort_reason(),
            Some(AbortReason::LockDeadlock)
        );
    }

    #[test]
    fn rollback_provenance_covers_non_abort_errors() {
        let t = TxnId(1);
        assert_eq!(
            Error::update_conflict(t).rollback_provenance(),
            AbortReason::WriteConflict
        );
        assert_eq!(
            Error::LockTimeout.rollback_provenance(),
            AbortReason::LockTimeout
        );
        assert_eq!(
            Error::Degraded(DegradedReason::WalPoisoned).rollback_provenance(),
            AbortReason::DegradedRejected
        );
        assert_eq!(
            Error::NoSuchTable("x".into()).rollback_provenance(),
            AbortReason::UserRollback
        );
    }
}
