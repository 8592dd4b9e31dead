//! Identifier and timestamp types shared across the engine.

use std::fmt;

/// Logical timestamp drawn from the global transaction-manager counter.
///
/// Timestamps order both transaction begins and commits on a single axis, as
/// in the paper: a transaction `T` sees a version `v` iff `commit(creator(v))
/// <= begin(T)`. Timestamp `0` is reserved ("not yet assigned").
pub type Timestamp = u64;

/// The smallest timestamp; used as "not assigned" / "before everything".
pub const TS_ZERO: Timestamp = 0;

/// A timestamp larger than any the engine will ever assign.
pub const TS_INFINITY: Timestamp = u64::MAX;

/// Unique identifier of a transaction for the lifetime of a [`Database`].
///
/// Identifiers are never reused; they are assigned from a monotonically
/// increasing counter and are totally ordered by age (smaller id = older
/// transaction), which the victim-selection policies rely on.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Sentinel id used before a real id is known (never assigned to a live
    /// transaction).
    pub const INVALID: TxnId = TxnId(0);

    /// Returns the raw numeric id.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// True if this is the [`TxnId::INVALID`] sentinel.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a table within a database catalog.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

impl TableId {
    /// Returns the raw numeric id.
    #[inline]
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tbl{}", self.0)
    }
}

/// Isolation level requested when beginning a transaction.
///
/// The engine implements the three levels compared throughout the paper's
/// evaluation, plus a read-committed level used to demonstrate weak-isolation
/// anomalies in tests.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum IsolationLevel {
    /// Read committed: reads see the latest committed version at the time of
    /// the read; writes lock. Provided for completeness (Sec. 2.3 of the
    /// thesis discusses weak isolation); not part of the evaluation.
    ReadCommitted,
    /// Classic snapshot isolation (Sec. 2.5): reads from a begin-time
    /// snapshot, first-committer-wins on write/write conflicts, no read
    /// locks. Permits write skew.
    SnapshotIsolation,
    /// Serializable isolation implemented with strict two-phase locking
    /// (Sec. 2.2.1): shared read locks and exclusive write locks held until
    /// commit; a scan's range blocks the insert of a phantom into it.
    StrictTwoPhaseLocking,
    /// The paper's contribution (Ch. 3): snapshot isolation plus SIREAD
    /// locks and rw-antidependency tracking, aborting a transaction whenever
    /// two consecutive rw-edges are detected.
    #[default]
    SerializableSnapshotIsolation,
}

impl IsolationLevel {
    /// Short label used in benchmark reports ("SI", "SSI", "S2PL", "RC").
    pub fn label(self) -> &'static str {
        match self {
            IsolationLevel::ReadCommitted => "RC",
            IsolationLevel::SnapshotIsolation => "SI",
            IsolationLevel::StrictTwoPhaseLocking => "S2PL",
            IsolationLevel::SerializableSnapshotIsolation => "SSI",
        }
    }

    /// True for levels that read from a begin-time snapshot (SI and SSI).
    pub fn uses_snapshot(self) -> bool {
        matches!(
            self,
            IsolationLevel::SnapshotIsolation | IsolationLevel::SerializableSnapshotIsolation
        )
    }

    /// True for the level that acquires blocking shared read locks.
    pub fn uses_read_locks(self) -> bool {
        matches!(self, IsolationLevel::StrictTwoPhaseLocking)
    }

    /// All levels exercised by the paper's evaluation, in the order the
    /// figures list them.
    pub fn evaluated() -> [IsolationLevel; 3] {
        [
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::SerializableSnapshotIsolation,
            IsolationLevel::StrictTwoPhaseLocking,
        ]
    }
}

impl fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_id_ordering_matches_age() {
        let older = TxnId(3);
        let younger = TxnId(10);
        assert!(older < younger);
        assert!(older.is_valid());
        assert!(!TxnId::INVALID.is_valid());
    }

    #[test]
    fn txn_id_display() {
        assert_eq!(format!("{}", TxnId(42)), "T42");
        assert_eq!(format!("{:?}", TxnId(42)), "T42");
    }

    #[test]
    fn table_id_debug() {
        assert_eq!(format!("{:?}", TableId(7)), "tbl7");
        assert_eq!(TableId(7).as_u32(), 7);
    }

    #[test]
    fn isolation_labels_are_distinct() {
        let mut labels: Vec<&str> = IsolationLevel::evaluated()
            .iter()
            .map(|l| l.label())
            .collect();
        labels.push(IsolationLevel::ReadCommitted.label());
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn snapshot_levels() {
        assert!(IsolationLevel::SnapshotIsolation.uses_snapshot());
        assert!(IsolationLevel::SerializableSnapshotIsolation.uses_snapshot());
        assert!(!IsolationLevel::StrictTwoPhaseLocking.uses_snapshot());
        assert!(IsolationLevel::StrictTwoPhaseLocking.uses_read_locks());
        assert!(!IsolationLevel::SnapshotIsolation.uses_read_locks());
    }

    #[test]
    fn default_is_ssi() {
        assert_eq!(
            IsolationLevel::default(),
            IsolationLevel::SerializableSnapshotIsolation
        );
    }

    #[test]
    fn timestamp_constants() {
        assert_eq!(TS_ZERO, 0);
        assert_eq!(TS_INFINITY, u64::MAX);
    }
}
