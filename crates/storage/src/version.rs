//! Row versions and snapshot visibility.
//!
//! Every write installs a new [`Version`] at the head of the key's version
//! chain. A version starts out *uncommitted* (visible only to its creator);
//! once the creating transaction's commit has settled, the engine stamps the
//! version with the creator's commit timestamp, which makes all of that
//! transaction's versions visible "instantaneously" to any transaction whose
//! snapshot is at or after that timestamp (Sec. 2.5 of the thesis). A stamp
//! is final: a version goes from uncommitted straight to committed, so no
//! reader ever meets one that can still roll back. Aborting a transaction
//! removes its uncommitted versions.
//!
//! Deletes install a *tombstone* version: a version with no value. Tombstones
//! participate in visibility exactly like ordinary versions, which is what
//! lets a snapshot continue to see a row that a concurrent transaction has
//! deleted, and what lets Serializable SI detect the rw-dependency when a
//! read observes that a newer (tombstone) version exists (Sec. 3.5).

use std::sync::atomic::{AtomicU64, Ordering};

use ssi_common::{Bytes, Timestamp, TxnId, TS_ZERO};

/// Lifecycle state of a version, derived from its commit-timestamp cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VersionState {
    /// The creating transaction has not committed yet.
    Uncommitted,
    /// The creating transaction committed at the contained timestamp.
    Committed(Timestamp),
    /// The creating transaction aborted; the version is logically absent and
    /// will be unlinked from the chain.
    Aborted,
}

/// Sentinel stored in the commit-timestamp cell of aborted versions.
const ABORTED_SENTINEL: u64 = u64::MAX;

/// One version of one row.
#[derive(Debug)]
pub struct Version {
    /// Transaction that created this version.
    creator: TxnId,
    /// Commit timestamp of the creator; [`TS_ZERO`] while uncommitted,
    /// [`ABORTED_SENTINEL`] once rolled back.
    commit_ts: AtomicU64,
    /// Row payload; `None` is a deletion tombstone. The payload is a
    /// reference-counted slice so readers can return a handle to it (a
    /// refcount bump) instead of copying the bytes.
    value: Option<Bytes>,
}

impl Version {
    /// Creates an uncommitted version holding `value` (shared, not copied).
    pub fn new(creator: TxnId, value: Option<Bytes>) -> Self {
        Version {
            creator,
            commit_ts: AtomicU64::new(TS_ZERO),
            value,
        }
    }

    /// Transaction that created the version.
    #[inline]
    pub fn creator(&self) -> TxnId {
        self.creator
    }

    /// The version's payload; `None` for tombstones.
    #[inline]
    pub fn value(&self) -> Option<&[u8]> {
        self.value.as_deref()
    }

    /// Zero-copy handle to the payload: clones the refcounted pointer
    /// without touching the bytes. `None` for tombstones.
    #[inline]
    pub fn value_handle(&self) -> Option<Bytes> {
        self.value.clone()
    }

    /// True if this version is a deletion tombstone.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.value.is_none()
    }

    /// Current lifecycle state.
    #[inline]
    pub fn state(&self) -> VersionState {
        match self.commit_ts.load(Ordering::Acquire) {
            TS_ZERO => VersionState::Uncommitted,
            ABORTED_SENTINEL => VersionState::Aborted,
            ts => VersionState::Committed(ts),
        }
    }

    /// Commit timestamp if committed.
    #[inline]
    pub fn commit_ts(&self) -> Option<Timestamp> {
        match self.state() {
            VersionState::Committed(ts) => Some(ts),
            _ => None,
        }
    }

    /// Stamps the version with its creator's commit timestamp. Called by the
    /// engine once the creator's commit has settled, so the stamp is final.
    pub fn mark_committed(&self, ts: Timestamp) {
        debug_assert!(ts != TS_ZERO && ts != ABORTED_SENTINEL);
        self.commit_ts.store(ts, Ordering::Release);
    }

    /// Marks the version as rolled back. The table will unlink it; until
    /// then it is invisible to everyone (including its creator).
    pub fn mark_aborted(&self) {
        self.commit_ts.store(ABORTED_SENTINEL, Ordering::Release);
    }

    /// Snapshot-isolation visibility check: a version is visible to a reader
    /// with snapshot `snapshot_ts` if the reader created it, or if it
    /// committed at or before the snapshot (Sec. 2.5: "produced by the last
    /// to commit among the transactions that committed before T started").
    #[inline]
    pub fn visible_to(&self, reader: TxnId, snapshot_ts: Timestamp) -> bool {
        match self.state() {
            VersionState::Uncommitted => self.creator == reader,
            VersionState::Committed(ts) => ts <= snapshot_ts || self.creator == reader,
            VersionState::Aborted => false,
        }
    }

    /// Read-committed visibility: the latest committed version regardless of
    /// snapshot, plus the reader's own writes.
    #[inline]
    pub fn visible_to_read_committed(&self, reader: TxnId) -> bool {
        match self.state() {
            VersionState::Uncommitted => self.creator == reader,
            VersionState::Committed(_) => true,
            VersionState::Aborted => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64) -> TxnId {
        TxnId(id)
    }

    #[test]
    fn lifecycle_states() {
        let v = Version::new(t(1), Some(vec![1].into()));
        assert_eq!(v.state(), VersionState::Uncommitted);
        assert_eq!(v.commit_ts(), None);
        v.mark_committed(10);
        assert_eq!(v.state(), VersionState::Committed(10));
        assert_eq!(v.commit_ts(), Some(10));
        let v2 = Version::new(t(2), None);
        v2.mark_aborted();
        assert_eq!(v2.state(), VersionState::Aborted);
    }

    #[test]
    fn uncommitted_visible_only_to_creator() {
        let v = Version::new(t(1), Some(vec![1].into()));
        assert!(v.visible_to(t(1), 100));
        assert!(!v.visible_to(t(2), 100));
        assert!(v.visible_to_read_committed(t(1)));
        assert!(!v.visible_to_read_committed(t(2)));
    }

    #[test]
    fn committed_visibility_respects_snapshot() {
        let v = Version::new(t(1), Some(vec![1].into()));
        v.mark_committed(50);
        assert!(v.visible_to(t(2), 50));
        assert!(v.visible_to(t(2), 99));
        assert!(!v.visible_to(t(2), 49));
        // The creator always sees its own write even with an older snapshot.
        assert!(v.visible_to(t(1), 1));
        // Read committed sees it regardless of snapshot.
        assert!(v.visible_to_read_committed(t(2)));
    }

    #[test]
    fn aborted_versions_are_invisible() {
        let v = Version::new(t(1), Some(vec![1].into()));
        v.mark_aborted();
        assert!(!v.visible_to(t(1), 100));
        assert!(!v.visible_to(t(2), 100));
        assert!(!v.visible_to_read_committed(t(1)));
    }

    #[test]
    fn the_stamp_goes_from_uncommitted_straight_to_committed() {
        let v = Version::new(t(1), Some(vec![1].into()));
        // Until its creator has settled, a version is invisible to others
        // however far their snapshot reaches; its creator sees it.
        assert!(!v.visible_to(t(2), u64::MAX - 1));
        assert!(v.visible_to(t(1), 1));
        assert!(!v.visible_to_read_committed(t(2)));
        // The one stamp makes it visible from its timestamp on.
        v.mark_committed(10);
        assert_eq!(v.state(), VersionState::Committed(10));
        assert!(!v.visible_to(t(2), 9));
        assert!(v.visible_to(t(2), 10));
        assert!(v.visible_to_read_committed(t(2)));
        // A creator that fails to settle aborts an uncommitted version.
        let v2 = Version::new(t(2), Some(vec![2].into()));
        v2.mark_aborted();
        assert_eq!(v2.state(), VersionState::Aborted);
        assert!(!v2.visible_to(t(3), u64::MAX - 1));
    }

    #[test]
    fn tombstones_are_versions_too() {
        let v = Version::new(t(3), None);
        assert!(v.is_tombstone());
        v.mark_committed(7);
        assert!(v.visible_to(t(4), 8));
        assert_eq!(v.value(), None);
    }
}
