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
//!
//! # The payload lives in the version
//!
//! A version is one allocation: its header (creator, commit stamp) and its
//! payload together, as a Hekaton record is (Diaconu et al., SIGMOD 2013).
//! A value of up to [`INLINE_CAPACITY`] (22) bytes is copied into the
//! version itself, which keeps the `Arc<Version>` at 56 bytes — one 64-byte
//! malloc chunk, the size the version had before it carried any bytes. A
//! larger value (a TPC-C++ row) is one more allocation, an `Arc<[u8]>`
//! beside the version. An empty value is a value, not a tombstone.
//!
//! A reader gets a [`Value`]: a handle on the version it read that derefs
//! to the payload. Handing one out is a refcount bump on the version — no
//! byte copy, no allocation — and the bytes stay valid for as long as the
//! handle lives, whatever happens to the chain meanwhile.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ssi_common::{Timestamp, TxnId, TS_ZERO};

/// Largest payload stored inside its version; a longer one goes to the heap.
/// 22 bytes plus a length byte and the tag fill the 24 bytes a heap handle
/// takes anyway.
pub const INLINE_CAPACITY: usize = 22;

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

/// What a version holds: nothing (a deletion), a short value inside the
/// version, or a long one on the heap. 24 bytes.
#[derive(Debug)]
enum Payload {
    Tombstone,
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAPACITY],
    },
    Heap(Arc<[u8]>),
}

impl Payload {
    fn new(value: Option<&[u8]>) -> Self {
        match value {
            None => Payload::Tombstone,
            Some(value) if value.len() <= INLINE_CAPACITY => {
                let mut bytes = [0; INLINE_CAPACITY];
                bytes[..value.len()].copy_from_slice(value);
                Payload::Inline {
                    len: value.len() as u8,
                    bytes,
                }
            }
            Some(value) => Payload::Heap(Arc::from(value)),
        }
    }

    fn value(&self) -> Option<&[u8]> {
        match self {
            Payload::Tombstone => None,
            Payload::Inline { len, bytes } => Some(&bytes[..usize::from(*len)]),
            Payload::Heap(bytes) => Some(bytes),
        }
    }
}

/// One version of one row.
#[derive(Debug)]
pub struct Version {
    /// Transaction that created this version.
    creator: TxnId,
    /// Commit timestamp of the creator; [`TS_ZERO`] while uncommitted,
    /// [`ABORTED_SENTINEL`] once rolled back.
    commit_ts: AtomicU64,
    /// Row payload (module docs, § The payload lives in the version).
    payload: Payload,
}

impl Version {
    /// Creates an uncommitted version holding a copy of `value`; `None` is a
    /// deletion tombstone.
    pub fn new(creator: TxnId, value: Option<&[u8]>) -> Self {
        Version {
            creator,
            commit_ts: AtomicU64::new(TS_ZERO),
            payload: Payload::new(value),
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
        self.payload.value()
    }

    /// Zero-copy handle to the payload: a refcount bump on the version,
    /// never a copy of the bytes. `None` for tombstones.
    #[inline]
    pub fn value_handle(self: &Arc<Self>) -> Option<Value> {
        (!self.is_tombstone()).then(|| Value(Arc::clone(self)))
    }

    /// True if this version is a deletion tombstone.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        matches!(self.payload, Payload::Tombstone)
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

/// The value a read returned: a handle on the version that holds it, which
/// derefs to the payload bytes. Cloning it is a refcount bump.
#[derive(Clone)]
pub struct Value(Arc<Version>);

impl Value {
    /// The version the value belongs to.
    #[cfg(test)]
    pub(crate) fn version(&self) -> &Arc<Version> {
        &self.0
    }
}

impl Deref for Value {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        // Only a version with a value hands out a `Value`.
        self.0.value().unwrap_or_default()
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        **self == **other
    }
}

impl Eq for Value {}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
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
        let v = Version::new(t(1), Some(&[1]));
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
        let v = Version::new(t(1), Some(&[1]));
        assert!(v.visible_to(t(1), 100));
        assert!(!v.visible_to(t(2), 100));
        assert!(v.visible_to_read_committed(t(1)));
        assert!(!v.visible_to_read_committed(t(2)));
    }

    #[test]
    fn committed_visibility_respects_snapshot() {
        let v = Version::new(t(1), Some(&[1]));
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
        let v = Version::new(t(1), Some(&[1]));
        v.mark_aborted();
        assert!(!v.visible_to(t(1), 100));
        assert!(!v.visible_to(t(2), 100));
        assert!(!v.visible_to_read_committed(t(1)));
    }

    #[test]
    fn the_stamp_goes_from_uncommitted_straight_to_committed() {
        let v = Version::new(t(1), Some(&[1]));
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
        let v2 = Version::new(t(2), Some(&[2]));
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

    #[test]
    fn a_value_of_up_to_22_bytes_lives_in_the_version() {
        // The `Arc<Version>` is 56 bytes with its two counts: one 64-byte
        // malloc chunk, whatever the payload.
        assert_eq!(std::mem::size_of::<Payload>(), 24);
        assert_eq!(std::mem::size_of::<Version>() + 16, 56);
        let at = |len: usize| Version::new(t(1), Some(&vec![7; len]));
        for len in [0, 1, 8, INLINE_CAPACITY] {
            let v = at(len);
            assert!(matches!(v.payload, Payload::Inline { .. }), "{len} bytes");
            assert_eq!(v.value(), Some(&vec![7; len][..]));
        }
        for len in [INLINE_CAPACITY + 1, 128] {
            let v = at(len);
            assert!(matches!(v.payload, Payload::Heap(_)), "{len} bytes");
            assert_eq!(v.value(), Some(&vec![7; len][..]));
        }
    }

    #[test]
    fn an_empty_value_is_not_a_tombstone() {
        let empty = Arc::new(Version::new(t(1), Some(&[])));
        assert!(!empty.is_tombstone());
        assert_eq!(empty.value(), Some(&[][..]));
        let handle = empty.value_handle().expect("an empty value is a value");
        assert!(handle.is_empty());
        let tombstone = Arc::new(Version::new(t(1), None));
        assert!(tombstone.value_handle().is_none());
    }

    #[test]
    fn a_value_handle_is_the_version_itself() {
        for len in [8, 64] {
            let v = Arc::new(Version::new(t(1), Some(&vec![3; len])));
            let (a, b) = (v.value_handle().unwrap(), v.value_handle().unwrap());
            assert!(Arc::ptr_eq(a.version(), &v) && Arc::ptr_eq(b.version(), &v));
            assert_eq!(Arc::strong_count(&v), 3, "a handle is a refcount bump");
            assert_eq!(a.as_ptr(), v.value().unwrap().as_ptr(), "no copy");
            assert_eq!(a, b);
            assert_eq!(&a[..], &vec![3; len][..]);
        }
    }
}
