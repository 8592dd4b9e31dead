//! Range SIREADs: the predicate lock of a Serializable-SI scan, kept as the
//! predicate.
//!
//! A range scan has to be found by every later write that changes what the
//! scan would return: a new key, a new version of a row, a tombstone. What
//! the writer looks for is therefore *the scan* — `(lower, upper, holder)` —
//! and not a registration on each row and gap the scan happened to list. A
//! [`RangeReaders`] is the list of the live scans of one ordered key space (a
//! table's keys, or a secondary index's entries); a writer that makes a
//! version reachable in that space asks it which of them contain the key. An
//! SIREAD never blocks, so no predicate ever has to be tested against another
//! for satisfiability, only a key against bounds.
//!
//! Compared with next-key locking the range stops at the scan's own bounds,
//! not at the neighbouring keys, and a key inserted later is covered by
//! containment: nothing is inherited, merged or split when keys come and go.
//!
//! **Cost, stated where it is paid.** A write to a key space with live ranges
//! compares its key with each of them: O(live Serializable-SI scans of that
//! table or index), under one leaf mutex — instead of O(rows) work on the
//! scanner and on whoever reclaims it. A key space that is never scanned at
//! Serializable SI pays one relaxed load per write. The list is a `Vec`:
//! whether a table with dozens of concurrent short range scans wants an
//! ordered structure here is a question for a benchmark that has one.
//!
//! **Locking.** The mutex is a leaf: register and release take it alone, a
//! writer takes it while it holds the chain mutex or the ordered-index write
//! lock that made its version reachable (`crate::table`, § Locking protocol),
//! and nothing is ever acquired under it.

use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ssi_common::TxnId;

use crate::table::{as_ref_bound, clone_bound, RowReaders};

struct Range {
    /// Names the registration for its [`RangeHandle`].
    token: u64,
    lower: Bound<Vec<u8>>,
    upper: Bound<Vec<u8>>,
    holder: TxnId,
}

impl Range {
    fn bounds(&self) -> (Bound<&[u8]>, Bound<&[u8]>) {
        (as_ref_bound(&self.lower), as_ref_bound(&self.upper))
    }

    /// True if every key of `(lower, upper)` lies in this range.
    fn covers(&self, lower: Bound<&[u8]>, upper: Bound<&[u8]>) -> bool {
        let (mine_lower, mine_upper) = self.bounds();
        let below = match (mine_lower, lower) {
            (Bound::Unbounded, _) => true,
            (_, Bound::Unbounded) => false,
            (Bound::Excluded(mine), Bound::Included(theirs)) => mine < theirs,
            (
                Bound::Included(mine) | Bound::Excluded(mine),
                Bound::Included(theirs) | Bound::Excluded(theirs),
            ) => mine <= theirs,
        };
        let above = match (mine_upper, upper) {
            (Bound::Unbounded, _) => true,
            (_, Bound::Unbounded) => false,
            (Bound::Excluded(mine), Bound::Included(theirs)) => mine > theirs,
            (
                Bound::Included(mine) | Bound::Excluded(mine),
                Bound::Included(theirs) | Bound::Excluded(theirs),
            ) => mine >= theirs,
        };
        below && above
    }
}

#[derive(Default)]
struct Ranges {
    live: Vec<Range>,
    next_token: u64,
}

/// The live Serializable-SI range scans of one ordered key space. See the
/// module docs.
#[derive(Default)]
pub(crate) struct RangeReaders {
    /// `ranges.live.len()`, stored under the mutex. A writer reads it
    /// (`Relaxed`) inside the critical section that made its version
    /// reachable and skips the mutex at zero. The pairing that makes this
    /// enough is not on this word but on that critical section's lock: a scan
    /// registers before it lists a key or reads a row, so whichever of the
    /// chain mutex and the ordered-index lock the scan and the writer meet
    /// on, a writer that comes second there has the scan's store before it.
    count: AtomicUsize,
    ranges: Mutex<Ranges>,
}

impl RangeReaders {
    /// Makes `reader` the holder of `(lower, upper)`. `None`, and nothing
    /// registered, if it already holds a range here that covers this one: a
    /// repeated scan costs one walk of the list.
    pub(crate) fn register(
        self: &Arc<Self>,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        reader: TxnId,
    ) -> Option<RangeHandle> {
        debug_assert!(reader.is_valid());
        let mut ranges = self.ranges.lock();
        let mut held = ranges.live.iter().filter(|range| range.holder == reader);
        if held.any(|range| range.covers(lower, upper)) {
            return None;
        }
        let token = ranges.next_token;
        ranges.next_token += 1;
        ranges.live.push(Range {
            token,
            lower: clone_bound(lower),
            upper: clone_bound(upper),
            holder: reader,
        });
        self.count.store(ranges.live.len(), Ordering::Relaxed);
        Some(RangeHandle {
            of: Arc::clone(self),
            token,
        })
    }

    /// Appends to `readers` the holders, other than `writer`, of every live
    /// range that contains `key`. Called by the writer of a version of `key`
    /// inside the critical section that made the version reachable.
    #[inline]
    pub(crate) fn report_to(&self, key: &[u8], writer: TxnId, readers: &mut RowReaders) {
        if self.count.load(Ordering::Relaxed) != 0 {
            self.report_slow(key, writer, readers);
        }
    }

    #[cold]
    fn report_slow(&self, key: &[u8], writer: TxnId, readers: &mut RowReaders) {
        for range in &self.ranges.lock().live {
            let told = range.holder == writer || readers.contains(&range.holder);
            if !told && range.bounds().contains(key) {
                readers.push(range.holder);
            }
        }
    }

    /// Number of live registrations, for leak checks.
    pub(crate) fn len(&self) -> usize {
        self.ranges.lock().live.len()
    }
}

/// One range registration, kept by the transaction that made it and released
/// through it when the transaction aborts or is cleaned up: a range is on the
/// list exactly while its holder is active or committed-and-suspended, that
/// is, while a transaction that could still conflict with it may be left.
pub struct RangeHandle {
    of: Arc<RangeReaders>,
    token: u64,
}

impl RangeHandle {
    /// Removes the registration. Returns whether it was there.
    pub fn release(&self) -> bool {
        let mut ranges = self.of.ranges.lock();
        let Some(at) = ranges.live.iter().position(|r| r.token == self.token) else {
            return false;
        };
        ranges.live.swap_remove(at);
        self.of.count.store(ranges.live.len(), Ordering::Relaxed);
        true
    }
}

impl std::fmt::Debug for RangeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RangeHandle")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64) -> TxnId {
        TxnId(id)
    }

    fn told(ranges: &RangeReaders, key: &[u8], writer: TxnId) -> Vec<TxnId> {
        let mut readers = RowReaders::new();
        ranges.report_to(key, writer, &mut readers);
        let mut readers = readers.to_vec();
        readers.sort();
        readers
    }

    #[test]
    fn a_writer_is_told_of_the_ranges_that_contain_its_key() {
        let ranges = Arc::new(RangeReaders::default());
        assert!(told(&ranges, b"m", t(9)).is_empty());
        let all = ranges.register(Bound::Unbounded, Bound::Unbounded, t(1));
        let b_to_f = ranges.register(Bound::Included(b"b"), Bound::Excluded(b"f"), t(2));
        let above_m = ranges.register(Bound::Excluded(b"m"), Bound::Unbounded, t(3));
        let (all, b_to_f, above_m) = (all.unwrap(), b_to_f.unwrap(), above_m.unwrap());
        assert_eq!(ranges.len(), 3);
        // The bounds are the scan's own: closed where it was, open where not.
        assert_eq!(told(&ranges, b"a", t(9)), vec![t(1)]);
        assert_eq!(told(&ranges, b"b", t(9)), vec![t(1), t(2)]);
        assert_eq!(told(&ranges, b"f", t(9)), vec![t(1)]);
        assert_eq!(told(&ranges, b"m", t(9)), vec![t(1)]);
        assert_eq!(told(&ranges, b"m0", t(9)), vec![t(1), t(3)]);
        // A scanner that writes inside its own range is not its own reader.
        assert_eq!(told(&ranges, b"c", t(2)), vec![t(1)]);
        // Nobody is told of twice, whoever told first.
        let mut readers = RowReaders::new();
        readers.push(t(1));
        ranges.report_to(b"c", t(9), &mut readers);
        assert_eq!(readers, vec![t(1), t(2)]);
        // Release is exact, and the fast path comes back with the last one.
        assert!(b_to_f.release() && !b_to_f.release());
        assert_eq!(told(&ranges, b"c", t(9)), vec![t(1)]);
        assert!(all.release() && above_m.release());
        assert_eq!((ranges.len(), ranges.count.load(Ordering::Relaxed)), (0, 0));
    }

    #[test]
    fn a_range_the_holder_already_covers_registers_nothing() {
        let ranges = Arc::new(RangeReaders::default());
        let b_to_f = ranges.register(Bound::Included(b"b"), Bound::Excluded(b"f"), t(1));
        let b_to_f = b_to_f.unwrap();
        let again = |lower, upper| ranges.register(lower, upper, t(1));
        assert!(again(Bound::Included(b"b"), Bound::Excluded(b"f")).is_none());
        assert!(again(Bound::Excluded(b"b"), Bound::Included(b"e")).is_none());
        assert!(again(Bound::Included(b"c"), Bound::Included(b"c")).is_none());
        // One key more at either end is a range of its own; so is anybody
        // else's.
        let wider = [
            again(Bound::Included(b"b"), Bound::Included(b"f")),
            again(Bound::Included(b"a"), Bound::Excluded(b"f")),
            again(Bound::Unbounded, Bound::Excluded(b"c")),
            again(Bound::Included(b"c"), Bound::Unbounded),
            ranges.register(Bound::Included(b"c"), Bound::Included(b"c"), t(2)),
        ];
        assert_eq!(ranges.len(), 6);
        // Once it holds everything, everything is covered.
        let all = again(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(again(Bound::Unbounded, Bound::Excluded(b"c")).is_none());
        assert!(again(Bound::Unbounded, Bound::Unbounded).is_none());
        for handle in wider.into_iter().flatten().chain([b_to_f, all]) {
            assert!(handle.release());
        }
        assert_eq!(ranges.len(), 0);
    }
}
