//! Range registrations: the predicate lock of a scan, kept as the predicate.
//!
//! A range scan has to be found by every later write that changes what the
//! scan would return: a new key, a new version of a row, a tombstone. What
//! the writer looks for is therefore *the scan* — `(lower, upper, holder)` —
//! and not a registration on each row and gap the scan happened to list. A
//! [`RangeReaders`] is the list of the live scans of one ordered key space (a
//! table's keys, or a secondary index's entries); a writer that makes a
//! version reachable in that space asks it which of them contain the key.
//! This is the predicate lock of Eswaran et al. (CACM 1976) with the only
//! predicate scans have, an interval: no predicate is ever tested against
//! another for satisfiability, only a key against bounds.
//!
//! A registration has one of two [`RangeMode`]s, the scanner's level's:
//!
//! * **`SiRead`**, a Serializable-SI scan's. It never blocks. Every install of
//!   a version of a key in the range — a new key, an update, a tombstone —
//!   reports the holder, which then has an rw-antidependency on the writer.
//! * **`Shared`**, an S2PL scan's. No key or entry may *enter* the range while
//!   it is held. Only the critical section that links a key new to the space
//!   (the first version of a key, into a table's ordered index or onto a
//!   chain that holds none; an entry at refcount 0 → 1, into an index's
//!   entry map) reports its holders: a key that is already there was listed
//!   by the scan, which holds — or will take, after the writer — the SHARED
//!   record lock that orders the two. A writer told of a `Shared` holder has
//!   to **undo, then wait**: mark its version aborted and unlink it, exactly
//!   as a rollback would, wait for the holder outside every storage lock,
//!   and install again. It never waits with a version in the chain, so a
//!   scanner that lists its range again meanwhile finds no key there — or a
//!   chain without a version, which it skips — and cannot deadlock against
//!   it.
//!
//! Compared with next-key locking the range stops at the scan's own bounds,
//! not at the neighbouring keys, and a key inserted later is covered by
//! containment: nothing is inherited, merged or split when keys come and go.
//! A `Shared` range covers the whole range from the scan's start until its
//! holder finishes, where a next-key lock covered only what the scan had
//! passed; a link racing the listing of the same key can end in a detected
//! deadlock (the scanner waits for the key's EXCLUSIVE lock, the writer for
//! the scanner), the only one next-key locking did not have. At page
//! granularity nothing registers a range.
//!
//! **Cost, stated where it is paid.** A write to a key space with live ranges
//! compares its key with each of them: O(live range scans of that table or
//! index), under one leaf mutex — instead of O(rows) work on the scanner and
//! on whoever reclaims it. A key space that is never scanned at Serializable
//! SI or S2PL pays one relaxed load per write. The list is a `Vec`: whether a
//! table with dozens of concurrent short range scans wants an ordered
//! structure here is a question for a benchmark that has one.
//!
//! **Locking.** The mutex is a leaf: register and release take it alone, a
//! writer takes it while it holds the chain mutex, the ordered-index write
//! lock or the index entry map's write lock that made its version or entry
//! reachable (`crate::table`, § Locking protocol), and nothing is ever
//! acquired under it.

use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use ssi_common::TxnId;

use crate::table::{as_ref_bound, clone_bound, RowReaders};

/// What a range registration does to the writers it concerns (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RangeMode {
    /// A Serializable-SI scan's SIREAD: reported to every install in it.
    SiRead,
    /// An S2PL scan's blocking range: reported to a link into it only.
    Shared,
}

struct Range {
    /// Names the registration for its [`RangeHandle`].
    token: u64,
    lower: Bound<Vec<u8>>,
    upper: Bound<Vec<u8>>,
    holder: TxnId,
    mode: RangeMode,
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

/// The live range scans of one ordered key space. See the module docs.
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
    /// Makes `reader` the holder of `(lower, upper)` in `mode`. `None`, and
    /// nothing registered, if it already holds a range of that mode here that
    /// covers this one: a repeated scan costs one walk of the list.
    pub(crate) fn register(
        self: &Arc<Self>,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        reader: TxnId,
        mode: RangeMode,
    ) -> Option<RangeHandle> {
        debug_assert!(reader.is_valid());
        let mut ranges = self.ranges.lock();
        let mut held = ranges
            .live
            .iter()
            .filter(|range| range.holder == reader && range.mode == mode);
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
            mode,
        });
        self.count.store(ranges.live.len(), Ordering::Relaxed);
        Some(RangeHandle {
            of: Arc::clone(self),
            token,
        })
    }

    /// Appends to `readers` the holders, other than `writer`, of every live
    /// [`RangeMode::SiRead`] range that contains `key`, and — when `key` was
    /// just linked into this space, which the caller says by passing
    /// `blockers` — to `blockers` those of every [`RangeMode::Shared`] range
    /// that contains it. Called by the writer of a version of `key` inside the
    /// critical section that made the version reachable.
    #[inline]
    pub(crate) fn report_to(
        &self,
        key: &[u8],
        writer: TxnId,
        readers: &mut RowReaders,
        blockers: Option<&mut RowReaders>,
    ) {
        if self.count.load(Ordering::Relaxed) != 0 {
            self.report_slow(key, writer, readers, blockers);
        }
    }

    #[cold]
    fn report_slow(
        &self,
        key: &[u8],
        writer: TxnId,
        readers: &mut RowReaders,
        mut blockers: Option<&mut RowReaders>,
    ) {
        for range in &self.ranges.lock().live {
            let told = match range.mode {
                RangeMode::SiRead => &mut *readers,
                RangeMode::Shared => match blockers.as_deref_mut() {
                    Some(blockers) => blockers,
                    None => continue,
                },
            };
            let skip = range.holder == writer || told.contains(&range.holder);
            if !skip && range.bounds().contains(key) {
                told.push(range.holder);
            }
        }
    }

    /// Number of live registrations, for leak checks.
    pub(crate) fn len(&self) -> usize {
        self.ranges.lock().live.len()
    }
}

/// One range registration, kept by the transaction that made it and released
/// through it: an `SiRead` range when its holder aborts or is cleaned up — it
/// is on the list exactly while its holder is active or
/// committed-and-suspended, that is, while a transaction that could still
/// conflict with it may be left — and a `Shared` range when its holder
/// commits or aborts, before its locks.
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
    use ssi_common::rng::WorkloadRng;

    fn t(id: u64) -> TxnId {
        TxnId(id)
    }

    /// Who an install of `key` by `writer` is told of: the `SiRead` holders
    /// and, for a link, the `Shared` ones.
    fn told(ranges: &RangeReaders, key: &[u8], writer: TxnId, link: bool) -> [Vec<TxnId>; 2] {
        let (mut readers, mut blockers) = (RowReaders::new(), RowReaders::new());
        ranges.report_to(key, writer, &mut readers, link.then_some(&mut blockers));
        [readers, blockers].map(|ids| {
            let mut ids = ids.to_vec();
            ids.sort();
            ids
        })
    }

    /// The `SiRead` holders told of an install of `key` by `writer`.
    fn sireads(ranges: &RangeReaders, key: &[u8], writer: TxnId) -> Vec<TxnId> {
        let [readers, blockers] = told(ranges, key, writer, false);
        assert!(blockers.is_empty());
        readers
    }

    #[test]
    fn a_writer_is_told_of_the_ranges_that_contain_its_key() {
        let ranges = Arc::new(RangeReaders::default());
        assert!(sireads(&ranges, b"m", t(9)).is_empty());
        let register = |lower, upper, holder| {
            let handle = ranges.register(lower, upper, t(holder), RangeMode::SiRead);
            handle.expect("registers")
        };
        let all = register(Bound::Unbounded, Bound::Unbounded, 1);
        let b_to_f = register(Bound::Included(b"b"), Bound::Excluded(b"f"), 2);
        let above_m = register(Bound::Excluded(b"m"), Bound::Unbounded, 3);
        assert_eq!(ranges.len(), 3);
        // The bounds are the scan's own: closed where it was, open where not.
        assert_eq!(sireads(&ranges, b"a", t(9)), vec![t(1)]);
        assert_eq!(sireads(&ranges, b"b", t(9)), vec![t(1), t(2)]);
        assert_eq!(sireads(&ranges, b"f", t(9)), vec![t(1)]);
        assert_eq!(sireads(&ranges, b"m", t(9)), vec![t(1)]);
        assert_eq!(sireads(&ranges, b"m0", t(9)), vec![t(1), t(3)]);
        // A scanner that writes inside its own range is not its own reader.
        assert_eq!(sireads(&ranges, b"c", t(2)), vec![t(1)]);
        // Nobody is told of twice, whoever told first.
        let mut readers = RowReaders::new();
        readers.push(t(1));
        ranges.report_to(b"c", t(9), &mut readers, None);
        assert_eq!(readers, vec![t(1), t(2)]);
        // Release is exact, and the fast path comes back with the last one.
        assert!(b_to_f.release() && !b_to_f.release());
        assert_eq!(sireads(&ranges, b"c", t(9)), vec![t(1)]);
        assert!(all.release() && above_m.release());
        assert_eq!((ranges.len(), ranges.count.load(Ordering::Relaxed)), (0, 0));
    }

    #[test]
    fn a_range_the_holder_already_covers_registers_nothing() {
        let ranges = Arc::new(RangeReaders::default());
        let again = |lower, upper| ranges.register(lower, upper, t(1), RangeMode::SiRead);
        let b_to_f = again(Bound::Included(b"b"), Bound::Excluded(b"f")).unwrap();
        assert!(again(Bound::Included(b"b"), Bound::Excluded(b"f")).is_none());
        assert!(again(Bound::Excluded(b"b"), Bound::Included(b"e")).is_none());
        assert!(again(Bound::Included(b"c"), Bound::Included(b"c")).is_none());
        // One key more at either end is a range of its own; so is anybody
        // else's, and the holder's own in the other mode — which then covers
        // a repeat in that mode.
        let c = Bound::Included(&b"c"[..]);
        let wider = [
            again(Bound::Included(b"b"), Bound::Included(b"f")),
            again(Bound::Included(b"a"), Bound::Excluded(b"f")),
            again(Bound::Unbounded, Bound::Excluded(b"c")),
            again(Bound::Included(b"c"), Bound::Unbounded),
            ranges.register(c, c, t(2), RangeMode::SiRead),
            ranges.register(c, c, t(1), RangeMode::Shared),
        ];
        assert!(ranges.register(c, c, t(1), RangeMode::Shared).is_none());
        assert_eq!(ranges.len(), 7);
        // Once it holds everything, everything is covered.
        let all = again(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(again(Bound::Unbounded, Bound::Excluded(b"c")).is_none());
        assert!(again(Bound::Unbounded, Bound::Unbounded).is_none());
        for handle in wider.into_iter().flatten().chain([b_to_f, all]) {
            assert!(handle.release());
        }
        assert_eq!(ranges.len(), 0);
    }

    /// Random registrations in random modes against the plain definition: an
    /// install is told of the `SiRead` holders whose bounds contain its key,
    /// and of the `Shared` ones only when it links the key.
    #[test]
    fn reports_match_containment_in_either_mode() {
        let bound = |rng: &mut WorkloadRng| match rng.index(3) {
            0 => Bound::Unbounded,
            1 => Bound::Included(vec![rng.index(6) as u8]),
            _ => Bound::Excluded(vec![rng.index(6) as u8]),
        };
        for seed in 0..300 {
            let mut rng = WorkloadRng::new(seed);
            let ranges = Arc::new(RangeReaders::default());
            // What was asked for, registered or not (a covered one need not
            // be), as the list keeps it.
            let mut asked: Vec<Range> = Vec::new();
            let mut handles = Vec::new();
            for _ in 0..rng.index(8) {
                let (lower, upper) = (bound(&mut rng), bound(&mut rng));
                let holder = t(1 + rng.index(4) as u64);
                let mode = if rng.chance(0.5) {
                    RangeMode::SiRead
                } else {
                    RangeMode::Shared
                };
                let (lo, hi) = (as_ref_bound(&lower), as_ref_bound(&upper));
                handles.extend(ranges.register(lo, hi, holder, mode));
                let (token, lower, upper) = (0, lower, upper);
                asked.push(Range {
                    token,
                    lower,
                    upper,
                    holder,
                    mode,
                });
            }
            for key in 0..6u8 {
                let writer = t(1 + rng.index(5) as u64);
                let link = rng.chance(0.5);
                let expect = |mode| -> Vec<TxnId> {
                    let holds = |r: &&Range| {
                        r.mode == mode && r.holder != writer && r.bounds().contains(&[key][..])
                    };
                    let mut ids: Vec<TxnId> =
                        asked.iter().filter(holds).map(|r| r.holder).collect();
                    ids.sort();
                    ids.dedup();
                    ids
                };
                let shared = if link {
                    expect(RangeMode::Shared)
                } else {
                    Vec::new()
                };
                assert_eq!(
                    told(&ranges, &[key], writer, link),
                    [expect(RangeMode::SiRead), shared],
                    "seed {seed} key {key}"
                );
            }
            for handle in handles {
                assert!(handle.release());
            }
            assert_eq!(ranges.len(), 0);
        }
    }
}
