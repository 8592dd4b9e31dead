//! Lock modes and compatibility matrices.
//!
//! Two different compatibility relations matter:
//!
//! * the **blocking** matrix decides whether a request must wait. SIREAD is
//!   compatible with everything here — it is the paper's defining property
//!   that readers never block writers and vice versa;
//! * the **detection** relation identifies read-write conflicts for the SSI
//!   algorithm: an SIREAD lock and an EXCLUSIVE lock on the same item signal a
//!   rw-antidependency between their owners even though neither waits.

use std::fmt;

/// A lock mode requested by a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LockMode {
    /// Blocking shared (read) lock; used by strict two-phase locking.
    Shared,
    /// Blocking exclusive (write) lock; used by all isolation levels for
    /// updates and by SI/SSI to enforce first-updater-wins.
    Exclusive,
    /// Non-blocking read marker introduced by Serializable SI (Sec. 3.2).
    SiRead,
}

impl LockMode {
    /// True if a request of mode `self` must wait for a *granted* lock of
    /// mode `other` held by a different transaction.
    #[inline]
    pub fn blocks_against(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            // SIREAD neither waits nor causes waits.
            (SiRead, _) | (_, SiRead) => false,
            (Shared, Shared) => false,
            (Shared, Exclusive) | (Exclusive, Shared) | (Exclusive, Exclusive) => true,
        }
    }

    /// True if holding `self` and `other` on the same item by *different*
    /// transactions constitutes a read-write conflict in the SSI sense.
    #[inline]
    pub fn rw_conflicts_with(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!((self, other), (SiRead, Exclusive) | (Exclusive, SiRead))
    }

    /// Bit used in a [`ModeSet`].
    #[inline]
    fn bit(self) -> u8 {
        match self {
            LockMode::Shared => 0b001,
            LockMode::Exclusive => 0b010,
            LockMode::SiRead => 0b100,
        }
    }

    /// All modes, for iteration in tests.
    pub const ALL: [LockMode; 3] = [LockMode::Shared, LockMode::Exclusive, LockMode::SiRead];
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockMode::Shared => "S",
            LockMode::Exclusive => "X",
            LockMode::SiRead => "SIREAD",
        };
        f.write_str(s)
    }
}

/// A small set of lock modes held by one transaction on one item.
///
/// A single transaction may hold several modes on the same item (for example
/// SIREAD and EXCLUSIVE after a read-modify-write of a page: the SIREAD
/// upgrade of Sec. 3.7.3 drops only a row's chain registration).
#[derive(Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ModeSet(u8);

impl ModeSet {
    /// The empty set.
    pub const EMPTY: ModeSet = ModeSet(0);

    /// Creates a set containing a single mode.
    pub fn single(mode: LockMode) -> Self {
        ModeSet(mode.bit())
    }

    /// True if no modes are held.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if `mode` is in the set.
    #[inline]
    pub fn contains(self, mode: LockMode) -> bool {
        self.0 & mode.bit() != 0
    }

    /// Adds `mode`, returning true if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, mode: LockMode) -> bool {
        let had = self.contains(mode);
        self.0 |= mode.bit();
        !had
    }

    /// Removes `mode`, returning true if it was present.
    #[inline]
    pub fn remove(&mut self, mode: LockMode) -> bool {
        let had = self.contains(mode);
        self.0 &= !mode.bit();
        had
    }

    /// Iterates over the modes in the set.
    pub fn iter(self) -> impl Iterator<Item = LockMode> {
        LockMode::ALL.into_iter().filter(move |m| self.contains(*m))
    }

    /// True if a request for `mode` by another transaction must wait for any
    /// mode in this set.
    #[inline]
    pub fn blocks_request(self, mode: LockMode) -> bool {
        self.iter().any(|held| mode.blocks_against(held))
    }

    /// True if any mode in this set forms an SSI read-write conflict with
    /// `mode` held/requested by another transaction.
    #[inline]
    pub fn rw_conflicts_with(self, mode: LockMode) -> bool {
        self.iter().any(|held| mode.rw_conflicts_with(held))
    }

    /// True if this transaction already holds a mode at least as strong as
    /// `mode` (EXCLUSIVE covers every request; otherwise only an exact match
    /// counts, since SHARED and SIREAD give different guarantees).
    #[inline]
    pub fn covers(self, mode: LockMode) -> bool {
        self.contains(mode) || self.contains(LockMode::Exclusive)
    }
}

impl fmt::Debug for ModeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for m in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_matrix_matches_paper() {
        use LockMode::*;
        // Readers at SIREAD never block or get blocked.
        for m in LockMode::ALL {
            assert!(!SiRead.blocks_against(m), "SIREAD must never wait");
            assert!(!m.blocks_against(SiRead), "SIREAD must never cause waits");
        }
        assert!(!Shared.blocks_against(Shared));
        assert!(Shared.blocks_against(Exclusive));
        assert!(Exclusive.blocks_against(Shared));
        assert!(Exclusive.blocks_against(Exclusive));
    }

    #[test]
    fn rw_conflict_detection_is_siread_vs_exclusive_only() {
        use LockMode::*;
        assert!(SiRead.rw_conflicts_with(Exclusive));
        assert!(Exclusive.rw_conflicts_with(SiRead));
        assert!(!Shared.rw_conflicts_with(Exclusive));
        assert!(!SiRead.rw_conflicts_with(Shared));
        assert!(!SiRead.rw_conflicts_with(SiRead));
        assert!(!Exclusive.rw_conflicts_with(Exclusive));
    }

    #[test]
    fn modeset_insert_remove() {
        let mut s = ModeSet::EMPTY;
        assert!(s.is_empty());
        assert!(s.insert(LockMode::SiRead));
        assert!(!s.insert(LockMode::SiRead));
        assert!(s.contains(LockMode::SiRead));
        assert!(s.insert(LockMode::Exclusive));
        assert_eq!(s.iter().count(), 2);
        assert!(s.remove(LockMode::SiRead));
        assert!(!s.remove(LockMode::SiRead));
        assert!(!s.is_empty());
        assert!(s.remove(LockMode::Exclusive));
        assert!(s.is_empty());
    }

    #[test]
    fn modeset_blocking_and_conflicts() {
        let mut held = ModeSet::single(LockMode::SiRead);
        assert!(!held.blocks_request(LockMode::Exclusive));
        assert!(held.rw_conflicts_with(LockMode::Exclusive));
        held.insert(LockMode::Shared);
        assert!(held.blocks_request(LockMode::Exclusive));
        assert!(!held.blocks_request(LockMode::Shared));
    }

    #[test]
    fn modeset_covers() {
        let x = ModeSet::single(LockMode::Exclusive);
        assert!(x.covers(LockMode::Shared));
        assert!(x.covers(LockMode::SiRead));
        assert!(x.covers(LockMode::Exclusive));
        let s = ModeSet::single(LockMode::Shared);
        assert!(s.covers(LockMode::Shared));
        assert!(!s.covers(LockMode::SiRead));
        assert!(!s.covers(LockMode::Exclusive));
    }

    #[test]
    fn modeset_debug_format() {
        let mut s = ModeSet::EMPTY;
        s.insert(LockMode::Shared);
        s.insert(LockMode::SiRead);
        let repr = format!("{s:?}");
        assert!(repr.contains('S'));
        assert!(repr.contains("SIREAD"));
    }
}
