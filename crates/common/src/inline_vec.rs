//! A small vector that stores its first few elements inline.
//!
//! `VisibleRead::newer_creators` is built on every snapshot read; almost
//! always it holds zero or one transaction ids, so a heap-allocated `Vec`
//! per read is pure overhead. [`InlineVec`] keeps up to `N` elements in the
//! struct itself and only touches the heap on overflow, which removes the
//! last allocation from the uncontended read path.

use std::fmt;
use std::ops::Deref;

/// A vector of `Copy` elements with inline storage for the first `N`.
///
/// Once more than `N` elements are pushed, all elements move to a spilled
/// heap vector and stay there (the inline buffer is not reused), so
/// `as_slice` is always contiguous.
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    /// Number of elements stored inline; ignored once spilled.
    len: usize,
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(),
        }
    }

    pub fn push(&mut self, value: T) {
        if self.spill.is_empty() && self.len < N {
            self.inline[self.len] = value;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.reserve(N * 2);
                self.spill.extend_from_slice(&self.inline[..self.len]);
                self.len = 0;
            }
            self.spill.push(value);
        }
    }

    pub fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spill.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }

    /// Removes and returns the element at `index`, moving the last element
    /// into its place (order is not preserved). Panics if out of bounds.
    pub fn swap_remove(&mut self, index: usize) -> T {
        if self.spill.is_empty() {
            let last = self.len - 1;
            self.inline[..self.len].swap(index, last);
            self.len = last;
            self.inline[last]
        } else {
            self.spill.swap_remove(index)
        }
    }

    pub fn len(&self) -> usize {
        if self.spill.is_empty() {
            self.len
        } else {
            self.spill.len()
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }

    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize, const M: usize> PartialEq<[T; M]>
    for InlineVec<T, N>
{
    fn eq(&self, other: &[T; M]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<&[T]> for InlineVec<T, N> {
    fn eq(&self, other: &&[T]) -> bool {
        self.as_slice() == *other
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u64, 4> = InlineVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.len(), 4);
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        assert!(v.spill.is_empty(), "no heap allocation below capacity");
    }

    #[test]
    fn spills_transparently() {
        let mut v: InlineVec<u64, 2> = InlineVec::new();
        for i in 0..5 {
            v.push(i);
        }
        assert_eq!(v.len(), 5);
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        assert!(!v.spill.is_empty());
    }

    #[test]
    fn equality_with_vec_and_slices() {
        let v: InlineVec<u64, 4> = [7, 8].into_iter().collect();
        assert_eq!(v, vec![7, 8]);
        assert_eq!(v, [7, 8]);
        assert!(v.iter().eq([7, 8].iter()));
    }

    #[test]
    fn swap_remove_and_mutation_work_inline_and_spilled() {
        let mut v: InlineVec<u64, 2> = [1, 2].into_iter().collect();
        v.as_mut_slice()[0] = 9;
        assert_eq!(v.swap_remove(0), 9);
        assert_eq!(v, [2]);
        assert!(v.spill.is_empty());
        for i in 3..6 {
            v.push(i);
        }
        assert_eq!(v.swap_remove(1), 3);
        assert_eq!(v, [2, 5, 4]);
        // Emptying a spilled vector returns it to the inline buffer.
        while !v.is_empty() {
            v.swap_remove(0);
        }
        v.push(7);
        assert_eq!(v, [7]);
    }

    #[test]
    fn empty_behaviour() {
        let v: InlineVec<u64, 4> = InlineVec::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.as_slice(), &[] as &[u64]);
    }
}
