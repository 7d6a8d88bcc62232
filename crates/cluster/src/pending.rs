//! [`PendingSet`]: the set of not-yet-launched task indices of one stage.
//!
//! The scheduler hot path needs three operations on this set — membership
//! (`validate`), removal (launch), and ordered iteration (placement scans)
//! — and the old `Vec<u32>` representation made the first two O(pending).
//! A packed bitmap over the task universe gives O(1) membership, removal
//! and insertion, and iterates in ascending task order (the order the
//! sequential scheduler produced) by walking its words. The same words are
//! what the placement scan ANDs against its per-level candidate rows.
//!
//! The inverted pending-work index keeps its own membership mirror of this
//! set (per-stage `inv_pending` in [`crate::locality_index`]): every
//! simulator transition that pops or re-inserts a member must be paired
//! with `on_pending_removed` / `on_pending_inserted` on the index, and the
//! mirror is cross-checked against this set by `check_inv_consistency` at
//! every scheduling opportunity in debug builds. `insert`/`remove` return
//! whether membership actually changed precisely so those call sites can
//! mirror conditionally and never double-count.

// Dense u32 task indices: the universe is a per-stage task count,
// bounded far below u32::MAX by workload construction.
#![allow(clippy::cast_possible_truncation)]

/// Ordered set of task indices over a fixed universe `0..n`.
// lint: incremental(words, mutators = [remove, insert, clear])
// lint: incremental(len, mutators = [remove, insert, clear])
// lint: hotpath(remove)
#[derive(Clone, Debug)]
pub struct PendingSet {
    /// Bit `k % 64` of word `k / 64` is set iff task `k` is a member;
    /// `ceil(n / 64)` words, tail bits past `n` always clear.
    words: Vec<u64>,
    len: u32,
}

impl PendingSet {
    /// The full universe `0..n`, all present.
    pub fn full(n: u32) -> Self {
        let nu = n as usize;
        let mut words = vec![!0u64; nu / 64];
        let tail = nu % 64;
        if tail != 0 {
            words.push((1u64 << tail) - 1);
        }
        Self { words, len: n }
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn contains(&self, k: u32) -> bool {
        self.words
            .get((k / 64) as usize)
            .is_some_and(|w| w >> (k % 64) & 1 == 1)
    }

    /// Remove `k`; returns whether it was present.
    // lint: allow(panic-surface): `contains` proved `k / 64` indexes a word
    pub fn remove(&mut self, k: u32) -> bool {
        if !self.contains(k) {
            return false;
        }
        self.words[(k / 64) as usize] &= !(1 << (k % 64));
        self.len -= 1;
        true
    }

    /// Re-insert `k` (a failed task re-offered to the scheduler, or a
    /// completed task resubmitted by lineage recovery); returns whether it
    /// was absent. `k` must lie in the universe.
    pub fn insert(&mut self, k: u32) -> bool {
        if self.contains(k) {
            return false;
        }
        self.words[(k / 64) as usize] |= 1 << (k % 64);
        self.len += 1;
        true
    }

    /// Remove every member (used by tests resetting fixtures).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Members in ascending order.
    pub fn iter(&self) -> PendingIter<'_> {
        PendingIter {
            words: &self.words,
            w: 0,
            cur: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Membership as a packed bitmap: bit `k % 64` of word `k / 64` is
    /// set iff `k` is present. `len() == ceil(universe / 64)`.
    pub fn word_bits(&self) -> &[u64] {
        &self.words
    }
}

/// Ascending walk over a [`PendingSet`]'s words.
pub struct PendingIter<'a> {
    words: &'a [u64],
    /// Index of the word `cur` was loaded from.
    w: usize,
    /// Members of word `w` not yet returned.
    cur: u64,
}

impl Iterator for PendingIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.cur == 0 {
            self.w += 1;
            self.cur = *self.words.get(self.w)?;
        }
        let k = (self.w * 64) as u32 + self.cur.trailing_zeros();
        self.cur &= self.cur - 1;
        Some(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_set_iterates_ascending() {
        let s = PendingSet::full(5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(s.len(), 5);
        assert!(s.contains(4));
        assert!(!s.contains(5));
    }

    #[test]
    fn removal_is_order_preserving() {
        let mut s = PendingSet::full(5);
        assert!(s.remove(2));
        assert!(!s.remove(2));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 3, 4]);
        assert!(s.remove(0));
        assert!(s.remove(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn drain_to_empty_and_clear() {
        let mut s = PendingSet::full(3);
        for k in 0..3 {
            assert!(s.remove(k));
        }
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let mut s2 = PendingSet::full(4);
        s2.clear();
        assert!(s2.is_empty());
        assert_eq!(s2.iter().count(), 0);
    }

    #[test]
    fn insert_restores_ascending_order() {
        let mut s = PendingSet::full(6);
        for k in [0, 2, 3, 5] {
            assert!(s.remove(k));
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4]);
        assert!(s.insert(3));
        assert!(!s.insert(3)); // already present
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 4]);
        assert!(s.insert(0));
        assert!(s.insert(5));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 3, 4, 5]);
        assert_eq!(s.len(), 5);
        assert!(s.contains(5));
    }

    #[test]
    fn insert_into_emptied_set() {
        let mut s = PendingSet::full(3);
        for k in 0..3 {
            s.remove(k);
        }
        assert!(s.insert(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1]);
        assert!(s.insert(2));
        assert!(s.insert(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn universes_off_the_word_boundary() {
        // 65: one full word plus a one-bit tail word.
        let mut s = PendingSet::full(65);
        assert_eq!(s.len(), 65);
        assert_eq!(s.word_bits(), &[!0u64, 1]);
        assert_eq!(s.iter().collect::<Vec<_>>(), (0..65).collect::<Vec<_>>());
        assert!(s.contains(64));
        assert!(!s.contains(65));
        assert!(!s.contains(128));
        assert!(s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.iter().last(), Some(63));
        assert!(s.remove(0));
        assert!(s.insert(64));
        assert_eq!(s.iter().next(), Some(1));
        assert_eq!(s.iter().last(), Some(64));
        assert_eq!(s.len(), 64);
        // 128: exactly two full words, no tail word.
        let mut s = PendingSet::full(128);
        assert_eq!(s.word_bits(), &[!0u64, !0u64]);
        assert_eq!(s.iter().count(), 128);
        assert!(!s.contains(128));
        for k in 0..127 {
            assert!(s.remove(k));
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![127]);
        assert!(s.insert(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64, 127]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_universe() {
        let s = PendingSet::full(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }
}
