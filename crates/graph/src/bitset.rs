//! A fixed-capacity bit set backed by `u64` words.
//!
//! Used for transitive-closure rows ([`crate::TransitiveClosure`]), reachable
//! sets in test oracles, and interval/tree-cover bookkeeping. The capacity is
//! chosen at construction; out-of-range indices panic, matching slice
//! semantics.

/// A fixed-capacity set of bits.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct FixedBitSet {
    words: Vec<u64>,
    len: usize,
}

impl FixedBitSet {
    /// Creates an empty bit set able to hold `len` bits, all zero.
    pub fn new(len: usize) -> Self {
        FixedBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits this set can hold.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the capacity is zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn index(&self, bit: usize) -> (usize, u64) {
        assert!(
            bit < self.len,
            "bit {bit} out of range for len {}",
            self.len
        );
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Sets the bit at `bit` to one.
    #[inline]
    pub fn insert(&mut self, bit: usize) {
        let (w, mask) = self.index(bit);
        self.words[w] |= mask;
    }

    /// Clears the bit at `bit`.
    #[inline]
    pub fn remove(&mut self, bit: usize) {
        let (w, mask) = self.index(bit);
        self.words[w] &= !mask;
    }

    /// Sets the bit at `bit` to `value`.
    #[inline]
    pub fn set(&mut self, bit: usize, value: bool) {
        if value {
            self.insert(bit);
        } else {
            self.remove(bit);
        }
    }

    /// Returns whether the bit at `bit` is set.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        let (w, mask) = self.index(bit);
        self.words[w] & mask != 0
    }

    /// Sets every bit to zero, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place union: `self |= other`. Panics if capacities differ.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place intersection: `self &= other`. Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl std::fmt::Debug for FixedBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.ones()).finish()
    }
}

/// Iterator over set bits of a [`FixedBitSet`].
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let tz = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut bs = FixedBitSet::new(130);
        assert_eq!(bs.len(), 130);
        assert!(!bs.contains(0));
        bs.insert(0);
        bs.insert(63);
        bs.insert(64);
        bs.insert(129);
        assert!(bs.contains(0) && bs.contains(63) && bs.contains(64) && bs.contains(129));
        assert!(!bs.contains(1) && !bs.contains(128));
        bs.remove(64);
        assert!(!bs.contains(64));
        assert_eq!(bs.count_ones(), 3);
    }

    #[test]
    fn ones_iterates_in_order() {
        let mut bs = FixedBitSet::new(200);
        for &b in &[199, 0, 64, 65, 3, 127] {
            bs.insert(b);
        }
        let got: Vec<usize> = bs.ones().collect();
        assert_eq!(got, vec![0, 3, 64, 65, 127, 199]);
    }

    #[test]
    fn union_and_intersection() {
        let mut a = FixedBitSet::new(100);
        let mut b = FixedBitSet::new(100);
        a.insert(1);
        a.insert(50);
        b.insert(50);
        b.insert(99);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.ones().collect::<Vec<_>>(), vec![1, 50, 99]);
        a.intersect_with(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![50]);
    }

    #[test]
    fn clear_resets_all() {
        let mut bs = FixedBitSet::new(70);
        bs.insert(69);
        bs.clear();
        assert_eq!(bs.count_ones(), 0);
        assert_eq!(bs.len(), 70);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let bs = FixedBitSet::new(10);
        bs.contains(10);
    }

    #[test]
    fn empty_set_iterates_nothing() {
        let bs = FixedBitSet::new(0);
        assert!(bs.is_empty());
        assert_eq!(bs.ones().count(), 0);
    }

    #[test]
    fn set_with_bool() {
        let mut bs = FixedBitSet::new(8);
        bs.set(3, true);
        assert!(bs.contains(3));
        bs.set(3, false);
        assert!(!bs.contains(3));
    }
}
