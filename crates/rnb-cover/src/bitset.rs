//! A dense, growable bit-set tuned for the cover heuristic's inner loop.
//!
//! The paper (§IV) notes its heuristic "is based on bit-sets, which finds a
//! cover solution using a relatively small number of CPU cycles"; the inner
//! loop here is word-wise AND/ANDNOT plus `popcnt`, exactly that shape.

/// A fixed-universe bit set backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over a universe of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Universe size in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of universe {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of universe {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of universe {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Set every bit in the universe.
    pub fn set_all(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        self.trim_tail();
    }

    fn trim_tail(&mut self) {
        let tail_bits = self.len % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// `|self & other|` without allocating.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.len, other.len, "bitsets must share a universe");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len, "bitsets must share a universe");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len, "bitsets must share a universe");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= !other` (remove `other`'s bits).
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len, "bitsets must share a universe");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True if `self` and `other` share no set bit.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len, "bitsets must share a universe");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// True if every bit of `self` is also set in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len, "bitsets must share a universe");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// The backing `u64` words, lowest bits first. Bits at or above
    /// [`BitSet::len`] are guaranteed clear (every mutator tail-masks), so
    /// word-wise consumers such as the planner's fused greedy loop can
    /// AND/popcount these directly without re-masking.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Index of the lowest set bit, if any.
    pub fn first_set(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterate over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collect set-bit indices into a `Vec`.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter_ones().collect()
    }

    /// Build from set-bit indices.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut s = BitSet::new(len);
        for &i in indices {
            s.set(i);
        }
        s
    }
}

/// Iterator over set bits of a [`BitSet`].
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
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.set(0);
        s.set(63);
        s.set(64);
        s.set(129);
        assert!(s.get(0) && s.get(63) && s.get(64) && s.get(129));
        assert!(!s.get(1) && !s.get(128));
        assert_eq!(s.count_ones(), 4);
        s.clear(64);
        assert!(!s.get(64));
        assert_eq!(s.count_ones(), 3);
    }

    #[test]
    fn set_all_respects_universe() {
        let mut s = BitSet::new(70);
        s.set_all();
        assert_eq!(s.count_ones(), 70);
        let mut t = BitSet::new(64);
        t.set_all();
        assert_eq!(t.count_ones(), 64);
        let mut u = BitSet::new(0);
        u.set_all();
        assert_eq!(u.count_ones(), 0);
    }

    #[test]
    fn word_ops() {
        let a = BitSet::from_indices(100, &[1, 5, 64, 99]);
        let b = BitSet::from_indices(100, &[5, 64, 70]);
        assert_eq!(a.intersection_count(&b), 2);
        let mut c = a.clone();
        c.intersect_with(&b);
        assert_eq!(c.to_vec(), vec![5, 64]);
        let mut d = a.clone();
        d.union_with(&b);
        assert_eq!(d.to_vec(), vec![1, 5, 64, 70, 99]);
        let mut e = a.clone();
        e.difference_with(&b);
        assert_eq!(e.to_vec(), vec![1, 99]);
        assert!(!a.is_disjoint(&b));
        assert!(BitSet::from_indices(100, &[2]).is_disjoint(&b));
        assert!(c.is_subset(&a) && c.is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn first_set_and_iter() {
        let s = BitSet::from_indices(200, &[7, 64, 128, 199]);
        assert_eq!(s.first_set(), Some(7));
        assert_eq!(s.to_vec(), vec![7, 64, 128, 199]);
        assert_eq!(BitSet::new(10).first_set(), None);
        assert_eq!(BitSet::new(0).to_vec(), Vec::<usize>::new());
    }

    proptest! {
        #[test]
        fn roundtrip_indices(mut idx in proptest::collection::vec(0usize..500, 0..50)) {
            idx.sort_unstable();
            idx.dedup();
            let s = BitSet::from_indices(500, &idx);
            prop_assert_eq!(s.to_vec(), idx.clone());
            prop_assert_eq!(s.count_ones(), idx.len());
        }

        #[test]
        fn intersection_count_matches_naive(
            a in proptest::collection::vec(0usize..300, 0..60),
            b in proptest::collection::vec(0usize..300, 0..60),
        ) {
            let sa = BitSet::from_indices(300, &a);
            let sb = BitSet::from_indices(300, &b);
            let naive = sa.to_vec().iter().filter(|i| sb.get(**i)).count();
            prop_assert_eq!(sa.intersection_count(&sb), naive);
        }

        #[test]
        fn difference_then_disjoint(
            a in proptest::collection::vec(0usize..300, 0..60),
            b in proptest::collection::vec(0usize..300, 0..60),
        ) {
            let sa = BitSet::from_indices(300, &a);
            let sb = BitSet::from_indices(300, &b);
            let mut d = sa.clone();
            d.difference_with(&sb);
            prop_assert!(d.is_disjoint(&sb));
            prop_assert!(d.is_subset(&sa));
        }
    }
}
