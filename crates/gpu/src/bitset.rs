//! A fixed-length bitset over `u64` words.
//!
//! The engine keeps its SMST/KSRT summaries (idle SMs, occupied KSRT slots)
//! in these, so "first idle SM" and "active kernels in slot order" are word
//! scans instead of table scans. Bits at or past `len` are always clear.

/// A bitset of `len` bits, bit `i` stored in bit `i % 64` of word `i / 64`.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// A bitset of `len` bits, all set to `value`.
    pub(crate) fn new(len: usize, value: bool) -> Self {
        let mut bits = BitSet::default();
        bits.reset(len, value);
        bits
    }

    /// Resizes to `len` bits, all set to `value`, keeping the allocation.
    pub(crate) fn reset(&mut self, len: usize, value: bool) {
        self.len = len;
        self.words.clear();
        self.words
            .resize(len.div_ceil(64), if value { u64::MAX } else { 0 });
        if let Some(last) = self.words.last_mut() {
            if value && len % 64 != 0 {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
    }

    /// Number of bits.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether bit `i` is set.
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i` to `value`.
    pub(crate) fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// The lowest set bit.
    pub(crate) fn first_set(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|i| i * 64 + self.words[i].trailing_zeros() as usize)
    }

    /// The lowest clear bit below `len`.
    pub(crate) fn first_clear(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != u64::MAX)
            .map(|i| i * 64 + self.words[i].trailing_ones() as usize)
            .filter(|&bit| bit < self.len)
    }

    /// Whether no bit is set.
    pub(crate) fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether every bit below `len` is set.
    pub(crate) fn all(&self) -> bool {
        self.first_clear().is_none()
    }

    /// The set bits, in increasing order.
    pub(crate) fn ones(&self) -> Ones<'_> {
        Ones {
            rest: &self.words,
            word: 0,
            base: 0,
        }
    }
}

/// Iterator over the set bits of a [`BitSet`], lowest first.
#[derive(Debug, Clone)]
pub(crate) struct Ones<'a> {
    /// Words not yet loaded.
    rest: &'a [u64],
    /// Unvisited set bits of the current word.
    word: u64,
    /// Bit index of the next word's bit 0.
    base: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&word, rest) = self.rest.split_first()?;
            self.word = word;
            self.rest = rest;
            self.base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base - 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_set_keeps_the_tail_clear() {
        for len in [0, 1, 13, 63, 64, 65, 100, 128] {
            let bits = BitSet::new(len, true);
            assert_eq!(
                bits.ones().collect::<Vec<_>>(),
                (0..len).collect::<Vec<_>>()
            );
            assert!(bits.all());
            assert_eq!(bits.first_clear(), None);
            assert_eq!(bits.first_set(), (len > 0).then_some(0));
        }
    }

    #[test]
    fn set_and_clear_across_the_word_boundary() {
        let mut bits = BitSet::new(100, false);
        assert!(bits.none());
        assert_eq!(bits.first_clear(), Some(0));
        for i in [63, 64, 99] {
            bits.set(i, true);
        }
        assert_eq!(bits.ones().collect::<Vec<_>>(), vec![63, 64, 99]);
        assert_eq!(bits.first_set(), Some(63));
        bits.set(63, false);
        assert_eq!(bits.first_set(), Some(64));
        assert!(bits.get(64) && !bits.get(63));

        let mut bits = BitSet::new(100, true);
        bits.set(64, false);
        assert_eq!(bits.first_clear(), Some(64));
        bits.set(64, true);
        assert_eq!(bits.first_clear(), None);
    }

    #[test]
    fn reset_resizes_and_refills() {
        let mut bits = BitSet::new(130, true);
        bits.reset(13, false);
        assert_eq!(bits.len(), 13);
        assert!(bits.none());
        bits.reset(70, true);
        assert_eq!(bits.ones().count(), 70);
    }
}
