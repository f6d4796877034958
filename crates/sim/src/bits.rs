//! Flat bit-vector rank flags.
//!
//! The engine keeps four per-rank boolean flags (`done`, `recv_busy`,
//! `dead`, `colored_seen`) and consults `dead` once per arrival. As
//! plain `Vec<bool>` each costs one byte per rank — 1 MiB apiece at
//! `P = 2²⁰`, evicting the caches the event loop actually needs. A
//! [`BitSet`] packs them 64 ranks to the word (128 KiB at `P = 2²⁰`),
//! and like every arena structure it is reusable: clearing retains the
//! backing storage.

/// A fixed-size bit vector indexed by rank.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set; storage grows on [`BitSet::clear_resize`].
    pub fn new() -> BitSet {
        BitSet { words: Vec::new() }
    }

    /// Zero all bits and size for `n` ranks, retaining capacity.
    pub fn clear_resize(&mut self, n: usize) {
        let words = n.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
    }

    /// Become exactly `words`, retaining capacity: bit `i` is bit
    /// `i % 64` of the `i / 64`-th word.
    pub fn copy_words(&mut self, words: impl Iterator<Item = u64>) {
        self.words.clear();
        self.words.extend(words);
    }

    /// Bit `i` (must be within the sized range).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_unset_across_word_boundaries() {
        let mut s = BitSet::new();
        s.clear_resize(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!s.get(i));
            s.set(i);
            assert!(s.get(i));
        }
        s.unset(64);
        assert!(!s.get(64));
        assert!(s.get(63) && s.get(65));
    }

    #[test]
    fn clear_resize_zeroes_previous_contents() {
        let mut s = BitSet::new();
        s.clear_resize(100);
        s.set(7);
        s.set(99);
        s.clear_resize(100);
        assert!(!s.get(7) && !s.get(99));
        // Shrink then regrow: the regrown tail must be zero too.
        s.set(99);
        s.clear_resize(10);
        s.clear_resize(100);
        assert!(!s.get(99));
    }
}
