//! Fixed-length bit seeds.
//!
//! A hash function from a c-wise independent family is specified by an
//! O(log 𝔫)-bit seed (Lemma 2.4). The distributed method of conditional
//! expectations fixes this seed a chunk of δ·log 𝔫 bits at a time
//! (Section 2.4). [`BitSeed`] is that bit string: it supports reading and
//! writing arbitrary bit ranges (chunks) and producing deterministic
//! "canonical completions" of a partially fixed prefix, which the greedy
//! seed-search selector uses to evaluate candidate chunks.

/// A fixed-length string of bits, indexed from bit 0 (least significant bit
/// of the first word).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSeed {
    bits: usize,
    words: Vec<u64>,
}

impl BitSeed {
    /// The all-zero seed of the given length.
    pub fn zeros(bits: usize) -> Self {
        BitSeed {
            bits,
            words: vec![0u64; bits.div_ceil(64)],
        }
    }

    /// Builds a seed of `bits` bits whose words are filled from `fill`
    /// (truncated/zero-extended as needed). Bits beyond `bits` are cleared.
    pub fn from_words(bits: usize, fill: &[u64]) -> Self {
        let mut seed = BitSeed::zeros(bits);
        for (i, w) in seed.words.iter_mut().enumerate() {
            *w = fill.get(i).copied().unwrap_or(0);
        }
        seed.mask_tail();
        seed
    }

    /// Number of bits in the seed.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the seed has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// The value of bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.bits,
            "bit index {i} out of range for {} bits",
            self.bits
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Reads the `width`-bit chunk starting at bit `start` (little-endian
    /// within the chunk). Bits past the end of the seed read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn chunk(&self, start: usize, width: usize) -> u64 {
        assert!(width <= 64, "chunk width {width} exceeds 64 bits");
        let width = width.min(self.bits.saturating_sub(start));
        if width == 0 {
            return 0;
        }
        let (word, offset) = (start / 64, start % 64);
        let mut value = self.words[word] >> offset;
        if offset + width > 64 {
            value |= self.words[word + 1] << (64 - offset);
        }
        value & low_bits(width)
    }

    /// Writes the `width`-bit chunk starting at bit `start`. Bits past the
    /// end of the seed are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn set_chunk(&mut self, start: usize, width: usize, value: u64) {
        assert!(width <= 64, "chunk width {width} exceeds 64 bits");
        let width = width.min(self.bits.saturating_sub(start));
        if width == 0 {
            return;
        }
        let mask = low_bits(width);
        let value = value & mask;
        let (word, offset) = (start / 64, start % 64);
        self.words[word] = (self.words[word] & !(mask << offset)) | (value << offset);
        if offset + width > 64 {
            let shift = 64 - offset;
            self.words[word + 1] = (self.words[word + 1] & !(mask >> shift)) | (value >> shift);
        }
    }

    /// Returns a copy of this seed in which every bit at position
    /// `prefix_bits` or beyond is replaced by a deterministic pseudo-random
    /// completion derived from the prefix and `salt`.
    ///
    /// The completion is a pure function of (prefix contents, `prefix_bits`,
    /// `salt`), so algorithms that use it remain deterministic. The greedy
    /// chunked seed search uses it to evaluate candidate prefixes; changing
    /// `salt` yields an alternative deterministic completion schedule for its
    /// escalation path.
    pub fn canonical_completion(&self, prefix_bits: usize, salt: u64) -> BitSeed {
        let mut out = self.clone();
        // Mix the prefix into a 64-bit digest.
        let mut digest =
            splitmix64(salt ^ (prefix_bits as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        for (i, w) in self.words.iter().enumerate() {
            let masked = if (i + 1) * 64 <= prefix_bits {
                *w
            } else if i * 64 >= prefix_bits {
                0
            } else {
                w & ((1u64 << (prefix_bits - i * 64)) - 1)
            };
            digest = splitmix64(digest ^ masked.wrapping_add(i as u64));
        }
        // Fill the suffix word by word: bit `i` is bit `i % 64` of the
        // stream value drawn for its word.
        let mut stream = digest;
        let mut i = prefix_bits;
        while i < self.bits {
            stream = splitmix64(stream.wrapping_add(0x9e37_79b9_7f4a_7c15));
            let end = (i / 64 + 1) * 64;
            out.set_chunk(i, end - i, stream >> (i % 64));
            i = end;
        }
        out
    }

    /// The underlying words (little-endian bit order). Bits beyond `len()`
    /// are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of chunks of `chunk_bits` bits needed to cover the seed.
    pub fn chunk_count(&self, chunk_bits: usize) -> usize {
        if chunk_bits == 0 {
            0
        } else {
            self.bits.div_ceil(chunk_bits)
        }
    }

    fn mask_tail(&mut self) {
        let excess = self.words.len() * 64 - self.bits;
        if excess > 0 && !self.words.is_empty() {
            let last = self.words.len() - 1;
            if excess >= 64 {
                self.words[last] = 0;
            } else {
                self.words[last] &= u64::MAX >> excess;
            }
        }
    }
}

impl std::fmt::Display for BitSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed[{}b:", self.bits)?;
        for w in &self.words {
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

/// The `width` (1..=64) lowest bits.
fn low_bits(width: usize) -> u64 {
    u64::MAX >> (64 - width)
}

/// SplitMix64 — the standard 64-bit finalizer used to derive deterministic
/// completions. Not used for any security purpose.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_bit_access() {
        let s = BitSeed::zeros(70);
        assert_eq!(s.len(), 70);
        assert!(!s.is_empty());
        assert!(!s.bit(69));
    }

    #[test]
    fn chunk_round_trip() {
        let mut s = BitSeed::zeros(100);
        s.set_chunk(60, 10, 0b10_1101_0011);
        assert_eq!(s.chunk(60, 10), 0b10_1101_0011);
        // Reading across the end returns zero bits for the overhang.
        assert_eq!(s.chunk(95, 10), s.chunk(95, 5));
        // Writing across the end silently drops the overhang.
        s.set_chunk(95, 10, 0x3ff);
        assert_eq!(s.chunk(95, 5), 0b11111);
    }

    #[test]
    fn chunks_match_their_bits() {
        for bits in [1usize, 61, 64, 100, 130, 488] {
            let words: Vec<u64> = (0..bits.div_ceil(64) as u64).map(splitmix64).collect();
            let seed = BitSeed::from_words(bits, &words);
            for start in (0..bits + 70).step_by(7) {
                for width in [0usize, 1, 5, 61, 63, 64] {
                    let expected = (0..width)
                        .filter(|&k| start + k < bits && seed.bit(start + k))
                        .fold(0u64, |v, k| v | 1 << k);
                    assert_eq!(seed.chunk(start, width), expected, "{bits} {start} {width}");
                    let mut written = seed.clone();
                    let value = splitmix64((start * 64 + width) as u64);
                    written.set_chunk(start, width, value);
                    for i in 0..bits {
                        let inside = i >= start && i - start < width;
                        let bit = if inside {
                            (value >> (i - start)) & 1 == 1
                        } else {
                            seed.bit(i)
                        };
                        assert_eq!(written.bit(i), bit, "{bits} {start} {width} bit {i}");
                    }
                    assert_eq!(written, BitSeed::from_words(bits, written.words()));
                }
            }
        }
    }

    #[test]
    fn completion_draws_one_stream_value_per_word() {
        let seed = BitSeed::from_words(200, &[splitmix64(1), splitmix64(2)]);
        for prefix_bits in [0usize, 1, 61, 64, 122, 199, 200] {
            let completed = seed.canonical_completion(prefix_bits, 9);
            let mut digest =
                splitmix64(9 ^ (prefix_bits as u64).wrapping_mul(0xa076_1d64_78bd_642f));
            for (i, w) in seed.words().iter().enumerate() {
                let kept = (prefix_bits.saturating_sub(i * 64)).min(64);
                let masked = if kept == 64 {
                    *w
                } else {
                    w & ((1u64 << kept) - 1)
                };
                digest = splitmix64(digest ^ masked.wrapping_add(i as u64));
            }
            let mut stream = digest;
            for i in 0..200 {
                if i < prefix_bits {
                    assert_eq!(completed.bit(i), seed.bit(i));
                    continue;
                }
                if i % 64 == 0 || i == prefix_bits {
                    stream = splitmix64(stream.wrapping_add(0x9e37_79b9_7f4a_7c15));
                }
                assert_eq!(completed.bit(i), (stream >> (i % 64)) & 1 == 1, "bit {i}");
            }
        }
    }

    #[test]
    fn from_words_masks_tail() {
        let s = BitSeed::from_words(65, &[u64::MAX, u64::MAX]);
        assert_eq!(s.words()[1], 1);
        assert!(s.bit(64));
        assert_eq!(s.chunk(0, 64), u64::MAX);
    }

    #[test]
    fn chunk_count() {
        let s = BitSeed::zeros(130);
        assert_eq!(s.chunk_count(64), 3);
        assert_eq!(s.chunk_count(13), 10);
        assert_eq!(s.chunk_count(0), 0);
    }

    #[test]
    fn canonical_completion_preserves_prefix_and_is_deterministic() {
        let mut s = BitSeed::zeros(128);
        s.set_chunk(0, 16, 0xBEEF);
        let a = s.canonical_completion(16, 7);
        let b = s.canonical_completion(16, 7);
        let c = s.canonical_completion(16, 8);
        assert_eq!(a, b);
        assert_eq!(a.chunk(0, 16), 0xBEEF);
        // Different salts give different suffixes (with overwhelming
        // probability for this fixed case).
        assert_ne!(a, c);
        // Completion actually sets some suffix bits.
        assert_ne!(a.chunk(64, 64), 0);
    }

    #[test]
    fn completion_depends_on_prefix_contents() {
        let mut s1 = BitSeed::zeros(128);
        let mut s2 = BitSeed::zeros(128);
        s1.set_chunk(0, 16, 1);
        s2.set_chunk(0, 16, 2);
        assert_ne!(
            s1.canonical_completion(16, 0).chunk(64, 64),
            s2.canonical_completion(16, 0).chunk(64, 64)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let s = BitSeed::zeros(10);
        let _ = s.bit(10);
    }

    #[test]
    fn display_contains_length() {
        let s = BitSeed::zeros(12);
        assert!(format!("{s}").contains("12b"));
    }

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
