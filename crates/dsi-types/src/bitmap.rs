//! Packed presence bitmaps: one bit per row, 64 rows to a word.

/// A presence bitmap, one bit per row, kept packed the way DWRF stores it:
/// 64 rows to a little-endian word, bit `i` is bit `i % 64` of word
/// `i / 64`, and the bits past `len` are zero. A stripe's writer sets bits
/// in one ([`Bitmap::zeros`], [`Bitmap::set`], [`Bitmap::write`]), its
/// reader decodes into one, and a [`crate::ColumnBatch`] keeps one per
/// column.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// `len` clear bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A bitmap over `words`, cut to `len` bits: bits past `len` are
    /// cleared, so a hostile tail never counts as a row.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly the `⌈len / 64⌉` words `len` bits
    /// take.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "{len} bits in {} words",
            words.len()
        );
        if let Some(last) = words.last_mut().filter(|_| !len.is_multiple_of(64)) {
            *last &= (1 << (len % 64)) - 1;
        }
        Self { words, len }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`Bitmap::len`].
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} of a {}-bit bitmap", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`Bitmap::len`].
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} of a {}-bit bitmap", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.words[self.len / 64] |= u64::from(bit) << (self.len % 64);
        self.len += 1;
    }

    /// Appends `other`'s bits after this bitmap's.
    pub fn append(&mut self, other: &Bitmap) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &word in &other.words {
                *self.words.last_mut().expect("a partial word") |= word << shift;
                self.words.push(word >> (64 - shift));
            }
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(64));
    }

    /// Appends `n` clear bits.
    pub fn extend_zeros(&mut self, n: usize) {
        self.len += n;
        self.words.resize(self.len.div_ceil(64), 0);
    }

    /// Appends the stored form: a varint bit count, then the `⌈len / 8⌉`
    /// bytes the bits take, LSB-first within each byte.
    pub fn write(&self, out: &mut Vec<u8>) {
        let mut count = self.len as u64;
        while count >= 0x80 {
            out.push(count as u8 | 0x80);
            count >>= 7;
        }
        out.push(count as u8);
        let bytes = self.words.iter().flat_map(|word| word.to_le_bytes());
        out.extend(bytes.take(self.len.div_ceil(8)));
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bits, 64 to a word.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits below bit `i` (`i` may equal [`Bitmap::len`]).
    pub fn rank(&self, i: usize) -> usize {
        let whole: usize = self.words[..i / 64]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let part = match i % 64 {
            0 => 0,
            bits => (self.words[i / 64] & ((1 << bits) - 1)).count_ones() as usize,
        };
        whole + part
    }

    /// The indexes of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.ones_in(0..self.len)
    }

    /// The indexes of the set bits in `range`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past [`Bitmap::len`].
    pub fn ones_in(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = usize> + '_ {
        assert!(
            range.end <= self.len,
            "bits {range:?} of a {}-bit bitmap",
            self.len
        );
        let words = if range.is_empty() {
            0..0
        } else {
            range.start / 64..range.end.div_ceil(64)
        };
        words.flat_map(move |at| {
            let mut word = self.words[at];
            if at == range.start / 64 {
                word &= u64::MAX << (range.start % 64);
            }
            if at == range.end / 64 {
                word &= (1 << (range.end % 64)) - 1;
            }
            word_ones(word).map(move |bit| at * 64 + bit)
        })
    }
}

/// The positions of the set bits of `word`, ascending.
pub fn word_ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(bitmap: &Bitmap) -> Vec<bool> {
        (0..bitmap.len()).map(|i| bitmap.get(i)).collect()
    }

    #[test]
    fn push_append_and_rank_agree_with_a_bool_vector() {
        for (a, b) in [
            (0usize, 5usize),
            (3, 64),
            (64, 3),
            (63, 130),
            (100, 0),
            (1, 1),
        ] {
            let pattern = |n: usize, k: usize| (0..n).map(move |i| (i * 7 + k).is_multiple_of(3));
            let mut left = Bitmap::default();
            pattern(a, 1).for_each(|bit| left.push(bit));
            let mut right = Bitmap::zeros(b);
            for (i, bit) in pattern(b, 2).enumerate() {
                if bit {
                    right.set(i);
                }
            }
            let want: Vec<bool> = pattern(a, 1).chain(pattern(b, 2)).collect();
            left.append(&right);
            assert_eq!(bits_of(&left), want);
            assert_eq!(left.words().len(), want.len().div_ceil(64));
            for i in 0..=want.len() {
                assert_eq!(left.rank(i), want[..i].iter().filter(|&&b| b).count());
            }
            left.extend_zeros(70);
            assert_eq!(left.len(), want.len() + 70);
            assert_eq!(left.count_ones(), want.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn from_words_clears_the_tail() {
        let bits = Bitmap::from_words(vec![u64::MAX], 3);
        assert_eq!(bits.count_ones(), 3);
        assert_eq!(bits.ones().collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
