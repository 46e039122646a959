//! The bit-exact stored state of one memory line.

use deuce_crypto::{LineBytes, LINE_BITS, LINE_BYTES};

/// Metadata bits stored alongside a line (FNW flip bits, DEUCE modified
/// bits, DynDEUCE's mode bit, ...), at most 64 per line.
///
/// The paper's figure of merit *includes* metadata flips (§3.3), so
/// metadata is part of the line image and participates in flip accounting
/// and wear leveling ("including any metadata bits associated with the
/// line", §5.3).
///
/// # Examples
///
/// ```
/// use deuce_nvm::MetaBits;
///
/// let mut meta = MetaBits::new(32);
/// meta.set(3, true);
/// assert!(meta.get(3));
/// assert_eq!(meta.count_ones(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetaBits {
    bits: u64,
    width: u32,
}

impl MetaBits {
    /// Creates zeroed metadata of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(width <= 64, "metadata width {width} exceeds 64 bits");
        Self { bits: 0, width }
    }

    /// Reconstructs metadata from a raw value (high bits beyond `width`
    /// must be clear).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` has bits set beyond `width`.
    #[must_use]
    pub fn from_raw(value: u64, width: u32) -> Self {
        assert!(width <= 64, "metadata width {width} exceeds 64 bits");
        assert!(
            width == 64 || value < (1u64 << width),
            "raw value has bits beyond width {width}"
        );
        Self { bits: value, width }
    }

    /// Metadata width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Raw bit value.
    #[must_use]
    pub fn raw(&self) -> u64 {
        self.bits
    }

    /// Reads bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= width`.
    #[must_use]
    pub fn get(&self, index: u32) -> bool {
        assert!(index < self.width, "metadata bit {index} out of range");
        self.bits >> index & 1 != 0
    }

    /// Writes bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= width`.
    pub fn set(&mut self, index: u32, value: bool) {
        assert!(index < self.width, "metadata bit {index} out of range");
        if value {
            self.bits |= 1 << index;
        } else {
            self.bits &= !(1 << index);
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.bits = 0;
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Hamming distance to another metadata value of the same width.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> u32 {
        assert_eq!(self.width, other.width, "metadata width mismatch");
        (self.bits ^ other.bits).count_ones()
    }
}

/// How many stored bits a write changed, split into data and metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlipCount {
    /// Flips among the 512 data bits.
    pub data: u32,
    /// Flips among the metadata bits (flip bits, modified bits, mode bit).
    pub meta: u32,
}

impl FlipCount {
    /// Total flips (the paper's figure of merit counts both).
    #[must_use]
    pub fn total(&self) -> u32 {
        self.data + self.meta
    }
}

impl core::ops::Add for FlipCount {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            data: self.data + rhs.data,
            meta: self.meta + rhs.meta,
        }
    }
}

impl core::iter::Sum for FlipCount {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), core::ops::Add::add)
    }
}

/// The exact stored image of a line: 512 data bits plus metadata bits.
///
/// Schemes compute the *new* image a write would produce; the device
/// (DCW) then flips exactly `old.flips_to(&new)` cells.
///
/// # Examples
///
/// ```
/// use deuce_nvm::{LineImage, MetaBits};
///
/// let old = LineImage::new([0u8; 64], MetaBits::new(32));
/// let mut data = [0u8; 64];
/// data[0] = 0b101;
/// let new = LineImage::new(data, MetaBits::new(32));
/// assert_eq!(old.flips_to(&new).total(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineImage {
    data: LineBytes,
    meta: MetaBits,
}

impl LineImage {
    /// Creates an image from data bytes and metadata.
    #[must_use]
    pub fn new(data: LineBytes, meta: MetaBits) -> Self {
        Self { data, meta }
    }

    /// An all-zero image with the given metadata width.
    #[must_use]
    pub fn zeroed(meta_width: u32) -> Self {
        Self {
            data: [0u8; LINE_BYTES],
            meta: MetaBits::new(meta_width),
        }
    }

    /// The stored data bytes.
    #[must_use]
    pub fn data(&self) -> &LineBytes {
        &self.data
    }

    /// Mutable access to the stored data bytes.
    pub fn data_mut(&mut self) -> &mut LineBytes {
        &mut self.data
    }

    /// The stored metadata bits.
    #[must_use]
    pub fn meta(&self) -> &MetaBits {
        &self.meta
    }

    /// Mutable access to the metadata bits.
    pub fn meta_mut(&mut self) -> &mut MetaBits {
        &mut self.meta
    }

    /// Total stored bits (data + metadata) — the wear-leveling rotation
    /// ring size (§5.3 rotates through data *and* metadata bits).
    #[must_use]
    pub fn total_bits(&self) -> u32 {
        LINE_BITS as u32 + self.meta.width()
    }

    /// Exact flip count to transform this stored image into `new`.
    ///
    /// # Panics
    ///
    /// Panics if metadata widths differ.
    #[must_use]
    pub fn flips_to(&self, new: &Self) -> FlipCount {
        let data = self
            .data
            .chunks_exact(8)
            .zip(new.data.chunks_exact(8))
            .map(|(a, b)| {
                let a = u64::from_le_bytes(a.try_into().expect("8-byte chunk"));
                let b = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
                (a ^ b).count_ones()
            })
            .sum();
        FlipCount {
            data,
            meta: self.meta.hamming(&new.meta),
        }
    }

    /// Reads stored bit `index`, where indices `0..512` address data bits
    /// (LSB-first within each byte) and `512..512+meta_width` address
    /// metadata bits. This is the linear bit order used by the
    /// wear-leveling rotation.
    ///
    /// # Panics
    ///
    /// Panics if `index >= total_bits()`.
    #[must_use]
    pub fn bit(&self, index: u32) -> bool {
        if index < LINE_BITS as u32 {
            let byte = (index / 8) as usize;
            let bit = index % 8;
            self.data[byte] >> bit & 1 != 0
        } else {
            self.meta.get(index - LINE_BITS as u32)
        }
    }

    /// Writes stored bit `index`, in the same linear bit order as
    /// [`bit`](Self::bit): indices `0..512` address data bits (LSB-first
    /// within each byte), `512..512+meta_width` address metadata bits.
    /// The fault engine uses this to stamp stuck-at cells onto an image.
    ///
    /// # Panics
    ///
    /// Panics if `index >= total_bits()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_nvm::LineImage;
    ///
    /// let mut img = LineImage::zeroed(32);
    /// img.set_bit(9, true);
    /// img.set_bit(512, true); // first metadata bit
    /// assert!(img.bit(9) && img.bit(512));
    /// ```
    pub fn set_bit(&mut self, index: u32, value: bool) {
        if index < LINE_BITS as u32 {
            let byte = (index / 8) as usize;
            let bit = index % 8;
            if value {
                self.data[byte] |= 1 << bit;
            } else {
                self.data[byte] &= !(1 << bit);
            }
        } else {
            self.meta.set(index - LINE_BITS as u32, value);
        }
    }

    /// Iterator over the positions (in linear bit order) that differ
    /// between this image and `new` — the cells DCW will actually write.
    pub fn changed_bits<'a>(&'a self, new: &'a Self) -> impl Iterator<Item = u32> + 'a {
        (0..self.total_bits()).filter(move |&i| self.bit(i) != new.bit(i))
    }

    /// The same changed positions as [`changed_bits`](Self::changed_bits),
    /// but a whole 64-bit word at a time: each item is `(base, word)`
    /// where bit `i` of `word` is set iff linear position `base + i`
    /// differs. Words with no change are skipped, so consumers touch only
    /// the XOR words that matter; the final item covers the metadata
    /// bits. Bit-for-bit equivalence with the bit-at-a-time iterator is
    /// asserted by a differential test.
    ///
    /// # Panics
    ///
    /// Panics if metadata widths differ.
    pub fn changed_words<'a>(&'a self, new: &'a Self) -> impl Iterator<Item = (u32, u64)> + 'a {
        assert_eq!(self.meta.width, new.meta.width, "metadata width mismatch");
        let data = self
            .data
            .chunks_exact(8)
            .zip(new.data.chunks_exact(8))
            .enumerate()
            .map(|(i, (a, b))| {
                let a = u64::from_le_bytes(a.try_into().expect("8-byte chunk"));
                let b = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
                (i as u32 * 64, a ^ b)
            });
        let meta = core::iter::once((LINE_BITS as u32, self.meta.bits ^ new.meta.bits));
        data.chain(meta).filter(|&(_, word)| word != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metabits_set_get_clear() {
        let mut m = MetaBits::new(33);
        m.set(0, true);
        m.set(32, true);
        assert!(m.get(0) && m.get(32));
        assert_eq!(m.count_ones(), 2);
        m.set(0, false);
        assert_eq!(m.count_ones(), 1);
        m.clear();
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn metabits_bounds_checked() {
        let m = MetaBits::new(32);
        let _ = m.get(32);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn hamming_requires_same_width() {
        let _ = MetaBits::new(32).hamming(&MetaBits::new(33));
    }

    #[test]
    fn from_raw_validates() {
        let m = MetaBits::from_raw(0b101, 3);
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond width")]
    fn from_raw_rejects_overflow() {
        let _ = MetaBits::from_raw(0b1000, 3);
    }

    #[test]
    fn flip_count_arithmetic() {
        let a = FlipCount { data: 3, meta: 1 };
        let b = FlipCount { data: 2, meta: 0 };
        assert_eq!((a + b).total(), 6);
        let sum: FlipCount = [a, b, b].into_iter().sum();
        assert_eq!(sum.data, 7);
        assert_eq!(sum.meta, 1);
    }

    #[test]
    fn flips_counts_data_and_meta() {
        let mut old = LineImage::zeroed(32);
        let mut new = old;
        new.data_mut()[5] = 0xFF;
        new.meta_mut().set(7, true);
        let flips = old.flips_to(&new);
        assert_eq!(flips.data, 8);
        assert_eq!(flips.meta, 1);
        assert_eq!(flips.total(), 9);
        // Symmetric
        assert_eq!(new.flips_to(&old).total(), 9);
        // Self-distance is zero
        old.meta_mut().clear();
        assert_eq!(old.flips_to(&old).total(), 0);
    }

    #[test]
    fn linear_bit_order() {
        let mut img = LineImage::zeroed(32);
        img.data_mut()[0] = 0b0000_0010; // bit 1
        img.data_mut()[63] = 0b1000_0000; // bit 511
        img.meta_mut().set(0, true); // bit 512
        img.meta_mut().set(31, true); // bit 543
        assert!(!img.bit(0));
        assert!(img.bit(1));
        assert!(img.bit(511));
        assert!(img.bit(512));
        assert!(img.bit(543));
        assert_eq!(img.total_bits(), 544);
    }

    #[test]
    fn set_bit_roundtrip() {
        let mut img = LineImage::zeroed(32);
        for idx in [0u32, 7, 63, 511, 512, 543] {
            img.set_bit(idx, true);
            assert!(img.bit(idx), "bit {idx} should be set");
            img.set_bit(idx, false);
            assert!(!img.bit(idx), "bit {idx} should be clear");
        }
    }

    #[test]
    fn changed_bits_match_flip_count() {
        let old = LineImage::zeroed(32);
        let mut new = old;
        new.data_mut()[0] = 0b11;
        new.meta_mut().set(4, true);
        let changed: Vec<u32> = old.changed_bits(&new).collect();
        assert_eq!(changed, vec![0, 1, 512 + 4]);
        assert_eq!(changed.len() as u32, old.flips_to(&new).total());
    }

    /// Differential check: expanding `changed_words` bit by bit must
    /// yield exactly the `changed_bits` sequence.
    #[test]
    fn changed_words_match_changed_bits() {
        let mut lcg = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lcg
        };
        for width in [0u32, 1, 32, 33, 64] {
            for _ in 0..8 {
                let mut old = LineImage::zeroed(width);
                let mut new = old;
                for b in old.data_mut().iter_mut() {
                    *b = next() as u8;
                }
                for b in new.data_mut().iter_mut() {
                    *b = next() as u8;
                }
                let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
                *old.meta_mut() = MetaBits::from_raw(next() & mask, width);
                *new.meta_mut() = MetaBits::from_raw(next() & mask, width);

                let mut expanded = Vec::new();
                for (base, mut word) in old.changed_words(&new) {
                    while word != 0 {
                        expanded.push(base + word.trailing_zeros());
                        word &= word - 1;
                    }
                }
                let reference: Vec<u32> = old.changed_bits(&new).collect();
                assert_eq!(expanded, reference, "width {width}");
            }
        }
    }
}
