//! The shared cipher core every scheme builds on: counter state,
//! modified-word tracking, pad application, and dual-pad reads.
//!
//! Each of the paper's schemes is a small state machine over the same
//! counter-mode substrate — bump a counter, fetch a one-time pad, XOR,
//! count flips (§2.4, §4.3). These helpers implement that substrate
//! once, bit-identically to the historical per-scheme copies, so a
//! scheme file only contributes its policy (what to re-encrypt, when).

use deuce_crypto::{
    EpochInterval, LineAddr, LineBytes, OtpEngine, Pad, VirtualCounterPair, LINE_BYTES,
};
use deuce_nvm::MetaBits;

use crate::config::WordSize;

/// Compact per-line counter state: the raw value of a fixed-width
/// wrapping write counter.
///
/// This is [`deuce_crypto::LineCounter`] shrunk to its observable core —
/// the width lives in the scheme parameters (shared by every line) and
/// the wrap generation is dropped because no scheme output depends on it.
///
/// # Examples
///
/// ```
/// use deuce_schemes::CtrState;
///
/// let mut ctr = CtrState::ZERO;
/// assert_eq!(ctr.bump(28), 1); // 0 -> 1 flips one stored bit
/// assert_eq!(ctr.bump(28), 2); // 1 -> 2 flips two
/// assert_eq!(ctr.value(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CtrState(u64);

impl CtrState {
    /// A counter at zero (every line starts here).
    pub const ZERO: Self = Self(0);

    /// Reconstructs a counter from its raw stored value (the inverse of
    /// [`value`](Self::value); used when decoding persisted line state).
    #[must_use]
    pub fn from_raw(value: u64) -> Self {
        Self(value)
    }

    /// Current counter value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Increments the counter modulo `width_bits`, returning the number
    /// of stored counter bits the transition flipped (the paper reports
    /// counter flips separately from the figure of merit).
    pub fn bump(&mut self, width_bits: u32) -> u32 {
        let mask = width_mask(width_bits);
        let old = self.0;
        self.0 = (self.0 + 1) & mask;
        ((self.0 ^ old) & mask).count_ones()
    }
}

/// The all-ones mask of a `width_bits`-wide counter.
#[must_use]
pub(crate) fn width_mask(width_bits: u32) -> u64 {
    if width_bits == 64 {
        u64::MAX
    } else {
        (1u64 << width_bits) - 1
    }
}

/// Validates a counter width exactly as [`deuce_crypto::LineCounter`]
/// does (the pad input reserves 48 bits for the counter).
pub(crate) fn assert_counter_width(width_bits: u32) {
    assert!(
        (1..=48).contains(&width_bits),
        "counter width {width_bits} out of range 1..=48"
    );
}

/// 64-bit lanes per line.
pub(crate) const LANES: usize = LINE_BYTES / 8;

/// A line as eight little-endian `u64` lanes: lane `i` holds bytes
/// `8i..8i + 8`, so byte `b` of a lane sits at bits `8b..8b + 8`.
pub(crate) fn lanes(line: &LineBytes) -> [u64; LANES] {
    core::array::from_fn(|i| {
        u64::from_le_bytes(line[8 * i..8 * i + 8].try_into().expect("8-byte lane"))
    })
}

/// The inverse of [`lanes`].
pub(crate) fn from_lanes(lanes: [u64; LANES]) -> LineBytes {
    let mut line = [0u8; LINE_BYTES];
    for (chunk, lane) in line.chunks_exact_mut(8).zip(lanes) {
        chunk.copy_from_slice(&lane.to_le_bytes());
    }
    line
}

/// SWAR constants for a 64-bit lane split into `64 / bits` words of
/// `bits` bits each, where `bits` is 8, 16, 32 or 64. Word `j` of lane
/// `i` is word `i * per_lane + j` of the line, so a per-line word mask
/// is the lanes' `per_lane`-bit masks laid end to end.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneWords {
    /// Word width in bits.
    bits: u32,
    /// Words per lane (`64 / bits`).
    per_lane: u32,
    /// Bit 0 of every word.
    low: u64,
    /// Bit `j` of word `j`, for every word of the lane.
    diagonal: u64,
    /// Multiplier that moves bit 0 of word `j` to bit `64 - per_lane + j`:
    /// term `k` sits at `64 - per_lane - (bits - 1) * k`, so the product
    /// lands word `j`'s bit in the top `per_lane` bits exactly when
    /// `k == j`, and every other term lands on a distinct lower bit or
    /// overflows, so no carry reaches the top.
    gather: u64,
}

impl LaneWords {
    const fn new(bits: u32) -> Self {
        let per_lane = 64 / bits;
        let (mut low, mut diagonal, mut gather) = (0u64, 0u64, 0u64);
        let mut j = 0;
        while j < per_lane {
            low |= 1 << (j * bits);
            diagonal |= 1 << (j * bits + j);
            gather |= 1 << (64 - per_lane - (bits - 1) * j);
            j += 1;
        }
        Self {
            bits,
            per_lane,
            low,
            diagonal,
            gather,
        }
    }

    const BITS8: Self = Self::new(8);
    const BITS16: Self = Self::new(16);
    const BITS32: Self = Self::new(32);
    const BITS64: Self = Self::new(64);

    /// The constants for `bits`-wide words, or `None` unless `bits` is
    /// 8, 16, 32 or 64.
    pub(crate) fn of_bits(bits: u32) -> Option<Self> {
        match bits {
            8 => Some(Self::BITS8),
            16 => Some(Self::BITS16),
            32 => Some(Self::BITS32),
            64 => Some(Self::BITS64),
            _ => None,
        }
    }

    /// The constants for DEUCE's tracking words.
    pub(crate) fn of(word_size: WordSize) -> Self {
        match word_size {
            WordSize::Bytes1 => Self::BITS8,
            WordSize::Bytes2 => Self::BITS16,
            WordSize::Bytes4 => Self::BITS32,
            WordSize::Bytes8 => Self::BITS64,
        }
    }

    /// Words per lane.
    pub(crate) fn per_lane(self) -> u32 {
        self.per_lane
    }

    /// One bit per word of `x` (bit `j` for word `j`), set iff the word
    /// is nonzero.
    fn nonzero(self, x: u64) -> u64 {
        // OR every word onto its bit 0: after shifts 1, 2, 4, … below
        // `bits`, bit 0 of a word holds the OR of exactly that word.
        let mut t = x;
        let mut shift = 1;
        while shift < self.bits {
            t |= t >> shift;
            shift <<= 1;
        }
        (t & self.low).wrapping_mul(self.gather) >> (64 - self.per_lane)
    }

    /// Widens the low `per_lane` bits of `mask` to a lane mask that is
    /// all ones across every word whose bit is set.
    fn widen(self, mask: u64) -> u64 {
        let high = self.low << (self.bits - 1);
        // Copy the mask into every word, keep bit `j` in word `j`, and
        // test each word for nonzero: adding `2^(bits-1) - 1` carries
        // into the word's top bit iff the word is nonzero (it is at
        // most `2^(bits-1)`, so the carry never leaves the word).
        let picked = (mask & low_bits(self.per_lane)).wrapping_mul(self.low) & self.diagonal;
        let set = (picked | picked.wrapping_add(high - self.low)) & high;
        (set >> (self.bits - 1)).wrapping_mul(u64::MAX >> (64 - self.bits))
    }

    /// Per-word population counts of `x`, each in its own word.
    pub(crate) fn ones(self, x: u64) -> u64 {
        let mut c = x - ((x >> 1) & 0x5555_5555_5555_5555);
        c = (c & 0x3333_3333_3333_3333) + ((c >> 2) & 0x3333_3333_3333_3333);
        c = (c + (c >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        // Sum neighbouring byte, half-word and word counts up to the
        // word width.
        let mut width = 8;
        while width < self.bits {
            c = (c + (c >> width)) & (u64::MAX / ((1u64 << width) + 1));
            width <<= 1;
        }
        c
    }

    /// Bit `i` set iff word `i` differs between `a` and `b`.
    pub(crate) fn changed(self, a: &LineBytes, b: &LineBytes) -> u64 {
        let (a, b) = (lanes(a), lanes(b));
        let mut mask = 0;
        for (i, (a, b)) in a.into_iter().zip(b).enumerate() {
            mask |= self.nonzero(a ^ b) << (i as u32 * self.per_lane);
        }
        mask
    }

    /// The lane mask of lane `i`: all ones across each word of that lane
    /// whose bit is set in the per-line word mask `mask`.
    pub(crate) fn lane_mask(self, mask: u64, i: usize) -> u64 {
        self.widen(mask >> (i as u32 * self.per_lane))
    }
}

/// The low `n` bits set (`1 <= n <= 64`).
fn low_bits(n: u32) -> u64 {
    u64::MAX >> (64 - n)
}

/// Marks the tracking bit of every word whose plaintext differs between
/// `shadow` (the previous write's data) and `data` (§4.3.2: modified
/// bits are sticky within an epoch, so bits already set stay set).
pub(crate) fn mark_modified_words(
    modified: &mut MetaBits,
    word_size: WordSize,
    shadow: &LineBytes,
    data: &LineBytes,
) {
    let changed = LaneWords::of(word_size).changed(shadow, data);
    *modified = MetaBits::from_raw(modified.raw() | changed, modified.width());
}

/// Re-encrypts every marked word with the (leading) pad, leaving
/// unmarked words' stored ciphertext untouched (Fig. 6): per lane,
/// `(stored & !m) | ((data ^ pad) & m)` with `m` the marked words.
pub(crate) fn reencrypt_marked_words(
    stored: &mut LineBytes,
    data: &LineBytes,
    pad: &Pad,
    modified: &MetaBits,
    word_size: WordSize,
) {
    let words = LaneWords::of(word_size);
    let (old, data, pad) = (lanes(stored), lanes(data), lanes(pad.as_bytes()));
    *stored = from_lanes(core::array::from_fn(|i| {
        blend(old[i], data[i] ^ pad[i], words.lane_mask(modified.raw(), i))
    }));
}

/// Overwrites the words of `stored` whose bit is set in the per-line
/// word mask `mask` with the same words of `new`.
pub(crate) fn blend_marked_words(
    stored: &mut LineBytes,
    new: &LineBytes,
    mask: u64,
    word_size: WordSize,
) {
    let words = LaneWords::of(word_size);
    let (old, new) = (lanes(stored), lanes(new));
    *stored = from_lanes(core::array::from_fn(|i| {
        blend(old[i], new[i], words.lane_mask(mask, i))
    }));
}

/// `old` under the clear bits of `m`, `new` under the set ones.
pub(crate) fn blend(old: u64, new: u64, m: u64) -> u64 {
    (old & !m) | (new & m)
}

/// Decrypts a stored line where each word's tracking bit selects the
/// leading or trailing pad (Fig. 7): per lane, the leading pad under the
/// marked words and the trailing pad elsewhere.
pub(crate) fn dual_pad_read(
    stored: &LineBytes,
    modified: &MetaBits,
    pad_lctr: &Pad,
    pad_tctr: &Pad,
    word_size: WordSize,
) -> LineBytes {
    let words = LaneWords::of(word_size);
    let (stored, lead, trail) = (
        lanes(stored),
        lanes(pad_lctr.as_bytes()),
        lanes(pad_tctr.as_bytes()),
    );
    from_lanes(core::array::from_fn(|i| {
        stored[i] ^ blend(trail[i], lead[i], words.lane_mask(modified.raw(), i))
    }))
}

/// Speculative next-epoch pad precompute (the epoch-rollover prefill
/// hook). Called at the end of every epoch-based write: when the line's
/// *next* bump lands on an epoch start — i.e. the next write will
/// re-encrypt the whole line with the pad at `(addr, ctr + 1)` — the
/// pad is generated now and parked in the engine's pad cache, so the
/// rollover's full-line re-encryption finds it warm.
///
/// A no-op when the engine has no pad cache (prefilling into nothing
/// would be pure waste), and always a no-op on *results*: caching only
/// moves AES work earlier, never changes pad bytes.
pub(crate) fn prefill_next_epoch_pad(
    engine: &OtpEngine,
    addr: LineAddr,
    ctr: u64,
    counter_bits: u32,
    epoch: EpochInterval,
) {
    let next = (ctr + 1) & width_mask(counter_bits);
    if VirtualCounterPair::derive(next, epoch).is_epoch_start() {
        engine.prefill_line_pad(addr, next);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scheme::{LineMut, LineRef, LineScheme};
    use crate::WriteOutcome;
    use deuce_crypto::{xor_into, LineCounter, SecretKey};
    use deuce_rng::{DeuceRng, Rng};

    const WORD_SIZES: [WordSize; 4] = [
        WordSize::Bytes1,
        WordSize::Bytes2,
        WordSize::Bytes4,
        WordSize::Bytes8,
    ];

    /// The byte-loop `mark_modified_words` the lane form replaced.
    fn mark_modified_words_reference(
        modified: &mut MetaBits,
        word_size: WordSize,
        shadow: &LineBytes,
        data: &LineBytes,
    ) {
        let w = word_size.bytes();
        for word in 0..word_size.words_per_line() {
            let range = word * w..(word + 1) * w;
            if data[range.clone()] != shadow[range] {
                modified.set(word as u32, true);
            }
        }
    }

    /// The byte-loop `reencrypt_marked_words` the lane form replaced.
    fn reencrypt_marked_words_reference(
        stored: &mut LineBytes,
        data: &LineBytes,
        pad: &Pad,
        modified: &MetaBits,
        word_size: WordSize,
    ) {
        let w = word_size.bytes();
        for word in 0..word_size.words_per_line() {
            if modified.get(word as u32) {
                let range = word * w..(word + 1) * w;
                stored[range.clone()].copy_from_slice(&data[range]);
                xor_into(&mut stored[word * w..(word + 1) * w], pad.word(word, w));
            }
        }
    }

    /// The byte-loop `dual_pad_read` the lane form replaced.
    fn dual_pad_read_reference(
        stored: &LineBytes,
        modified: &MetaBits,
        pad_lctr: &Pad,
        pad_tctr: &Pad,
        word_size: WordSize,
    ) -> LineBytes {
        let w = word_size.bytes();
        let mut out = *stored;
        for word in 0..word_size.words_per_line() {
            let pad = if modified.get(word as u32) {
                pad_lctr.word(word, w)
            } else {
                pad_tctr.word(word, w)
            };
            xor_into(&mut out[word * w..(word + 1) * w], pad);
        }
        out
    }

    /// A random line and a copy with `changes` random bytes rewritten
    /// (some rewrites keep the old value), so word masks run from empty
    /// to full.
    pub(crate) fn line_pair(rng: &mut DeuceRng, changes: usize) -> (LineBytes, LineBytes) {
        let mut a = [0u8; LINE_BYTES];
        rng.fill(&mut a);
        let mut b = a;
        for _ in 0..changes {
            let i = rng.gen_range(0..LINE_BYTES);
            b[i] ^= 1 << rng.gen_range(0..8u32) & rng.gen::<u8>();
        }
        (a, b)
    }

    /// Drives `scheme` and its byte-loop reference (`write_ref`,
    /// `read_ref`) through the same 300 random writes, from an unchanged
    /// line to a full rewrite, and asserts identical outcomes, stored
    /// bytes, states and reads after every write.
    pub(crate) fn assert_matches_reference<S>(
        scheme: S,
        write_ref: fn(&S, &OtpEngine, LineAddr, LineMut<'_, S::State>, &LineBytes) -> WriteOutcome,
        read_ref: fn(&S, &OtpEngine, LineAddr, LineRef<'_, S::State>) -> LineBytes,
    ) where
        S: LineScheme + core::fmt::Debug,
        S::State: PartialEq,
    {
        let engine = OtpEngine::new(&SecretKey::from_seed(0xd1ff));
        let addr = LineAddr::new(3);
        let mut rng = DeuceRng::seed_from_u64(0xd1ff);
        let (initial, _) = line_pair(&mut rng, 0);
        let (mut stored, mut state) = scheme.init(&engine, addr, &initial);
        let (mut ref_stored, mut ref_state) = (stored, state);
        let (mut shadow, mut ref_shadow) = (initial, initial);
        for step in 0..300 {
            let mut data = shadow;
            for _ in 0..[0, 1, 2, 5, 16, 200][rng.gen_range(0..6usize)] {
                let i = rng.gen_range(0..LINE_BYTES);
                data[i] ^= 1 << rng.gen_range(0..8u32) & rng.gen::<u8>();
            }
            let line = LineMut { stored: &mut stored, shadow: &mut shadow, state: &mut state };
            let outcome = scheme.write(&engine, addr, line, &data);
            let line = LineMut {
                stored: &mut ref_stored,
                shadow: &mut ref_shadow,
                state: &mut ref_state,
            };
            let ref_outcome = write_ref(&scheme, &engine, addr, line, &data);
            assert_eq!(outcome, ref_outcome, "{scheme:?} write {step}");
            assert_eq!(stored, ref_stored, "{scheme:?} stored after write {step}");
            assert_eq!(state, ref_state, "{scheme:?} state after write {step}");
            let read = scheme.read(&engine, addr, LineRef { stored: &stored, state: &state });
            let ref_read = read_ref(&scheme, &engine, addr, LineRef { stored: &stored, state: &state });
            assert_eq!((read, ref_read), (data, data), "{scheme:?} read after write {step}");
        }
    }

    #[test]
    fn lane_helpers_match_byte_loops_for_every_word_size() {
        let mut rng = DeuceRng::seed_from_u64(0x1a7e);
        for word_size in WORD_SIZES {
            let width = word_size.tracking_bits();
            for changes in [0, 1, 2, 5, 16, 64, 200] {
                for _ in 0..40 {
                    let (shadow, data) = line_pair(&mut rng, changes);
                    let sticky = rng.gen::<u64>() & rng.gen::<u64>() & low_bits(width);
                    let mut lane = MetaBits::from_raw(sticky, width);
                    let mut byte = lane;
                    mark_modified_words(&mut lane, word_size, &shadow, &data);
                    mark_modified_words_reference(&mut byte, word_size, &shadow, &data);
                    assert_eq!(lane, byte, "{word_size:?} mark, {changes} changes");

                    let mut pad_bytes = [0u8; LINE_BYTES];
                    rng.fill(&mut pad_bytes);
                    let (lead, trail) = (Pad::from_bytes(pad_bytes), Pad::from_bytes(shadow));
                    let (mut lane_stored, mut byte_stored) = (shadow, shadow);
                    reencrypt_marked_words(&mut lane_stored, &data, &lead, &lane, word_size);
                    reencrypt_marked_words_reference(
                        &mut byte_stored,
                        &data,
                        &lead,
                        &byte,
                        word_size,
                    );
                    assert_eq!(lane_stored, byte_stored, "{word_size:?} re-encrypt");

                    assert_eq!(
                        dual_pad_read(&lane_stored, &lane, &lead, &trail, word_size),
                        dual_pad_read_reference(&byte_stored, &byte, &lead, &trail, word_size),
                        "{word_size:?} read"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_words_widen_inverts_nonzero() {
        for bits in [8, 16, 32, 64] {
            let words = LaneWords::of_bits(bits).expect("lane width");
            for mask in 0..1u64 << words.per_lane() {
                let lane = words.widen(mask);
                assert_eq!(words.nonzero(lane), mask, "{bits}-bit words, mask {mask:b}");
                assert_eq!(lane.count_ones(), mask.count_ones() * bits);
            }
        }
    }

    /// `CtrState::bump` must replicate `LineCounter::increment` +
    /// `flips_from` exactly, including wrap behaviour.
    #[test]
    fn ctr_state_matches_line_counter() {
        for width in [1u32, 3, 28, 48] {
            let mut reference = LineCounter::new(width);
            let mut compact = CtrState::ZERO;
            for step in 0..40u64 {
                let old = reference.value();
                reference.increment();
                let expected = reference.flips_from(old);
                assert_eq!(compact.bump(width), expected, "width {width} step {step}");
                assert_eq!(compact.value(), reference.value(), "width {width} step {step}");
            }
        }
    }

    #[test]
    fn modified_word_marking_is_sticky() {
        let mut modified = MetaBits::new(32);
        let shadow = [0u8; 64];
        let mut data = [0u8; 64];
        data[0] = 1;
        mark_modified_words(&mut modified, WordSize::Bytes2, &shadow, &data);
        assert_eq!(modified.count_ones(), 1);
        // A later write that reverts word 0 must not clear its bit.
        mark_modified_words(&mut modified, WordSize::Bytes2, &data, &shadow);
        assert_eq!(modified.count_ones(), 1);
    }

    #[test]
    fn next_epoch_prefill_fires_only_at_the_boundary() {
        let engine = OtpEngine::new(&SecretKey::from_seed(1)).with_pad_cache(16);
        let epoch = EpochInterval::new(4).unwrap();
        for ctr in 0..8u64 {
            prefill_next_epoch_pad(&engine, LineAddr::new(5), ctr, 28, epoch);
        }
        // Only ctr 3 and 7 sit one bump short of an epoch start (4, 8).
        let stats = engine.pad_cache_stats().expect("cache attached");
        assert_eq!((stats.prefills, stats.hits, stats.misses), (2, 0, 0));
    }

    #[test]
    fn next_epoch_prefill_respects_counter_wrap() {
        let engine = OtpEngine::new(&SecretKey::from_seed(2)).with_pad_cache(16);
        let epoch = EpochInterval::new(4).unwrap();
        // A 3-bit counter at 7 wraps to 0, which is an epoch start.
        prefill_next_epoch_pad(&engine, LineAddr::new(9), 7, 3, epoch);
        assert_eq!(engine.pad_cache_stats().expect("cache attached").prefills, 1);
        // The wrapped pad is the counter-0 pad, now warm.
        let _ = engine.line_pad(LineAddr::new(9), 0);
        assert_eq!(engine.pad_cache_stats().expect("cache attached").hits, 1);
    }

    #[test]
    fn dual_pad_read_selects_per_word() {
        let lead = Pad::from_bytes([0xAA; 64]);
        let trail = Pad::from_bytes([0x55; 64]);
        let stored = [0u8; 64];
        let mut modified = MetaBits::new(32);
        modified.set(3, true);
        let out = dual_pad_read(&stored, &modified, &lead, &trail, WordSize::Bytes2);
        for (i, b) in out.iter().enumerate() {
            let expected = if (6..8).contains(&i) { 0xAA } else { 0x55 };
            assert_eq!(*b, expected, "byte {i}");
        }
    }
}
