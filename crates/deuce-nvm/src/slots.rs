//! The §6.1 write-throughput model: write slots and fragmentation.
//!
//! PCM write power is limited: the 8Gb prototype the paper references has
//! a 128-bit write width, so a 64-byte line takes up to 4 sequential write
//! slots of 150 ns each. Each 128-bit slot is provisioned (via internal
//! Flip-N-Write) to flip at most 64 cells. Fewer bit flips can let several
//! 128-bit regions share a slot — but fragmentation means the reduction in
//! flips does not always reduce slots (a 70-flip write still takes 2
//! slots).

use crate::line_image::LineImage;

/// Write-slot configuration (defaults follow §6.1 / Table 1).
///
/// A line's 512 data bits divide into `512 / region_bits` regions
/// (rounded up), and that count may not exceed
/// [`MAX_REGIONS`](Self::MAX_REGIONS): flip counting and slot packing
/// keep one counter per region on the stack. `region_bits` must
/// therefore be at least 32; the paper's 128-bit width gives 4 regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotConfig {
    /// Bits written per slot region (the device write width).
    pub region_bits: u32,
    /// Maximum cell flips a single slot's current budget can drive.
    pub flips_per_slot: u32,
}

impl SlotConfig {
    /// The paper's configuration: 128-bit regions, 64 flips per slot.
    pub const PAPER: Self = Self {
        region_bits: 128,
        flips_per_slot: 64,
    };

    /// The most data regions a line may divide into.
    pub const MAX_REGIONS: usize = 16;

    /// Number of regions a line (data + metadata) divides into, rounding
    /// up so metadata bits occupy the tail region.
    #[must_use]
    pub fn regions_for(&self, total_bits: u32) -> u32 {
        total_bits.div_ceil(self.region_bits)
    }

    /// Number of regions the data bits of a line divide into.
    ///
    /// # Panics
    ///
    /// Panics if that exceeds [`MAX_REGIONS`](Self::MAX_REGIONS).
    fn data_regions(&self) -> usize {
        let regions = self.regions_for(deuce_crypto::LINE_BITS as u32) as usize;
        assert!(
            regions <= Self::MAX_REGIONS,
            "{}-bit regions split a line into {regions} regions (at most {} supported)",
            self.region_bits,
            Self::MAX_REGIONS
        );
        regions
    }
}

impl Default for SlotConfig {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Per-region flip counts of a write of `new` over `old`; entries at
/// and past the returned region count stay zero.
fn count_region_flips(
    old: &LineImage,
    new: &LineImage,
    cfg: SlotConfig,
) -> ([u32; SlotConfig::MAX_REGIONS], usize) {
    assert_eq!(old.total_bits(), new.total_bits(), "image size mismatch");
    let data_bits = deuce_crypto::LINE_BITS as u32;
    let regions = cfg.data_regions();
    let last = regions as u32 - 1;
    let meta_bits = old.total_bits() - data_bits;
    let mut flips = [0u32; SlotConfig::MAX_REGIONS];
    for (word_base, mut word) in old.changed_words(new) {
        let last_bit = word_base + 63;
        if last_bit < data_bits && word_base / cfg.region_bits == last_bit / cfg.region_bits {
            // The whole XOR word falls inside one data region: a single
            // popcount covers all 64 bits.
            flips[(word_base / cfg.region_bits) as usize] += word.count_ones();
        } else {
            // Word straddles a region boundary, or holds metadata bits
            // (each charged to the region of the word it describes).
            while word != 0 {
                let bit = word_base + word.trailing_zeros();
                word &= word - 1;
                let region = if bit < data_bits {
                    bit / cfg.region_bits
                } else {
                    (bit - data_bits) * regions as u32 / meta_bits.max(1)
                };
                flips[region.min(last) as usize] += 1;
            }
        }
    }
    (flips, regions)
}

/// Flip counts per 128-bit region for a write of `new` over `old`.
///
/// Metadata bits are physically co-located with the data they describe
/// (a flip/modified bit sits next to its word), so metadata bit `i` of a
/// width-`m` field is charged to data region `i * regions / m` rather
/// than occupying a region of its own.
///
/// # Panics
///
/// Panics if the images disagree on total bits, or if `cfg` splits a
/// line into more than [`SlotConfig::MAX_REGIONS`] regions.
#[must_use]
pub fn region_flips(old: &LineImage, new: &LineImage, cfg: SlotConfig) -> Vec<u32> {
    let (flips, regions) = count_region_flips(old, new, cfg);
    flips[..regions].to_vec()
}

/// Number of write slots a write consumes: first-fit-decreasing packing of
/// the per-region flip counts into slots with a `flips_per_slot` budget.
///
/// Internal FNW guarantees each region needs at most `flips_per_slot`
/// flips, so every region fits in some slot. A write that flips nothing
/// still consumes one slot (the device must still drive the write
/// command).
///
/// # Panics
///
/// As [`region_flips`].
#[must_use]
pub fn write_slots(old: &LineImage, new: &LineImage, cfg: SlotConfig) -> u32 {
    let (mut flips, regions) = count_region_flips(old, new, cfg);
    let flips = &mut flips[..regions];
    // Internal FNW bounds each region's flips at half the region bits.
    for f in flips.iter_mut() {
        *f = (*f).min(cfg.flips_per_slot);
    }
    flips.sort_unstable_by(|a, b| b.cmp(a));
    // Zero-flip regions sort last and need no slot.
    let busy = flips.iter().take_while(|&&f| f > 0).count();
    if busy == 0 {
        return 1;
    }
    // Remaining budget of each open slot; there are never more slots
    // than busy regions.
    let mut bins = [0u32; SlotConfig::MAX_REGIONS];
    let mut open = 0;
    for &f in &flips[..busy] {
        match bins[..open].iter_mut().find(|remaining| **remaining >= f) {
            Some(remaining) => *remaining -= f,
            None => {
                bins[open] = cfg.flips_per_slot - f;
                open += 1;
            }
        }
    }
    open as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_image::{LineImage, MetaBits};

    fn image_with_region_flips(per_region: &[u32]) -> (LineImage, LineImage) {
        let old = LineImage::new([0u8; 64], MetaBits::new(32));
        let mut new = old;
        for (region, &n) in per_region.iter().enumerate() {
            for i in 0..n {
                let bit = region as u32 * 128 + i;
                assert!(bit < 512, "test helper only sets data bits");
                new.data_mut()[(bit / 8) as usize] |= 1 << (bit % 8);
            }
        }
        (old, new)
    }

    #[test]
    fn zero_flip_write_takes_one_slot() {
        let (old, _) = image_with_region_flips(&[0, 0, 0, 0]);
        assert_eq!(write_slots(&old, &old, SlotConfig::PAPER), 1);
    }

    #[test]
    fn dense_write_takes_four_slots() {
        // ~64 flips in each of 4 regions: no two regions can share a slot.
        let (old, new) = image_with_region_flips(&[64, 64, 64, 64]);
        assert_eq!(write_slots(&old, &new, SlotConfig::PAPER), 4);
    }

    #[test]
    fn paper_fragmentation_example() {
        // §6.1: "if the given write causes 70 flips, and one slot can only
        // handle 64 flips, then this write will take two slots."
        let (old, new) = image_with_region_flips(&[35, 35, 0, 0]);
        // 35+35=70 > 64: cannot share.
        assert_eq!(write_slots(&old, &new, SlotConfig::PAPER), 2);
    }

    #[test]
    fn sparse_regions_pack_into_one_slot() {
        let (old, new) = image_with_region_flips(&[16, 16, 16, 16]);
        assert_eq!(write_slots(&old, &new, SlotConfig::PAPER), 1);
    }

    #[test]
    fn two_pairs_pack_into_two_slots() {
        let (old, new) = image_with_region_flips(&[40, 30, 24, 30]);
        // FFD: 40+24=64 in slot 1, 30+30=60 in slot 2.
        assert_eq!(write_slots(&old, &new, SlotConfig::PAPER), 2);
    }

    #[test]
    fn region_flips_colocate_metadata_with_its_words() {
        let old = LineImage::new([0u8; 64], MetaBits::new(32));
        let mut new = old;
        new.meta_mut().set(0, true); // word 0's bit -> region 0
        new.meta_mut().set(31, true); // word 31's bit -> region 3
        let flips = region_flips(&old, &new, SlotConfig::PAPER);
        assert_eq!(flips.len(), 4);
        assert_eq!(flips[0], 1);
        assert_eq!(flips[3], 1);
    }

    /// Differential check: region flips from the word-level path must
    /// equal a bit-at-a-time reference — including for a region width
    /// that does not align to 64-bit word boundaries.
    #[test]
    fn region_flips_match_bit_loop_reference() {
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lcg
        };
        let configs = [
            SlotConfig::PAPER,
            SlotConfig { region_bits: 96, flips_per_slot: 48 }, // straddles words
        ];
        for cfg in configs {
            let data_bits = deuce_crypto::LINE_BITS as u32;
            let regions = cfg.regions_for(data_bits);
            for _ in 0..20 {
                let mut old = LineImage::new([0u8; 64], MetaBits::new(32));
                let mut new = old;
                for b in old.data_mut().iter_mut() {
                    *b = next() as u8;
                }
                for b in new.data_mut().iter_mut() {
                    *b = next() as u8;
                }
                *old.meta_mut() = MetaBits::from_raw(next() & 0xFFFF_FFFF, 32);
                *new.meta_mut() = MetaBits::from_raw(next() & 0xFFFF_FFFF, 32);

                let mut want = vec![0u32; regions as usize];
                for bit in old.changed_bits(&new) {
                    let region = if bit < data_bits {
                        bit / cfg.region_bits
                    } else {
                        (bit - data_bits) * regions / 32
                    };
                    want[region.min(regions - 1) as usize] += 1;
                }
                assert_eq!(region_flips(&old, &new, cfg), want, "region_bits {}", cfg.region_bits);
            }
        }
    }

    /// The pre-stack-array packer: `Vec`s for the region counts and the
    /// open slots.
    fn write_slots_reference(old: &LineImage, new: &LineImage, cfg: SlotConfig) -> u32 {
        let mut flips = region_flips(old, new, cfg);
        for f in &mut flips {
            *f = (*f).min(cfg.flips_per_slot);
        }
        flips.retain(|&f| f > 0);
        if flips.is_empty() {
            return 1;
        }
        flips.sort_unstable_by(|a, b| b.cmp(a));
        let mut bins: Vec<u32> = Vec::new();
        for f in flips {
            match bins.iter_mut().find(|remaining| **remaining >= f) {
                Some(remaining) => *remaining -= f,
                None => bins.push(cfg.flips_per_slot - f),
            }
        }
        bins.len() as u32
    }

    /// Differential check of the stack-array packer against the `Vec`
    /// reference, from sparse to dense writes, down to the narrowest
    /// supported region width.
    #[test]
    fn write_slots_match_vec_reference() {
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lcg >> 16
        };
        let configs = [
            SlotConfig::PAPER,
            SlotConfig {
                region_bits: 96,
                flips_per_slot: 48,
            },
            SlotConfig {
                region_bits: 32,
                flips_per_slot: 16,
            },
            SlotConfig {
                region_bits: 512,
                flips_per_slot: 256,
            },
        ];
        for cfg in configs {
            for density in [1u64, 4, 16, 64, 256] {
                for _ in 0..50 {
                    let old =
                        LineImage::new(std::array::from_fn(|_| next() as u8), MetaBits::new(32));
                    let mut new = old;
                    for _ in 0..density {
                        let bit = (next() % 544) as u32;
                        new.set_bit(bit, !new.bit(bit));
                    }
                    assert_eq!(
                        write_slots(&old, &new, cfg),
                        write_slots_reference(&old, &new, cfg),
                        "region_bits {} density {density}",
                        cfg.region_bits
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 16 supported")]
    fn too_many_regions_are_rejected() {
        let cfg = SlotConfig {
            region_bits: 16,
            flips_per_slot: 8,
        };
        let img = LineImage::zeroed(32);
        let _ = write_slots(&img, &img, cfg);
    }

    #[test]
    fn regions_for_rounds_up() {
        assert_eq!(SlotConfig::PAPER.regions_for(512), 4);
        assert_eq!(SlotConfig::PAPER.regions_for(544), 5);
        assert_eq!(SlotConfig::PAPER.regions_for(128), 1);
        assert_eq!(SlotConfig::PAPER.regions_for(129), 2);
    }
}
