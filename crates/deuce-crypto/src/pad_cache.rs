//! Direct-mapped cache of generated line pads.
//!
//! A pad is a *pure function* of `(address, counter)` under a fixed
//! secret key, so a cached pad can never go stale — there is no
//! invalidation, only replacement when another `(address, counter)`
//! pair hashes to the same slot. Re-reads of a line between writes hit
//! the cache and skip the four AES invocations entirely; any write
//! bumps the line counter, which changes the key and naturally misses.

use crate::{LineBytes, Pad};

/// Hit/miss totals accumulated by a pad cache over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PadCacheStats {
    /// Lookups answered from the cache (pad generation skipped).
    pub hits: u64,
    /// Lookups that fell through to AES pad generation.
    pub misses: u64,
    /// Pads inserted speculatively (next-epoch precompute), before any
    /// lookup asked for them. A prefill is not a miss — the demand
    /// lookup that later finds it counts as an ordinary hit.
    pub prefills: u64,
}

impl PadCacheStats {
    /// The end-of-run totals as `(name, value)` rows — the one place
    /// the `pad_cache_*` export names are spelled.
    #[must_use]
    pub fn rows(&self) -> [(&'static str, u64); 3] {
        [
            ("pad_cache_hits", self.hits),
            ("pad_cache_misses", self.misses),
            ("pad_cache_prefills", self.prefills),
        ]
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u64,
    counter: u64,
    pad: LineBytes,
}

/// A direct-mapped pad cache: each `(addr, counter)` pair maps to
/// exactly one slot, and a conflicting insert simply replaces the
/// previous occupant.
#[derive(Debug, Clone)]
pub(crate) struct PadCache {
    slots: Vec<Option<Slot>>,
    hits: u64,
    misses: u64,
    prefills: u64,
}

impl PadCache {
    /// Creates a cache with at least `entries` slots (rounded up to a
    /// power of two so indexing is a mask).
    pub(crate) fn new(entries: usize) -> Self {
        let capacity = entries.next_power_of_two().max(1);
        Self {
            slots: vec![None; capacity],
            hits: 0,
            misses: 0,
            prefills: 0,
        }
    }

    fn index(&self, addr: u64, counter: u64) -> usize {
        // Fibonacci-style multiplicative mix; the high half of the
        // product spreads low-entropy addresses across the slots.
        let mixed = (addr ^ counter.rotate_left(21)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> 32) as usize & (self.slots.len() - 1)
    }

    /// Returns the cached pad for `(addr, counter)` and counts a hit,
    /// or counts a miss and returns `None`.
    pub(crate) fn lookup(&mut self, addr: u64, counter: u64) -> Option<Pad> {
        let idx = self.index(addr, counter);
        match &self.slots[idx] {
            Some(slot) if slot.addr == addr && slot.counter == counter => {
                self.hits += 1;
                Some(Pad::from_bytes(slot.pad))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether `(addr, counter)` is resident, without touching the
    /// hit/miss totals — the probe the speculative prefill path uses to
    /// avoid regenerating a pad that is already cached.
    pub(crate) fn contains(&self, addr: u64, counter: u64) -> bool {
        let idx = self.index(addr, counter);
        matches!(&self.slots[idx], Some(slot) if slot.addr == addr && slot.counter == counter)
    }

    /// Stores `pad` in the slot for `(addr, counter)`, replacing any
    /// previous occupant of that slot.
    pub(crate) fn insert(&mut self, addr: u64, counter: u64, pad: &Pad) {
        let idx = self.index(addr, counter);
        self.slots[idx] = Some(Slot {
            addr,
            counter,
            pad: *pad.as_bytes(),
        });
    }

    /// [`Self::insert`] for a speculatively generated pad, counted in
    /// [`PadCacheStats::prefills`] instead of the demand totals.
    pub(crate) fn insert_prefilled(&mut self, addr: u64, counter: u64, pad: &Pad) {
        self.prefills += 1;
        self.insert(addr, counter, pad);
    }

    /// Lifetime hit/miss/prefill totals.
    pub(crate) fn stats(&self) -> PadCacheStats {
        PadCacheStats {
            hits: self.hits,
            misses: self.misses,
            prefills: self.prefills,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINE_BYTES;

    fn pad(fill: u8) -> Pad {
        Pad::from_bytes([fill; LINE_BYTES])
    }

    #[test]
    fn miss_then_hit() {
        let mut cache = PadCache::new(16);
        assert!(cache.lookup(0x40, 3).is_none());
        cache.insert(0x40, 3, &pad(0xAB));
        assert_eq!(cache.lookup(0x40, 3), Some(pad(0xAB)));
        assert_eq!(cache.stats(), PadCacheStats { hits: 1, misses: 1, prefills: 0 });
    }

    #[test]
    fn contains_probe_counts_nothing() {
        let mut cache = PadCache::new(16);
        assert!(!cache.contains(0x40, 3));
        cache.insert(0x40, 3, &pad(0xAB));
        assert!(cache.contains(0x40, 3));
        assert!(!cache.contains(0x40, 4));
        assert_eq!(cache.stats(), PadCacheStats::default(), "probes must not count");
    }

    #[test]
    fn prefilled_insert_counts_prefill_then_hits() {
        let mut cache = PadCache::new(16);
        cache.insert_prefilled(0x80, 32, &pad(0xCD));
        assert_eq!(cache.stats(), PadCacheStats { hits: 0, misses: 0, prefills: 1 });
        assert_eq!(cache.lookup(0x80, 32), Some(pad(0xCD)));
        assert_eq!(cache.stats(), PadCacheStats { hits: 1, misses: 0, prefills: 1 });
    }

    #[test]
    fn counter_bump_misses() {
        let mut cache = PadCache::new(16);
        cache.insert(0x40, 3, &pad(0xAB));
        assert!(cache.lookup(0x40, 4).is_none(), "new counter must miss");
        assert!(cache.lookup(0x41, 3).is_none(), "new address must miss");
    }

    #[test]
    fn conflicting_insert_replaces() {
        // A 1-slot cache makes every pair conflict.
        let mut cache = PadCache::new(1);
        cache.insert(1, 1, &pad(0x11));
        cache.insert(2, 2, &pad(0x22));
        assert!(cache.lookup(1, 1).is_none(), "evicted entry must miss");
        assert_eq!(cache.lookup(2, 2), Some(pad(0x22)));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(PadCache::new(0).slots.len(), 1);
        assert_eq!(PadCache::new(5).slots.len(), 8);
        assert_eq!(PadCache::new(64).slots.len(), 64);
    }
}
