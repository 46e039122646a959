//! Differential testing against the "straightforward" design §4
//! sketches and rejects: a separate counter per word, each word
//! encrypted with its own pad. It is too expensive in storage (and
//! needs sub-AES-block pads), but as a *reference oracle* it is
//! perfect: simple enough to be obviously correct, and DEUCE must
//! decrypt to exactly the same plaintext under any write sequence.

use deuce_crypto::{EpochInterval, LineAddr, OtpEngine, SecretKey};
use deuce_rng::{DeuceRng, Rng};
use deuce_schemes::{DeuceScheme, SchemeCell, SchemeConfig, SchemeKind, WordSize};

const WORDS: usize = 32;
const WORD_BYTES: usize = 2;

/// The per-word-counter reference: one counter per 16-bit word, each
/// word XORed with the pad slice for (line, its own counter).
struct PerWordCounterLine {
    stored: [u8; 64],
    counters: [u64; WORDS],
    addr: LineAddr,
}

impl PerWordCounterLine {
    fn new(engine: &OtpEngine, addr: LineAddr, initial: &[u8; 64]) -> Self {
        let mut line = Self {
            stored: [0u8; 64],
            counters: [0; WORDS],
            addr,
        };
        for word in 0..WORDS {
            line.store_word(engine, word, &initial[word * 2..word * 2 + 2]);
        }
        line
    }

    fn store_word(&mut self, engine: &OtpEngine, word: usize, plain: &[u8]) {
        let pad = engine.line_pad(self.addr, self.counters[word]);
        for (offset, i) in (word * WORD_BYTES..(word + 1) * WORD_BYTES).enumerate() {
            self.stored[i] = plain[offset] ^ pad.word(word, WORD_BYTES)[offset];
        }
    }

    fn write(&mut self, engine: &OtpEngine, data: &[u8; 64]) {
        let current = self.read(engine);
        for word in 0..WORDS {
            let range = word * 2..word * 2 + 2;
            if data[range.clone()] != current[range.clone()] {
                self.counters[word] += 1;
                self.store_word(engine, word, &data[range]);
            }
        }
    }

    fn read(&self, engine: &OtpEngine) -> [u8; 64] {
        let mut out = [0u8; 64];
        for word in 0..WORDS {
            let pad = engine.line_pad(self.addr, self.counters[word]);
            for (offset, i) in (word * 2..(word + 1) * 2).enumerate() {
                out[i] = self.stored[i] ^ pad.word(word, WORD_BYTES)[offset];
            }
        }
        out
    }
}

/// DEUCE and the per-word-counter oracle must agree on every read,
/// under arbitrary write sequences.
#[test]
fn deuce_matches_per_word_counter_oracle() {
    let mut rng = DeuceRng::seed_from_u64(0x04AC_1E00);
    for _ in 0..32 {
        let seed: u64 = rng.gen();
        let initial: [u8; 64] = rng.gen();
        let engine = OtpEngine::new(&SecretKey::from_seed(seed));
        let addr = LineAddr::new(seed % 512);
        let mut oracle = PerWordCounterLine::new(&engine, addr, &initial);
        let mut deuce = SchemeCell::with_scheme(
            DeuceScheme::new(WordSize::Bytes2, EpochInterval::DEFAULT, 28),
            &engine,
            addr,
            &initial,
        );
        let mut data = initial;
        let writes = rng.gen_range(1usize..30);
        for _ in 0..writes {
            let patch_len = rng.gen_range(1usize..40);
            for _ in 0..patch_len {
                let idx = rng.gen_range(0usize..64);
                data[idx] = rng.gen();
            }
            oracle.write(&engine, &data);
            let _ = deuce.write(&engine, &data);
            assert_eq!(oracle.read(&engine), data);
            assert_eq!(deuce.read(&engine), data);
        }
    }
}

/// The oracle quantifies what DEUCE trades away: the oracle re-encrypts
/// only the words changed *this write*, while DEUCE re-encrypts the
/// whole epoch footprint. On a revisit pattern, DEUCE flips strictly
/// more bits — the price of storing one counter instead of 32.
#[test]
fn deuce_pays_footprint_carryover_vs_oracle() {
    let engine = OtpEngine::new(&SecretKey::from_seed(42));
    let addr = LineAddr::new(7);
    let mut oracle = PerWordCounterLine::new(&engine, addr, &[0u8; 64]);
    let mut deuce = SchemeCell::with_scheme(
        DeuceScheme::new(WordSize::Bytes2, EpochInterval::DEFAULT, 28),
        &engine,
        addr,
        &[0u8; 64],
    );

    let mut oracle_flips = 0u64;
    let mut deuce_flips = 0u64;
    let mut data = [0u8; 64];
    for i in 1..=31u8 {
        // Touch a different word each write; earlier words go quiet but
        // stay in the epoch footprint.
        let word = usize::from(i % 8);
        data[word * 2] = i;
        let before = oracle.stored;
        oracle.write(&engine, &data);
        oracle_flips += before
            .iter()
            .zip(&oracle.stored)
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum::<u64>();
        deuce_flips += u64::from(deuce.write(&engine, &data).flips.data);
    }
    assert!(
        deuce_flips > oracle_flips,
        "DEUCE {deuce_flips} should exceed the oracle {oracle_flips} on rotating footprints"
    );
    // But not catastrophically: the footprint is 8 words of 32.
    assert!(deuce_flips < oracle_flips * 12);
}

/// Storage accounting: the oracle needs 32 counters where DEUCE needs
/// one counter plus 32 bits — the §4 cost argument.
#[test]
fn storage_cost_comparison() {
    let deuce_bits = SchemeConfig::new(SchemeKind::Deuce).metadata_bits()
        + SchemeConfig::new(SchemeKind::Deuce).counter_storage_bits();
    let oracle_bits = 32 * 28; // 32 per-word counters
    assert_eq!(deuce_bits, 60);
    assert!(oracle_bits as f64 / f64::from(deuce_bits) > 14.0);
}
