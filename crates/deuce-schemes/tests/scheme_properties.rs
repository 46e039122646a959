//! Randomized tests over all scheme state machines, driven by seeded
//! [`deuce_rng`] streams.

use deuce_crypto::{EpochInterval, LineAddr, OtpEngine, SecretKey};
use deuce_rng::{DeuceRng, Rng, RngCore};
use deuce_schemes::{DeuceScheme, SchemeCell, SchemeConfig, SchemeKind, SchemeLine, WordSize};

fn pick_scheme<R: RngCore>(rng: &mut R) -> SchemeKind {
    SchemeKind::ALL[rng.gen_range(0..SchemeKind::ALL.len())]
}

/// Writes modeled as (byte index, new value) patches so that sequences
/// mix sparse and dense updates.
fn patch<R: RngCore>(rng: &mut R) -> Vec<(usize, u8)> {
    let len = rng.gen_range(1usize..120);
    (0..len).map(|_| (rng.gen_range(0usize..64), rng.gen())).collect()
}

/// The fundamental contract: read always returns the latest write,
/// for every scheme, any write sequence.
#[test]
fn read_returns_latest_write() {
    let mut rng = DeuceRng::seed_from_u64(0x5C4E_0001);
    for _ in 0..64 {
        let kind = pick_scheme(&mut rng);
        let seed: u64 = rng.gen();
        let initial: [u8; 64] = rng.gen();
        let engine = OtpEngine::new(&SecretKey::from_seed(seed));
        let config = SchemeConfig::new(kind);
        let mut line = SchemeLine::new(&config, &engine, LineAddr::new(seed % 1024), &initial);
        let mut data = initial;
        let writes = rng.gen_range(1usize..40);
        for _ in 0..writes {
            for (idx, value) in patch(&mut rng) {
                data[idx] = value;
            }
            let _ = line.write(&engine, &data);
            assert_eq!(line.read(&engine), data, "{kind}");
        }
    }
}

/// Flip accounting is always consistent with the stored images, and
/// never exceeds the total stored bits.
#[test]
fn flips_are_image_consistent_and_bounded() {
    let mut rng = DeuceRng::seed_from_u64(0x5C4E_0002);
    for _ in 0..64 {
        let kind = pick_scheme(&mut rng);
        let initial: [u8; 64] = rng.gen();
        let engine = OtpEngine::new(&SecretKey::from_seed(1));
        let config = SchemeConfig::new(kind);
        let mut line = SchemeLine::new(&config, &engine, LineAddr::new(3), &initial);
        let mut data = initial;
        for (idx, value) in patch(&mut rng) {
            data[idx] = value;
        }
        let outcome = line.write(&engine, &data);
        assert_eq!(outcome.flips, outcome.old_image.flips_to(&outcome.new_image));
        assert!(outcome.flips.total() <= 512 + config.metadata_bits());
        assert_eq!(outcome.old_image.meta().width(), config.metadata_bits());
        assert_eq!(outcome.new_image.meta().width(), config.metadata_bits());
    }
}

/// A write that does not change the plaintext never flips stored
/// bits under the write-efficient schemes (DCW semantics) — while
/// counter-mode always pays the avalanche.
#[test]
fn identity_writes() {
    let mut rng = DeuceRng::seed_from_u64(0x5C4E_0003);
    for _ in 0..64 {
        let initial: [u8; 64] = rng.gen();
        let engine = OtpEngine::new(&SecretKey::from_seed(2));
        for kind in [
            SchemeKind::UnencryptedDcw,
            SchemeKind::UnencryptedFnw,
            SchemeKind::Ble,
            SchemeKind::AddrPad,
        ] {
            let mut line =
                SchemeLine::new(&SchemeConfig::new(kind), &engine, LineAddr::new(1), &initial);
            let outcome = line.write(&engine, &initial);
            assert_eq!(outcome.flips.total(), 0, "{kind}");
        }
        // Encrypted DCW re-encrypts regardless: ~50% of bits flip.
        let mut enc = SchemeLine::new(
            &SchemeConfig::new(SchemeKind::EncryptedDcw),
            &engine,
            LineAddr::new(1),
            &initial,
        );
        let outcome = enc.write(&engine, &initial);
        assert!(outcome.flips.total() > 150);
    }
}

/// DEUCE invariant: between epoch starts, stored bits outside the
/// modified footprint (words + their tracking bits) never change.
#[test]
fn deuce_untouched_words_are_frozen() {
    let mut rng = DeuceRng::seed_from_u64(0x5C4E_0004);
    for _ in 0..64 {
        let seed: u64 = rng.gen();
        let engine = OtpEngine::new(&SecretKey::from_seed(seed));
        let mut line = SchemeCell::with_scheme(
            DeuceScheme::new(WordSize::Bytes2, EpochInterval::new(64).unwrap(), 28),
            &engine,
            LineAddr::new(9),
            &[0u8; 64],
        );
        // Confine updates to words 0..8; words 8..32 must stay frozen
        // until the first epoch boundary (write 64, beyond this run).
        let mut data = [0u8; 64];
        let baseline = *line.image().data();
        let updates = rng.gen_range(1usize..60);
        for _ in 0..updates {
            let word = rng.gen_range(0usize..8);
            let value: u16 = rng.gen();
            data[word * 2..word * 2 + 2].copy_from_slice(&value.to_le_bytes());
            let _ = line.write(&engine, &data);
        }
        let now = *line.image().data();
        assert_eq!(&now[16..], &baseline[16..], "cold words changed");
    }
}

/// Epoch counting: exactly floor(writes / epoch) epoch starts occur
/// in a run of consecutive writes to one line.
#[test]
fn epoch_start_frequency() {
    let mut rng = DeuceRng::seed_from_u64(0x5C4E_0005);
    for _ in 0..64 {
        let writes = rng.gen_range(1usize..100);
        let epoch_log2 = rng.gen_range(2u32..6);
        let engine = OtpEngine::new(&SecretKey::from_seed(5));
        let epoch = 1u64 << epoch_log2;
        let mut line = SchemeCell::with_scheme(
            DeuceScheme::new(WordSize::Bytes2, EpochInterval::new(epoch).unwrap(), 28),
            &engine,
            LineAddr::new(2),
            &[0u8; 64],
        );
        let mut observed = 0u64;
        let mut data = [0u8; 64];
        for i in 1..=writes {
            data[0] = i as u8;
            data[1] = (i >> 8) as u8;
            if line.write(&engine, &data).epoch_started {
                observed += 1;
            }
        }
        assert_eq!(observed, writes as u64 / epoch);
    }
}

/// Differential: DEUCE with word size w and epoch e decrypts identically
/// whether reads happen after every write or only at the end (no hidden
/// read-side state).
#[test]
fn reads_have_no_side_effects() {
    let engine = OtpEngine::new(&SecretKey::from_seed(8));
    for kind in SchemeKind::ALL {
        let config = SchemeConfig::new(kind);
        let mut with_reads = SchemeLine::new(&config, &engine, LineAddr::new(4), &[0u8; 64]);
        let mut without = SchemeLine::new(&config, &engine, LineAddr::new(4), &[0u8; 64]);
        let mut data = [0u8; 64];
        for i in 0..50u8 {
            data[usize::from(i % 32)] = i;
            let a = with_reads.write(&engine, &data);
            let _ = with_reads.read(&engine);
            let b = without.write(&engine, &data);
            assert_eq!(a.flips, b.flips, "{kind}: read perturbed the state at write {i}");
        }
        assert_eq!(with_reads.image(), without.image(), "{kind}");
    }
}
