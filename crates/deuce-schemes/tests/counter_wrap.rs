//! Counter-wrap edge cases.
//!
//! The paper provisions 28-bit counters (Table 1) — at realistic write
//! rates a line would take years to wrap, and a real system re-keys
//! before that. These tests pin down what the *implementation* does at
//! a wrap (tiny counters force one): functional correctness must
//! survive, and the wrap must land on an epoch start (so the whole line
//! re-encrypts and no mixed-counter state is left behind).

use deuce_crypto::{EpochInterval, LineAddr, OtpEngine, SecretKey};
use deuce_schemes::{DeuceScheme, EncryptedDcwScheme, SchemeCell, WordSize};

#[test]
fn encrypted_dcw_survives_counter_wrap() {
    let engine = OtpEngine::new(&SecretKey::from_seed(1));
    // 3-bit counter wraps every 8 writes.
    let mut line = SchemeCell::with_scheme(
        EncryptedDcwScheme::new(3),
        &engine,
        LineAddr::new(5),
        &[0u8; 64],
    );
    for i in 1..=20u8 {
        let data = [i; 64];
        let _ = line.write(&engine, &data);
        assert_eq!(line.read(&engine), data, "write {i} (counter {})", line.state().value());
    }
    assert_eq!(line.state().value(), 20 % 8);
}

#[test]
fn deuce_wrap_lands_on_an_epoch_start() {
    let engine = OtpEngine::new(&SecretKey::from_seed(2));
    // 4-bit counter (wraps at 16) with epoch 4: 16 % 4 == 0, so the
    // wrap coincides with a full re-encryption and all modified bits
    // clear — no word is left decrypting against a stale counter.
    let mut line = SchemeCell::with_scheme(
        DeuceScheme::new(WordSize::Bytes2, EpochInterval::new(4).unwrap(), 4),
        &engine,
        LineAddr::new(9),
        &[0u8; 64],
    );
    let mut data = [0u8; 64];
    let mut wrap_was_epoch = false;
    for i in 1..=40u32 {
        data[0] = i as u8;
        data[13] = (i * 7) as u8;
        let outcome = line.write(&engine, &data);
        if line.state().ctr.value() == 0 {
            wrap_was_epoch = true;
            assert!(outcome.epoch_started, "wrap must be a full re-encryption");
            assert_eq!(line.state().modified.count_ones(), 0);
        }
        assert_eq!(line.read(&engine), data, "write {i}");
    }
    assert!(wrap_was_epoch, "the 4-bit counter must have wrapped");
}

/// The documented caveat: wrapping *reuses pads* (pad(addr, 0) recurs),
/// which is why real systems re-key long before 2^28 writes. We assert
/// the reuse actually happens so the security note in the docs stays
/// honest.
#[test]
fn wrap_reuses_pads_hence_rekey_requirement() {
    let engine = OtpEngine::new(&SecretKey::from_seed(3));
    let mut line = SchemeCell::with_scheme(
        EncryptedDcwScheme::new(2),
        &engine,
        LineAddr::new(1),
        &[0u8; 64],
    );
    let data = [0xABu8; 64];
    let mut images = Vec::new();
    for _ in 0..8 {
        let _ = line.write(&engine, &data);
        images.push(*line.image().data());
    }
    // Counter cycle length 4 with identical plaintext -> identical
    // ciphertexts one period apart.
    assert_eq!(images[0], images[4], "pad reuse after wrap (the re-key caveat)");
}
