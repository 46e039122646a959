//! The attack models of §2 made concrete: what each adversary sees
//! under each memory configuration, and how the integrity layer stops
//! the bus-tampering escalation.
//!
//! Each line is a `SchemeCell`: built from a scheme's parameter struct
//! with `SchemeCell::with_scheme`, or from a `SchemeConfig` as a
//! `SchemeLine`.
//!
//! ```text
//! cargo run --release --example stolen_dimm
//! ```

use deuce::crypto::{LineAddr, OtpEngine, SecretKey};
use deuce::integrity::{CounterTree, LineMac};
use deuce::schemes::{
    AddrPadScheme, DeuceScheme, EpochInterval, SchemeCell, SchemeConfig, SchemeKind, SchemeLine,
    WordSize,
};

fn secret_line() -> [u8; 64] {
    let pattern = b"PATIENT RECORD #4711 DIAGNOSIS: ";
    std::array::from_fn(|i| pattern[i % pattern.len()])
}

fn printable(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|&b| if b.is_ascii_graphic() || b == b' ' { b as char } else { '.' })
        .collect()
}

fn main() {
    let engine = OtpEngine::new(&SecretKey::from_seed(2024));
    let secret = secret_line();

    println!("== Attack 1: stolen DIMM (adversary dumps the array) ==\n");
    for (i, kind) in [SchemeKind::UnencryptedDcw, SchemeKind::AddrPad, SchemeKind::Deuce]
        .into_iter()
        .enumerate()
    {
        let line = SchemeLine::new(
            &SchemeConfig::new(kind),
            &engine,
            LineAddr::new(0x100 + i as u64),
            &secret,
        );
        let at_rest = line.image();
        println!("{:<12} {}", kind.label(), printable(&at_rest.data()[..32]));
    }
    println!("\nOnly the unencrypted DIMM leaks; both encrypted layouts are noise.\n");

    println!("== Attack 2: bus snooping (adversary watches consecutive writebacks) ==\n");
    // AddrPad reuses its pad, so XOR of two ciphertexts = XOR of
    // plaintexts: the snooper learns exactly which bytes changed and how.
    let mut addr_pad = SchemeCell::with_scheme(
        AddrPadScheme,
        &engine,
        LineAddr::new(0x200),
        &secret,
    );
    let ct1 = *addr_pad.image().data();
    let mut update = secret;
    update[24..28].copy_from_slice(b"HIV+");
    let _ = addr_pad.write(&engine, &update);
    let ct2 = *addr_pad.image().data();
    let leak: Vec<u8> = ct1.iter().zip(&ct2).map(|(a, b)| a ^ b).collect();
    println!(
        "AddrPad      snooper computes ct1^ct2 = {:02x?}... (nonzero at the\n             changed bytes: plaintext diff leaks!)",
        &leak[20..32]
    );

    // DEUCE's counters give every write a fresh pad: the XOR is noise.
    let mut deuce = SchemeCell::with_scheme(
        DeuceScheme::new(WordSize::Bytes2, EpochInterval::DEFAULT, 28),
        &engine,
        LineAddr::new(0x300),
        &secret,
    );
    let ct1 = *deuce.image().data();
    let _ = deuce.write(&engine, &update);
    let ct2 = *deuce.image().data();
    let nonzero = ct1.iter().zip(&ct2).filter(|(a, b)| a != b).count();
    println!(
        "DEUCE        snooper sees {nonzero} changed ciphertext bytes of pure\n             keystream — only *which word* changed is visible (§4.3.5)."
    );

    println!("\n== Attack 3: bus tampering (adversary rolls a counter back) ==\n");
    let mut tree = CounterTree::new(1024, *SecretKey::from_seed(9).as_bytes());
    let mac = LineMac::new(*SecretKey::from_seed(10).as_bytes());
    let line_idx = 0x2A;
    // Writes advance the counter and the tree.
    tree.update(line_idx, 1);
    tree.update(line_idx, 2);
    let tag = mac.tag(LineAddr::new(line_idx as u64), 2, &secret);
    // The attacker resets the stored counter to 1, hoping the controller
    // re-uses pad(1) and opens a pad-reuse attack (footnote 1).
    match tree.verify(line_idx, 1) {
        Err(e) => println!("counter rollback:   detected — {e}"),
        Ok(()) => println!("counter rollback:   MISSED (bug!)"),
    }
    // And splices stale data back in.
    let stale = [0u8; 64];
    let caught = !mac.check(LineAddr::new(line_idx as u64), 2, &stale, &tag);
    println!(
        "data splicing:      {}",
        if caught { "detected — MAC mismatch" } else { "MISSED (bug!)" }
    );
}
