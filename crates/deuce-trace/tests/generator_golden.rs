//! Golden fingerprints of the trace generator's event streams.
//!
//! The fixture (`tests/fixtures/generator_golden.tsv`) holds one FNV-1a
//! hash per stream over every event's core, instruction count, op,
//! line and data. It pins every benchmark profile, the drift profiles
//! (milc, wrf) included, plus the one-line working set and a short mcf
//! stream over a 65536-line working set. Any optimisation of the
//! generator must leave every event, and so every hash, unchanged.

use deuce_trace::{Benchmark, Op, TraceConfig, WriteSource};

const FIXTURE: &str = include_str!("fixtures/generator_golden.tsv");

/// FNV-1a over a byte stream; stable, dependency-free fingerprint.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// `events writes hash` of one streamed configuration.
fn fingerprint(config: &TraceConfig) -> String {
    let mut source = config.stream();
    let (mut events, mut writes) = (0u64, 0u64);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    while let Some(e) = source
        .next_event()
        .expect("generator sources are infallible")
    {
        events += 1;
        fnv(&mut hash, &[e.core]);
        fnv(&mut hash, &e.instr.to_le_bytes());
        fnv(&mut hash, &[u8::from(e.op == Op::Write)]);
        fnv(&mut hash, &e.line.value().to_le_bytes());
        if let Some(data) = e.data {
            writes += 1;
            fnv(&mut hash, &data);
        }
    }
    format!("{events}\t{writes}\t{hash:016x}")
}

fn cases() -> Vec<(String, TraceConfig)> {
    let mut cases = Vec::new();
    for b in Benchmark::ALL {
        cases.push((
            format!("{}\tlines100", b.name()),
            TraceConfig::new(b)
                .lines(100)
                .cores(2)
                .writes(3000)
                .seed(11),
        ));
        cases.push((
            format!("{}\tlines1", b.name()),
            TraceConfig::new(b).lines(1).cores(2).writes(500).seed(11),
        ));
    }
    cases.push((
        "mcf\tlines65536".to_string(),
        TraceConfig::new(Benchmark::Mcf)
            .lines(65536)
            .cores(2)
            .writes(2000)
            .seed(11),
    ));
    cases
}

fn current_fixture() -> String {
    cases()
        .into_iter()
        .map(|(name, config)| format!("{name}\t{}\n", fingerprint(&config)))
        .collect()
}

#[test]
fn generator_streams_match_golden() {
    let current = current_fixture();
    for (want, got) in FIXTURE.lines().zip(current.lines()) {
        assert_eq!(
            got, want,
            "generator stream drifted from the golden capture"
        );
    }
    assert_eq!(current.lines().count(), FIXTURE.lines().count());
}

/// Regenerates the fixture text; run with
/// `cargo test -p deuce-trace --test generator_golden -- --ignored --nocapture`
/// and paste the output between the BEGIN/END markers into
/// `tests/fixtures/generator_golden.tsv`. Only ever regenerate from a
/// commit whose generator is known-good.
#[test]
#[ignore = "fixture regeneration helper, not a check"]
fn print_fixture() {
    println!("=== BEGIN FIXTURE ===");
    print!("{}", current_fixture());
    println!("=== END FIXTURE ===");
}
