//! The store decorator charges the backend's own pin, fault and evict
//! time, never the scheme closure run while a slot is pinned.

use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;

use deuce_crypto::{LineAddr, OtpEngine, SecretKey};
use deuce_perfbench::layers::{StoreClock, TimedBackend};
use deuce_schemes::{
    AnyScheme, ArenaBackend, FilePageBackend, LineScheme, PageBackend, SchemeConfig, SchemeKind,
    SLOTS_PER_PAGE,
};

const CLOSURE: Duration = Duration::from_millis(40);

/// Materialises `lines` slots holding line `i`'s initial image.
fn fill<B: PageBackend<AnyScheme>>(backend: &mut B, scheme: AnyScheme, lines: u64) -> Vec<u32> {
    let engine = OtpEngine::new(&SecretKey::from_seed(9));
    (0..lines)
        .map(|i| {
            let initial = [i as u8; 64];
            let (stored, state) = scheme.init(&engine, LineAddr::new(i), &initial);
            let shadow = scheme.needs_shadow().then_some(&initial);
            backend.push(&stored, shadow, state)
        })
        .collect()
}

fn scheme() -> AnyScheme {
    AnyScheme::from_config(&SchemeConfig::new(SchemeKind::Deuce))
}

#[test]
fn arena_store_time_excludes_the_closure() {
    let scheme = scheme();
    let clock = Rc::new(StoreClock::default());
    let mut backend = TimedBackend::new(
        ArenaBackend::<AnyScheme>::new(scheme.needs_shadow()),
        Rc::clone(&clock),
    );
    let slots = fill(&mut backend, scheme, 2);
    let before = clock.span();
    assert_eq!(before.calls, 2, "each push is one access");

    backend.with_slot_mut(slots[0], |_| std::thread::sleep(CLOSURE));
    backend.with_slot(slots[1], |_| std::thread::sleep(CLOSURE));

    let after = clock.span();
    assert_eq!(after.calls, 4);
    let charged = Duration::from_nanos(after.ns - before.ns);
    assert!(
        charged < CLOSURE / 4,
        "store charged {charged:?} for two {CLOSURE:?} closures"
    );
}

#[test]
fn paged_store_time_counts_faults_but_not_the_closure() {
    let scheme = scheme();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("store-decorator");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lines.pages");
    let paged = FilePageBackend::<AnyScheme>::create(&path, 1, scheme.needs_shadow()).unwrap();
    let clock = Rc::new(StoreClock::default());
    let mut backend = TimedBackend::new(paged, Rc::clone(&clock));
    // Two pages with one resident page: touching the first slot again
    // evicts the second page and faults the first back in.
    let slots = fill(&mut backend, scheme, SLOTS_PER_PAGE as u64 + 1);
    let faults_before = backend.paging_stats().unwrap().page_faults;
    let before = clock.span();

    backend.with_slot_mut(slots[0], |_| std::thread::sleep(CLOSURE));

    let after = clock.span();
    assert_eq!(
        backend.paging_stats().unwrap().page_faults,
        faults_before + 1
    );
    let charged = Duration::from_nanos(after.ns - before.ns);
    assert!(charged > Duration::ZERO, "a fault takes time");
    assert!(
        charged < CLOSURE / 4,
        "store charged {charged:?} around a {CLOSURE:?} closure"
    );
    let _ = std::fs::remove_file(path);
}
