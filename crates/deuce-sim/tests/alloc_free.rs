//! Allocation gate: once warm, the per-event path allocates nothing.
//!
//! A counting global allocator tallies the allocations made by the
//! current thread. Each test warms a session on the first half of a
//! stream (first touches, queue growth, cache fills) and then asserts
//! that stepping the second half — source, scheme, slots, wear and
//! timing included — makes zero heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use deuce_schemes::SchemeKind;
use deuce_sim::{CounterCacheConfig, SimConfig, Simulator};
use deuce_trace::{write_source_to_file, Benchmark, BinaryStreamSource, TraceConfig, WriteSource};

/// Counts every allocation of the calling thread, then defers to the
/// system allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while the thread is tearing
    // down its locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// mcf over 64 lines per core on 2 cores.
fn workload() -> TraceConfig {
    TraceConfig::new(Benchmark::Mcf)
        .lines(64)
        .cores(2)
        .writes(4_000)
        .seed(3)
}

/// Events in [`workload`]'s stream.
fn event_count() -> u64 {
    let mut source = workload().stream();
    let mut events = 0;
    while source
        .next_event()
        .expect("generator sources are infallible")
        .is_some()
    {
        events += 1;
    }
    events
}

/// Steps `step` over every event of `source`, returning the
/// allocations made over the second half of the stream.
fn steady_state_allocations(
    mut source: impl WriteSource,
    events: u64,
    mut step: impl FnMut(&deuce_trace::TraceEvent),
) -> u64 {
    let mut before = 0;
    for i in 0..events {
        if i == events / 2 {
            before = allocations();
        }
        let event = source
            .next_event()
            .expect("readable source")
            .expect("event");
        step(&event);
    }
    let allocated = allocations() - before;
    assert!(source.next_event().expect("readable source").is_none());
    allocated
}

#[test]
fn generator_driven_deuce_session_is_allocation_free() {
    let events = event_count();
    let simulator = Simulator::new(SimConfig::new(SchemeKind::Deuce));
    let mut session = simulator.session(2).expect("arena session");
    let allocated = steady_state_allocations(workload().stream(), events, |event| {
        session.step(event);
    });
    assert_eq!(
        allocated,
        0,
        "allocations over the second {} events",
        events - events / 2
    );
    assert!(session.finish().expect("healthy run").writes > 0);
}

#[test]
fn file_decoded_dyndeuce_session_is_allocation_free() {
    let path: PathBuf =
        std::env::temp_dir().join(format!("deuce-alloc-free-{}.trace", std::process::id()));
    write_source_to_file(&path, &mut workload().stream()).expect("trace written");
    let events = event_count();
    let simulator = Simulator::new(
        SimConfig::new(SchemeKind::DynDeuce).with_counter_cache(CounterCacheConfig::DEFAULT),
    );
    let mut session = simulator.session(2).expect("arena session");
    let source = BinaryStreamSource::open(&path).expect("trace opens");
    let allocated = steady_state_allocations(source, events, |event| {
        session.step(event);
    });
    std::fs::remove_file(&path).expect("trace removed");
    assert_eq!(
        allocated,
        0,
        "allocations over the second {} events",
        events - events / 2
    );
    assert!(session.finish().expect("healthy run").writes > 0);
}
