//! Timing decorators around the public stage traits, used only by the
//! traced pass.
//!
//! Each decorator forwards every call unchanged to the stage it wraps
//! and adds the call's wall time to an in-memory accumulator, so a
//! traced pass produces bit-identical simulated results. Nothing is
//! written out while a pass runs; the accumulators are read once the
//! pass has ended.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use deuce_crypto::{LineAddr, LineBytes, OtpEngine};
use deuce_memctl::{CounterOutcome, CounterStage, SchemeStage, TimingStage};
use deuce_schemes::WriteOutcome;
use deuce_schemes::{LineMut, LineRef, LineScheme, LineStore, PageBackend, StorePageStats};
use deuce_sim::{CounterCache, MemoryTimingModel};

/// Wall nanoseconds since `start`, saturating.
pub fn ns_since(start: Instant) -> u64 {
    ns_between(start, Instant::now())
}

/// Wall nanoseconds from `start` to `end`, saturating.
pub fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Time and call count of one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Wall nanoseconds spent in the layer.
    pub ns: u64,
    /// Calls into the layer.
    pub calls: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.calls += 1;
    }
}

/// Store-layer time shared between a [`TimedBackend`] (owned by the
/// line store, out of reach once built) and the benchmark. `Cell`s
/// because `PageBackend::with_slot` takes `&self`.
#[derive(Debug, Default)]
pub struct StoreClock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl StoreClock {
    fn add(&self, ns: u64) {
        self.ns.set(self.ns.get() + ns);
        self.calls.set(self.calls.get() + 1);
    }

    /// Pin, fault and evict time so far, excluding the closures run
    /// while a slot was pinned.
    pub fn span(&self) -> Span {
        Span {
            ns: self.ns.get(),
            calls: self.calls.get(),
        }
    }
}

/// A [`PageBackend`] decorator timing `push`, `with_slot` and
/// `with_slot_mut`. The closure a caller passes inward (the scheme's
/// work on the pinned line) is timed separately and subtracted, so the
/// clock holds only the backend's own pin, fault and evict time.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    clock: Rc<StoreClock>,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`, charging its time to `clock`.
    pub fn new(inner: B, clock: Rc<StoreClock>) -> Self {
        Self { inner, clock }
    }
}

impl<S: LineScheme, B: PageBackend<S>> PageBackend<S> for TimedBackend<B> {
    fn push(&mut self, stored: &LineBytes, shadow: Option<&LineBytes>, state: S::State) -> u32 {
        let start = Instant::now();
        let slot = self.inner.push(stored, shadow, state);
        self.clock.add(ns_since(start));
        slot
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn with_slot_mut<T>(&mut self, slot: u32, f: impl FnOnce(LineMut<'_, S::State>) -> T) -> T {
        let mut inside = 0;
        let start = Instant::now();
        let out = self.inner.with_slot_mut(slot, |line| {
            let pinned = Instant::now();
            let out = f(line);
            inside = ns_since(pinned);
            out
        });
        self.clock.add(ns_since(start).saturating_sub(inside));
        out
    }

    fn with_slot<T>(&self, slot: u32, f: impl FnOnce(LineRef<'_, S::State>) -> T) -> T {
        let mut inside = 0;
        let start = Instant::now();
        let out = self.inner.with_slot(slot, |line| {
            let pinned = Instant::now();
            let out = f(line);
            inside = ns_since(pinned);
            out
        });
        self.clock.add(ns_since(start).saturating_sub(inside));
        out
    }

    fn per_line_bytes(&self) -> u64 {
        self.inner.per_line_bytes()
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn paging_stats(&self) -> Option<StorePageStats> {
        self.inner.paging_stats()
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn flush_state(&self) -> (u64, u64) {
        self.inner.flush_state()
    }

    fn io_error(&self) -> Option<String> {
        self.inner.io_error()
    }
}

/// The scheme stage as the simulator builds it (a line store plus the
/// pad engine), timed around each `write_first_touch`. The span
/// includes the store time nested inside it; subtract
/// [`StoreClock::span`] for the scheme's own time.
#[derive(Debug)]
pub struct TimedSchemes<S: LineScheme, B: PageBackend<S>> {
    /// The line store the scheme writes through.
    pub store: LineStore<S, B>,
    /// The pad engine.
    pub engine: OtpEngine,
    /// Time in `write_first_touch`, store time included.
    pub span: Span,
}

impl<S: LineScheme, B: PageBackend<S>> SchemeStage for TimedSchemes<S, B> {
    fn write(&mut self, line: LineAddr, data: &[u8; 64]) -> Option<WriteOutcome> {
        let start = Instant::now();
        let outcome = self.store.write_first_touch(&self.engine, line, data);
        self.span.add(ns_since(start));
        outcome
    }

    fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes()
    }
}

/// The counter cache, timed per access.
#[derive(Debug)]
pub struct TimedCounter {
    /// The wrapped cache (hit and miss counts are read from it).
    pub cache: CounterCache,
    /// Time in `access`.
    pub span: Span,
}

impl CounterStage for TimedCounter {
    fn access(&mut self, line: LineAddr, dirtying: bool) -> CounterOutcome {
        let start = Instant::now();
        let outcome = CounterStage::access(&mut self.cache, line, dirtying);
        self.span.add(ns_since(start));
        outcome
    }

    fn occupancy(&self) -> u64 {
        self.cache.occupancy()
    }
}

/// The timing model, timed per charged request.
#[derive(Debug)]
pub struct TimedTiming {
    /// The wrapped model (simulated time is read from it).
    pub model: MemoryTimingModel,
    /// Time in `read` and `write`.
    pub span: Span,
}

impl TimingStage for TimedTiming {
    fn read(&mut self, core: usize, instr: u64, line: LineAddr) {
        let start = Instant::now();
        self.model.read(core, instr, line);
        self.span.add(ns_since(start));
    }

    fn write(&mut self, core: usize, instr: u64, line: LineAddr, slots: u32) {
        let start = Instant::now();
        self.model.write(core, instr, line, slots);
        self.span.add(ns_since(start));
    }
}
