//! The two `run` workloads: `gen-deuce` and `file-paged-dyndeuce`.
//!
//! A measured (untraced) pass is `Simulator::run_source` over the
//! workload's source, exactly as `deuce run --stream` drives it. The
//! traced pass builds the same pipeline from public parts with every
//! stage wrapped in a [`crate::layers`] decorator. A reference pass
//! steps a `StepSession` to read the untraced memory image's
//! fingerprint.

use std::collections::HashSet;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use deuce_crypto::{OtpEngine, SecretKey};
use deuce_memctl::{MemoryPipeline, StepOutcome};
use deuce_schemes::SLOTS_PER_PAGE;
use deuce_schemes::{AnyScheme, ArenaBackend, FilePageBackend, LineScheme, LineStore, PageBackend};
use deuce_sim::{
    CounterCache, CounterCacheConfig, FileStoreConfig, MemoryTimingModel, SchemeKind, SimConfig,
    SimResult, Simulator, StoreBackend, StorePageStats,
};
use deuce_trace::{
    open_source, write_source_to_file, Benchmark, Op, TraceConfig, TraceEvent, TraceIoError,
    WriteSource,
};

use crate::golden;
use crate::layers::{
    ns_between, ns_since, Span, StoreClock, TimedBackend, TimedCounter, TimedSchemes, TimedTiming,
};
use crate::{
    composite_s, json_list, median, peak_rss_mb, ratio, repeat, segments_s, Metrics, Options,
    Outcome, Workload,
};

/// Every simulated statistic the gates compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Read events.
    pub reads: u64,
    /// Counted writes (first touches excluded).
    pub writes: u64,
    /// Data-bit flips.
    pub data_flips: u64,
    /// Metadata-bit flips.
    pub meta_flips: u64,
    /// Counter-bit flips.
    pub counter_flips: u64,
    /// DEUCE epoch starts.
    pub epoch_starts: u64,
    /// Write slots.
    pub total_slots: u64,
    /// Simulated execution time, as `f64::to_bits`.
    pub exec_time_bits: u64,
    /// Page-store statistics (`None` on the arena).
    pub store: Option<StorePageStats>,
}

impl RunStats {
    fn of(result: &SimResult) -> Self {
        Self {
            reads: result.reads,
            writes: result.writes,
            data_flips: result.data_flips,
            meta_flips: result.meta_flips,
            counter_flips: result.counter_flips,
            epoch_starts: result.epoch_starts,
            total_slots: result.total_slots,
            exec_time_bits: result.exec_time_ns.to_bits(),
            store: result.store,
        }
    }
}

/// A workload's prepared inputs.
struct Inputs {
    trace: TraceConfig,
    /// The binary trace file the file workload streams.
    trace_file: Option<PathBuf>,
    /// The untraced simulator configuration.
    config: SimConfig,
    /// A description for the run's header line.
    describe: String,
}

impl Inputs {
    fn prepare(opts: &Options) -> Result<Self, String> {
        let scale = opts.scale;
        let trace = TraceConfig::new(Benchmark::Mcf)
            .lines(scale.run_lines)
            .writes(scale.run_writes)
            .cores(scale.run_cores)
            .seed(opts.seed);
        let shape = format!(
            "\"benchmark\": \"mcf\", \"writes\": {}, \"lines_per_core\": {}, \"cores\": {}",
            scale.run_writes, scale.run_lines, scale.run_cores
        );
        if opts.workload == Workload::GenDeuce {
            return Ok(Self {
                trace,
                trace_file: None,
                config: SimConfig::new(SchemeKind::Deuce),
                describe: format!("{{{shape}, \"scheme\": \"deuce\", \"store\": \"arena\"}}"),
            });
        }
        let trace_file = opts
            .work_dir
            .join(format!("{}.trace", opts.workload.name()));
        let mut source = WrittenLines {
            inner: trace.stream(),
            lines: HashSet::new(),
        };
        write_source_to_file(&trace_file, &mut source)
            .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
        let pages = source.lines.len().div_ceil(SLOTS_PER_PAGE);
        let resident = (pages * 2 / 3).max(1);
        let page_file = opts
            .work_dir
            .join(format!("{}.pages", opts.workload.name()));
        let config = SimConfig::new(SchemeKind::DynDeuce)
            .with_counter_cache(CounterCacheConfig::DEFAULT)
            .with_store_backend(StoreBackend::File(FileStoreConfig::new(
                page_file, resident,
            )));
        Ok(Self {
            trace,
            trace_file: Some(trace_file),
            config,
            describe: format!(
                "{{{shape}, \"scheme\": \"dyndeuce\", \"counter_cache_entries\": {}, \
                 \"store\": \"file\", \"pages_touched\": {pages}, \"resident_pages\": {resident}}}",
                CounterCacheConfig::DEFAULT.entries
            ),
        })
    }

    /// Deletes the page file a previous pass left, so every pass
    /// creates a fresh one (and set-up never times the truncation of a
    /// full one).
    fn remove_page_file(&self) {
        if let StoreBackend::File(file) = &self.config.store {
            let _ = std::fs::remove_file(&file.path);
        }
    }

    /// Opens the event stream the way `deuce run --stream` does.
    fn source(&self) -> Result<Box<dyn WriteSource>, String> {
        match &self.trace_file {
            Some(path) => open_source(path).map_err(|e| format!("open {}: {e}", path.display())),
            None => Ok(Box::new(self.trace.stream())),
        }
    }
}

/// Records the lines a stream writes while passing it through, so input
/// preparation can size the resident budget from the pages touched.
struct WrittenLines<S> {
    inner: S,
    lines: HashSet<u64>,
}

impl<S: WriteSource> WriteSource for WrittenLines<S> {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        let event = self.inner.next_event()?;
        if let Some(e) = &event {
            if e.op == Op::Write {
                self.lines.insert(e.line.value());
            }
        }
        Ok(event)
    }
}

/// Events between the split times of an untraced pass (a few
/// milliseconds of work), the segments [`crate::composite_s`] combines.
const SEGMENT_EVENTS: u64 = 8192;

/// Notes when the first event is pulled (the end of set-up), counts
/// events and notes a split time every [`SEGMENT_EVENTS`]; otherwise a
/// plain pass-through.
struct FirstPull<S> {
    inner: S,
    marks: Vec<Instant>,
    events: u64,
}

impl<S: WriteSource> WriteSource for FirstPull<S> {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceIoError> {
        if self.events.is_multiple_of(SEGMENT_EVENTS) {
            self.marks.push(Instant::now());
        }
        let event = self.inner.next_event()?;
        self.events += u64::from(event.is_some());
        Ok(event)
    }
}

/// One measured pass.
struct Untraced {
    setup_s: f64,
    wall_s: f64,
    /// The pass's wall time split every [`SEGMENT_EVENTS`].
    segments_s: Vec<f64>,
    events: u64,
    stats: RunStats,
}

fn untraced_pass(inputs: &Inputs) -> Result<Untraced, String> {
    inputs.remove_page_file();
    let start = Instant::now();
    let simulator = Simulator::new(inputs.config.clone());
    let mut source = FirstPull {
        inner: inputs.source()?,
        marks: Vec::new(),
        events: 0,
    };
    let result = simulator
        .run_source(&mut source)
        .map_err(|e| e.to_string())?;
    let mut marks = source.marks;
    marks.push(Instant::now());
    Ok(Untraced {
        setup_s: (marks[0] - start).as_secs_f64(),
        wall_s: (marks[marks.len() - 1] - marks[0]).as_secs_f64(),
        segments_s: segments_s(&marks),
        events: source.events,
        stats: RunStats::of(&result),
    })
}

/// The untraced memory image: a `StepSession` stepped over the whole
/// stream, fingerprinted before it finishes.
fn reference_pass(inputs: &Inputs) -> Result<(RunStats, u64), String> {
    let simulator = Simulator::new(inputs.config.clone());
    let mut source = inputs.source()?;
    let mut session = simulator
        .session(source.cores())
        .map_err(|e| e.to_string())?;
    while let Some(event) = source.next_event().map_err(|e| e.to_string())? {
        session.step(&event);
    }
    let fingerprint = session.content_fingerprint();
    let result = session.finish().map_err(|e| e.to_string())?;
    Ok((RunStats::of(&result), fingerprint))
}

/// One traced pass: the simulated outputs plus every layer's time.
#[derive(Debug, Clone, Copy)]
struct Traced {
    stats: RunStats,
    fingerprint: u64,
    wall_ns: u64,
    events: u64,
    /// Write events, first touches included (every scheme-stage call).
    write_events: u64,
    source: Span,
    step: Span,
    counter: Span,
    schemes: Span,
    store: Span,
    timing: Span,
    flush_ns: u64,
    pads: Span,
    counter_hits: u64,
    counter_misses: u64,
}

fn traced_pass(inputs: &Inputs) -> Result<Traced, String> {
    let config = &inputs.config;
    let scheme = AnyScheme::from_config(&config.scheme);
    match &config.store {
        StoreBackend::Arena => {
            traced_with(inputs, scheme, ArenaBackend::new(scheme.needs_shadow()))
        }
        StoreBackend::File(file) => {
            let backend =
                FilePageBackend::create(&file.path, file.resident_pages, scheme.needs_shadow())
                    .map_err(|e| format!("create {}: {e}", file.path.display()))?;
            traced_with(inputs, scheme, backend)
        }
    }
}

fn traced_with<B: PageBackend<AnyScheme>>(
    inputs: &Inputs,
    scheme: AnyScheme,
    backend: B,
) -> Result<Traced, String> {
    let config = &inputs.config;
    let mut source = inputs.source()?;
    let clock = Rc::new(StoreClock::default());
    let engine = OtpEngine::new(&SecretKey::from_seed(config.key_seed)).with_pad_timing();
    let schemes = TimedSchemes {
        store: LineStore::with_backend(scheme, TimedBackend::new(backend, Rc::clone(&clock))),
        engine,
        span: Span::default(),
    };
    let timing = TimedTiming {
        model: MemoryTimingModel::with_power_channels(
            config.timing,
            config.cpu,
            config.geometry,
            source.cores(),
            config.power_channels,
        ),
        span: Span::default(),
    };
    let counters_per_line = config.counter_cache.map_or(16, |c| c.counters_per_line);
    let counters = config.counter_cache.map(|c| TimedCounter {
        cache: CounterCache::new(c),
        span: Span::default(),
    });
    let mut pipeline = MemoryPipeline::new(schemes, timing, config.slot)
        .with_counter_stage(counters, counters_per_line);

    let mut stats = RunStats {
        reads: 0,
        writes: 0,
        data_flips: 0,
        meta_flips: 0,
        counter_flips: 0,
        epoch_starts: 0,
        total_slots: 0,
        exec_time_bits: 0,
        store: None,
    };
    let mut src_span = Span::default();
    let mut step_span = Span::default();
    let mut write_events = 0;
    let start = Instant::now();
    let mut mark = start;
    loop {
        let event = source.next_event().map_err(|e| e.to_string())?;
        let pulled = Instant::now();
        src_span.ns += ns_between(mark, pulled);
        src_span.calls += 1;
        let Some(event) = event else { break };
        match pipeline.step(&event) {
            StepOutcome::Read => stats.reads += 1,
            StepOutcome::FirstTouch => write_events += 1,
            StepOutcome::Write(effect) => {
                write_events += 1;
                stats.writes += 1;
                stats.data_flips += u64::from(effect.outcome.flips.data);
                stats.meta_flips += u64::from(effect.outcome.flips.meta);
                stats.counter_flips += u64::from(effect.outcome.counter_flips);
                stats.epoch_starts += u64::from(effect.outcome.epoch_started);
                stats.total_slots += u64::from(effect.slots);
            }
        }
        mark = Instant::now();
        step_span.ns += ns_between(pulled, mark);
        step_span.calls += 1;
    }
    let store = &mut pipeline.schemes.store;
    let flush_start = Instant::now();
    store.flush();
    let flush_ns = ns_since(flush_start);
    let wall_ns = ns_since(start);
    if let Some(error) = store.io_error() {
        return Err(format!("line store: {error}"));
    }
    stats.store = store.paging_stats();
    stats.exec_time_bits = pipeline.timing.model.exec_time_ns().to_bits();
    let store_span = clock.span();
    let fingerprint = pipeline.schemes.store.content_fingerprint();
    let pad = pipeline
        .schemes
        .engine
        .pad_timing_stats()
        .unwrap_or_default();
    let (counter, counter_hits, counter_misses) = pipeline
        .counters
        .as_ref()
        .map_or((Span::default(), 0, 0), |c| {
            (c.span, c.cache.hits(), c.cache.misses())
        });
    Ok(Traced {
        stats,
        fingerprint,
        wall_ns,
        events: step_span.calls,
        write_events,
        source: src_span,
        step: step_span,
        counter,
        schemes: pipeline.schemes.span,
        store: store_span,
        timing: pipeline.timing.span,
        flush_ns,
        pads: Span {
            ns: pad.wall_ns,
            calls: pad.calls,
        },
        counter_hits,
        counter_misses,
    })
}

/// The per-layer ledger of one traced pass, against the median
/// untraced wall time.
fn ledger(t: &Traced, untraced_wall_s: f64) -> Metrics {
    let mut m = Metrics::default();
    let events = t.events as f64;
    let writes = t.write_events as f64;
    let wall = t.wall_ns as f64;
    let schemes_self = t.schemes.ns.saturating_sub(t.store.ns);
    let memctl_self = t
        .step
        .ns
        .saturating_sub(t.counter.ns + t.schemes.ns + t.timing.ns);
    m.set("trace.ns_per_event", ratio(t.source.ns as f64, events));
    m.set(
        "memctl.self_ns_per_event",
        ratio(memctl_self as f64, events),
    );
    m.set(
        "counter_cache.ns_per_access",
        ratio(t.counter.ns as f64, t.counter.calls as f64),
    );
    m.set(
        "counter_cache.hit_ratio",
        ratio(
            t.counter_hits as f64,
            (t.counter_hits + t.counter_misses) as f64,
        ),
    );
    m.set("schemes.ns_per_write", ratio(schemes_self as f64, writes));
    m.set(
        "crypto.ns_per_pad",
        ratio(t.pads.ns as f64, t.pads.calls as f64),
    );
    m.set("crypto.pads_per_write", ratio(t.pads.calls as f64, writes));
    m.set(
        "store.ns_per_access",
        ratio(t.store.ns as f64, t.store.calls as f64),
    );
    let paging = t.stats.store.unwrap_or_default();
    m.set(
        "store.faults_per_kwrite",
        ratio(1000.0 * paging.page_faults as f64, writes),
    );
    m.set(
        "store.evictions_per_kwrite",
        ratio(1000.0 * paging.page_evictions as f64, writes),
    );
    m.set("store.flush_s", t.flush_ns as f64 / 1e9);
    m.set("timing.ns_per_event", ratio(t.timing.ns as f64, events));
    m.set(
        "bench.trace_overhead",
        ratio(wall / 1e9, untraced_wall_s) - 1.0,
    );
    let attributed = t.source.ns
        + memctl_self
        + t.counter.ns
        + schemes_self
        + t.store.ns
        + t.timing.ns
        + t.flush_ns;
    m.set(
        "bench.unattributed_share",
        1.0 - ratio(attributed as f64, wall),
    );
    m
}

/// Compares two sets of statistics, naming every differing field.
fn compare(what: &str, expected: &RunStats, found: &RunStats, out: &mut Vec<String>) {
    let fields: [(&str, u64, u64); 8] = [
        ("reads", expected.reads, found.reads),
        ("writes", expected.writes, found.writes),
        ("data_flips", expected.data_flips, found.data_flips),
        ("meta_flips", expected.meta_flips, found.meta_flips),
        ("counter_flips", expected.counter_flips, found.counter_flips),
        ("epoch_starts", expected.epoch_starts, found.epoch_starts),
        ("total_slots", expected.total_slots, found.total_slots),
        (
            "exec_time_bits",
            expected.exec_time_bits,
            found.exec_time_bits,
        ),
    ];
    for (field, e, f) in fields {
        if e != f {
            out.push(format!("{what}: {field} {e} != {f}"));
        }
    }
    if expected.store != found.store {
        out.push(format!(
            "{what}: store {:?} != {:?}",
            expected.store, found.store
        ));
    }
}

/// Runs `gen-deuce` or `file-paged-dyndeuce`.
pub(crate) fn run(opts: &Options) -> Result<crate::Outcome, String> {
    let inputs = Inputs::prepare(opts)?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    repeat(opts.seconds, opts.scale.min_passes, || {
        untraced.push(untraced_pass(&inputs)?);
        if opts.trace {
            traced.push(traced_pass(&inputs)?);
        }
        Ok(())
    })?;
    let peak_rss = peak_rss_mb()?;
    if !opts.trace {
        traced.push(traced_pass(&inputs)?);
    }
    let (reference, fingerprint) = reference_pass(&inputs)?;

    let mut mismatches = Vec::new();
    let baseline = untraced[0].stats;
    for (i, pass) in untraced.iter().enumerate() {
        compare(
            &format!("untraced pass {i} vs pass 0"),
            &baseline,
            &pass.stats,
            &mut mismatches,
        );
    }
    for (i, pass) in traced.iter().enumerate() {
        compare(
            &format!("traced pass {i} vs untraced"),
            &baseline,
            &pass.stats,
            &mut mismatches,
        );
        if pass.fingerprint != fingerprint {
            mismatches.push(format!(
                "traced pass {i}: content_fingerprint {fingerprint:016x} != {:016x}",
                pass.fingerprint
            ));
        }
        if pass.events != untraced[0].events {
            mismatches.push(format!(
                "traced pass {i}: events {} != {}",
                untraced[0].events, pass.events
            ));
        }
    }
    // The reference session fingerprints before it finishes, and on a
    // paged store that walk faults pages in: its paging counters differ
    // by design, so only the rest is compared.
    let mut unpaged = baseline;
    unpaged.store = reference.store;
    compare(
        "reference session vs untraced",
        &unpaged,
        &reference,
        &mut mismatches,
    );
    if opts.seed == crate::DEFAULT_SEED && opts.scale == crate::Scale::FULL {
        let expected = match opts.workload {
            Workload::GenDeuce => golden::GEN_DEUCE,
            _ => golden::FILE_PAGED_DYNDEUCE,
        };
        compare(
            "untraced vs recorded golden",
            &expected.stats,
            &baseline,
            &mut mismatches,
        );
        if expected.fingerprint != fingerprint {
            mismatches.push(format!(
                "untraced vs recorded golden: content_fingerprint {:016x} != {fingerprint:016x}",
                expected.fingerprint
            ));
        }
    }

    let attempted: u64 = untraced.iter().map(|p| p.events).sum();
    let composite = composite_s(
        &untraced
            .iter()
            .map(|p| p.segments_s.clone())
            .collect::<Vec<_>>(),
    );
    let mut metrics = Metrics::default();
    if opts.trace {
        let untraced_wall = median(untraced.iter().map(|p| p.wall_s));
        let ledgers: Vec<Metrics> = traced.iter().map(|t| ledger(t, untraced_wall)).collect();
        metrics = Metrics::median_of(&ledgers);
    } else {
        // Every pass does identical single-threaded work, so the
        // fastest-segment composite stands for one undisturbed pass
        // (see README: the median and the fastest pass drifted with
        // the host).
        metrics.set("ops_per_s", untraced[0].events as f64 / composite);
        metrics.set("setup_s", median(untraced.iter().map(|p| p.setup_s)));
        metrics.set("peak_rss_mb", peak_rss);
    }
    inputs.remove_page_file();
    if let Some(path) = &inputs.trace_file {
        let _ = std::fs::remove_file(path);
    }
    let describe = format!(
        "{{\"inputs\": {}, \"pass_walls_s\": {}, \"traced_pass_walls_s\": {}, \
         \"composite_s\": {composite}, \"events_per_pass\": {}, \"stats\": {}}}",
        inputs.describe,
        json_list(untraced.iter().map(|p| p.wall_s)),
        json_list(traced.iter().map(|t| t.wall_ns as f64 / 1e9)),
        untraced[0].events,
        stats_json(&baseline, fingerprint)
    );
    Ok(Outcome::new(
        attempted,
        mismatches,
        &metrics,
        opts.trace,
        describe,
        vec![fingerprint],
    ))
}

/// The statistics as a JSON object (the form `golden.rs` records).
fn stats_json(s: &RunStats, fingerprint: u64) -> String {
    let store = s.store.map_or("null".to_string(), |p| {
        format!(
            "{{\"page_faults\": {}, \"page_evictions\": {}, \"pages_flushed\": {}, \
             \"resident_bytes\": {}, \"peak_resident_bytes\": {}}}",
            p.page_faults,
            p.page_evictions,
            p.pages_flushed,
            p.resident_bytes,
            p.peak_resident_bytes
        )
    });
    format!(
        "{{\"reads\": {}, \"writes\": {}, \"data_flips\": {}, \"meta_flips\": {}, \
         \"counter_flips\": {}, \"epoch_starts\": {}, \"total_slots\": {}, \
         \"exec_time_bits\": {}, \"store\": {store}, \"fingerprint\": \"{fingerprint:016x}\"}}",
        s.reads,
        s.writes,
        s.data_flips,
        s.meta_flips,
        s.counter_flips,
        s.epoch_starts,
        s.total_slots,
        s.exec_time_bits
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_names_every_differing_field() {
        let stats = RunStats {
            reads: 1,
            writes: 2,
            data_flips: 3,
            meta_flips: 4,
            counter_flips: 5,
            epoch_starts: 6,
            total_slots: 7,
            exec_time_bits: 8,
            store: None,
        };
        let mut out = Vec::new();
        compare("same", &stats, &stats, &mut out);
        assert!(out.is_empty());
        let changed = RunStats {
            data_flips: 30,
            exec_time_bits: 9,
            ..stats
        };
        compare("changed", &stats, &changed, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].contains("data_flips") && out[1].contains("exec_time_bits"));
    }
}
