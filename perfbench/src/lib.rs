//! The DEUCE simulator benchmark: three workloads, each run in its own
//! process, driven through the library's public API only.
//!
//! An untraced run measures the end-to-end metrics (`ops_per_s`,
//! `setup_s`, `peak_rss_mb`). A traced run interleaves untraced passes
//! with passes whose pipeline is assembled from the same public parts
//! the simulator uses, each stage wrapped in a timing decorator
//! ([`layers`]), and reports the per-layer ledger. Every run checks
//! the simulated outputs; see `README.md` for the rationale.

#![forbid(unsafe_code)]

pub mod golden;
pub mod host;
pub mod layers;
pub mod runs;
pub mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Generator-driven DEUCE run over the in-RAM arena.
    GenDeuce,
    /// File-driven DynDEUCE run with a counter cache and a paged store.
    FilePagedDynDeuce,
    /// Four-tenant, two-shard serve run.
    Serve4t2s,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GenDeuce,
        Workload::FilePagedDynDeuce,
        Workload::Serve4t2s,
    ];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GenDeuce => "gen-deuce",
            Workload::FilePagedDynDeuce => "file-paged-dyndeuce",
            Workload::Serve4t2s => "serve-4t-2s",
        }
    }

    /// Parses a benchmark name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is what `BENCHMARK.json` measures;
/// [`Scale::TINY`] keeps the tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Writes in the `run` workloads' mcf stream.
    pub run_writes: usize,
    /// Working-set lines per core in the `run` workloads.
    pub run_lines: usize,
    /// Cores in the `run` workloads.
    pub run_cores: u8,
    /// Writes in each serve tenant's libquantum stream.
    pub serve_writes: usize,
    /// Working-set lines per serve tenant.
    pub serve_lines: usize,
    /// Passes made even when `--seconds` runs out first.
    pub min_passes: usize,
}

impl Scale {
    /// The benchmark's measured size.
    pub const FULL: Scale = Scale {
        run_writes: 500_000,
        run_lines: 65_536,
        run_cores: 4,
        serve_writes: 30_000,
        serve_lines: 256,
        min_passes: 3,
    };

    /// A few thousand events per workload.
    pub const TINY: Scale = Scale {
        run_writes: 3_000,
        run_lines: 512,
        run_cores: 4,
        serve_writes: 1_500,
        serve_lines: 64,
        min_passes: 2,
    };
}

/// The seed `BENCHMARK.json` runs record golden values for.
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// How long to keep making measured passes.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for the trace file and page files.
    pub work_dir: PathBuf,
}

/// A metric with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics of an untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run. A workload reports 0 for a
/// layer its path does not cross or that cannot be timed from outside
/// on it (see `README.md`).
pub const PER_LAYER: [(&str, &str); 23] = [
    ("trace.ns_per_event", "ns"),
    ("memctl.self_ns_per_event", "ns"),
    ("counter_cache.ns_per_access", "ns"),
    ("counter_cache.hit_ratio", "ratio"),
    ("schemes.ns_per_write", "ns"),
    ("crypto.ns_per_pad", "ns"),
    ("crypto.pads_per_write", "count"),
    ("store.ns_per_access", "ns"),
    ("store.faults_per_kwrite", "count"),
    ("store.evictions_per_kwrite", "count"),
    ("store.flush_s", "s"),
    ("timing.ns_per_event", "ns"),
    ("serve.submit_ns_per_req", "ns"),
    ("serve.reject_share", "ratio"),
    ("serve.backoff_s", "s"),
    ("serve.retry_after_s", "s"),
    ("serve.apply_ns_per_req", "ns"),
    ("serve.drain_ns_per_req", "ns"),
    ("serve.shard_idle_share", "ratio"),
    ("serve.shard_imbalance", "ratio"),
    ("serve.shutdown_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_share", "ratio"),
];

/// Metric values by name, emitted in the canonical order of
/// [`END_TO_END`] or [`PER_LAYER`].
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a listed metric or is set twice, or if
    /// `value` is not finite: all three are bugs in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The per-metric median over several passes' ledgers.
    pub fn median_of(ledgers: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for (name, _) in PER_LAYER {
            if ledgers.iter().any(|m| m.get(name).is_some()) {
                out.set(name, median(ledgers.iter().filter_map(|m| m.get(name))));
            }
        }
        out
    }

    /// Every metric of `list`, 0 for the ones never set.
    pub fn emit(&self, list: &[(&'static str, &'static str)]) -> Vec<Metric> {
        list.iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.get(name).unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// What one invocation measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations made in measured passes.
    pub attempted: u64,
    /// Operations of those counted as failed (all of them when any
    /// gate fails).
    pub failed: u64,
    /// The metrics of this mode (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// One line per failed gate.
    pub mismatches: Vec<String>,
    /// Input description as a JSON object.
    pub inputs: String,
    /// Fingerprints of the final memory images (one per `run`
    /// workload, one per serve tenant): they change with the inputs.
    pub fingerprints: Vec<u64>,
}

impl Outcome {
    /// Builds the outcome, marking every attempted op failed when any
    /// gate failed.
    pub fn new(
        attempted: u64,
        mismatches: Vec<String>,
        metrics: &Metrics,
        trace: bool,
        inputs: String,
        fingerprints: Vec<u64>,
    ) -> Self {
        let correct = mismatches.is_empty();
        Self {
            correct,
            attempted,
            failed: if correct { 0 } else { attempted },
            metrics: metrics.emit(if trace { &PER_LAYER } else { &END_TO_END }),
            mismatches,
            inputs,
            fingerprints,
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a description when the program under test fails outright
/// (an I/O error, a store error): the benchmark then has no result.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let outcome = match opts.workload {
        Workload::GenDeuce | Workload::FilePagedDynDeuce => runs::run(opts),
        Workload::Serve4t2s => serve::run(opts),
    };
    // Leaves nothing behind once the workload removed its files.
    let _ = std::fs::remove_dir(&opts.work_dir);
    outcome
}

/// Makes passes until `seconds` have gone by and at least `min_passes`
/// were made.
pub(crate) fn repeat(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut passes = 0;
    while passes < min_passes.max(1) || start.elapsed() < budget {
        pass()?;
        passes += 1;
    }
    Ok(())
}

/// The fastest-segment composite of several passes over identical
/// work: each pass is split at the same fixed work boundaries, and the
/// result is the sum over segments of the fastest time any pass took
/// for that segment (0 with no passes).
///
/// On a shared host, interference from other tenants (cache and memory
/// bandwidth, vCPU wake-ups) only ever slows a segment, and it comes in
/// bursts shorter than a pass. The composite keeps the quiet stretches
/// of every pass, so it moves with the program, not with the host.
pub fn composite_s(passes: &[Vec<f64>]) -> f64 {
    let segments = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..segments)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The durations between consecutive `marks`, in seconds.
pub(crate) fn segments_s(marks: &[Instant]) -> Vec<f64> {
    marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64())
        .collect()
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `values` as a JSON array.
pub(crate) fn json_list(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// This process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns a description when `/proc/self/status` is unreadable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_takes_each_segments_fastest_pass() {
        let passes = vec![vec![1.0, 5.0, 2.0], vec![3.0, 1.0, 4.0, 9.0]];
        assert_eq!(composite_s(&passes), 1.0 + 1.0 + 2.0);
        assert_eq!(composite_s(&[]), 0.0);
    }
}
