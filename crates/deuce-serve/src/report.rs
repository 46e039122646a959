//! End-of-run and in-flight reporting types, plus the telemetry
//! recorder the service hands back for JSONL export.

use std::time::Duration;

use deuce_sim::SimResult;
use deuce_telemetry::{
    Counter, FlightRecorder, Histogram, Recorder, TelemetryConfig, TelemetryRecorder,
};

/// Point-in-time progress snapshot from [`ServeHandle::stats`].
///
/// [`ServeHandle::stats`]: crate::ServeHandle::stats
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted so far.
    pub submitted: u64,
    /// Requests rejected with `QueueFull` so far.
    pub rejected: u64,
    /// Requests applied to tenant sessions so far.
    pub applied: u64,
    /// Wall time since the service started.
    pub elapsed: Duration,
    /// Per-shard queue depth (requests queued, not yet drained).
    pub shard_depths: Vec<usize>,
}

impl ServeStats {
    /// Applied requests per wall-clock second since start.
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        self.applied as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// One tenant's final outcome.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's registration name.
    pub name: String,
    /// Requests applied to the tenant's session.
    pub requests_applied: u64,
    /// Order-independent FNV fingerprint of the tenant's final memory
    /// image (stored line bytes + per-line metadata). Bit-identical to
    /// the fingerprint of a single-threaded replay of the same request
    /// stream, whatever the shard count.
    pub fingerprint: u64,
    /// The tenant's simulation summary, or the store error that
    /// latched during the run (paged backends).
    pub result: Result<SimResult, String>,
    /// Whether the tenant hit an uncorrectable write. The session kept
    /// stepping (replay bit-identity survives), but the device is past
    /// end of life and the tenant's data is no longer trustworthy.
    pub degraded: bool,
    /// Flight ring for post-mortems, when the service was built with
    /// [`ServiceBuilder::with_flight_recorder`]: the ring as of the
    /// first uncorrectable write, or the end-of-run ring otherwise.
    ///
    /// [`ServiceBuilder::with_flight_recorder`]: crate::ServiceBuilder::with_flight_recorder
    pub flight: Option<FlightRecorder>,
}

/// One worker shard's lifetime accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Requests this shard applied.
    pub drained: u64,
    /// Batches this shard popped.
    pub batches: u64,
    /// Deepest the queue ever got (high-water mark, taken at enqueue).
    pub max_depth: usize,
    /// Wall nanoseconds spent popping batches (queue lock held).
    pub drain_wall_ns: u64,
    /// Wall nanoseconds spent stepping tenant sessions.
    pub apply_wall_ns: u64,
}

/// Everything [`ServeHandle::shutdown`] hands back.
///
/// [`ServeHandle::shutdown`]: crate::ServeHandle::shutdown
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-tenant outcomes, in registration order.
    pub tenants: Vec<TenantReport>,
    /// Per-shard accounting, in shard order.
    pub shards: Vec<ShardReport>,
    /// Requests accepted over the service's lifetime.
    pub submitted: u64,
    /// Requests rejected with `QueueFull` over the service's lifetime.
    pub rejected: u64,
    /// Requests applied (equals `submitted` after a clean drain).
    pub applied: u64,
    /// Wall time from start to the end of shutdown's drain.
    pub elapsed: Duration,
    /// Distribution of batch sizes workers popped (log2 buckets).
    pub batch_sizes: Histogram,
    /// Shards whose worker thread panicked (empty on a clean run);
    /// their queued work may be only partially applied, but every
    /// other tenant's results are still collected.
    pub panicked_shards: Vec<usize>,
    /// Aggregate telemetry over all tenants — summed structured
    /// counters plus `serve` / `shard:drain` / `serve:apply` wall-time
    /// spans — ready for `deuce_telemetry::export::write_jsonl`.
    pub recorder: TelemetryRecorder,
}

impl ServeReport {
    /// Applied requests per wall-clock second over the whole run.
    #[must_use]
    pub fn requests_per_sec(&self) -> f64 {
        self.applied as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Whether every tenant finished with an `Ok` summary, no tenant
    /// degraded, and no shard panicked.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.panicked_shards.is_empty()
            && self
                .tenants
                .iter()
                .all(|t| t.result.is_ok() && !t.degraded)
    }
}

/// Builds the aggregate recorder: tenant-summed counters, and the
/// serve layer's wall-time spans in the same span table the simulator
/// uses (so `deuce report` shows `serve` next to `run`).
pub(crate) fn build_recorder(
    tenants: &[TenantReport],
    shards: &[ShardReport],
) -> TelemetryRecorder {
    let mut recorder = TelemetryRecorder::new(TelemetryConfig::default()).with_spans();
    for tenant in tenants {
        let Ok(result) = &tenant.result else { continue };
        let first_touches = tenant
            .requests_applied
            .saturating_sub(result.reads + result.writes);
        recorder.add(Counter::Reads, result.reads);
        recorder.add(Counter::Writes, result.writes);
        recorder.add(Counter::FirstTouches, first_touches);
        recorder.add(Counter::DataFlips, result.data_flips);
        recorder.add(Counter::MetaFlips, result.meta_flips);
        recorder.add(Counter::CounterFlips, result.counter_flips);
        recorder.add(Counter::EpochStarts, result.epoch_starts);
        recorder.add(Counter::SlotsTotal, result.total_slots);
    }
    let drained: u64 = shards.iter().map(|s| s.drained).sum();
    let batches: u64 = shards.iter().map(|s| s.batches).sum();
    let drain_ns: u64 = shards.iter().map(|s| s.drain_wall_ns).sum();
    let apply_ns: u64 = shards.iter().map(|s| s.apply_wall_ns).sum();
    recorder.span_begin("serve");
    recorder.span_attach(Some("serve"), "shard:drain", drain_ns, batches);
    recorder.span_attach(Some("serve"), "serve:apply", apply_ns, drained);
    recorder.span_end();
    recorder
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_sums_counters_and_exposes_serve_spans() {
        let tenants = vec![
            TenantReport {
                name: "a".into(),
                requests_applied: 12,
                fingerprint: 1,
                result: Ok(SimResult {
                    reads: 4,
                    writes: 6,
                    data_flips: 40,
                    ..SimResult::default()
                }),
                degraded: false,
                flight: None,
            },
            TenantReport {
                name: "b".into(),
                requests_applied: 3,
                fingerprint: 2,
                result: Err("disk gone".into()),
                degraded: false,
                flight: None,
            },
        ];
        let shards = vec![ShardReport {
            drained: 15,
            batches: 4,
            max_depth: 7,
            drain_wall_ns: 100,
            apply_wall_ns: 900,
        }];
        let recorder = build_recorder(&tenants, &shards);
        assert_eq!(recorder.counter(Counter::Reads), 4);
        assert_eq!(recorder.counter(Counter::Writes), 6);
        assert_eq!(recorder.counter(Counter::FirstTouches), 2);
        assert_eq!(recorder.counter(Counter::DataFlips), 40);
        let spans = recorder.spans().expect("built with spans");
        let names: Vec<&str> = spans.self_times().iter().map(|s| s.name).collect();
        assert!(names.contains(&"serve"), "span table: {names:?}");
        assert!(names.contains(&"shard:drain"), "span table: {names:?}");
        assert!(names.contains(&"serve:apply"), "span table: {names:?}");
    }
}
