//! The `serve-4t-2s` workload: four DEUCE tenants on two shards, fed
//! by one submitter thread.
//!
//! Each tenant's libquantum request stream is built before timing, the
//! way `deuce serve` builds it, and replayed once through a
//! single-threaded `StepSession` for the expected fingerprints. A pass
//! starts the service, submits batches of 32 round-robin across the
//! tenants (waiting [`BACKOFF`] on `QueueFull`), and ends when
//! `shutdown` returns: closed-loop saturation throughput.

use std::time::{Duration, Instant};

use deuce_serve::{request_event, Request, ServeReport, ServiceBuilder, SubmitError};
use deuce_sim::{SchemeKind, SimConfig, SimResult, Simulator};
use deuce_trace::{Benchmark, Op, TraceConfig, WriteSource};

use crate::golden;
use crate::layers::{ns_between, ns_since};
use crate::{
    composite_s, json_list, median, peak_rss_mb, ratio, repeat, segments_s, Metrics, Options,
    Outcome,
};

/// Tenants registered.
pub const TENANTS: usize = 4;
/// Worker shards.
pub const SHARDS: usize = 2;
/// Per-shard queue capacity.
pub const QUEUE_DEPTH: usize = 256;
/// Requests per submitted batch.
pub const BATCH: usize = 32;
/// The submitter's busy wait after a refused batch, before it retries:
/// under a tenth of the time a shard takes to drain a full queue. A
/// submitter that sleeps instead leaves its core idle, and then the
/// pass times how fast the host wakes idle cores; see the README.
pub const BACKOFF: Duration = Duration::from_micros(20);
/// Submission rounds (one batch per tenant each) between the split
/// times of an untraced pass, the segments [`crate::composite_s`]
/// combines: 8192 requests.
const SEGMENT_ROUNDS: usize = 64;

/// Tenant `index`'s configuration: DEUCE in its own key domain, as
/// `deuce serve` sets it up.
fn tenant_config(seed: u64, index: usize) -> SimConfig {
    SimConfig::new(SchemeKind::Deuce).key_seed(seed + index as u64)
}

/// Tenant `index`'s request stream, as `deuce serve` builds it.
fn tenant_requests(opts: &Options, index: usize) -> Result<Vec<Request>, String> {
    let mut source = TraceConfig::new(Benchmark::Libquantum)
        .lines(opts.scale.serve_lines)
        .writes(opts.scale.serve_writes)
        .cores(1)
        .seed(opts.seed + index as u64)
        .stream();
    let mut requests = Vec::new();
    while let Some(event) = source.next_event().map_err(|e| e.to_string())? {
        requests.push(match (event.op, event.data) {
            (Op::Write, Some(data)) => Request::write(event.line, data),
            _ => Request::read(event.line),
        });
    }
    Ok(requests)
}

/// The single-threaded ground truth for one tenant.
struct Replay {
    fingerprint: u64,
    result: SimResult,
}

fn replay(config: &SimConfig, requests: &[Request]) -> Result<Replay, String> {
    let simulator = Simulator::new(config.clone());
    let mut session = simulator.owned_session(1).map_err(|e| e.to_string())?;
    for (seq, request) in requests.iter().enumerate() {
        session.step(&request_event(seq as u64, request));
    }
    let fingerprint = session.content_fingerprint();
    let result = session.finish().map_err(|e| e.to_string())?;
    Ok(Replay {
        fingerprint,
        result,
    })
}

/// One pass. The submitter-side clocks (`submit_ns`, and `backoff_ns`
/// for the waits after refused batches) run only in traced passes.
struct Pass {
    setup_s: f64,
    wall_ns: u64,
    /// The wall time split every [`SEGMENT_ROUNDS`], then at shutdown.
    segments_s: Vec<f64>,
    submit_ns: u64,
    backoff_ns: u64,
    /// Sum of the `retry_after` hints the service returned.
    hinted_ns: u64,
    shutdown_ns: u64,
    report: ServeReport,
}

fn pass(opts: &Options, batches: &[Vec<&[Request]>], traced: bool) -> Result<Pass, String> {
    let start = Instant::now();
    let mut builder = ServiceBuilder::new()
        .shards(SHARDS)
        .queue_depth(QUEUE_DEPTH);
    for index in 0..TENANTS {
        builder = builder.tenant(format!("t{index}"), tenant_config(opts.seed, index));
    }
    let handle = builder.start().map_err(|e| e.to_string())?;
    let ids: Vec<_> = (0..TENANTS)
        .map(|i| handle.tenant(&format!("t{i}")).expect("registered above"))
        .collect();
    let first = Instant::now();
    let mut marks = vec![first];
    let rounds = batches.iter().map(Vec::len).max().unwrap_or(0);
    let mut submit_ns = 0;
    let mut backoff_ns = 0;
    let mut hinted_ns = 0;
    for round in 0..rounds {
        if round > 0 && round % SEGMENT_ROUNDS == 0 {
            marks.push(Instant::now());
        }
        for (tenant, chunks) in batches.iter().enumerate() {
            let Some(batch) = chunks.get(round) else {
                continue;
            };
            loop {
                let submitted = traced.then(Instant::now);
                let outcome = handle.submit(ids[tenant], batch);
                if let Some(t) = submitted {
                    submit_ns += ns_since(t);
                }
                match outcome {
                    Ok(()) => break,
                    // Not `sleep(retry_after)`: see the README's serve
                    // section for why that cannot be measured steadily.
                    Err(SubmitError::QueueFull { retry_after, .. }) => {
                        hinted_ns += u64::try_from(retry_after.as_nanos()).unwrap_or(u64::MAX);
                        let waited = Instant::now();
                        while waited.elapsed() < BACKOFF {
                            std::hint::spin_loop();
                        }
                        if traced {
                            backoff_ns += ns_since(waited);
                        }
                    }
                    Err(SubmitError::ShuttingDown) => {
                        return Err("service shut down while submitting".into());
                    }
                }
            }
        }
    }
    let shutdown = Instant::now();
    let report = handle.shutdown();
    let end = Instant::now();
    marks.extend([shutdown, end]);
    Ok(Pass {
        setup_s: (first - start).as_secs_f64(),
        wall_ns: ns_between(first, end),
        segments_s: segments_s(&marks),
        submit_ns,
        backoff_ns,
        hinted_ns,
        shutdown_ns: ns_between(shutdown, end),
        report,
    })
}

/// Gates one pass against the replays.
fn check(
    i: usize,
    pass: &Pass,
    streams: &[Vec<Request>],
    replays: &[Replay],
    out: &mut Vec<String>,
) {
    let report = &pass.report;
    let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
    if report.submitted != total || report.applied != total {
        out.push(format!(
            "pass {i}: submitted {} applied {} of {total} requests",
            report.submitted, report.applied
        ));
    }
    if !report.panicked_shards.is_empty() {
        out.push(format!(
            "pass {i}: shards {:?} panicked",
            report.panicked_shards
        ));
    }
    for ((tenant, stream), expected) in report.tenants.iter().zip(streams).zip(replays) {
        let name = &tenant.name;
        if tenant.requests_applied != stream.len() as u64 {
            out.push(format!(
                "pass {i} {name}: applied {} of {}",
                tenant.requests_applied,
                stream.len()
            ));
        }
        if tenant.fingerprint != expected.fingerprint {
            out.push(format!(
                "pass {i} {name}: fingerprint {:016x} != replay {:016x}",
                tenant.fingerprint, expected.fingerprint
            ));
        }
        if tenant.degraded {
            out.push(format!("pass {i} {name}: degraded"));
        }
        match &tenant.result {
            Ok(r) => {
                let e = &expected.result;
                let got = (
                    r.reads,
                    r.writes,
                    r.data_flips,
                    r.meta_flips,
                    r.exec_time_ns.to_bits(),
                );
                let want = (
                    e.reads,
                    e.writes,
                    e.data_flips,
                    e.meta_flips,
                    e.exec_time_ns.to_bits(),
                );
                if got != want {
                    out.push(format!("pass {i} {name}: (reads, writes, data, meta, exec bits) {got:?} != replay {want:?}"));
                }
            }
            Err(error) => out.push(format!("pass {i} {name}: {error}")),
        }
    }
}

/// The serve ledger of one traced pass, against the median untraced
/// wall time. Shard figures come from `ShardReport`; the submitter
/// thread's time splits into submit, backoff and shutdown.
fn ledger(p: &Pass, untraced_wall_ns: f64) -> Metrics {
    let mut m = Metrics::default();
    let r = &p.report;
    let drained: u64 = r.shards.iter().map(|s| s.drained).sum();
    let apply: u64 = r.shards.iter().map(|s| s.apply_wall_ns).sum();
    let drain: u64 = r.shards.iter().map(|s| s.drain_wall_ns).sum();
    let busiest = r.shards.iter().map(|s| s.drained).max().unwrap_or(0);
    let mean = ratio(drained as f64, r.shards.len() as f64);
    let shard_wall = r.elapsed.as_nanos() as f64 * r.shards.len() as f64;
    let wall = p.wall_ns as f64;
    m.set(
        "serve.submit_ns_per_req",
        ratio(p.submit_ns as f64, r.submitted as f64),
    );
    m.set(
        "serve.reject_share",
        ratio(r.rejected as f64, (r.submitted + r.rejected) as f64),
    );
    m.set("serve.backoff_s", p.backoff_ns as f64 / 1e9);
    m.set("serve.retry_after_s", p.hinted_ns as f64 / 1e9);
    m.set(
        "serve.apply_ns_per_req",
        ratio(apply as f64, drained as f64),
    );
    m.set(
        "serve.drain_ns_per_req",
        ratio(drain as f64, drained as f64),
    );
    m.set(
        "serve.shard_idle_share",
        1.0 - ratio((apply + drain) as f64, shard_wall),
    );
    m.set("serve.shard_imbalance", ratio(busiest as f64, mean));
    m.set("serve.shutdown_s", p.shutdown_ns as f64 / 1e9);
    m.set("bench.trace_overhead", ratio(wall, untraced_wall_ns) - 1.0);
    let attributed = p.submit_ns + p.backoff_ns + p.shutdown_ns;
    m.set(
        "bench.unattributed_share",
        1.0 - ratio(attributed as f64, wall),
    );
    m
}

/// Runs `serve-4t-2s`.
pub(crate) fn run(opts: &Options) -> Result<Outcome, String> {
    let streams: Vec<Vec<Request>> = (0..TENANTS)
        .map(|i| tenant_requests(opts, i))
        .collect::<Result<_, _>>()?;
    let replays: Vec<Replay> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| replay(&tenant_config(opts.seed, i), s))
        .collect::<Result<_, _>>()?;

    let batches: Vec<Vec<&[Request]>> = streams.iter().map(|s| s.chunks(BATCH).collect()).collect();

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    repeat(opts.seconds, opts.scale.min_passes, || {
        untraced.push(pass(opts, &batches, false)?);
        if opts.trace {
            traced.push(pass(opts, &batches, true)?);
        }
        Ok(())
    })?;
    let peak_rss = peak_rss_mb()?;

    let mut mismatches = Vec::new();
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        check(i, p, &streams, &replays, &mut mismatches);
    }
    if opts.seed == crate::DEFAULT_SEED && opts.scale == crate::Scale::FULL {
        for (index, (expected, replay)) in
            golden::SERVE_FINGERPRINTS.iter().zip(&replays).enumerate()
        {
            if *expected != replay.fingerprint {
                mismatches.push(format!(
                    "t{index}: replay fingerprint {:016x} != recorded golden {expected:016x}",
                    replay.fingerprint
                ));
            }
        }
    }

    let attempted: u64 = untraced.iter().map(|p| p.report.applied).sum();
    let composite = composite_s(
        &untraced
            .iter()
            .map(|p| p.segments_s.clone())
            .collect::<Vec<_>>(),
    );
    let mut metrics = Metrics::default();
    if opts.trace {
        let untraced_wall = median(untraced.iter().map(|p| p.wall_ns as f64));
        let ledgers: Vec<Metrics> = traced.iter().map(|t| ledger(t, untraced_wall)).collect();
        metrics = Metrics::median_of(&ledgers);
    } else {
        // Shard scheduling varies from pass to pass and host load
        // drifts over a run; the fastest-segment composite kept runs
        // of the same code closest (see README).
        metrics.set("ops_per_s", untraced[0].report.applied as f64 / composite);
        metrics.set("setup_s", median(untraced.iter().map(|p| p.setup_s)));
        metrics.set("peak_rss_mb", peak_rss);
    }
    let fingerprints: Vec<String> = replays
        .iter()
        .map(|r| format!("\"{:016x}\"", r.fingerprint))
        .collect();
    let describe = format!(
        "{{\"inputs\": {{\"benchmark\": \"libq\", \"tenants\": {TENANTS}, \"shards\": {SHARDS}, \
         \"queue_depth\": {QUEUE_DEPTH}, \"batch\": {BATCH}, \"writes_per_tenant\": {}, \
         \"lines_per_tenant\": {}, \"scheme\": \"deuce\"}}, \"pass_walls_s\": {}, \
         \"traced_pass_walls_s\": {}, \"composite_s\": {composite}, \"requests_per_pass\": {}, \"replay_fingerprints\": [{}]}}",
        opts.scale.serve_writes,
        opts.scale.serve_lines,
        json_list(untraced.iter().map(|p| p.wall_ns as f64 / 1e9)),
        json_list(traced.iter().map(|p| p.wall_ns as f64 / 1e9)),
        streams.iter().map(Vec::len).sum::<usize>(),
        fingerprints.join(", ")
    );
    let fingerprints = replays.iter().map(|r| r.fingerprint).collect();
    Ok(Outcome::new(
        attempted,
        mismatches,
        &metrics,
        opts.trace,
        describe,
        fingerprints,
    ))
}
