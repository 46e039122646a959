//! The serve layer's headline promise: a tenant's results are a pure
//! function of its request stream — not of shard count, queue depth,
//! batch boundaries, or worker interleaving.
//!
//! Each test replays the same per-tenant streams through a
//! single-threaded `Simulator::run_source` and demands bit-identical
//! summaries and memory-image fingerprints from the service.

use deuce_serve::{request_event, Request, ServiceBuilder, SubmitError};
use deuce_sim::{SchemeKind, SimConfig, SimResult, Simulator};
use deuce_trace::{LineAddr, TraceEvent, WriteSource};

/// Deterministic per-tenant request stream: a mix of writes and reads
/// over a small working set, with tenant-specific data patterns.
fn stream(tenant: u64, requests: u64) -> Vec<Request> {
    let mut out = Vec::with_capacity(requests as usize);
    let mut z = tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    for i in 0..requests {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let addr = LineAddr::new(z % 96);
        if z.is_multiple_of(5) {
            out.push(Request::read(addr));
        } else {
            let mut data = [0u8; 64];
            for (j, byte) in data.iter_mut().enumerate() {
                *byte = (z as u8).wrapping_add(j as u8).wrapping_mul(i as u8 | 1);
            }
            out.push(Request::write(addr, data));
        }
    }
    out
}

fn tenant_config(tenant: u64) -> SimConfig {
    SimConfig::new(SchemeKind::Deuce).key_seed(0xD00D + tenant)
}

/// Pull source replaying a request stream exactly as the service maps
/// it: seq = submission order, core 0.
struct RequestStream<'a> {
    requests: &'a [Request],
    pos: usize,
}

impl WriteSource for RequestStream<'_> {
    fn next_event(&mut self) -> Result<Option<TraceEvent>, deuce_trace::TraceIoError> {
        let Some(request) = self.requests.get(self.pos) else {
            return Ok(None);
        };
        let event = request_event(self.pos as u64, request);
        self.pos += 1;
        Ok(Some(event))
    }

    fn cores(&self) -> usize {
        1
    }
}

/// Single-threaded ground truth for one tenant: summary + fingerprint.
fn replay(tenant: u64, requests: &[Request]) -> (SimResult, u64) {
    let simulator = Simulator::new(tenant_config(tenant));
    let mut session = simulator.session(1).expect("arena backend");
    for (seq, request) in requests.iter().enumerate() {
        session.step(&request_event(seq as u64, request));
    }
    let fingerprint = session.content_fingerprint();
    let result = session.finish().expect("arena replay cannot fail");
    (result, fingerprint)
}

/// Runs `tenants` streams through a service at `shards`, one submitter
/// thread per tenant, honouring backpressure by retrying.
fn serve(
    tenants: &[(u64, Vec<Request>)],
    shards: usize,
    queue_depth: usize,
    batch: usize,
) -> deuce_serve::ServeReport {
    let mut builder = ServiceBuilder::new().shards(shards).queue_depth(queue_depth);
    for (tenant, _) in tenants {
        builder = builder.tenant(format!("t{tenant}"), tenant_config(*tenant));
    }
    let handle = builder.start().expect("service starts");
    std::thread::scope(|scope| {
        for (tenant, requests) in tenants {
            let id = handle.tenant(&format!("t{tenant}")).expect("registered");
            let handle = &handle;
            scope.spawn(move || {
                for chunk in requests.chunks(batch) {
                    loop {
                        match handle.submit(id, chunk) {
                            Ok(()) => break,
                            Err(SubmitError::QueueFull { retry_after, .. }) => {
                                std::thread::sleep(retry_after);
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    }
                }
            });
        }
    });
    handle.shutdown()
}

fn assert_results_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.writes, b.writes, "{what}: writes");
    assert_eq!(a.reads, b.reads, "{what}: reads");
    assert_eq!(a.data_flips, b.data_flips, "{what}: data_flips");
    assert_eq!(a.meta_flips, b.meta_flips, "{what}: meta_flips");
    assert_eq!(a.counter_flips, b.counter_flips, "{what}: counter_flips");
    assert_eq!(a.total_slots, b.total_slots, "{what}: total_slots");
    assert_eq!(a.epoch_starts, b.epoch_starts, "{what}: epoch_starts");
    assert_eq!(
        a.exec_time_ns.to_bits(),
        b.exec_time_ns.to_bits(),
        "{what}: exec_time_ns must be bit-identical"
    );
    assert_eq!(a.metadata_bits, b.metadata_bits, "{what}: metadata_bits");
    assert_eq!(a.line_store_bytes, b.line_store_bytes, "{what}: line_store_bytes");
}

#[test]
fn per_tenant_results_are_shard_count_invariant() {
    let tenants: Vec<(u64, Vec<Request>)> =
        (0..3).map(|t| (t, stream(t, 900))).collect();
    let truth: Vec<(SimResult, u64)> = tenants
        .iter()
        .map(|(t, requests)| replay(*t, requests))
        .collect();

    for shards in [1usize, 2, 8] {
        let report = serve(&tenants, shards, 64, 7);
        assert!(report.clean(), "clean run at {shards} shards");
        assert_eq!(report.applied, 3 * 900);
        for (i, tenant) in report.tenants.iter().enumerate() {
            let (expected, fingerprint) = &truth[i];
            assert_eq!(
                tenant.fingerprint, *fingerprint,
                "tenant {i} memory image at {shards} shards"
            );
            let got = tenant.result.as_ref().expect("tenant finished clean");
            assert_results_identical(
                got,
                expected,
                &format!("tenant {i} at {shards} shards"),
            );
        }
    }
}

#[test]
fn batch_boundaries_do_not_change_results() {
    let requests = stream(9, 600);
    let (expected, fingerprint) = replay(9, &requests);
    for batch in [1usize, 13, 600] {
        // Queue depth must admit the largest batch: a chunk whose
        // per-shard share exceeds the capacity can never be accepted.
        let report = serve(&[(9, requests.clone())], 4, 1024, batch);
        assert!(report.clean());
        assert_eq!(report.tenants[0].fingerprint, fingerprint, "batch {batch}");
        assert_results_identical(
            report.tenants[0].result.as_ref().unwrap(),
            &expected,
            &format!("batch size {batch}"),
        );
    }
}

#[test]
fn replay_source_matches_run_source_driver() {
    // The RequestStream adapter used as ground truth above is itself
    // pinned against the simulator's own streaming driver, closing the
    // loop: service == session replay == run_source.
    let requests = stream(2, 500);
    let (expected, _) = replay(2, &requests);
    let via_driver = Simulator::new(tenant_config(2))
        .run_source(&mut RequestStream { requests: &requests, pos: 0 })
        .expect("streaming run");
    assert_results_identical(&via_driver, &expected, "run_source vs session replay");
}

#[test]
fn rejected_batches_never_partially_apply() {
    // Paused service, tiny queue: accepted and rejected batches are
    // known exactly, and the final state must equal a replay of only
    // the accepted ones.
    let handle = ServiceBuilder::new()
        .start_paused()
        .shards(2)
        .queue_depth(4)
        .tenant("t", tenant_config(0))
        .start()
        .unwrap();
    let id = handle.tenant("t").unwrap();

    let all = stream(0, 40);
    let mut accepted: Vec<Request> = Vec::new();
    for chunk in all.chunks(3) {
        match handle.submit(id, chunk) {
            Ok(()) => accepted.extend_from_slice(chunk),
            Err(SubmitError::QueueFull { .. }) => {}
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(accepted.len() < all.len(), "backpressure must have fired");
    assert!(!accepted.is_empty(), "some batches must fit");

    handle.resume();
    let report = handle.shutdown();
    assert_eq!(report.applied as usize, accepted.len());

    let (expected, fingerprint) = replay(0, &accepted);
    assert_eq!(report.tenants[0].fingerprint, fingerprint);
    assert_results_identical(
        report.tenants[0].result.as_ref().unwrap(),
        &expected,
        "accepted-only replay",
    );
}

#[test]
fn each_tenant_is_served_by_one_shard() {
    // Tenant i (registration order) lives on shard i % shards, so each
    // shard drains exactly the summed streams of its tenants — none
    // when it has no tenant — and every result still equals its replay.
    for (lengths, shards) in [(&[300u64, 120, 450, 60][..], 2usize), (&[200, 350][..], 4)] {
        let tenants: Vec<(u64, Vec<Request>)> = lengths
            .iter()
            .enumerate()
            .map(|(t, &n)| (t as u64, stream(t as u64, n)))
            .collect();
        let report = serve(&tenants, shards, 64, 7);
        assert!(report.clean(), "clean run at {shards} shards");
        for (shard, got) in report.shards.iter().enumerate() {
            let expected: u64 = lengths
                .iter()
                .enumerate()
                .filter(|(t, _)| t % shards == shard)
                .map(|(_, &n)| n)
                .sum();
            assert_eq!(got.drained, expected, "shard {shard} of {shards}");
        }
        for ((tenant, requests), got) in tenants.iter().zip(&report.tenants) {
            let (expected, fingerprint) = replay(*tenant, requests);
            assert_eq!(got.fingerprint, fingerprint, "tenant {tenant} at {shards} shards");
            assert_results_identical(
                got.result.as_ref().expect("tenant finished clean"),
                &expected,
                &format!("tenant {tenant} at {shards} shards"),
            );
        }
    }
}
