//! Service internals: builder, handle, shard workers, and
//! whole-batch backpressure.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deuce_crypto::OtpEngine;
use deuce_schemes::AnyScheme;
use deuce_sim::{SessionStep, SimConfig, Simulator, StepSession};
use deuce_telemetry::{FlightEvent, FlightRecorder, Histogram, Recorder};

use crate::report::{build_recorder, ServeReport, ServeStats, ShardReport, TenantReport};
use crate::request::{request_event, Request};

/// Requests drained per queue pop; bounds queue-lock hold time.
const MAX_BATCH: usize = 32;

/// Opaque handle naming one registered tenant.
///
/// Obtained from [`ServeHandle::tenant`]; passing it to
/// [`ServeHandle::submit`] routes the batch into that tenant's key
/// domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// The tenant's registration index (order of
    /// [`ServiceBuilder::tenant`] calls).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Why a batch was rejected at submission.
///
/// Rejection is all-or-nothing: a rejected batch enqueued nothing and
/// will never be applied — resubmitting the identical batch later is
/// safe and equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's shard has no room for the whole batch.
    QueueFull {
        /// The tenant's shard.
        shard: usize,
        /// That shard's queue depth at rejection.
        queued: usize,
        /// The per-shard queue capacity.
        capacity: usize,
        /// Suggested wait before retrying: the time the shard needs to
        /// free the slots the batch is short of, at its measured busy
        /// time per request (wall clock; never feeds simulated results).
        retry_after: Duration,
    },
    /// [`ServeHandle::shutdown`] has begun; no new work is accepted.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { shard, queued, capacity, retry_after } => write!(
                f,
                "shard {shard} queue full ({queued}/{capacity}); retry after {retry_after:?}"
            ),
            Self::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why the service failed to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No tenants were registered.
    NoTenants,
    /// Two tenants share a name.
    DuplicateTenant(String),
    /// A tenant's store backend could not be opened (paged backends
    /// create their page file at start).
    Store {
        /// The tenant whose backend failed.
        tenant: String,
        /// The underlying error.
        error: String,
    },
    /// A shard worker thread could not be spawned.
    Spawn(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoTenants => write!(f, "no tenants registered"),
            Self::DuplicateTenant(name) => write!(f, "duplicate tenant {name:?}"),
            Self::Store { tenant, error } => {
                write!(f, "tenant {tenant:?} store backend: {error}")
            }
            Self::Spawn(error) => write!(f, "spawn shard worker: {error}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A tenant's stepping state. Only the tenant's own shard steps it;
/// the lock's poison recovery is what lets shutdown still collect the
/// tenant after that shard panics.
pub(crate) struct TenantCore {
    pub(crate) session: StepSession<AnyScheme, OtpEngine>,
    /// Requests applied so far; also the next request's sequence number.
    pub(crate) applied: u64,
    /// Ring of recent applied requests, when flight recording is on.
    pub(crate) flight: Option<FlightRing>,
    /// Flight ring snapshotted at the first uncorrectable write.
    pub(crate) ue_snapshot: Option<FlightRecorder>,
}

/// Minimal [`Recorder`] feeding only the flight ring. Recording never
/// changes simulated results (pinned by the simulator's parity tests),
/// so stepping with this is bit-identical to stepping bare.
pub(crate) struct FlightRing(pub(crate) FlightRecorder);

impl Recorder for FlightRing {
    fn wants_flight(&self) -> bool {
        true
    }

    fn flight_observed(&mut self, event: FlightEvent) {
        self.0.record(event);
    }
}

pub(crate) struct Tenant {
    pub(crate) name: String,
    pub(crate) core: Mutex<TenantCore>,
    /// Latched on the first uncorrectable write.
    pub(crate) degraded: AtomicBool,
}

/// One worker shard's queue and accounting.
pub(crate) struct Shard {
    queue: Mutex<VecDeque<Item>>,
    available: Condvar,
    /// Mirror of the queue length, written under the queue lock, so
    /// [`ServeHandle::stats`] reads depths without locking.
    depth: AtomicUsize,
    pub(crate) drained: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) max_depth: AtomicUsize,
    /// Wall time spent popping batches (lock held, excludes idle wait).
    pub(crate) drain_wall_ns: AtomicU64,
    /// Wall time spent stepping tenant sessions.
    pub(crate) apply_wall_ns: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            depth: AtomicUsize::new(0),
            drained: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_depth: AtomicUsize::new(0),
            drain_wall_ns: AtomicU64::new(0),
            apply_wall_ns: AtomicU64::new(0),
        }
    }

    /// Estimated wait until `need` more requests have drained, at this
    /// shard's wall time per request while busy. Idle time is left out,
    /// so a client's backoff cannot slow the measured rate and stretch
    /// the next hint. Clamped to [0.1 ms, 250 ms]; the floor also
    /// covers a shard that has drained nothing yet.
    fn retry_after(&self, need: usize) -> Duration {
        let drained = self.drained.load(Ordering::Relaxed).max(1);
        let busy_ns = self.drain_wall_ns.load(Ordering::Relaxed)
            + self.apply_wall_ns.load(Ordering::Relaxed);
        let secs = need as f64 * busy_ns as f64 / drained as f64 * 1e-9;
        Duration::from_secs_f64(secs.clamp(0.000_1, 0.25))
    }
}

struct Item {
    tenant: usize,
    request: Request,
}

pub(crate) struct ServiceState {
    pub(crate) tenants: Vec<Tenant>,
    pub(crate) shards: Vec<Shard>,
    pub(crate) queue_depth: usize,
    stop: AtomicBool,
    paused: Mutex<bool>,
    unpaused: Condvar,
    pub(crate) started: Instant,
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) applied: AtomicU64,
    pub(crate) batch_sizes: Mutex<Histogram>,
}

impl ServiceState {
    fn wait_unpaused(&self) {
        let mut paused = self.paused.lock().unwrap_or_else(PoisonError::into_inner);
        while *paused && !self.stop.load(Ordering::SeqCst) {
            paused = self
                .unpaused
                .wait(paused)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The one shard that queues and applies every request of `tenant`:
/// round-robin by registration order. Keeping a tenant on one FIFO
/// queue is what makes apply order equal submission order.
fn shard_of(tenant: usize, shards: usize) -> usize {
    tenant % shards
}

/// Configures and launches a service; see the crate docs for the
/// guarantees the running service provides.
///
/// # Examples
///
/// ```
/// use deuce_serve::ServiceBuilder;
/// use deuce_sim::{SchemeKind, SimConfig};
///
/// let handle = ServiceBuilder::new()
///     .shards(4)
///     .queue_depth(256)
///     .tenant("solo", SimConfig::new(SchemeKind::Deuce))
///     .start()
///     .expect("one tenant, four shards");
/// let report = handle.shutdown();
/// assert_eq!(report.shards.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    shards: usize,
    queue_depth: usize,
    paused: bool,
    flight_capacity: Option<usize>,
    tenants: Vec<(String, SimConfig)>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceBuilder {
    /// A builder with one shard, a queue depth of 1024, no flight
    /// recording, and no tenants.
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: 1,
            queue_depth: 1024,
            paused: false,
            flight_capacity: None,
            tenants: Vec::new(),
        }
    }

    /// Sets the worker shard count (clamped to at least 1). Tenant `i`
    /// (registration order) is served by shard `i % shards`, so shards
    /// beyond the tenant count sit idle.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the per-shard queue capacity (clamped to at least 1).
    /// Submissions that would overflow the tenant's shard are rejected
    /// whole with [`SubmitError::QueueFull`].
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Starts the service with shard workers parked: submissions queue
    /// (and exercise backpressure deterministically) but nothing is
    /// applied until [`ServeHandle::resume`]. Made for tests.
    #[must_use]
    pub fn start_paused(mut self) -> Self {
        self.paused = true;
        self
    }

    /// Keeps a per-tenant ring of the last `capacity` applied write
    /// events, snapshotted at the first uncorrectable write and
    /// surfaced in [`TenantReport::flight`] for post-mortems.
    #[must_use]
    pub fn with_flight_recorder(mut self, capacity: usize) -> Self {
        self.flight_capacity = Some(capacity);
        self
    }

    /// Registers a tenant: an isolated key domain simulated under
    /// `config`. Names must be unique.
    #[must_use]
    pub fn tenant(mut self, name: impl Into<String>, config: SimConfig) -> Self {
        self.tenants.push((name.into(), config));
        self
    }

    /// Builds every tenant's session, spawns the shard workers, and
    /// returns the running service's handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoTenants`] with an empty tenant list,
    /// [`ServeError::DuplicateTenant`] on a name collision,
    /// [`ServeError::Store`] if a tenant's store backend cannot be
    /// opened, and [`ServeError::Spawn`] if a worker thread fails to
    /// start.
    pub fn start(self) -> Result<ServeHandle, ServeError> {
        if self.tenants.is_empty() {
            return Err(ServeError::NoTenants);
        }
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for (name, config) in self.tenants {
            if tenants.iter().any(|t: &Tenant| t.name == name) {
                return Err(ServeError::DuplicateTenant(name));
            }
            let session = Simulator::new(config).owned_session(1).map_err(|e| {
                ServeError::Store { tenant: name.clone(), error: e.to_string() }
            })?;
            tenants.push(Tenant {
                name,
                core: Mutex::new(TenantCore {
                    session,
                    applied: 0,
                    flight: self
                        .flight_capacity
                        .map(|cap| FlightRing(FlightRecorder::new(cap))),
                    ue_snapshot: None,
                }),
                degraded: AtomicBool::new(false),
            });
        }

        let state = Arc::new(ServiceState {
            tenants,
            shards: (0..self.shards).map(|_| Shard::new()).collect(),
            queue_depth: self.queue_depth,
            stop: AtomicBool::new(false),
            paused: Mutex::new(self.paused),
            unpaused: Condvar::new(),
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            batch_sizes: Mutex::new(Histogram::new()),
        });

        let mut workers = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let state = Arc::clone(&state);
            let handle = std::thread::Builder::new()
                .name(format!("deuce-serve-{shard}"))
                .spawn(move || worker(&state, shard))
                .map_err(|e| ServeError::Spawn(e.to_string()))?;
            workers.push(handle);
        }
        Ok(ServeHandle { state, workers })
    }
}

/// The shard worker loop: drain a batch from this shard's queue and
/// step each item into its tenant's session, in queue order.
fn worker(state: &ServiceState, shard_idx: usize) {
    let shard = &state.shards[shard_idx];
    let mut batch: Vec<Item> = Vec::with_capacity(MAX_BATCH);
    loop {
        state.wait_unpaused();
        batch.clear();
        {
            let mut queue = shard.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if !queue.is_empty() {
                    let t0 = Instant::now();
                    let take = queue.len().min(MAX_BATCH);
                    batch.extend(queue.drain(..take));
                    shard.depth.store(queue.len(), Ordering::Relaxed);
                    shard
                        .drain_wall_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    break;
                }
                if state.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shard
                    .available
                    .wait_timeout(queue, Duration::from_millis(5))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        shard.drained.fetch_add(batch.len() as u64, Ordering::SeqCst);
        shard.batches.fetch_add(1, Ordering::Relaxed);
        state
            .batch_sizes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(batch.len() as u64);

        let t0 = Instant::now();
        for item in batch.drain(..) {
            let tenant = &state.tenants[item.tenant];
            let mut guard = tenant.core.lock().unwrap_or_else(PoisonError::into_inner);
            let core = &mut *guard;
            let event = request_event(core.applied, &item.request);
            let step = match core.flight.as_mut() {
                Some(ring) => core.session.step_recorded(&event, ring),
                None => core.session.step(&event),
            };
            core.applied += 1;
            state.applied.fetch_add(1, Ordering::SeqCst);
            if let SessionStep::Write { uncorrectable: true, .. } = step {
                tenant.degraded.store(true, Ordering::SeqCst);
                if core.ue_snapshot.is_none() {
                    core.ue_snapshot = core.flight.as_ref().map(|ring| ring.0.clone());
                }
            }
        }
        shard
            .apply_wall_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Handle to a running service: submit work, watch progress, shut down.
///
/// Dropping the handle without calling [`shutdown`](Self::shutdown)
/// leaks the worker threads for the remainder of the process; always
/// shut down to collect results.
pub struct ServeHandle {
    state: Arc<ServiceState>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// Looks up a tenant by registration name.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_serve::ServiceBuilder;
    /// use deuce_sim::{SchemeKind, SimConfig};
    ///
    /// let handle = ServiceBuilder::new()
    ///     .tenant("a", SimConfig::new(SchemeKind::Deuce))
    ///     .start()
    ///     .unwrap();
    /// assert!(handle.tenant("a").is_some());
    /// assert!(handle.tenant("nope").is_none());
    /// handle.shutdown();
    /// ```
    #[must_use]
    pub fn tenant(&self, name: &str) -> Option<TenantId> {
        self.state
            .tenants
            .iter()
            .position(|t| t.name == name)
            .map(TenantId)
    }

    /// Registered tenant names, in registration order.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        self.state.tenants.iter().map(|t| t.name.clone()).collect()
    }

    /// The worker shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.state.shards.len()
    }

    /// The per-shard queue capacity.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.state.queue_depth
    }

    /// Submits a batch of requests for `tenant`, atomically.
    ///
    /// Every request of a tenant goes to that tenant's one shard. The
    /// room check and the enqueue happen under that shard's queue lock:
    /// if the whole batch does not fit it is rejected with
    /// [`SubmitError::QueueFull`] and no request from it is ever
    /// applied. An accepted batch is appended to the queue in batch
    /// order and every request is applied exactly once, so a tenant's
    /// apply order is its submission order.
    ///
    /// Order across *separate* `submit` calls for the same tenant is
    /// the order they take the queue lock, so drive each tenant from
    /// one thread when replay-comparable streams matter.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure (resubmit after
    /// `retry_after`), [`SubmitError::ShuttingDown`] once shutdown has
    /// begun. An empty batch always succeeds. A batch longer than
    /// [`queue_depth`](Self::queue_depth) can *never* be accepted —
    /// retrying it loops forever; keep batches no larger than the
    /// queue depth.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_serve::{Request, ServiceBuilder};
    /// use deuce_sim::{SchemeKind, SimConfig};
    /// use deuce_trace::LineAddr;
    ///
    /// let handle = ServiceBuilder::new()
    ///     .tenant("a", SimConfig::new(SchemeKind::Deuce))
    ///     .start()
    ///     .unwrap();
    /// let a = handle.tenant("a").unwrap();
    /// handle
    ///     .submit(a, &[Request::write(LineAddr::new(1), [1; 64])])
    ///     .unwrap();
    /// assert_eq!(handle.shutdown().applied, 1);
    /// ```
    pub fn submit(&self, tenant: TenantId, batch: &[Request]) -> Result<(), SubmitError> {
        if batch.is_empty() {
            return Ok(());
        }
        let shard = shard_of(tenant.0, self.state.shards.len());
        let target = &self.state.shards[shard];
        let mut queue = target.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // Checked under the queue lock: a worker that saw `stop` and an
        // empty queue has exited, and no request may land behind it.
        if self.state.stop.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let queued = queue.len();
        if queued + batch.len() > self.state.queue_depth {
            drop(queue);
            self.state
                .rejected
                .fetch_add(batch.len() as u64, Ordering::SeqCst);
            return Err(SubmitError::QueueFull {
                shard,
                queued,
                capacity: self.state.queue_depth,
                retry_after: target.retry_after(queued + batch.len() - self.state.queue_depth),
            });
        }
        queue.extend(batch.iter().map(|&request| Item { tenant: tenant.0, request }));
        target.depth.store(queue.len(), Ordering::Relaxed);
        target.max_depth.fetch_max(queue.len(), Ordering::Relaxed);
        self.state
            .submitted
            .fetch_add(batch.len() as u64, Ordering::SeqCst);
        drop(queue);
        target.available.notify_one();
        Ok(())
    }

    /// Releases workers parked by [`ServiceBuilder::start_paused`].
    /// Idempotent; a no-op on a never-paused service.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_serve::{Request, ServiceBuilder};
    /// use deuce_sim::{SchemeKind, SimConfig};
    /// use deuce_trace::LineAddr;
    ///
    /// let handle = ServiceBuilder::new()
    ///     .start_paused()
    ///     .tenant("a", SimConfig::new(SchemeKind::Deuce))
    ///     .start()
    ///     .unwrap();
    /// let a = handle.tenant("a").unwrap();
    /// handle.submit(a, &[Request::read(LineAddr::new(0))]).unwrap();
    /// handle.resume();
    /// assert_eq!(handle.shutdown().applied, 1);
    /// ```
    pub fn resume(&self) {
        let mut paused = self
            .state
            .paused
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *paused = false;
        drop(paused);
        self.state.unpaused.notify_all();
    }

    /// A point-in-time progress snapshot (lock-free; safe to poll from
    /// a monitoring loop while submitters run).
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_serve::ServiceBuilder;
    /// use deuce_sim::{SchemeKind, SimConfig};
    ///
    /// let handle = ServiceBuilder::new()
    ///     .tenant("a", SimConfig::new(SchemeKind::Deuce))
    ///     .start()
    ///     .unwrap();
    /// let stats = handle.stats();
    /// assert_eq!(stats.submitted, 0);
    /// assert_eq!(stats.shard_depths, vec![0]);
    /// handle.shutdown();
    /// ```
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.state.submitted.load(Ordering::SeqCst),
            rejected: self.state.rejected.load(Ordering::SeqCst),
            applied: self.state.applied.load(Ordering::SeqCst),
            elapsed: self.state.started.elapsed(),
            shard_depths: self
                .state
                .shards
                .iter()
                .map(|s| s.depth.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Stops admission, drains every queue, joins the workers, and
    /// finalises every tenant — returning the full [`ServeReport`].
    ///
    /// All requests accepted before the call are applied before their
    /// tenant is finalised; submissions racing with shutdown fail with
    /// [`SubmitError::ShuttingDown`]. A panicked shard is recorded in
    /// [`ServeReport::panicked_shards`] rather than propagated, so the
    /// surviving tenants' results are still collected.
    ///
    /// # Examples
    ///
    /// ```
    /// use deuce_serve::{Request, ServiceBuilder};
    /// use deuce_sim::{SchemeKind, SimConfig};
    /// use deuce_trace::LineAddr;
    ///
    /// let handle = ServiceBuilder::new()
    ///     .shards(2)
    ///     .tenant("a", SimConfig::new(SchemeKind::Deuce))
    ///     .start()
    ///     .unwrap();
    /// let a = handle.tenant("a").unwrap();
    /// for i in 0..10 {
    ///     handle
    ///         .submit(a, &[Request::write(LineAddr::new(i % 4), [i as u8; 64])])
    ///         .unwrap();
    /// }
    /// let report = handle.shutdown();
    /// assert_eq!(report.tenants[0].requests_applied, 10);
    /// let result = report.tenants[0].result.as_ref().unwrap();
    /// assert_eq!(result.writes + result.reads + 4, 10); // 4 first touches
    /// ```
    #[must_use = "the report carries every tenant's results"]
    pub fn shutdown(self) -> ServeReport {
        self.state.stop.store(true, Ordering::SeqCst);
        self.resume();
        for shard in &self.state.shards {
            shard.available.notify_all();
        }
        let mut panicked_shards = Vec::new();
        for (idx, workers) in self.workers.into_iter().enumerate() {
            if workers.join().is_err() {
                panicked_shards.push(idx);
            }
        }
        let state = match Arc::try_unwrap(self.state) {
            Ok(state) => state,
            Err(_) => unreachable!("all workers joined; the handle holds the last Arc"),
        };
        let elapsed = state.started.elapsed();

        let shards: Vec<ShardReport> = state
            .shards
            .iter()
            .map(|s| ShardReport {
                drained: s.drained.load(Ordering::SeqCst),
                batches: s.batches.load(Ordering::SeqCst),
                max_depth: s.max_depth.load(Ordering::SeqCst),
                drain_wall_ns: s.drain_wall_ns.load(Ordering::SeqCst),
                apply_wall_ns: s.apply_wall_ns.load(Ordering::SeqCst),
            })
            .collect();

        let mut tenants = Vec::with_capacity(state.tenants.len());
        for tenant in state.tenants {
            let core = tenant
                .core
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            let fingerprint = core.session.content_fingerprint();
            let flight = core.ue_snapshot.or(core.flight.map(|ring| ring.0));
            tenants.push(TenantReport {
                name: tenant.name,
                requests_applied: core.applied,
                fingerprint,
                degraded: tenant.degraded.load(Ordering::SeqCst),
                result: core.session.finish().map_err(|e| e.to_string()),
                flight,
            });
        }

        let applied = state.applied.load(Ordering::SeqCst);
        let batch_sizes = state
            .batch_sizes
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let recorder = build_recorder(&tenants, &shards);
        ServeReport {
            tenants,
            shards,
            submitted: state.submitted.load(Ordering::SeqCst),
            rejected: state.rejected.load(Ordering::SeqCst),
            applied,
            elapsed,
            batch_sizes,
            panicked_shards,
            recorder,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_sim::SchemeKind;
    use deuce_trace::LineAddr;

    fn config() -> SimConfig {
        SimConfig::new(SchemeKind::Deuce)
    }

    #[test]
    fn start_rejects_empty_and_duplicate_tenants() {
        assert_eq!(
            ServiceBuilder::new().start().err(),
            Some(ServeError::NoTenants)
        );
        let err = ServiceBuilder::new()
            .tenant("a", config())
            .tenant("a", config())
            .start()
            .err();
        assert_eq!(err, Some(ServeError::DuplicateTenant("a".into())));
    }

    #[test]
    fn paused_service_reports_depth_then_drains_on_resume() {
        let handle = ServiceBuilder::new()
            .start_paused()
            .queue_depth(8)
            .tenant("a", config())
            .start()
            .unwrap();
        let a = handle.tenant("a").unwrap();
        let reqs: Vec<Request> = (0..6)
            .map(|i| Request::write(LineAddr::new(i), [i as u8; 64]))
            .collect();
        handle.submit(a, &reqs).unwrap();
        let stats = handle.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.shard_depths.iter().sum::<usize>(), 6);
        handle.resume();
        let report = handle.shutdown();
        assert_eq!(report.applied, 6);
        assert_eq!(report.tenants[0].requests_applied, 6);
        assert!(report.panicked_shards.is_empty());
    }

    #[test]
    fn queue_full_rejects_whole_batch_and_rolls_back() {
        let handle = ServiceBuilder::new()
            .start_paused()
            .queue_depth(4)
            .tenant("a", config())
            .start()
            .unwrap();
        let a = handle.tenant("a").unwrap();
        let make = |lo: u64, n: u64| -> Vec<Request> {
            (lo..lo + n)
                .map(|i| Request::write(LineAddr::new(i), [1; 64]))
                .collect()
        };
        handle.submit(a, &make(0, 3)).unwrap();
        let err = handle.submit(a, &make(3, 3)).unwrap_err();
        assert!(matches!(err, SubmitError::QueueFull { capacity: 4, .. }));
        // The rejected batch left no trace: one more still fits.
        handle.submit(a, &make(100, 1)).unwrap();
        handle.resume();
        let report = handle.shutdown();
        assert_eq!(report.applied, 4, "only accepted requests applied");
        assert_eq!(report.rejected, 3);
    }

    #[test]
    fn retry_after_is_shortfall_at_busy_time_per_request() {
        let shard = Shard::new();
        assert_eq!(shard.retry_after(64), Duration::from_micros(100), "no data: floor");
        // 1 µs of busy time per drained request; idle time never counts.
        shard.drained.store(1000, Ordering::Relaxed);
        shard.drain_wall_ns.store(100_000, Ordering::Relaxed);
        shard.apply_wall_ns.store(900_000, Ordering::Relaxed);
        assert_eq!(shard.retry_after(500), Duration::from_micros(500));
        assert_eq!(shard.retry_after(1), Duration::from_micros(100), "floor");
        assert_eq!(shard.retry_after(1 << 20), Duration::from_millis(250), "ceiling");
    }

    #[test]
    fn submit_after_shutdown_begins_is_rejected() {
        let handle = ServiceBuilder::new().tenant("a", config()).start().unwrap();
        let a = handle.tenant("a").unwrap();
        handle.state.stop.store(true, Ordering::SeqCst);
        assert_eq!(
            handle.submit(a, &[Request::read(LineAddr::new(0))]),
            Err(SubmitError::ShuttingDown)
        );
        let report = handle.shutdown();
        assert_eq!(report.applied, 0);
    }
}
