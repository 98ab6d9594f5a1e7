//! The solve service: submission API, supervised worker, lifecycle.
//!
//! The service is a front end over the one batch executor
//! ([`Worker::execute`]): its admission gate validates each request, and
//! its batch former cuts a chunk and runs it through the executor inline
//! on the supervised worker thread. The batch loop runs under
//! `catch_unwind`: a panic in a fused dispatch is isolated by the
//! executor, which re-runs the batch one system at a time so the panic is
//! attributed to the request that provokes it — its ticket resolves to
//! [`SolveError::WorkerPanic`](crate::SolveError::WorkerPanic) while every
//! innocent neighbor is solved normally. The same isolation applies to
//! simulated device failures. A watchdog thread flags dispatches that
//! exceed a time budget, and a circuit breaker sheds load after a run of
//! degraded batches.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use batsolv_formats::SparsityPattern;
use batsolv_gpusim::{LaunchHook, NoDisruption};
use batsolv_trace::EventKind;
use batsolv_types::{Error, Result};

use crate::admission::{AdmissionGate, RejectReason};
use crate::breaker::CircuitBreaker;
use crate::classes::{ClassTracker, ClassesSnapshot};
use crate::config::RuntimeConfig;
use crate::dispatcher::{LadderConfig, LadderEngine, SolveEngine};
use crate::former::{BatchFormer, FlushReason};
use crate::lifecycle::{Pending, Phase};
use crate::queue::{BoundedQueue, PopResult, PushResult};
use crate::request::{SolveRequest, SubmitError, Ticket};
use crate::stats::{StatsSnapshot, Tally};
use crate::watchdog::{spawn_watchdog, WatchState};
use crate::worker::{Chunk, Role, StragglerRule, Worker};

struct Shared {
    queue: BoundedQueue<Pending>,
    worker: Worker,
    /// Monotonic batch sequence; lives here (not in the worker loop) so
    /// it survives worker respawns.
    batch_seq: AtomicU64,
}

/// Multi-threaded dynamic-batching solve service.
///
/// Submitters hand in individual systems over a shared
/// [`SparsityPattern`]; a supervised worker thread groups them into
/// batches (target size or linger timeout, whichever fires first) and
/// dispatches each batch as one fused solve through the escalation
/// ladder. See the crate docs for an end-to-end example.
pub struct SolveService {
    shared: Arc<Shared>,
    pattern: Arc<SparsityPattern>,
    gate: Option<AdmissionGate>,
    worker: Option<thread::JoinHandle<()>>,
    watchdog: Option<thread::JoinHandle<()>>,
    watchdog_stop: Arc<AtomicBool>,
    next_id: AtomicU64,
}

impl SolveService {
    /// Start a service with the production engine ([`LadderEngine`]:
    /// fused BiCGSTAB → restarted GMRES → banded-LU fallback).
    pub fn start(pattern: Arc<SparsityPattern>, config: RuntimeConfig) -> Result<SolveService> {
        Self::start_with_hook(pattern, config, Arc::new(NoDisruption))
    }

    /// Start a service whose fused launches pass through `hook` first —
    /// the fault-injection seam (see `batsolv-faults`).
    pub fn start_with_hook(
        pattern: Arc<SparsityPattern>,
        config: RuntimeConfig,
        hook: Arc<dyn LaunchHook>,
    ) -> Result<SolveService> {
        let engine = Arc::new(
            LadderEngine::with_hook(
                config.device.clone(),
                Arc::clone(&pattern),
                ladder_config(&config),
                hook,
            )
            .with_tracer(config.tracer.clone()),
        );
        Self::start_with_engine(pattern, config, engine)
    }

    /// Start a service with a caller-provided engine (tests inject
    /// doubles here).
    pub fn start_with_engine(
        pattern: Arc<SparsityPattern>,
        config: RuntimeConfig,
        engine: Arc<dyn SolveEngine>,
    ) -> Result<SolveService> {
        config.validate().map_err(Error::InvalidConfig)?;
        let classes = Arc::new(ClassTracker::new());
        let watch = Arc::new(WatchState::new());
        let worker = Worker {
            breaker: config.breaker.map(CircuitBreaker::new),
            watch: Some(Arc::clone(&watch)),
            hop: Phase::Linger,
            ..Worker::new(0, engine, config.tracer.clone(), classes)
        };
        worker.stats.set_solver(config.solver.name());
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            worker,
            batch_seq: AtomicU64::new(0),
        });
        let gate = config
            .validate_admission
            .then(|| AdmissionGate::new(&pattern));

        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = config.watchdog_budget.map(|budget| {
            let stats_shared = Arc::clone(&shared);
            let budget_us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
            spawn_watchdog(
                Arc::clone(&watch),
                budget,
                Arc::clone(&watchdog_stop),
                move || {
                    let worker = &stats_shared.worker;
                    worker.stats.add(Tally::WatchdogStall, 1);
                    worker
                        .tracer
                        .emit(None, EventKind::WatchdogStall { budget_us });
                    // A stalled dispatch is exactly the moment the recent
                    // event history matters: freeze it.
                    let _ = worker.tracer.dump_flight("watchdog_stall");
                },
            )
        });

        let worker_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("batsolv-runtime-supervisor".into())
            .spawn(move || supervisor_loop(worker_shared, config))
            .map_err(|e| Error::InvalidConfig(format!("failed to spawn worker: {e}")))?;
        Ok(SolveService {
            shared,
            pattern,
            gate,
            worker: Some(worker),
            watchdog,
            watchdog_stop,
            next_id: AtomicU64::new(0),
        })
    }

    /// The sparsity pattern every request must match.
    pub fn pattern(&self) -> &Arc<SparsityPattern> {
        &self.pattern
    }

    /// Submit one system. Non-blocking: a full queue rejects with
    /// [`SubmitError::QueueFull`] instead of stalling the caller — the
    /// backpressure signal of the service. Poisoned payloads bounce with
    /// [`SubmitError::Rejected`] and unreachable tolerances with
    /// [`SubmitError::InvalidTolerance`] before they can share a fused
    /// launch with healthy work, and an open circuit breaker sheds load
    /// with [`SubmitError::CircuitOpen`].
    pub fn submit(&self, request: SolveRequest) -> std::result::Result<Ticket, SubmitError> {
        let submit_started = Instant::now();
        let nnz = self.pattern.nnz();
        let n = self.pattern.num_rows();
        let (stats, tracer) = (&self.shared.worker.stats, &self.shared.worker.tracer);
        // Every refusal is counted by cause and traced with its tag.
        let reject = |tally: Tally, reason: &'static str, e: SubmitError| {
            stats.add(tally, 1);
            tracer.emit(None, EventKind::Rejected { reason });
            Err(e)
        };
        if let Err(e) = request.check_shape(nnz, n) {
            return reject(Tally::RejectedShape, "shape", e);
        }
        if let Err(e) = request.check_tolerance() {
            return reject(Tally::RejectedTolerance, "tolerance", e);
        }
        if let Some(gate) = &self.gate {
            let guess = request.guess.as_deref();
            if let Err(reason) = gate.check(&request.values, &request.rhs, guess) {
                let (tally, tag) = match reason {
                    RejectReason::NonFinite { .. } => (Tally::RejectedNonfinite, "nonfinite"),
                    RejectReason::ZeroDiagonal { .. } => (Tally::RejectedZeroDiag, "zero_diag"),
                };
                return reject(tally, tag, SubmitError::Rejected { reason });
            }
        }
        if let Err(retry_after) = self.shared.worker.admits(Instant::now()) {
            let e = SubmitError::CircuitOpen { retry_after };
            return reject(Tally::RejectedCircuitOpen, "circuit_open", e);
        }

        // `Submitted` goes out before the push: once queued, the worker
        // may deliver and emit the request's ledger at any moment. A
        // refused push closes the request with `Rejected`.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (pending, rx) = Pending::accept(id, request, submit_started, Instant::now());
        tracer.emit(Some(id), EventKind::Submitted { n });
        let refused = |reason: &'static str, e: SubmitError| {
            tracer.emit(Some(id), EventKind::Rejected { reason });
            Err(e)
        };
        match self.shared.queue.try_push(pending) {
            PushResult::Ok => {
                stats.add(Tally::Accepted, 1);
                Ok(Ticket { id, rx })
            }
            PushResult::Full(_) => {
                stats.add(Tally::RejectedQueueFull, 1);
                let capacity = self.shared.queue.capacity();
                refused("queue_full", SubmitError::QueueFull { capacity })
            }
            PushResult::Closed(_) => refused("shutting_down", SubmitError::ShuttingDown),
        }
    }

    /// Point-in-time copy of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.worker.stats.snapshot()
    }

    /// Point-in-time per-workload-class latency/SLO statistics.
    pub fn classes(&self) -> ClassesSnapshot {
        self.shared.worker.classes.snapshot()
    }

    /// The full Prometheus metrics page: service counters plus the
    /// per-class latency, deadline, and burn-rate series.
    pub fn prometheus(&self) -> String {
        crate::metrics::prometheus_text_with_classes(&self.stats(), Some(&self.classes()))
    }

    /// Stop accepting work, drain everything already queued, and join
    /// the worker. Outstanding tickets resolve before this returns.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
        self.watchdog_stop.store(true, Ordering::Release);
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn ladder_config(config: &RuntimeConfig) -> LadderConfig {
    LadderConfig {
        default_tolerance: config.tolerance,
        max_iters: config.max_iters,
        enable_gmres: config.enable_gmres,
        gmres_restart: config.gmres_restart,
        gmres_max_iters: config.gmres_max_iters,
        enable_fallback: config.enable_fallback,
        solver: config.solver,
    }
}

/// The supervisor: keeps the worker loop alive across panics. The batch
/// former and the batch it last cut live *here*, outside the unwind
/// boundary, so requests already pulled from the queue survive a worker
/// crash: the respawned loop runs every cut member whose reply slot is
/// still unclaimed, and the slot keeps delivery exactly-once.
fn supervisor_loop(shared: Arc<Shared>, config: RuntimeConfig) {
    let linger_ns = u64::try_from(config.linger.as_nanos()).unwrap_or(u64::MAX);
    let mut former: BatchFormer<Pending> = BatchFormer::new(config.batch_target, linger_ns);
    let mut cut = Chunk::new(Vec::new(), 0, StragglerRule::SlowestMember);
    let epoch = Instant::now();
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(&shared, &config, &mut former, &mut cut, epoch)
        }));
        match result {
            Ok(()) => break, // clean shutdown: queue closed and drained
            Err(_) => {
                // The worker panicked outside the engine call (a bug, or
                // chaos injected outside dispatch). Respawn the loop;
                // everything still in `former` and `cut` runs again.
                shared.worker.stats.add(Tally::WorkerRespawn, 1);
                shared.worker.tracer.emit(None, EventKind::WorkerRespawn);
            }
        }
    }
}

/// The single consumer: pops requests, forms batches, runs each through
/// the executor.
fn worker_loop(
    shared: &Shared,
    config: &RuntimeConfig,
    former: &mut BatchFormer<Pending>,
    cut: &mut Chunk,
    epoch: Instant,
) {
    let now_ns = |at: Instant| -> u64 {
        u64::try_from(at.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
    };
    // The pop books the queue wait; the former ages the request from
    // its enqueue instant, so linger counts from the push.
    let admit = |former: &mut BatchFormer<Pending>, mut p: Pending| {
        let popped = Instant::now();
        let queued = p.life.clock.lap(Phase::Queue, popped);
        former.push(p, now_ns((popped - queued).max(epoch)));
    };
    // A batch cut before a respawn runs first.
    run_cut(shared, cut);

    'outer: loop {
        // Sleep until the oldest pending request's linger deadline, or
        // indefinitely-ish when nothing is pending.
        let timeout = match former.next_flush_at() {
            Some(0) => Duration::ZERO,
            Some(deadline_ns) => {
                Duration::from_nanos(deadline_ns.saturating_sub(now_ns(Instant::now())))
            }
            None => Duration::from_millis(100),
        };
        match shared.queue.pop_wait(timeout) {
            PopResult::Item(p) => {
                admit(former, p);
                // Greedily drain the backlog that piled up while the
                // previous batch was solving: without this, requests
                // already past their linger age would be flushed one at
                // a time instead of fused into full batches.
                while former.len() < config.batch_target {
                    match shared.queue.pop_wait(Duration::ZERO) {
                        PopResult::Item(p) => admit(former, p),
                        _ => break,
                    }
                }
            }
            PopResult::TimedOut => {}
            PopResult::Closed => break 'outer,
        }
        while let Some(formed) = former.poll(now_ns(Instant::now())) {
            run_formed(shared, cut, formed);
        }
    }

    // Shutdown: flush the remainder below target/linger.
    while let Some(formed) = former.drain() {
        run_formed(shared, cut, formed);
    }
}

/// Hold a freshly cut batch in `cut`, trace it with a sequence number
/// that survives worker respawns, and run it.
fn run_formed(shared: &Shared, cut: &mut Chunk, (batch, reason): (Vec<Pending>, FlushReason)) {
    let seq = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
    let size = batch.len();
    cut.items = batch;
    let reason = match reason {
        FlushReason::TargetReached => "target",
        FlushReason::LingerExpired => "linger",
        FlushReason::Drain => "drain",
    };
    let formed = EventKind::BatchFormed { seq, size, reason };
    shared.worker.tracer.emit(None, formed);
    run_cut(shared, cut);
}

/// Run the cut batch through the executor, then let it go. A service
/// chunk gets one attempt, so nothing is ever requeued.
fn run_cut(shared: &Shared, cut: &mut Chunk) {
    if !cut.items.is_empty() {
        shared.worker.execute(cut, Role::Primary, &Err);
        cut.items.clear();
    }
}
