//! The solve service: submission API, supervised worker, lifecycle.
//!
//! The worker is *supervised*: the batch loop runs under
//! `catch_unwind`, and a panic during a fused dispatch does not take the
//! service down. Instead the batch is re-dispatched one system at a time
//! so the panic is attributed to the request that provokes it — its
//! ticket resolves to [`SolveError::WorkerPanic`] while every innocent
//! neighbor is solved normally. The same isolation applies to simulated
//! device failures. A watchdog thread flags dispatches that exceed a time
//! budget, and a circuit breaker sheds load after a run of degraded
//! batches.

use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use batsolv_formats::SparsityPattern;
use batsolv_gpusim::LaunchHook;
use batsolv_trace::{EventKind, Tracer};
use batsolv_types::{Error, Result};

use crate::admission::{AdmissionGate, RejectReason};
use crate::breaker::CircuitBreaker;
use crate::classes::{ClassTracker, ClassesSnapshot};
use crate::config::RuntimeConfig;
use crate::dispatcher::{BatchItem, BatchReport, LadderConfig, LadderEngine, SolveEngine};
use crate::former::{BatchFormer, FlushReason};
use crate::lifecycle::{feed_breaker, panic_detail, settle, Lifecycle, Pending, Phase, Settled};
use crate::queue::{BoundedQueue, PopResult, PushResult};
use crate::request::{RequestId, SolveError, SolveMethod, SolveRequest, SubmitError, Ticket};
use crate::stats::{BatchOutcomes, StatsRegistry, StatsSnapshot};
use crate::watchdog::{spawn_watchdog, WatchState};

struct Shared {
    queue: BoundedQueue<Pending>,
    stats: StatsRegistry,
    classes: ClassTracker,
    watch: Arc<WatchState>,
    breaker: Option<CircuitBreaker>,
    tracer: Tracer,
    /// Monotonic batch sequence; lives here (not in the worker) so it
    /// survives worker respawns.
    batch_seq: AtomicU64,
}

impl Shared {
    /// Deliver one terminal failure through the funnel: `count` it, emit
    /// its `Terminal` event, send `error`.
    fn fail(
        &self,
        id: RequestId,
        life: &Lifecycle,
        outcome: &'static str,
        count: fn(&StatsRegistry),
        error: SolveError,
    ) {
        life.deliver(id, &self.tracer, &self.classes, Err(error), || {
            count(&self.stats);
            self.tracer.emit(
                Some(id),
                EventKind::Terminal {
                    outcome,
                    iterations: 0,
                    residual: f64::NAN,
                    rungs: 0,
                },
            );
            Settled::failure(outcome, false)
        });
    }

    /// Feed one dispatch's health to the breaker and count a trip.
    fn note_dispatch(&self, total: usize, degraded: usize) {
        if let Some(breaker) = &self.breaker {
            if feed_breaker(breaker, &self.tracer, total, degraded) {
                self.stats.on_breaker_trip();
            }
        }
    }
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
        let engine = Arc::new(
            LadderEngine::new(
                config.device.clone(),
                Arc::clone(&pattern),
                ladder_config(&config),
            )
            .with_tracer(config.tracer.clone()),
        );
        Self::start_with_engine(pattern, config, engine)
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
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            stats: StatsRegistry::new(),
            classes: ClassTracker::new(),
            watch: Arc::new(WatchState::new()),
            breaker: config.breaker.map(CircuitBreaker::new),
            tracer: config.tracer.clone(),
            batch_seq: AtomicU64::new(0),
        });
        shared.stats.set_solver(config.solver.name());
        let gate = config
            .validate_admission
            .then(|| AdmissionGate::new(&pattern));

        let watchdog_stop = Arc::new(AtomicBool::new(false));
        let watchdog = config.watchdog_budget.map(|budget| {
            let stats_shared = Arc::clone(&shared);
            let budget_us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
            spawn_watchdog(
                Arc::clone(&shared.watch),
                budget,
                Arc::clone(&watchdog_stop),
                move || {
                    stats_shared.stats.on_watchdog_stall();
                    stats_shared
                        .tracer
                        .emit(None, EventKind::WatchdogStall { budget_us });
                    // A stalled dispatch is exactly the moment the recent
                    // event history matters: freeze it.
                    let _ = stats_shared.tracer.dump_flight("watchdog_stall");
                },
            )
        });

        let worker_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("batsolv-runtime-supervisor".into())
            .spawn(move || supervisor_loop(worker_shared, config, engine))
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
        let reject = |reason: &'static str| {
            self.shared
                .tracer
                .emit(None, EventKind::Rejected { reason });
        };
        if request.values.len() != nnz {
            self.shared.stats.on_rejected_shape();
            reject("shape");
            return Err(SubmitError::ShapeMismatch {
                field: "values",
                expected: nnz,
                got: request.values.len(),
            });
        }
        if request.rhs.len() != n {
            self.shared.stats.on_rejected_shape();
            reject("shape");
            return Err(SubmitError::ShapeMismatch {
                field: "rhs",
                expected: n,
                got: request.rhs.len(),
            });
        }
        if let Some(g) = &request.guess {
            if g.len() != n {
                self.shared.stats.on_rejected_shape();
                reject("shape");
                return Err(SubmitError::ShapeMismatch {
                    field: "guess",
                    expected: n,
                    got: g.len(),
                });
            }
        }
        if let Err(e) = request.check_tolerance() {
            self.shared.stats.on_rejected_tolerance();
            reject("tolerance");
            return Err(e);
        }
        if let Some(gate) = &self.gate {
            if let Err(reason) = gate.check(&request.values, &request.rhs, request.guess.as_deref())
            {
                match reason {
                    RejectReason::NonFinite { .. } => {
                        self.shared.stats.on_rejected_nonfinite();
                        reject("nonfinite");
                    }
                    RejectReason::ZeroDiagonal { .. } => {
                        self.shared.stats.on_rejected_zero_diag();
                        reject("zero_diag");
                    }
                }
                return Err(SubmitError::Rejected { reason });
            }
        }
        if let Some(breaker) = &self.shared.breaker {
            if let Err(retry_after) = breaker.check(Instant::now()) {
                self.shared.stats.on_rejected_circuit_open();
                reject("circuit_open");
                return Err(SubmitError::CircuitOpen { retry_after });
            }
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (pending, rx) = Pending::accept(id, request, submit_started, Instant::now());
        match self.shared.queue.try_push(pending) {
            PushResult::Ok => {
                self.shared.stats.on_accepted();
                self.shared
                    .tracer
                    .emit(Some(id), EventKind::Submitted { n });
                Ok(Ticket { id, rx })
            }
            PushResult::Full(_) => {
                self.shared.stats.on_rejected_full();
                self.shared.tracer.emit(
                    Some(id),
                    EventKind::Rejected {
                        reason: "queue_full",
                    },
                );
                Err(SubmitError::QueueFull {
                    capacity: self.shared.queue.capacity(),
                })
            }
            PushResult::Closed(_) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Point-in-time copy of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Point-in-time per-workload-class latency/SLO statistics.
    pub fn classes(&self) -> ClassesSnapshot {
        self.shared.classes.snapshot()
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
        self.shared.stats.snapshot()
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
/// former lives *here*, outside the unwind boundary, so requests already
/// pulled from the queue survive a worker crash and are re-dispatched by
/// the respawned loop instead of being lost.
fn supervisor_loop(shared: Arc<Shared>, config: RuntimeConfig, engine: Arc<dyn SolveEngine>) {
    let linger_ns = u64::try_from(config.linger.as_nanos()).unwrap_or(u64::MAX);
    let mut former: BatchFormer<Pending> = BatchFormer::new(config.batch_target, linger_ns);
    let epoch = Instant::now();
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(&shared, &config, engine.as_ref(), &mut former, epoch)
        }));
        match result {
            Ok(()) => break, // clean shutdown: queue closed and drained
            Err(_) => {
                // The worker panicked outside the per-batch isolation
                // (a bug, or chaos injected outside dispatch). Respawn
                // the loop; everything still in `former` re-dispatches.
                shared.stats.on_worker_respawn();
                shared.tracer.emit(None, EventKind::WorkerRespawn);
            }
        }
    }
}

/// The single consumer: pops requests, forms batches, dispatches.
fn worker_loop(
    shared: &Shared,
    config: &RuntimeConfig,
    engine: &dyn SolveEngine,
    former: &mut BatchFormer<Pending>,
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
        while let Some((batch, reason)) = former.poll(now_ns(Instant::now())) {
            trace_batch_formed(shared, batch.len(), reason);
            dispatch(shared, engine, batch);
        }
    }

    // Shutdown: flush the remainder below target/linger.
    while let Some((batch, reason)) = former.drain() {
        trace_batch_formed(shared, batch.len(), reason);
        dispatch(shared, engine, batch);
    }
}

/// Emit the batch-formed event with a sequence number that survives
/// worker respawns.
fn trace_batch_formed(shared: &Shared, size: usize, reason: FlushReason) {
    if !shared.tracer.is_enabled() {
        return;
    }
    let seq = shared.batch_seq.fetch_add(1, Ordering::Relaxed);
    let reason = match reason {
        FlushReason::TargetReached => "target",
        FlushReason::LingerExpired => "linger",
        FlushReason::Drain => "drain",
    };
    shared
        .tracer
        .emit(None, EventKind::BatchFormed { seq, size, reason });
}

/// Solve one formed batch and fulfill its tickets.
fn dispatch(shared: &Shared, engine: &dyn SolveEngine, batch: Vec<Pending>) {
    let dispatched_at = Instant::now();
    // Enforce queue-wait deadlines at the last moment before the solve:
    // expired requests get a structured error, not a wasted solve slot.
    let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
    for mut p in batch {
        p.life.clock.lap(Phase::Linger, dispatched_at);
        let waited = p.life.clock.waited();
        match p.life.budget {
            Some(budget) if waited > budget.total() => {
                let error = SolveError::DeadlineExceeded {
                    waited,
                    deadline: budget.total(),
                };
                let count = StatsRegistry::on_deadline_exceeded;
                shared.fail(p.item.id, &p.life, "deadline_exceeded", count, error);
            }
            _ => {
                shared.tracer.emit(
                    Some(p.item.id),
                    EventKind::Dequeued {
                        wait_us: u64::try_from(waited.as_micros()).unwrap_or(u64::MAX),
                    },
                );
                live.push(p);
            }
        }
    }
    if !live.is_empty() {
        run_batch(shared, engine, live);
    }
}

/// Run one batch through the engine with panic/device-failure isolation.
///
/// A panic or device failure on a multi-system batch re-dispatches each
/// member as a singleton: with a deterministic fault source the same
/// request fails again *alone* and absorbs the blame, while every other
/// member solves normally — a faulty neighbor never costs a healthy
/// request its outcome.
fn run_batch(shared: &Shared, engine: &dyn SolveEngine, live: Vec<Pending>) {
    // The payloads move into the engine's batch; the lifecycles stay.
    let (items, lives): (Vec<BatchItem>, Vec<Lifecycle>) =
        live.into_iter().map(|p| (p.item, p.life)).unzip();
    let batch_size = items.len();
    shared.watch.begin();
    let solved = catch_unwind(AssertUnwindSafe(|| engine.solve_batch(&items)));
    shared.watch.end();
    match solved {
        Ok(Ok(report)) => fulfill(shared, lives, report),
        Ok(Err(Error::DeviceFailure { .. })) | Err(_) if batch_size > 1 => {
            for (item, life) in items.into_iter().zip(lives) {
                run_batch(shared, engine, vec![Pending { item, life }]);
            }
        }
        Ok(Err(Error::DeviceFailure { code })) => {
            shared.note_dispatch(1, 1);
            let count = StatsRegistry::on_device_failure;
            let error = SolveError::DeviceFailure { code };
            fail_dispatched(shared, &items, lives, "device_failure", count, error);
        }
        Ok(Err(e)) => {
            // Engine-level failure (shape bug): every ticket of the batch
            // gets the structured error.
            let msg: &'static str = match e {
                Error::DimensionMismatch(_) => "engine dimension mismatch",
                _ => "engine failure",
            };
            let waits: Vec<Duration> = lives.iter().map(|l| l.clock.waited()).collect();
            let tally = BatchOutcomes {
                failed: batch_size as u64,
                breakdowns: vec![msg; batch_size],
                ..Default::default()
            };
            shared.stats.on_batch(batch_size, &waits, &[], tally, 0.0);
            shared.note_dispatch(batch_size, batch_size);
            let error = SolveError::NotConverged {
                iterations: 0,
                residual: f64::NAN,
                breakdown: Some(msg),
                rungs: vec![],
            };
            fail_dispatched(shared, &items, lives, "engine_failure", |_| {}, error);
        }
        Err(payload) => {
            shared.note_dispatch(1, 1);
            let count = StatsRegistry::on_worker_panic_outcome;
            let error = SolveError::WorkerPanic {
                detail: panic_detail(&*payload),
            };
            fail_dispatched(shared, &items, lives, "worker_panic", count, error);
        }
    }
}

/// Deliver one dispatch failure to every member of the batch; the
/// dispatch's wall time lands in each one's solve phase.
fn fail_dispatched(
    shared: &Shared,
    items: &[BatchItem],
    lives: Vec<Lifecycle>,
    outcome: &'static str,
    count: fn(&StatsRegistry),
    error: SolveError,
) {
    let now = Instant::now();
    for (item, mut life) in items.iter().zip(lives) {
        life.clock.lap(Phase::Solve, now);
        shared.fail(item.id, &life, outcome, count, error.clone());
    }
}

/// Count the batch and feed the breaker, then deliver each outcome.
/// Each request's queue wait is the one it had at dispatch: the solve
/// is not booked yet.
fn fulfill(shared: &Shared, lives: Vec<Lifecycle>, report: BatchReport) {
    let batch_size = lives.len();
    debug_assert_eq!(report.outcomes.len(), batch_size);
    let waits: Vec<Duration> = lives.iter().map(|l| l.clock.waited()).collect();
    let iterations: Vec<u32> = report.outcomes.iter().map(|o| o.iterations).collect();
    let mut tally = BatchOutcomes::default();
    for o in &report.outcomes {
        tally.rungs_attempted.push(o.rungs.len());
        match (o.converged, o.method) {
            (true, SolveMethod::Bicgstab) => tally.converged_iterative += 1,
            (true, SolveMethod::Gmres) => tally.converged_gmres += 1,
            (true, SolveMethod::BandedLuFallback) => tally.converged_fallback += 1,
            (false, _) => {
                tally.failed += 1;
                tally.breakdowns.extend(o.breakdown);
            }
        }
    }
    let degraded = report.outcomes.iter().filter(|o| o.is_degraded()).count();
    shared.stats.on_sync_counts(report.syncs, report.reductions);
    shared
        .stats
        .on_batch(batch_size, &waits, &iterations, tally, report.sim_time_s);
    shared.note_dispatch(batch_size, degraded);

    // Straggler attribution: the fused launch runs until its slowest
    // member converges, so the member with the most iterations set the
    // batch's completion time (first such member on ties).
    let straggler = iterations
        .iter()
        .enumerate()
        .max_by_key(|&(i, &it)| (it, Reverse(i)))
        .map(|(i, _)| i)
        .filter(|_| batch_size > 1);
    let sim = report.split.per_item(batch_size);
    let delivery = lives.into_iter().zip(report.outcomes).zip(waits);
    for (idx, ((mut life, o), wait)) in delivery.enumerate() {
        life.clock.lap(Phase::Solve, Instant::now());
        let (id, residual, rungs) = (o.id, o.residual, o.rungs.len());
        let (settled, outcome) = settle(o, batch_size, wait);
        life.deliver(id, &shared.tracer, &shared.classes, outcome, || {
            shared.tracer.emit(
                Some(id),
                EventKind::Terminal {
                    outcome: settled.outcome,
                    iterations: settled.iterations,
                    residual,
                    rungs,
                },
            );
            Settled {
                straggler: straggler == Some(idx),
                sim: Some(sim),
                ..settled
            }
        });
    }
}
