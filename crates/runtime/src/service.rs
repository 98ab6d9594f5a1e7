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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use batsolv_formats::SparsityPattern;
use batsolv_gpusim::LaunchHook;
use batsolv_trace::{classify, EventKind, PhaseLedger, Tracer};
use batsolv_types::{Error, Result};

use crate::admission::{AdmissionGate, RejectReason};
use crate::breaker::CircuitBreaker;
use crate::classes::{ClassTracker, ClassesSnapshot};
use crate::config::RuntimeConfig;
use crate::dispatcher::{BatchItem, LadderConfig, LadderEngine, SimSplit, SolveEngine};
use crate::former::{BatchFormer, FlushReason};
use crate::queue::{BoundedQueue, PopResult, PushResult};
use crate::request::{Solution, SolveError, SolveOutcome, SolveRequest, SubmitError, Ticket};
use crate::stats::{BatchOutcomes, StatsRegistry, StatsSnapshot};
use crate::watchdog::{spawn_watchdog, WatchState};

/// A request as it travels through the queue and former.
struct Pending {
    item: BatchItem,
    deadline: Option<Duration>,
    enqueued_at: Instant,
    /// Time spent in admission (shape/finiteness/breaker checks) before
    /// the request entered the queue.
    admission: Duration,
    /// When the worker popped it from the queue (queue→linger boundary).
    popped_at: Option<Instant>,
    reply: mpsc::Sender<SolveOutcome>,
}

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

/// Build one request's phase ledger at its terminal moment. The wall
/// phases partition `[submit, now]`: admission, queue wait, linger
/// (pop → dispatch), solve (dispatch → delivery), and `other` absorbs
/// the residual so the phase-sum invariant holds exactly. The `sim_*`
/// fields carry the per-item share of the dispatch's simulated solve
/// split — a separate clock reported alongside the wall phases.
#[allow(clippy::too_many_arguments)]
fn build_ledger(
    p: &Pending,
    outcome: &'static str,
    iterations: u32,
    converged: bool,
    dispatched_at: Option<Instant>,
    sim: Option<&SimSplit>,
    straggler: bool,
    now: Instant,
) -> PhaseLedger {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut ledger = PhaseLedger {
        outcome,
        class: classify(iterations, converged),
        iterations,
        straggler,
        deadline: p.deadline.map(|_| outcome != "deadline_exceeded"),
        end_to_end_us: us(now.saturating_duration_since(p.enqueued_at) + p.admission),
        admission_us: us(p.admission),
        ..PhaseLedger::default()
    };
    let queue_end = p.popped_at.unwrap_or(now).min(now);
    ledger.queue_us = us(queue_end.saturating_duration_since(p.enqueued_at));
    if let (Some(popped), Some(dispatched)) = (p.popped_at, dispatched_at) {
        ledger.linger_us = us(dispatched.saturating_duration_since(popped));
        ledger.solve_us = us(now.saturating_duration_since(dispatched));
    }
    if let Some(sim) = sim {
        ledger.sim_spmv_us = sim.spmv_us;
        ledger.sim_reduction_us = sim.reduction_us;
        ledger.sim_sync_us = sim.sync_us;
        ledger.sim_transfer_us = sim.transfer_us;
    }
    ledger.close();
    ledger
}

/// Emit the ledger event and feed the class tracker — the single point
/// every terminal outcome funnels through.
fn record_terminal(shared: &Shared, id: u64, ledger: PhaseLedger) {
    shared.classes.observe_ledger(Some(id), &ledger);
    shared.tracer.emit(Some(id), EventKind::Ledger(ledger));
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
            .then(|| AdmissionGate::new(&pattern, config.min_diag_abs));

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
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            item: BatchItem {
                id,
                values: request.values,
                rhs: request.rhs,
                guess: request.guess,
                tolerance: request.tolerance,
            },
            deadline: request.deadline,
            enqueued_at: Instant::now(),
            admission: submit_started.elapsed(),
            popped_at: None,
            reply: tx,
        };
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
            PopResult::Item(mut p) => {
                p.popped_at = Some(Instant::now());
                let stamp = now_ns(p.enqueued_at.max(epoch));
                former.push(p, stamp);
                // Greedily drain the backlog that piled up while the
                // previous batch was solving: without this, requests
                // already past their linger age would be flushed one at
                // a time instead of fused into full batches.
                while former.len() < config.batch_target {
                    match shared.queue.pop_wait(Duration::ZERO) {
                        PopResult::Item(mut p) => {
                            p.popped_at = Some(Instant::now());
                            let stamp = now_ns(p.enqueued_at.max(epoch));
                            former.push(p, stamp);
                        }
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
    for p in batch {
        let waited = p.enqueued_at.elapsed();
        match p.deadline {
            Some(deadline) if waited > deadline => {
                shared.stats.on_deadline_exceeded();
                shared.tracer.emit(
                    Some(p.item.id),
                    EventKind::Terminal {
                        outcome: "deadline_exceeded",
                        iterations: 0,
                        residual: f64::NAN,
                        rungs: 0,
                    },
                );
                let ledger = build_ledger(
                    &p,
                    "deadline_exceeded",
                    0,
                    false,
                    None,
                    None,
                    false,
                    Instant::now(),
                );
                record_terminal(shared, p.item.id, ledger);
                let _ = p
                    .reply
                    .send(Err(SolveError::DeadlineExceeded { waited, deadline }));
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
    if live.is_empty() {
        return;
    }
    run_batch(shared, engine, live, dispatched_at);
}

/// Run one batch through the engine with panic/device-failure isolation.
///
/// A panic or device failure on a multi-system batch re-dispatches each
/// member as a singleton: with a deterministic fault source the same
/// request fails again *alone* and absorbs the blame, while every other
/// member solves normally — a faulty neighbor never costs a healthy
/// request its outcome.
fn run_batch(
    shared: &Shared,
    engine: &dyn SolveEngine,
    live: Vec<Pending>,
    dispatched_at: Instant,
) {
    let items: Vec<BatchItem> = live.iter().map(|p| p.item.clone()).collect();
    let batch_size = items.len();
    shared.watch.begin();
    let solved = catch_unwind(AssertUnwindSafe(|| engine.solve_batch(&items)));
    shared.watch.end();
    match solved {
        Ok(Ok(report)) => {
            shared.stats.on_sync_counts(report.syncs, report.reductions);
            fulfill(
                shared,
                live,
                report.outcomes,
                report.sim_time_s,
                report.split,
                dispatched_at,
            )
        }
        Ok(Err(Error::DeviceFailure { code })) => {
            if batch_size > 1 {
                for p in live {
                    run_batch(shared, engine, vec![p], dispatched_at);
                }
            } else {
                note_degraded_batch(shared, 1);
                for p in live {
                    shared.stats.on_device_failure();
                    shared.tracer.emit(
                        Some(p.item.id),
                        EventKind::Terminal {
                            outcome: "device_failure",
                            iterations: 0,
                            residual: f64::NAN,
                            rungs: 0,
                        },
                    );
                    let ledger = build_ledger(
                        &p,
                        "device_failure",
                        0,
                        false,
                        Some(dispatched_at),
                        None,
                        false,
                        Instant::now(),
                    );
                    record_terminal(shared, p.item.id, ledger);
                    let _ = p.reply.send(Err(SolveError::DeviceFailure { code }));
                }
            }
        }
        Ok(Err(e)) => {
            // Engine-level failure (shape bug): every ticket of the batch
            // gets the structured error.
            let msg: &'static str = match e {
                Error::DimensionMismatch(_) => "engine dimension mismatch",
                _ => "engine failure",
            };
            let waits: Vec<Duration> = live.iter().map(|p| p.enqueued_at.elapsed()).collect();
            let failed = live.len() as u64;
            for p in live {
                shared.tracer.emit(
                    Some(p.item.id),
                    EventKind::Terminal {
                        outcome: "engine_failure",
                        iterations: 0,
                        residual: f64::NAN,
                        rungs: 0,
                    },
                );
                let ledger = build_ledger(
                    &p,
                    "engine_failure",
                    0,
                    false,
                    Some(dispatched_at),
                    None,
                    false,
                    Instant::now(),
                );
                record_terminal(shared, p.item.id, ledger);
                let _ = p.reply.send(Err(SolveError::NotConverged {
                    iterations: 0,
                    residual: f64::NAN,
                    breakdown: Some(msg),
                    rungs: vec![],
                }));
            }
            shared.stats.on_batch(
                batch_size,
                &waits,
                &[],
                BatchOutcomes {
                    failed,
                    breakdowns: vec![msg; batch_size],
                    ..Default::default()
                },
                0.0,
            );
            note_degraded_batch(shared, batch_size);
        }
        Err(payload) => {
            if batch_size > 1 {
                for p in live {
                    run_batch(shared, engine, vec![p], dispatched_at);
                }
            } else {
                note_degraded_batch(shared, 1);
                let detail = panic_detail(payload);
                for p in live {
                    shared.stats.on_worker_panic_outcome();
                    shared.tracer.emit(
                        Some(p.item.id),
                        EventKind::Terminal {
                            outcome: "worker_panic",
                            iterations: 0,
                            residual: f64::NAN,
                            rungs: 0,
                        },
                    );
                    let ledger = build_ledger(
                        &p,
                        "worker_panic",
                        0,
                        false,
                        Some(dispatched_at),
                        None,
                        false,
                        Instant::now(),
                    );
                    record_terminal(shared, p.item.id, ledger);
                    let _ = p.reply.send(Err(SolveError::WorkerPanic {
                        detail: detail.clone(),
                    }));
                }
            }
        }
    }
}

/// Deliver per-item outcomes and record the batch in stats + breaker.
fn fulfill(
    shared: &Shared,
    live: Vec<Pending>,
    outcomes: Vec<crate::dispatcher::ItemOutcome>,
    sim_time_s: f64,
    split: SimSplit,
    dispatched_at: Instant,
) {
    let batch_size = live.len();
    debug_assert_eq!(outcomes.len(), batch_size);
    let waits: Vec<Duration> = live.iter().map(|p| p.enqueued_at.elapsed()).collect();
    let iterations: Vec<u32> = outcomes.iter().map(|o| o.iterations).collect();
    // Straggler attribution: the fused launch runs until its slowest
    // member converges, so the member with the most iterations set the
    // batch's completion time (first such member on ties).
    let straggler_idx = iterations
        .iter()
        .enumerate()
        .max_by_key(|&(i, &it)| (it, std::cmp::Reverse(i)))
        .map(|(i, _)| i);
    let item_sim = split.per_item(batch_size);
    let mut tally = BatchOutcomes::default();
    let mut degraded = 0usize;
    for (idx, (p, o)) in live.into_iter().zip(outcomes).enumerate() {
        let wait = p.enqueued_at.elapsed();
        tally.rungs_attempted.push(o.rungs.len());
        let outcome_tag = if o.converged {
            match o.method {
                crate::request::SolveMethod::Bicgstab => "converged_bicgstab",
                crate::request::SolveMethod::Gmres => "converged_gmres",
                crate::request::SolveMethod::BandedLuFallback => "converged_banded_lu",
            }
        } else {
            "not_converged"
        };
        shared.tracer.emit(
            Some(o.id),
            EventKind::Terminal {
                outcome: outcome_tag,
                iterations: o.iterations,
                residual: o.residual,
                rungs: o.rungs.len(),
            },
        );
        let ledger = build_ledger(
            &p,
            outcome_tag,
            o.iterations,
            o.converged,
            Some(dispatched_at),
            Some(&item_sim),
            straggler_idx == Some(idx) && batch_size > 1,
            Instant::now(),
        );
        record_terminal(shared, o.id, ledger);
        let outcome = if o.converged {
            match o.method {
                crate::request::SolveMethod::Bicgstab => tally.converged_iterative += 1,
                crate::request::SolveMethod::Gmres => tally.converged_gmres += 1,
                crate::request::SolveMethod::BandedLuFallback => {
                    tally.converged_fallback += 1;
                    degraded += 1;
                }
            }
            Ok(Solution {
                x: o.x,
                iterations: o.iterations,
                residual: o.residual,
                method: o.method,
                batch_size,
                queue_wait: wait,
                rungs: o.rungs,
            })
        } else {
            tally.failed += 1;
            degraded += 1;
            if let Some(tag) = o.breakdown {
                tally.breakdowns.push(tag);
            }
            Err(SolveError::NotConverged {
                iterations: o.iterations,
                residual: o.residual,
                breakdown: o.breakdown,
                rungs: o.rungs,
            })
        };
        let _ = p.reply.send(outcome);
    }
    shared
        .stats
        .on_batch(batch_size, &waits, &iterations, tally, sim_time_s);
    if let Some(breaker) = &shared.breaker {
        if breaker.on_batch(Instant::now(), batch_size, degraded) {
            note_breaker_trip(shared);
        }
    }
}

/// Report a fully-degraded batch (device failure, panic, engine error)
/// to the breaker.
fn note_degraded_batch(shared: &Shared, size: usize) {
    if let Some(breaker) = &shared.breaker {
        if breaker.on_batch(Instant::now(), size, size) {
            note_breaker_trip(shared);
        }
    }
}

/// Count a breaker trip and freeze the event history that led to it.
fn note_breaker_trip(shared: &Shared) {
    shared.stats.on_breaker_trip();
    shared.tracer.emit(None, EventKind::BreakerTrip);
    let _ = shared.tracer.dump_flight("breaker_trip");
}

/// Best-effort panic payload text.
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
