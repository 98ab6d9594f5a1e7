//! Integration tests of the full service: backpressure, deadlines,
//! shutdown draining, and the real-solver paths (convergence and the
//! banded-LU fallback) on XGC workloads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use batsolv_formats::SparsityPattern;
use batsolv_gpusim::{DeviceSpec, LaunchDisruption, LaunchHook};
use batsolv_runtime::{
    BatchItem, BatchReport, ItemOutcome, RuntimeConfig, SolveEngine, SolveError, SolveMethod,
    SolveRequest, SolveService, SubmitError,
};
use batsolv_trace::{EventKind, MemorySink, Tracer, WorkloadClass};
use batsolv_types::Result;
use batsolv_xgc::{Species, VelocityGrid, XgcWorkload};

/// Trivial test engine: "solves" by echoing the RHS. When `gate` is set,
/// each dispatch blocks until the gate is released, which lets tests
/// hold the worker busy and fill the queue deterministically.
struct EchoEngine {
    gate: Option<Arc<(Mutex<bool>, Condvar)>>,
    dispatched_batches: AtomicUsize,
}

impl EchoEngine {
    fn new() -> EchoEngine {
        EchoEngine {
            gate: None,
            dispatched_batches: AtomicUsize::new(0),
        }
    }

    fn gated(gate: Arc<(Mutex<bool>, Condvar)>) -> EchoEngine {
        EchoEngine {
            gate: Some(gate),
            dispatched_batches: AtomicUsize::new(0),
        }
    }
}

fn release(gate: &(Mutex<bool>, Condvar)) {
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
}

impl SolveEngine for EchoEngine {
    fn solve_batch(&self, items: &[BatchItem]) -> Result<BatchReport> {
        if let Some(gate) = &self.gate {
            let (lock, cvar) = &**gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cvar.wait(open).unwrap();
            }
        }
        self.dispatched_batches.fetch_add(1, Ordering::SeqCst);
        Ok(BatchReport {
            outcomes: items
                .iter()
                .map(|it| ItemOutcome {
                    id: it.id,
                    x: it.rhs.clone(),
                    iterations: 1,
                    residual: 0.0,
                    converged: true,
                    method: SolveMethod::Bicgstab,
                    breakdown: None,
                    rungs: vec![],
                })
                .collect(),
            sim_time_s: 1e-6,
            syncs: 0,
            reductions: 0,
            solver: "echo",
            split: batsolv_runtime::dispatcher::SimSplit::default(),
        })
    }
}

fn tiny_pattern() -> Arc<SparsityPattern> {
    Arc::new(SparsityPattern::dense(2))
}

fn tiny_request() -> SolveRequest {
    SolveRequest::new(vec![1.0, 0.0, 0.0, 1.0], vec![1.0, 2.0])
}

#[test]
fn queue_full_rejects_with_structured_error() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let engine = Arc::new(EchoEngine::gated(Arc::clone(&gate)));
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_queue_capacity(2)
        .with_batch_target(1)
        .with_linger(Duration::ZERO);
    let service = SolveService::start_with_engine(tiny_pattern(), config, engine).unwrap();

    // First request reaches the (blocked) engine; give the worker time
    // to pop it out of the queue.
    let t0 = service.submit(tiny_request()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // The next two fill the queue; the one after bounces.
    let t1 = service.submit(tiny_request()).unwrap();
    let t2 = service.submit(tiny_request()).unwrap();
    match service.submit(tiny_request()) {
        Err(SubmitError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }

    release(&gate);
    for t in [t0, t1, t2] {
        assert!(t.wait().is_ok(), "accepted requests must still resolve");
    }
    let stats = service.shutdown();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.rejected_queue_full, 1);
    assert_eq!(stats.converged_iterative, 3);
}

#[test]
fn expired_deadline_returns_structured_error() {
    let engine = Arc::new(EchoEngine::new());
    // Target 2 with a long linger: the first request sits in the former
    // until the second arrives, guaranteeing its zero deadline expires.
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(2)
        .with_linger(Duration::from_secs(3600));
    let service = SolveService::start_with_engine(tiny_pattern(), config, engine).unwrap();

    let doomed = service
        .submit(tiny_request().with_deadline(Duration::ZERO))
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let healthy = service.submit(tiny_request()).unwrap();

    match doomed.wait() {
        Err(SolveError::DeadlineExceeded { waited, deadline }) => {
            assert_eq!(deadline, Duration::ZERO);
            assert!(waited > Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(healthy.wait().is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.failed_deadline, 1);
    assert_eq!(stats.converged_iterative, 1);
}

#[test]
fn shutdown_drains_partial_batches() {
    let engine = Arc::new(EchoEngine::new());
    // Target far above the submission count and an hour of linger: only
    // the shutdown drain can flush these.
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(1000)
        .with_linger(Duration::from_secs(3600));
    let service = SolveService::start_with_engine(tiny_pattern(), config, engine).unwrap();
    let tickets: Vec<_> = (0..5)
        .map(|_| service.submit(tiny_request()).unwrap())
        .collect();
    let stats = service.shutdown();
    for t in tickets {
        assert!(t.wait().is_ok(), "drained requests must resolve");
    }
    assert_eq!(stats.converged_iterative, 5);
    assert_eq!(stats.batches_formed, 1, "one drain batch expected");
}

#[test]
fn shape_mismatch_rejected_at_submission() {
    let engine = Arc::new(EchoEngine::new());
    let config = RuntimeConfig::new(DeviceSpec::v100());
    let service = SolveService::start_with_engine(tiny_pattern(), config, engine).unwrap();
    match service.submit(SolveRequest::new(vec![1.0; 3], vec![1.0, 2.0])) {
        Err(SubmitError::ShapeMismatch {
            field: "values",
            expected: 4,
            got: 3,
        }) => {}
        other => panic!("expected values ShapeMismatch, got {other:?}"),
    }
    match service.submit(SolveRequest::new(vec![1.0; 4], vec![1.0])) {
        Err(SubmitError::ShapeMismatch { field: "rhs", .. }) => {}
        other => panic!("expected rhs ShapeMismatch, got {other:?}"),
    }
    assert_eq!(service.stats().rejected_shape, 2);
}

#[test]
fn wait_timeout_reports_pending_then_resolves() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let engine = Arc::new(EchoEngine::gated(Arc::clone(&gate)));
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(1)
        .with_linger(Duration::ZERO);
    let service = SolveService::start_with_engine(tiny_pattern(), config, engine).unwrap();
    let ticket = service.submit(tiny_request()).unwrap();
    assert!(
        ticket.wait_timeout(Duration::from_millis(20)).is_none(),
        "outcome must not be ready while the engine is gated"
    );
    release(&gate);
    assert!(ticket.wait().is_ok());
    let _ = service.shutdown();
}

#[test]
fn real_engine_solves_ion_workload() {
    let workload =
        XgcWorkload::generate_single_species(VelocityGrid::small(8, 7), Species::ion(), 12, 3)
            .unwrap();
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(4)
        .with_linger(Duration::from_millis(1));
    let service = SolveService::start(Arc::clone(workload.pattern()), config).unwrap();
    let tickets: Vec<_> = workload
        .systems()
        .map(|sys| {
            service
                .submit(
                    SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec())
                        .with_guess(sys.warm_guess.to_vec()),
                )
                .unwrap()
        })
        .collect();
    let stats = service.shutdown();
    for t in tickets {
        let sol = t.wait().expect("ion system must converge");
        assert!(sol.residual <= 1e-10);
        assert_eq!(sol.method, SolveMethod::Bicgstab);
        assert!(sol.batch_size >= 1);
    }
    assert_eq!(stats.converged_iterative, 12);
    assert_eq!(stats.failed_not_converged, 0);
}

/// Stalls every fused launch: a solve that takes at least this long.
struct Stall(Duration);

impl LaunchHook for Stall {
    fn disrupt(&self, _ids: &[u64]) -> LaunchDisruption {
        LaunchDisruption::Stall(self.0)
    }
}

#[test]
fn queue_wait_is_taken_at_dispatch_not_after_the_solve() {
    let stall = Duration::from_millis(50);
    let workload =
        XgcWorkload::generate_single_species(VelocityGrid::small(8, 7), Species::ion(), 3, 3)
            .unwrap();
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(1)
        .with_linger(Duration::ZERO);
    let pattern = Arc::clone(workload.pattern());
    let service = SolveService::start_with_hook(pattern, config, Arc::new(Stall(stall))).unwrap();
    // One request at a time: none queues behind another's stalled solve,
    // so each wait is admission, queue and linger only.
    for sys in workload.systems() {
        let request = SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec());
        let sol = service.submit(request).unwrap().wait().unwrap();
        assert!(
            sol.queue_wait < stall,
            "queue wait {:?} includes the {stall:?} solve",
            sol.queue_wait
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.converged_iterative, 3);
    assert!(
        stats.queue_wait_p99 < stall,
        "queue wait p99 {:?} includes the {stall:?} solve",
        stats.queue_wait_p99
    );
}

#[test]
fn starved_iterations_fall_back_to_banded_lu() {
    // One BiCGSTAB iteration cannot reach 1e-12 on an electron system:
    // the request must come back converged via the direct fallback, not
    // as a panic or a lost ticket.
    let workload =
        XgcWorkload::generate_single_species(VelocityGrid::small(8, 7), Species::electron(), 3, 5)
            .unwrap();
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(3)
        .with_linger(Duration::from_millis(1))
        .with_tolerance(1e-12)
        .with_max_iters(1)
        .with_gmres(false);
    let service = SolveService::start(Arc::clone(workload.pattern()), config).unwrap();
    let tickets: Vec<_> = workload
        .systems()
        .map(|sys| {
            service
                .submit(SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec()))
                .unwrap()
        })
        .collect();
    let stats = service.shutdown();
    for t in tickets {
        let sol = t.wait().expect("fallback must rescue the request");
        assert_eq!(sol.method, SolveMethod::BandedLuFallback);
        assert!(sol.residual < 1e-8, "direct residual {}", sol.residual);
    }
    assert_eq!(stats.converged_fallback, 3);
    assert_eq!(stats.converged_iterative, 0);
}

#[test]
fn fallback_disabled_yields_not_converged_error() {
    let workload =
        XgcWorkload::generate_single_species(VelocityGrid::small(8, 7), Species::electron(), 1, 5)
            .unwrap();
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(1)
        .with_linger(Duration::ZERO)
        .with_tolerance(1e-12)
        .with_max_iters(1)
        .with_gmres(false)
        .with_fallback(false);
    let service = SolveService::start(Arc::clone(workload.pattern()), config).unwrap();
    let sys = workload.system(0);
    let ticket = service
        .submit(SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec()))
        .unwrap();
    match ticket.wait() {
        Err(SolveError::NotConverged {
            iterations,
            residual,
            ..
        }) => {
            assert_eq!(iterations, 1);
            assert!(residual > 1e-12);
        }
        other => panic!("expected NotConverged, got {other:?}"),
    }
    let stats = service.shutdown();
    assert_eq!(stats.failed_not_converged, 1);
}

#[test]
fn every_terminal_outcome_carries_a_balanced_ledger() {
    let sink = Arc::new(MemorySink::new());
    let engine = Arc::new(EchoEngine::new());
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(2)
        .with_linger(Duration::from_millis(1))
        .with_tracer(Tracer::new(sink.clone()));
    let service = SolveService::start_with_engine(tiny_pattern(), config, engine).unwrap();

    let plain = service.submit(tiny_request()).unwrap();
    let bounded = service
        .submit(tiny_request().with_deadline(Duration::from_secs(60)))
        .unwrap();
    assert!(plain.wait().is_ok());
    assert!(bounded.wait().is_ok());

    // Terminal requests land in the class tracker and the Prometheus page
    // agrees with the snapshot it renders from.
    let classes = service.classes();
    assert_eq!(classes.total(), 2);
    let ion = classes.get(WorkloadClass::IonLike);
    assert_eq!(ion.count, 2, "echo engine converges in 1 iter: ion-like");
    let page = service.prometheus();
    assert_eq!(
        batsolv_trace::parse_prom_labeled(
            &page,
            "batsolv_class_requests_total",
            &[("class", "ion-like")],
        ),
        Some(2.0)
    );
    assert_eq!(
        batsolv_trace::parse_prom_labeled(
            &page,
            "batsolv_class_latency_us",
            &[("class", "ion-like"), ("quantile", "0.99")],
        ),
        Some(ion.p99_us as f64),
        "page p99 must match the snapshot p99"
    );

    let _ = service.shutdown();
    let ledgers: Vec<_> = sink
        .snapshot()
        .into_iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Ledger(l) => Some((ev.trace_id, l)),
            _ => None,
        })
        .collect();
    assert_eq!(ledgers.len(), 2, "exactly one ledger per terminal request");
    for (trace_id, ledger) in &ledgers {
        assert!(trace_id.is_some(), "ledgers are request-scoped");
        assert!(ledger.end_to_end_us > 0.0);
        assert!(
            ledger.solve_us > 0.0,
            "dispatched requests spend solve time"
        );
        assert!(
            ledger.balanced_within(1.0),
            "phase sum must match end-to-end: {ledger:?}"
        );
        assert_eq!(ledger.class, WorkloadClass::IonLike);
        assert_eq!(ledger.iterations, 1);
    }
    // Exactly one request carried a deadline, and it met it.
    let hits: Vec<_> = ledgers.iter().filter_map(|(_, l)| l.deadline).collect();
    assert_eq!(hits, vec![true]);
}

#[test]
fn expired_deadline_emits_an_undispatched_ledger() {
    let sink = Arc::new(MemorySink::new());
    let engine = Arc::new(EchoEngine::new());
    // Same shape as `expired_deadline_returns_structured_error`: the
    // doomed request lingers until the healthy one completes the batch.
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(2)
        .with_linger(Duration::from_secs(3600))
        .with_tracer(Tracer::new(sink.clone()));
    let service = SolveService::start_with_engine(tiny_pattern(), config, engine).unwrap();

    let doomed = service
        .submit(tiny_request().with_deadline(Duration::ZERO))
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let healthy = service.submit(tiny_request()).unwrap();
    assert!(doomed.wait().is_err());
    assert!(healthy.wait().is_ok());
    let _ = service.shutdown();

    let ledgers: Vec<_> = sink
        .snapshot()
        .into_iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Ledger(l) => Some(l),
            _ => None,
        })
        .collect();
    assert_eq!(ledgers.len(), 2);
    let expired = ledgers
        .iter()
        .find(|l| l.outcome == "deadline_exceeded")
        .expect("the doomed request must still get a ledger");
    assert_eq!(expired.deadline, Some(false));
    assert_eq!(expired.solve_us, 0.0, "never dispatched: no solve phase");
    assert!(expired.queue_us > 0.0, "the wait happened in the queue");
    assert!(expired.balanced_within(1.0), "unbalanced: {expired:?}");
    assert!(ledgers.iter().any(|l| l.outcome != "deadline_exceeded"));
}

/// A fused launch stops at its tightest member's tolerance, so a zero,
/// negative or NaN tolerance would hold every batchmate through all three
/// rungs. Submission refuses it with a structured error, and the batch it
/// would have joined solves on rung 1.
#[test]
fn unreachable_tolerance_is_refused_and_spares_its_batchmates() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let values: Vec<f64> = (0..pattern.num_rows())
        .flat_map(|r| {
            pattern
                .row_cols(r)
                .iter()
                .map(move |&c| if c as usize == r { 8.0 } else { -1.0 })
                .collect::<Vec<_>>()
        })
        .collect();
    let request = || SolveRequest::new(values.clone(), vec![1.0; pattern.num_rows()]);
    for bad in [0.0, -1.0, f64::NAN] {
        let config = RuntimeConfig::new(DeviceSpec::v100())
            .with_batch_target(8)
            .with_linger(Duration::from_millis(50));
        let service = SolveService::start(Arc::clone(&pattern), config).unwrap();
        let mut tickets = Vec::new();
        for i in 0..8 {
            if i == 3 {
                match service.submit(request().with_tolerance(bad)) {
                    Err(SubmitError::InvalidTolerance { tolerance }) => {
                        assert_eq!(tolerance.to_bits(), bad.to_bits())
                    }
                    other => panic!("tolerance {bad}: expected InvalidTolerance, got {other:?}"),
                }
            } else {
                tickets.push(service.submit(request()).unwrap());
            }
        }
        for t in tickets {
            let sol = t.wait().expect("batchmates must converge");
            assert_eq!(sol.method, SolveMethod::Bicgstab, "tolerance {bad}");
            assert_eq!(sol.rungs.len(), 1, "tolerance {bad}: no escalation");
            assert!(sol.residual < 1e-10);
        }
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 7);
        assert_eq!(stats.rejected_tolerance, 1);
        assert_eq!(stats.rejected_total(), 1);
    }
}

/// Records every fused launch's request ids; when armed, holds the next
/// launch until released.
#[derive(Default)]
struct HoldNext {
    launches: Mutex<Vec<Vec<u64>>>,
    /// (armed, held): `armed` asks for the next launch to be held,
    /// `held` is set while it waits.
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl HoldNext {
    fn arm(&self) {
        self.state.lock().unwrap().0 = true;
    }

    /// Block until a launch is being held.
    fn await_held(&self) {
        let state = self.state.lock().unwrap();
        let (state, timeout) = self
            .changed
            .wait_timeout_while(state, Duration::from_secs(60), |s| !s.1)
            .unwrap();
        assert!(state.1 && !timeout.timed_out(), "no launch was held");
    }

    fn release(&self) {
        self.state.lock().unwrap().1 = false;
        self.changed.notify_all();
    }
}

impl LaunchHook for HoldNext {
    fn disrupt(&self, ids: &[u64]) -> LaunchDisruption {
        self.launches.lock().unwrap().push(ids.to_vec());
        let mut state = self.state.lock().unwrap();
        if std::mem::take(&mut state.0) {
            state.1 = true;
            self.changed.notify_all();
            while state.1 {
                state = self.changed.wait(state).unwrap();
            }
        }
        LaunchDisruption::Proceed
    }
}

/// The default configuration is work-conserving. A lone request on an
/// idle service reaches the engine alone, held for no company: its ledger
/// books no linger wait (a 2 ms linger would put every request's queue +
/// linger at 2 ms or more). And the requests that arrive while a launch
/// is in flight are fused into the next launch.
#[test]
fn the_default_dispatches_at_once_and_fuses_what_queues_behind_a_launch() {
    let workload =
        XgcWorkload::generate_single_species(VelocityGrid::small(8, 7), Species::ion(), 8, 5)
            .unwrap();
    let sink = Arc::new(MemorySink::new());
    let hook = Arc::new(HoldNext::default());
    let config = RuntimeConfig::new(DeviceSpec::v100()).with_tracer(Tracer::new(sink.clone()));
    let pattern = Arc::clone(workload.pattern());
    let service = SolveService::start_with_hook(pattern, config, hook.clone()).unwrap();
    let submit = |k: usize| {
        let sys = workload.system(k);
        let request = SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec());
        service.submit(request).unwrap()
    };

    // Lone requests, one at a time.
    for k in 0..4 {
        submit(k).wait().unwrap();
    }
    // One held launch, and three requests that queue behind it.
    hook.arm();
    let held = submit(4);
    hook.await_held();
    let behind: Vec<_> = (5..8).map(submit).collect();
    hook.release();
    held.wait().unwrap();
    for t in behind {
        t.wait().unwrap();
    }
    let stats = service.shutdown();
    assert_eq!(stats.converged_iterative, 8);

    let launches = hook.launches.lock().unwrap().clone();
    let expected: Vec<Vec<u64>> = vec![vec![0], vec![1], vec![2], vec![3], vec![4], vec![5, 6, 7]];
    assert_eq!(
        launches, expected,
        "one launch per lone request, then one fused"
    );
    let waits: Vec<f64> = sink
        .snapshot()
        .into_iter()
        .filter_map(|ev| match (ev.trace_id, ev.kind) {
            (Some(id), EventKind::Ledger(l)) if id < 4 => Some(l.queue_us + l.linger_us),
            _ => None,
        })
        .collect();
    assert_eq!(waits.len(), 4);
    let least = waits.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        least < 1_000.0,
        "a lone request waited {least:.0} us before dispatch (all: {waits:?})"
    );
}
