//! Chaos suite: seeded fault scenarios driven through the full service.
//!
//! The core invariant under every scenario (fault type × rate × batch
//! size): **every submitted request gets exactly one structured
//! outcome** — a solution, a structured solve error, or a structured
//! submission rejection — and **no healthy request's solution is
//! perturbed by a faulty batchmate**. The `FaultPlan` is a pure function
//! of `(seed, kind, id)`, so the test can predict exactly which requests
//! are faulty and check the service's failure taxonomy against the
//! prediction.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use batsolv_faults::{FaultKind, FaultPlan, FaultRates};
use batsolv_formats::SparsityPattern;
use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{
    BreakerConfig, RuntimeConfig, SolveError, SolveMethod, SolveOutcome, SolveRequest,
    SolveService, SubmitError,
};

/// Silence panic backtraces from the supervised worker (injected panics
/// are expected there); panics on any other thread still print.
fn quiet_worker_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let worker = std::thread::current()
                .name()
                .is_some_and(|n| n == "batsolv-runtime-supervisor");
            if !worker {
                default(info);
            }
        }));
    });
}

fn tridiag_pattern(n: usize) -> Arc<SparsityPattern> {
    let mut coords = Vec::new();
    for r in 0..n {
        if r > 0 {
            coords.push((r, r - 1));
        }
        coords.push((r, r));
        if r + 1 < n {
            coords.push((r, r + 1));
        }
    }
    Arc::new(SparsityPattern::from_coords(n, &coords).unwrap())
}

/// Diagonally dominant system varying with `i` so every request is a
/// distinct numerical instance.
fn clean_system(pattern: &SparsityPattern, i: usize) -> (Vec<f64>, Vec<f64>) {
    let n = pattern.num_rows();
    let mut values = Vec::with_capacity(pattern.nnz());
    for r in 0..n {
        for &c in pattern.row_cols(r) {
            if c as usize == r {
                values.push(5.0 + 0.01 * (i % 17) as f64 + 0.001 * (r % 5) as f64);
            } else {
                values.push(-1.0);
            }
        }
    }
    let rhs: Vec<f64> = (0..n).map(|r| 1.0 + 0.1 * ((i + r) % 7) as f64).collect();
    (values, rhs)
}

fn base_config(batch_target: usize) -> RuntimeConfig {
    RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(batch_target)
        .with_linger(Duration::from_millis(1))
        .with_queue_capacity(4096)
        // The matrix scenarios account for every outcome themselves;
        // breaker shedding is covered by its own test below.
        .with_breaker(None)
        .with_watchdog(None)
}

const OUTCOME_TIMEOUT: Duration = Duration::from_secs(60);

/// Everything a chaos run produces, for invariant checking.
struct ChaosRun {
    /// (submission index, outcome) for accepted requests.
    outcomes: Vec<(usize, SolveOutcome)>,
    /// Submission indices rejected at admission.
    rejected: Vec<usize>,
    stats: batsolv_runtime::StatsSnapshot,
}

/// Drive `count` seeded requests through a service wired to `plan`.
/// Data faults are applied pre-submission (keyed by submission index);
/// launch faults fire inside the engine (keyed by service request id).
fn run_chaos(plan: &FaultPlan, batch_target: usize, count: usize, admission: bool) -> ChaosRun {
    quiet_worker_panics();
    let pattern = tridiag_pattern(24);
    let config = base_config(batch_target).with_admission(admission);
    let service =
        SolveService::start_with_hook(Arc::clone(&pattern), config, Arc::new(plan.clone()))
            .unwrap();

    let mut tickets = Vec::new();
    let mut rejected = Vec::new();
    for i in 0..count {
        let (mut values, mut rhs) = clean_system(&pattern, i);
        let _ = plan.corrupt_system(i as u64, &pattern, &mut values, &mut rhs);
        if let Some(delay) = plan.queue_delay(i as u64) {
            std::thread::sleep(delay);
        }
        match service.submit(SolveRequest::new(values, rhs)) {
            Ok(t) => tickets.push((i, t)),
            Err(SubmitError::Rejected { .. }) => rejected.push(i),
            Err(other) => panic!("request {i}: unexpected submit error {other}"),
        }
    }

    let mut outcomes = Vec::new();
    for (i, t) in tickets {
        let outcome = t
            .wait_timeout(OUTCOME_TIMEOUT)
            .unwrap_or_else(|| panic!("request {i} never resolved: outcome leaked"));
        outcomes.push((i, outcome));
    }
    let stats = service.shutdown();
    ChaosRun {
        outcomes,
        rejected,
        stats,
    }
}

/// Assert the exactly-one-outcome invariant and that every outcome is
/// structured (finite x on success, a typed error otherwise).
fn assert_invariants(run: &ChaosRun, count: usize) {
    assert_eq!(
        run.outcomes.len() + run.rejected.len(),
        count,
        "every submission must be accounted for"
    );
    for (i, outcome) in &run.outcomes {
        match outcome {
            Ok(sol) => assert!(
                sol.x.iter().all(|v| v.is_finite()),
                "request {i}: converged solution contains non-finite entries"
            ),
            Err(
                SolveError::NotConverged { .. }
                | SolveError::WorkerPanic { .. }
                | SolveError::DeviceFailure { .. },
            ) => {}
            Err(other) => panic!("request {i}: unexpected error {other}"),
        }
    }
    // Completed = accepted: no request is double-counted or dropped by
    // the taxonomy either.
    assert_eq!(run.stats.accepted as usize, run.outcomes.len());
}

/// The scenario matrix of the acceptance criteria: each fault family at
/// 1–20% rates, across batch sizes 1/4/16/100.
#[test]
fn chaos_matrix_exactly_one_outcome_per_request() {
    let poison = FaultRates {
        nan_values: 0.05,
        inf_values: 0.03,
        nan_rhs: 0.05,
        zero_diagonal: 0.04,
        near_zero_diagonal: 0.01,
        singular_row: 0.05,
        ..Default::default()
    };
    let launch = FaultRates {
        stall: 0.05,
        panic: 0.08,
        device_fail: 0.08,
        queue_delay: 0.03,
        ..Default::default()
    };
    let everything = FaultRates {
        nan_values: 0.05,
        inf_values: 0.02,
        nan_rhs: 0.04,
        zero_diagonal: 0.03,
        near_zero_diagonal: 0.01,
        singular_row: 0.04,
        stall: 0.03,
        panic: 0.10,
        device_fail: 0.10,
        queue_delay: 0.02,
    };
    let scenarios: [(&str, FaultRates, bool); 4] = [
        ("poison-admitted", poison, false),
        ("poison-gated", poison, true),
        ("launch-faults", launch, true),
        ("everything", everything, true),
    ];
    for &batch in &[1usize, 4, 16, 100] {
        let count = if batch >= 100 { 120 } else { 48 };
        for (name, rates, admission) in &scenarios {
            let plan = FaultPlan::new(0xC0FFEE ^ batch as u64, *rates)
                .with_stall_duration(Duration::from_millis(3))
                .with_delay_duration(Duration::from_micros(200));
            let run = run_chaos(&plan, batch, count, *admission);
            assert_invariants(&run, count);
            // Gated scenarios: the reject counters must match the
            // plan's own prediction exactly.
            if *admission {
                let mut nonfinite = 0u64;
                let mut zero_diag = 0u64;
                for i in 0..count as u64 {
                    match plan.data_fault_for(i) {
                        Some(FaultKind::NanValues | FaultKind::InfValues | FaultKind::NanRhs) => {
                            nonfinite += 1
                        }
                        Some(FaultKind::ZeroDiagonal | FaultKind::SingularRow) => zero_diag += 1,
                        _ => {}
                    }
                }
                assert_eq!(
                    run.stats.rejected_nonfinite, nonfinite,
                    "{name}/batch {batch}: non-finite reject count"
                );
                assert_eq!(
                    run.stats.rejected_zero_diag, zero_diag,
                    "{name}/batch {batch}: zero-diagonal reject count"
                );
                assert_eq!(run.rejected.len() as u64, nonfinite + zero_diag);
            }
        }
    }
}

/// Healthy requests solved next to faulty batchmates produce bitwise the
/// same solution as the identical requests on a fault-free service.
#[test]
fn healthy_solutions_bitwise_unaffected_by_faulty_neighbors() {
    let rates = FaultRates {
        nan_values: 0.10,
        singular_row: 0.10,
        panic: 0.10,
        device_fail: 0.08,
        ..Default::default()
    };
    let count = 40;
    let plan = FaultPlan::new(7, rates);
    let chaotic = run_chaos(&plan, 8, count, false);
    let clean = run_chaos(&FaultPlan::disabled(), 8, count, false);

    let clean_x: Vec<Option<Vec<f64>>> = (0..count)
        .map(|i| {
            clean
                .outcomes
                .iter()
                .find(|(j, _)| *j == i)
                .and_then(|(_, o)| o.as_ref().ok().map(|s| s.x.clone()))
        })
        .collect();
    let mut compared = 0;
    for (i, outcome) in &chaotic.outcomes {
        if plan.data_fault_for(*i as u64).is_some() {
            continue; // corrupted payload: not a healthy request
        }
        if let Ok(sol) = outcome {
            let reference = clean_x[*i]
                .as_ref()
                .expect("clean run must converge every healthy request");
            assert_eq!(
                &sol.x, reference,
                "request {i}: healthy solution perturbed by faulty batchmates"
            );
            compared += 1;
        }
    }
    assert!(
        compared >= count / 2,
        "scenario must leave enough healthy converged requests ({compared})"
    );
}

/// An injected worker panic is attributed to the request that provokes
/// it; every neighbor in the panicked fused batch still gets a solution.
#[test]
fn panic_is_isolated_to_the_guilty_request() {
    quiet_worker_panics();
    let rates = FaultRates {
        panic: 0.2,
        ..Default::default()
    };
    let plan = FaultPlan::new(21, rates);
    // Service ids are assigned in submission order, so the plan predicts
    // exactly which requests panic their launch.
    let count = 12;
    let guilty: Vec<u64> = (0..count as u64)
        .filter(|&i| plan.rolls(FaultKind::Panic, i))
        .collect();
    assert!(
        !guilty.is_empty() && guilty.len() < count,
        "seed must give a mixed batch (guilty: {guilty:?})"
    );

    let run = run_chaos(&plan, count, count, true);
    for (i, outcome) in &run.outcomes {
        if guilty.contains(&(*i as u64)) {
            match outcome {
                Err(SolveError::WorkerPanic { detail }) => {
                    assert!(
                        detail.contains(&format!("request {i}")),
                        "panic detail must name the guilty request: {detail}"
                    );
                }
                other => panic!("request {i} should panic its singleton retry, got {other:?}"),
            }
        } else {
            let sol = outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("innocent request {i} failed: {e}"));
            assert!(sol.residual <= 1e-10);
        }
    }
    assert_eq!(run.stats.failed_panic, guilty.len() as u64);
    assert_eq!(
        run.stats.completed(),
        run.stats.accepted,
        "panic must not lose or duplicate outcomes"
    );
}

/// Same isolation story for simulated device failures.
#[test]
fn device_failure_is_isolated_to_the_guilty_request() {
    let rates = FaultRates {
        device_fail: 0.2,
        ..Default::default()
    };
    let plan = FaultPlan::new(33, rates);
    let count = 12;
    let guilty: Vec<u64> = (0..count as u64)
        .filter(|&i| plan.rolls(FaultKind::DeviceFail, i))
        .collect();
    assert!(!guilty.is_empty() && guilty.len() < count);

    let run = run_chaos(&plan, count, count, true);
    for (i, outcome) in &run.outcomes {
        if guilty.contains(&(*i as u64)) {
            assert!(
                matches!(outcome, Err(SolveError::DeviceFailure { .. })),
                "request {i} should fail its singleton retry, got {outcome:?}"
            );
        } else {
            assert!(outcome.is_ok(), "innocent request {i}: {outcome:?}");
        }
    }
    assert_eq!(run.stats.failed_device, guilty.len() as u64);
}

/// The acceptance-criteria ladder demo: one mixed workload produces
/// outcomes at all three rungs plus admission rejects, with counters
/// matching the constructed workload exactly.
#[test]
fn mixed_workload_exercises_all_three_rungs_and_rejects() {
    let pattern = tridiag_pattern(32);
    let n = pattern.num_rows();
    // max_iters 1 starves BiCGSTAB; GMRES gets enough room to converge
    // a 4-eigenvalue system exactly but nothing harder.
    let config = base_config(1)
        .with_max_iters(1)
        .with_gmres_limits(6, 6)
        .with_tolerance(1e-8);
    let service = SolveService::start(Arc::clone(&pattern), config).unwrap();

    // Rung 1: easy system submitted with its exact solution as warm
    // guess — BiCGSTAB converges immediately.
    let (values, rhs) = clean_system(&pattern, 0);
    let exact = {
        // Solve once through a throwaway default service to get x*.
        let solver =
            SolveService::start(Arc::clone(&pattern), base_config(1).with_tolerance(1e-12))
                .unwrap();
        let t = solver
            .submit(SolveRequest::new(values.clone(), rhs.clone()))
            .unwrap();
        t.wait().unwrap().x
    };
    let rung1 = service
        .submit(SolveRequest::new(values.clone(), rhs.clone()).with_guess(exact))
        .unwrap();

    // Rung 2: a matrix whose Jacobi-preconditioned form has exactly 4
    // distinct eigenvalues (alternating 2x2 blocks) — full GMRES
    // converges at iteration 4; one BiCGSTAB iteration cannot.
    let mut block_values = vec![0.0; pattern.nnz()];
    for r in 0..n {
        let (a, b) = if (r / 2) % 2 == 0 {
            (4.0, 1.0)
        } else {
            (5.0, 2.0)
        };
        let partner = if r % 2 == 0 { r + 1 } else { r - 1 };
        for (k, &c) in pattern.row_cols(r).iter().enumerate() {
            let (lo, _) = pattern.row_range(r);
            let c = c as usize;
            block_values[lo + k] = if c == r {
                a
            } else if c == partner {
                b
            } else {
                0.0
            };
        }
    }
    let rung2 = service
        .submit(SolveRequest::new(block_values, vec![1.0; n]))
        .unwrap();

    // Rung 3: easy system, cold start — 1 BiCGSTAB iteration and 6 GMRES
    // iterations are both insufficient at 1e-8; banded LU rescues it.
    let rung3 = service
        .submit(SolveRequest::new(values.clone(), rhs.clone()))
        .unwrap();

    // Rejects: a NaN payload and a zero-diagonal payload.
    let mut nan_values = values.clone();
    nan_values[3] = f64::NAN;
    assert!(matches!(
        service.submit(SolveRequest::new(nan_values, rhs.clone())),
        Err(SubmitError::Rejected { .. })
    ));
    let mut sing_values = values.clone();
    let diag_idx = pattern.find(2, 2).unwrap();
    sing_values[diag_idx] = 0.0;
    assert!(matches!(
        service.submit(SolveRequest::new(sing_values, rhs.clone())),
        Err(SubmitError::Rejected { .. })
    ));

    let s1 = rung1.wait().unwrap();
    assert_eq!(s1.method, SolveMethod::Bicgstab, "rung 1: {:?}", s1.rungs);
    assert_eq!(s1.rungs.len(), 1);

    let s2 = rung2.wait().unwrap();
    assert_eq!(s2.method, SolveMethod::Gmres, "rung 2: {:?}", s2.rungs);
    assert_eq!(s2.rungs.len(), 2);

    let s3 = rung3.wait().unwrap();
    assert_eq!(
        s3.method,
        SolveMethod::BandedLuFallback,
        "rung 3: {:?}",
        s3.rungs
    );
    assert_eq!(s3.rungs.len(), 3);

    let stats = service.shutdown();
    assert_eq!(stats.converged_iterative, 1);
    assert_eq!(stats.converged_gmres, 1);
    assert_eq!(stats.converged_fallback, 1);
    assert_eq!(stats.rejected_nonfinite, 1);
    assert_eq!(stats.rejected_zero_diag, 1);
    assert_eq!(stats.rung_hist, [1, 1, 1]);
}

/// Circuit breaker: a storm of device failures trips it, submissions are
/// shed with `CircuitOpen`, and a half-open probe re-opens it on failure.
#[test]
fn breaker_trips_sheds_and_half_opens() {
    let rates = FaultRates {
        device_fail: 1.0,
        ..Default::default()
    };
    let plan = FaultPlan::new(1, rates);
    let pattern = tridiag_pattern(24);
    let config = base_config(1).with_breaker(Some(BreakerConfig {
        trip_after: 2,
        cooldown: Duration::from_millis(30),
        max_backoff: Duration::from_secs(1),
        degraded_fraction: 0.5,
    }));
    let service =
        SolveService::start_with_hook(Arc::clone(&pattern), config, Arc::new(plan)).unwrap();

    let submit_one = |i: usize| {
        let (values, rhs) = clean_system(&pattern, i);
        service.submit(SolveRequest::new(values, rhs))
    };

    // Two degraded batches in a row trip the breaker.
    for i in 0..2 {
        let t = submit_one(i).unwrap();
        assert!(matches!(
            t.wait_timeout(OUTCOME_TIMEOUT),
            Some(Err(SolveError::DeviceFailure { .. }))
        ));
    }
    let shed = match submit_one(2) {
        Err(SubmitError::CircuitOpen { retry_after }) => retry_after,
        other => panic!("expected CircuitOpen, got {other:?}"),
    };
    assert!(shed > Duration::ZERO);

    // After the cooldown a half-open probe is admitted; it fails, so the
    // breaker re-opens immediately for the next submission.
    std::thread::sleep(Duration::from_millis(40));
    let probe = submit_one(3).expect("half-open must admit one probe");
    assert!(matches!(
        probe.wait_timeout(OUTCOME_TIMEOUT),
        Some(Err(SolveError::DeviceFailure { .. }))
    ));
    assert!(matches!(
        submit_one(4),
        Err(SubmitError::CircuitOpen { .. })
    ));

    let stats = service.shutdown();
    assert!(stats.breaker_trips >= 2, "trips {}", stats.breaker_trips);
    assert!(stats.rejected_circuit_open >= 2);
}

/// Watchdog: an injected stall past the dispatch budget is counted.
#[test]
fn watchdog_counts_stalled_dispatches() {
    let rates = FaultRates {
        stall: 1.0,
        ..Default::default()
    };
    let plan = FaultPlan::new(2, rates).with_stall_duration(Duration::from_millis(60));
    let pattern = tridiag_pattern(16);
    let config = base_config(1).with_watchdog(Some(Duration::from_millis(5)));
    let service =
        SolveService::start_with_hook(Arc::clone(&pattern), config, Arc::new(plan)).unwrap();
    let (values, rhs) = clean_system(&pattern, 0);
    let t = service.submit(SolveRequest::new(values, rhs)).unwrap();
    let sol = t.wait_timeout(OUTCOME_TIMEOUT).unwrap();
    assert!(sol.is_ok(), "a stalled launch still completes: {sol:?}");
    let stats = service.shutdown();
    assert!(
        stats.watchdog_stalls >= 1,
        "stall must be flagged (stalls {})",
        stats.watchdog_stalls
    );
}

/// Regression (satellite): a poisoned XGC mesh node — NaN smuggled into
/// the RHS of a `SystemView` — must be caught at submission, not fused
/// into a launch with 41k healthy nodes.
#[test]
fn poisoned_xgc_node_is_rejected_at_submission() {
    use batsolv_xgc::{Species, VelocityGrid, XgcWorkload};
    let workload =
        XgcWorkload::generate_single_species(VelocityGrid::small(8, 7), Species::ion(), 4, 9)
            .unwrap();
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(4)
        .with_linger(Duration::from_millis(1));
    let service = SolveService::start(Arc::clone(workload.pattern()), config).unwrap();

    let mut tickets = Vec::new();
    let mut rejects = 0;
    for sys in workload.systems() {
        let mut rhs = sys.rhs.to_vec();
        if sys.index == 2 {
            rhs[5] = f64::NAN; // the poisoned mesh node
            assert_eq!(sys.first_non_finite(), None, "workload itself is clean");
        }
        match service.submit(SolveRequest::new(sys.values.to_vec(), rhs)) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::Rejected { reason }) => {
                assert!(reason.to_string().contains("rhs"), "reason: {reason}");
                rejects += 1;
            }
            Err(other) => panic!("unexpected submit error {other}"),
        }
    }
    assert_eq!(rejects, 1, "exactly the poisoned node is rejected");
    for t in tickets {
        let sol = t.wait_timeout(OUTCOME_TIMEOUT).expect("must resolve");
        assert!(sol.is_ok(), "healthy nodes still solve: {sol:?}");
    }
    let stats = service.shutdown();
    assert_eq!(stats.rejected_nonfinite, 1);
    assert_eq!(stats.accepted, 3);
}

/// Flight recorder: an injected stall trips the watchdog, which dumps
/// the ring — and the dump contains the guilty request's trace id
/// (carried in by its `submitted`/`dequeued` events, which precede the
/// stalled launch).
#[test]
fn watchdog_stall_dumps_flight_recorder_with_guilty_trace() {
    use batsolv_trace::{FlightRecorder, MemorySink, Tracer};
    let rates = FaultRates {
        stall: 1.0,
        ..Default::default()
    };
    let plan = FaultPlan::new(2, rates).with_stall_duration(Duration::from_millis(60));
    let pattern = tridiag_pattern(16);
    let sink = Arc::new(MemorySink::new());
    let recorder = Arc::new(FlightRecorder::new(256));
    let config = base_config(1)
        .with_watchdog(Some(Duration::from_millis(5)))
        .with_tracer(Tracer::with_flight_recorder(
            sink.clone(),
            Arc::clone(&recorder),
        ));
    let service =
        SolveService::start_with_hook(Arc::clone(&pattern), config, Arc::new(plan)).unwrap();
    let (values, rhs) = clean_system(&pattern, 0);
    let t = service.submit(SolveRequest::new(values, rhs)).unwrap();
    let sol = t.wait_timeout(OUTCOME_TIMEOUT).unwrap();
    assert!(sol.is_ok(), "a stalled launch still completes: {sol:?}");
    let stats = service.shutdown();
    assert!(stats.watchdog_stalls >= 1, "stall must be flagged");
    let dump = recorder
        .last_dump()
        .expect("watchdog stall must dump the flight recorder");
    assert_eq!(dump.reason, "watchdog_stall");
    assert!(
        dump.contains_trace(0),
        "dump must contain the stalled request's trace id"
    );
    // The dump marker also reached the ordinary sink.
    use batsolv_trace::EventKind;
    assert!(sink
        .snapshot()
        .iter()
        .any(|e| matches!(e.kind, EventKind::FlightDump { .. })));
}

/// A trace sink that panics on the first `batch_formed`: the worker loop
/// crashes after the former cut a batch, outside any engine call.
struct PanicOnFirstBatch(AtomicBool);

impl batsolv_trace::TraceSink for PanicOnFirstBatch {
    fn emit(&self, event: &batsolv_trace::TraceEvent) {
        let formed = matches!(event.kind, batsolv_trace::EventKind::BatchFormed { .. });
        if formed && !self.0.swap(true, Ordering::SeqCst) {
            panic!("trace sink failed on batch_formed");
        }
    }
}

/// The batch the former already cut survives a worker panic: the
/// respawned loop runs every member whose reply slot is unclaimed.
#[test]
fn a_batch_cut_before_a_worker_panic_runs_after_the_respawn() {
    quiet_worker_panics();
    let pattern = tridiag_pattern(24);
    let sink = Arc::new(PanicOnFirstBatch(AtomicBool::new(false)));
    let config = base_config(4)
        .with_linger(Duration::from_secs(3600))
        .with_tracer(batsolv_trace::Tracer::new(sink));
    let service = SolveService::start(Arc::clone(&pattern), config).unwrap();
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            let (values, rhs) = clean_system(&pattern, i);
            service.submit(SolveRequest::new(values, rhs)).unwrap()
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let outcome = t
            .wait_timeout(OUTCOME_TIMEOUT)
            .expect("a cut request resolves");
        let sol = outcome.unwrap_or_else(|e| panic!("request {i} lost to the panic: {e}"));
        assert!(sol.residual <= 1e-10);
    }
    let stats = service.shutdown();
    assert_eq!(stats.worker_respawns, 1);
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.completed(), stats.accepted);
}
