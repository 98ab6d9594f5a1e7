//! End-to-end fleet service behavior: group solving across shards,
//! atomic submit rejection, breaker-aware dispatch, and drain-on-
//! shutdown semantics.

use std::sync::Arc;
use std::time::Duration;

use batsolv_fleet::{DeviceProfile, FleetConfig, FleetService};
use batsolv_formats::SparsityPattern;
use batsolv_gpusim::{LaunchDisruption, LaunchHook, NoDisruption};
use batsolv_runtime::{BreakerConfig, SolveRequest, SubmitError};
use batsolv_trace::parse_prom_value;

fn dominant_values(pattern: &SparsityPattern) -> Vec<f64> {
    (0..pattern.num_rows())
        .flat_map(|r| {
            pattern
                .row_cols(r)
                .iter()
                .map(move |&c| if c as usize == r { 8.0 } else { -1.0 })
                .collect::<Vec<_>>()
        })
        .collect()
}

fn group(pattern: &SparsityPattern, size: usize) -> Vec<SolveRequest> {
    (0..size)
        .map(|_| SolveRequest::new(dominant_values(pattern), vec![1.0; pattern.num_rows()]))
        .collect()
}

#[test]
fn fleet_solves_groups_across_shards_and_rolls_up_stats() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let cfg = FleetConfig::new(4)
        .with_profile(DeviceProfile::A100)
        .with_min_batch_size(4)
        .with_max_batch_size(16);
    let service = FleetService::start(Arc::clone(&pattern), cfg).unwrap();
    assert_eq!(service.num_devices(), 4);

    // 48 systems: three 16-wide chunks fanning out over shards.
    let ticket = service.submit_group(group(&pattern, 48), None).unwrap();
    assert_eq!(ticket.len(), 48);
    for outcome in ticket.wait_all() {
        assert!(outcome.unwrap().residual <= 1e-10);
    }

    let snap = service.snapshot();
    assert_eq!(snap.accepted, 48);
    assert_eq!(snap.completed(), 48);
    assert_eq!(snap.failed(), 0);
    assert_eq!(snap.gpu_chunks, 3);
    assert_eq!(snap.spilled, 0);
    let executed: u64 = snap.shards.iter().map(|s| s.chunks_executed).sum();
    assert_eq!(executed, 3);
    assert!(snap.makespan_s > 0.0);
    assert!(snap.sim_time_total_s >= snap.makespan_s);
    assert!(snap.latency_p99 >= snap.latency_p50);

    // The Prometheus page is a pure function of the snapshot.
    let page = batsolv_fleet::fleet_prometheus_text(&snap);
    assert_eq!(
        parse_prom_value(&page, "batsolv_fleet_requests_accepted_total"),
        Some(48.0)
    );
    for d in 0..4 {
        assert!(page.contains(&format!(
            r#"batsolv_fleet_device_chunks_total{{device="{d}",profile="NVIDIA A100-40GB"}}"#
        )));
    }

    // The human-readable page carries the per-shard breakdown.
    let rendered = snap.render();
    assert!(rendered.contains("shard  0"));
    assert!(rendered.contains("steals"));
    service.shutdown();
}

#[test]
fn submit_is_atomic_on_rejection() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    let service = FleetService::start(Arc::clone(&pattern), FleetConfig::new(2)).unwrap();

    // Shape errors reject before anything queues.
    let mut bad = group(&pattern, 4);
    bad[3].rhs.pop();
    match service.submit_group(bad, None) {
        Err(SubmitError::ShapeMismatch { field, .. }) => assert_eq!(field, "rhs"),
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    match service.submit_group(Vec::new(), None) {
        Err(SubmitError::ShapeMismatch { field, .. }) => assert_eq!(field, "group"),
        other => panic!("expected empty-group rejection, got {other:?}"),
    }
    let snap = service.shutdown();
    assert_eq!(snap.accepted, 0, "rejected groups queued nothing");
    assert_eq!(snap.rejected, 4, "every member of the refused group counts");
}

#[test]
fn dispatch_walks_past_a_tripped_breaker() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    struct AlwaysFail;
    impl LaunchHook for AlwaysFail {
        fn disrupt(&self, _ids: &[u64]) -> LaunchDisruption {
            LaunchDisruption::DeviceFail { code: "dead" }
        }
    }
    let cfg = FleetConfig::new(2)
        .with_min_batch_size(2)
        .with_max_batch_size(8)
        .with_steal(false)
        .with_breaker(BreakerConfig {
            trip_after: 1,
            cooldown: Duration::from_secs(60),
            max_backoff: Duration::from_secs(60),
            degraded_fraction: 0.5,
        });
    let hooks: Vec<Arc<dyn LaunchHook>> = vec![Arc::new(AlwaysFail), Arc::new(NoDisruption)];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();

    // First group lands on shard 0, fails, trips the breaker.
    let t = service.submit_group(group(&pattern, 4), Some(0)).unwrap();
    for o in t.wait_all() {
        assert!(matches!(
            o,
            Err(batsolv_runtime::SolveError::DeviceFailure { code: "dead" })
        ));
    }

    // Subsequent groups hinted at the dead shard walk to the healthy one.
    let t = service.submit_group(group(&pattern, 4), Some(0)).unwrap();
    for o in t.wait_all() {
        assert!(o.is_ok(), "rerouted to the healthy shard");
    }

    let snap = service.shutdown();
    assert!(snap.shards[0].breaker_open, "shard 0 still cooling down");
    assert_eq!(snap.shards[0].breaker_trips, 1);
    assert_eq!(snap.shards[1].completed, 4);
}

#[test]
fn shutdown_drains_queued_work() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    let service = FleetService::start(
        Arc::clone(&pattern),
        FleetConfig::new(2)
            .with_min_batch_size(2)
            .with_max_batch_size(4),
    )
    .unwrap();
    let tickets: Vec<_> = (0..6)
        .map(|_| service.submit_group(group(&pattern, 4), None).unwrap())
        .collect();
    let snap = service.shutdown();
    assert_eq!(snap.completed(), 24, "queued chunks execute before exit");
    for t in tickets {
        for o in t.wait_all() {
            assert!(o.unwrap().residual <= 1e-10);
        }
    }
}

/// The CPU spill pool runs no preconditioner: banded LU is its only
/// rung, so spilled chunks come back as unpreconditioned direct solves
/// while the GPU shards run the Jacobi-preconditioned ladder.
#[test]
fn cpu_spill_stays_unpreconditioned_banded_lu() {
    use batsolv_runtime::SolveMethod;

    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let cfg = FleetConfig::new(2)
        .with_profile(DeviceProfile::A100)
        .with_min_batch_size(8)
        .with_max_batch_size(16);
    let service = FleetService::start(Arc::clone(&pattern), cfg).unwrap();

    // A 16-wide group rides the GPU shards (preconditioned ladder); a
    // 5-wide remainder falls below min_batch_size and spills to the CPU.
    let gpu_ticket = service.submit_group(group(&pattern, 16), None).unwrap();
    let spill_ticket = service.submit_group(group(&pattern, 5), None).unwrap();
    for outcome in gpu_ticket.wait_all() {
        let sol = outcome.unwrap();
        assert!(sol.residual <= 1e-8);
        assert_ne!(
            sol.method,
            SolveMethod::BandedLuFallback,
            "full-width chunks must ride the GPU iterative ladder"
        );
    }
    for outcome in spill_ticket.wait_all() {
        let sol = outcome.unwrap();
        assert!(sol.residual <= 1e-8);
        assert_eq!(sol.method, SolveMethod::BandedLuFallback);
        assert_eq!(
            sol.rungs.len(),
            1,
            "the spill pool never escalates: banded LU is its only rung"
        );
        assert_eq!(sol.rungs[0].method, SolveMethod::BandedLuFallback);
    }

    let snap = service.shutdown();
    assert_eq!(snap.spilled, 5);
    assert_eq!(snap.completed(), 21);
    assert_eq!(snap.failed(), 0);
}

/// A member whose tolerance no residual can meet (zero, negative or NaN)
/// refuses its whole group at submission instead of holding the fused
/// chunk through all three rungs; the would-be batchmates, resubmitted
/// on their own, solve on rung 1.
#[test]
fn unreachable_tolerance_refuses_the_group_and_spares_its_batchmates() {
    use batsolv_runtime::SolveMethod;

    let pattern = Arc::new(SparsityPattern::stencil_2d(6, 6, false));
    let cfg = FleetConfig::new(1).with_min_batch_size(4);
    let service = FleetService::start(Arc::clone(&pattern), cfg).unwrap();
    for bad in [0.0, -1.0, f64::NAN] {
        let mut requests = group(&pattern, 8);
        requests[3].tolerance = Some(bad);
        match service.submit_group(requests, None) {
            Err(SubmitError::InvalidTolerance { tolerance }) => {
                assert_eq!(tolerance.to_bits(), bad.to_bits())
            }
            other => panic!("tolerance {bad}: expected InvalidTolerance, got {other:?}"),
        }
    }
    assert_eq!(
        service.snapshot().accepted,
        0,
        "refused groups queue nothing"
    );

    let ticket = service.submit_group(group(&pattern, 7), None).unwrap();
    for outcome in ticket.wait_all() {
        let sol = outcome.unwrap();
        assert_eq!(sol.method, SolveMethod::Bicgstab);
        assert_eq!(sol.rungs.len(), 1, "no escalation");
        assert!(sol.residual < 1e-10);
    }
    let snap = service.shutdown();
    assert_eq!(snap.accepted, 7);
    assert_eq!(snap.rejected, 24, "each refused group counts whole");
    assert_eq!(snap.spilled, 0);
}

/// A shard's breaker trip freezes the flight recorder, as the runtime's
/// does: the dump is the trip's post-mortem.
#[test]
fn breaker_trip_dumps_the_flight_recorder() {
    use batsolv_faults::{FaultPlan, FaultRates};
    use batsolv_trace::{EventKind, FlightRecorder, MemorySink, Tracer};

    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    let sink = Arc::new(MemorySink::new());
    let recorder = Arc::new(FlightRecorder::new(256));
    let failing = FaultPlan::new(
        3,
        FaultRates {
            device_fail: 1.0,
            ..Default::default()
        },
    );
    let cfg = FleetConfig::new(1)
        .with_min_batch_size(2)
        .with_max_batch_size(8)
        .with_breaker(BreakerConfig {
            trip_after: 1,
            cooldown: Duration::from_secs(60),
            max_backoff: Duration::from_secs(60),
            degraded_fraction: 0.5,
        })
        .with_tracer(Tracer::with_flight_recorder(
            sink.clone(),
            Arc::clone(&recorder),
        ));
    let hooks: Vec<Arc<dyn LaunchHook>> = vec![Arc::new(failing)];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();

    let t = service.submit_group(group(&pattern, 4), None).unwrap();
    for o in t.wait_all() {
        assert!(
            matches!(o, Err(batsolv_runtime::SolveError::DeviceFailure { .. })),
            "every launch fails: {o:?}"
        );
    }
    let snap = service.shutdown();
    assert_eq!(snap.breaker_trips(), 1);
    let dump = recorder
        .last_dump()
        .expect("a breaker trip must dump the flight recorder");
    assert_eq!(dump.reason, "breaker_trip");
    assert!(sink
        .snapshot()
        .iter()
        .any(|e| matches!(e.kind, EventKind::FlightDump { .. })));
}

/// Blame isolation: a launch panic that ends a multi-system chunk re-runs
/// its members one at a time, so only the member that provokes the panic
/// fails and every groupmate is solved.
#[test]
fn a_panicking_member_fails_alone_and_its_groupmates_solve() {
    use batsolv_faults::{FaultKind, FaultPlan, FaultRates};
    use batsolv_runtime::SolveError;

    let pattern = Arc::new(SparsityPattern::stencil_2d(4, 4, false));
    let rates = FaultRates {
        panic: 0.25,
        ..Default::default()
    };
    let plan = FaultPlan::new(21, rates);
    // Fleet ids are minted in submission order from 0.
    let guilty: Vec<u64> = (0..8)
        .filter(|&id| plan.rolls(FaultKind::Panic, id))
        .collect();
    assert!(
        !guilty.is_empty() && guilty.len() < 8,
        "seed must give a mixed group (guilty: {guilty:?})"
    );
    // Retries stay off (the default): the failed chunk is ended for good.
    let cfg = FleetConfig::new(1)
        .with_min_batch_size(8)
        .with_max_batch_size(8);
    let hooks: Vec<Arc<dyn LaunchHook>> = vec![Arc::new(plan)];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();

    let ticket = service.submit_group(group(&pattern, 8), None).unwrap();
    let ids = ticket.ids().to_vec();
    for (id, outcome) in ids.into_iter().zip(ticket.wait_all()) {
        if guilty.contains(&id) {
            match outcome {
                Err(SolveError::WorkerPanic { detail }) => assert!(
                    detail.contains(&format!("request {id}")),
                    "panic detail must name the guilty request: {detail}"
                ),
                other => panic!("request {id} should panic alone, got {other:?}"),
            }
        } else {
            let sol = outcome.unwrap_or_else(|e| panic!("innocent request {id} failed: {e}"));
            assert!(sol.residual <= 1e-10);
        }
    }
    let snap = service.shutdown();
    assert_eq!(snap.failed(), guilty.len() as u64);
    assert_eq!(snap.completed(), 8 - guilty.len() as u64);
}
