//! One numerics, one pricing and one ledger builder across both serving
//! cores: the same systems, submitted at defaults to the single-device
//! `SolveService` (one formed batch) and to a one-shard `FleetService`
//! (one group, so one chunk), come back bit for bit equal, with equal
//! iteration counts, an equal simulated solve split per request, and
//! balanced ledgers that agree on outcome, class and deadline.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use batsolv_fleet::{FleetConfig, FleetService};
use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{RuntimeConfig, Solution, SolveRequest, SolveService};
use batsolv_trace::{EventKind, MemorySink, PhaseLedger, Tracer};
use batsolv_xgc::{VelocityGrid, XgcWorkload};

/// Each request's ledger, keyed by request id.
fn ledgers(sink: &MemorySink) -> HashMap<u64, PhaseLedger> {
    sink.snapshot()
        .into_iter()
        .filter_map(|e| match (e.trace_id, e.kind) {
            (Some(id), EventKind::Ledger(l)) => Some((id, l)),
            _ => None,
        })
        .collect()
}

/// A ledger's simulated solve split (spmv, reduction, sync, transfer
/// µs).
fn sim_split(l: &PhaseLedger) -> [f64; 4] {
    [
        l.sim_spmv_us,
        l.sim_reduction_us,
        l.sim_sync_us,
        l.sim_transfer_us,
    ]
}

#[test]
fn runtime_and_fleet_solve_and_price_a_batch_identically() {
    const K: usize = 16;
    let workload = XgcWorkload::generate(VelocityGrid::small(10, 9), K / 2, 7).unwrap();
    let pattern = workload.pattern();
    let requests: Vec<SolveRequest> = workload
        .systems()
        .map(|s| {
            SolveRequest::new(s.values.to_vec(), s.rhs.to_vec()).with_guess(s.warm_guess.to_vec())
        })
        .collect();
    assert_eq!(requests.len(), K);

    let runtime_sink = Arc::new(MemorySink::new());
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(K)
        .with_linger(Duration::from_secs(60))
        .with_tracer(Tracer::new(runtime_sink.clone()));
    let service = SolveService::start(Arc::clone(pattern), config).unwrap();
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| service.submit(r.clone()).unwrap())
        .collect();
    let runtime: Vec<Solution> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    let runtime_stats = service.shutdown();

    let fleet_sink = Arc::new(MemorySink::new());
    let cfg = FleetConfig::new(1).with_tracer(Tracer::new(fleet_sink.clone()));
    assert!((cfg.min_batch_size..=cfg.max_batch_size).contains(&K));
    let fleet = FleetService::start(Arc::clone(pattern), cfg).unwrap();
    let fleet_out: Vec<Solution> = fleet
        .submit_group(requests, None)
        .unwrap()
        .wait_all()
        .into_iter()
        .map(|o| o.unwrap())
        .collect();
    let fleet_snap = fleet.shutdown();

    // One registry counts both cores.
    let shard = &fleet_snap.shards[0];
    assert_eq!(runtime_stats.converged_iterative, shard.completed);
    assert_eq!(runtime_stats.sim_time_total_s, shard.sim_time_s);

    let (runtime_ledgers, fleet_ledgers) = (ledgers(&runtime_sink), ledgers(&fleet_sink));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (k, (r, f)) in runtime.iter().zip(&fleet_out).enumerate() {
        assert_eq!(r.batch_size, K, "request {k}: one fused runtime launch");
        assert_eq!(f.batch_size, K, "request {k}: one fleet chunk");
        assert_eq!(bits(&r.x), bits(&f.x), "request {k}: solutions differ");
        assert_eq!(r.residual.to_bits(), f.residual.to_bits(), "request {k}");
        assert_eq!(r.iterations, f.iterations, "request {k}");
        assert_eq!(r.method, f.method, "request {k}");
        let id = k as u64;
        let (rl, fl) = (&runtime_ledgers[&id], &fleet_ledgers[&id]);
        assert_eq!(
            sim_split(rl).map(f64::to_bits),
            sim_split(fl).map(f64::to_bits),
            "request {k}: simulated split {:?} vs {:?}",
            sim_split(rl),
            sim_split(fl)
        );
        assert_eq!(rl.outcome, fl.outcome, "request {k}");
        assert_eq!(rl.class, fl.class, "request {k}");
        assert_eq!(rl.iterations, fl.iterations, "request {k}");
        assert_eq!(rl.deadline, fl.deadline, "request {k}");
        assert!(rl.balanced_within(1.0), "request {k}: {rl:?}");
        assert!(fl.balanced_within(1.0), "request {k}: {fl:?}");
    }
}
