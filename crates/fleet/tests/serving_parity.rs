//! One numerics and one pricing across both serving cores: the same
//! systems, submitted at defaults to the single-device `SolveService`
//! (one formed batch) and to a one-shard `FleetService` (one group, so
//! one chunk), come back bit for bit equal, with equal iteration counts
//! and an equal simulated solve split per request.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use batsolv_fleet::{FleetConfig, FleetService};
use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{RuntimeConfig, Solution, SolveRequest, SolveService};
use batsolv_trace::{EventKind, MemorySink, Tracer};
use batsolv_xgc::{VelocityGrid, XgcWorkload};

/// Each request's simulated solve split (spmv, reduction, sync,
/// transfer µs), read from its ledger, keyed by request id.
fn sim_splits(sink: &MemorySink) -> HashMap<u64, [f64; 4]> {
    sink.snapshot()
        .into_iter()
        .filter_map(|e| match (e.trace_id, e.kind) {
            (Some(id), EventKind::Ledger(l)) => Some((
                id,
                [
                    l.sim_spmv_us,
                    l.sim_reduction_us,
                    l.sim_sync_us,
                    l.sim_transfer_us,
                ],
            )),
            _ => None,
        })
        .collect()
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
    service.shutdown();

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
    fleet.shutdown();

    let (runtime_sim, fleet_sim) = (sim_splits(&runtime_sink), sim_splits(&fleet_sink));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (k, (r, f)) in runtime.iter().zip(&fleet_out).enumerate() {
        assert_eq!(r.batch_size, K, "request {k}: one fused runtime launch");
        assert_eq!(f.batch_size, K, "request {k}: one fleet chunk");
        assert_eq!(bits(&r.x), bits(&f.x), "request {k}: solutions differ");
        assert_eq!(r.residual.to_bits(), f.residual.to_bits(), "request {k}");
        assert_eq!(r.iterations, f.iterations, "request {k}");
        assert_eq!(r.method, f.method, "request {k}");
        let id = k as u64;
        assert_eq!(
            runtime_sim[&id].map(f64::to_bits),
            fleet_sim[&id].map(f64::to_bits),
            "request {k}: simulated split {:?} vs {:?}",
            runtime_sim[&id],
            fleet_sim[&id]
        );
    }
}
