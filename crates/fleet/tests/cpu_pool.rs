//! The CPU spill pool is the serving ladder priced on the Skylake node,
//! where it is the banded-LU rung alone: a spilled chunk comes back bit
//! for bit as `BatchBandedLu` solves the same systems on
//! `DeviceSpec::skylake_node()`, and the pool's trace lane holds one
//! launch, no host transfer, and one rung span per member.

use std::sync::Arc;

use batsolv_fleet::{FleetConfig, FleetService};
use batsolv_formats::{BatchBanded, BatchCsr, BatchVectors};
use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{SolveMethod, SolveRequest};
use batsolv_solvers::direct::BatchBandedLu;
use batsolv_trace::{EventKind, MemorySink, Tracer};
use batsolv_types::BatchDims;
use batsolv_xgc::{VelocityGrid, XgcWorkload};

#[test]
fn a_spilled_chunk_is_banded_lu_on_the_skylake_node() {
    const K: usize = 5;
    let workload = XgcWorkload::generate(VelocityGrid::small(10, 9), 8, 20220530).unwrap();
    let pattern = Arc::clone(workload.pattern());
    let systems: Vec<_> = workload.systems().take(K).collect();

    // A group below the cutoff spills whole; the warm guesses ride along
    // and the direct solve ignores them.
    let sink = Arc::new(MemorySink::new());
    let cfg = FleetConfig::new(1)
        .with_min_batch_size(8)
        .with_tracer(Tracer::new(sink.clone()));
    let service = FleetService::start(Arc::clone(&pattern), cfg).unwrap();
    let pool = service.range().cpu_shard();
    let requests = systems
        .iter()
        .map(|s| {
            SolveRequest::new(s.values.to_vec(), s.rhs.to_vec()).with_guess(s.warm_guess.to_vec())
        })
        .collect();
    let ticket = service.submit_group(requests, None).unwrap();
    let ids = ticket.ids().to_vec();
    let solutions: Vec<_> = ticket.wait_all().into_iter().map(Result::unwrap).collect();
    assert_eq!(service.shutdown().spilled, K as u64);

    let values: Vec<&[f64]> = systems.iter().map(|s| s.values).collect();
    let csr = BatchCsr::from_system_values(Arc::clone(&pattern), &values).unwrap();
    let banded = BatchBanded::from_csr(&csr).unwrap();
    let rhs = systems.iter().flat_map(|s| s.rhs.iter().copied()).collect();
    let b = BatchVectors::from_values(BatchDims::new(K, pattern.num_rows()).unwrap(), rhs).unwrap();
    let mut x = BatchVectors::zeros(b.dims());
    let direct = BatchBandedLu
        .solve(&DeviceSpec::skylake_node(), &banded, &b, &mut x)
        .unwrap();
    for (k, (sol, r)) in solutions.iter().zip(&direct.per_system).enumerate() {
        assert_eq!(sol.method, SolveMethod::BandedLuFallback, "system {k}");
        assert_eq!(sol.rungs.len(), 1, "system {k}: the pool never escalates");
        assert_eq!(sol.x, x.system(k), "system {k}: solution bits");
        assert_eq!(sol.residual.to_bits(), r.residual.to_bits(), "system {k}");
        assert_eq!(sol.iterations, r.iterations, "system {k}");
        assert_eq!(sol.iterations, 1, "system {k}: factored once");
    }

    let events = sink.snapshot();
    let on_lane = |pred: fn(&EventKind) -> bool| {
        events
            .iter()
            .filter(|e| e.kind.shard() == Some(pool) && pred(&e.kind))
            .count()
    };
    assert_eq!(
        on_lane(|k| matches!(k, EventKind::KernelLaunch { .. })),
        1,
        "one launch for the chunk"
    );
    assert_eq!(
        on_lane(|k| matches!(k, EventKind::Transfer { .. })),
        0,
        "nothing crosses a host link on the CPU node"
    );
    for id in ids {
        let spans = |pred: fn(&EventKind) -> bool| {
            events
                .iter()
                .filter(|e| e.trace_id == Some(id) && pred(&e.kind))
                .count()
        };
        let begin = |k: &EventKind| {
            matches!(
                k,
                EventKind::RungBegin {
                    method: "banded-lu",
                    ..
                }
            )
        };
        let end = |k: &EventKind| {
            matches!(
                k,
                EventKind::RungEnd {
                    method: "banded-lu",
                    converged: true,
                    ..
                }
            )
        };
        assert_eq!(spans(begin), 1, "request {id}: one rung begin");
        assert_eq!(spans(end), 1, "request {id}: one rung end");
    }
}
