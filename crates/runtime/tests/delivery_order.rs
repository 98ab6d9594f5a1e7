//! The terminal funnel counts an outcome and feeds the breaker before
//! it sends: a caller woken by its ticket already sees its own outcome
//! in the stats, and the breaker trip its batch caused.

use std::sync::Arc;
use std::time::Duration;

use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{
    BreakerConfig, RuntimeConfig, SolveError, SolveRequest, SolveService, SubmitError,
};
use batsolv_xgc::{Species, VelocityGrid, XgcWorkload};

#[test]
fn a_resolved_ticket_sees_its_outcome_counted_and_its_breaker_trip() {
    let workload =
        XgcWorkload::generate_single_species(VelocityGrid::small(8, 7), Species::electron(), 1, 5)
            .unwrap();
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(1)
        .with_linger(Duration::ZERO)
        .with_tolerance(1e-12)
        .with_max_iters(1)
        .with_gmres(false)
        .with_fallback(false)
        .with_breaker(Some(BreakerConfig {
            trip_after: 1,
            cooldown: Duration::from_secs(60),
            max_backoff: Duration::from_secs(60),
            degraded_fraction: 0.5,
        }));
    let service = SolveService::start(Arc::clone(workload.pattern()), config).unwrap();
    let sys = workload.system(0);
    let request = || SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec());

    let outcome = service.submit(request()).unwrap().wait();
    assert!(
        matches!(outcome, Err(SolveError::NotConverged { .. })),
        "one iteration cannot reach 1e-12: {outcome:?}"
    );
    // No shutdown in between: the worker may still be running, yet the
    // outcome is already counted and the trip already in force.
    assert_eq!(service.stats().completed(), 1);
    assert!(matches!(
        service.submit(request()),
        Err(SubmitError::CircuitOpen { .. })
    ));
    let stats = service.shutdown();
    assert_eq!(stats.failed_not_converged, 1);
    assert_eq!(stats.breaker_trips, 1);
}
