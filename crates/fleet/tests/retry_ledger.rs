//! A retried request's ledger books each wall span once: the backoff
//! sleep lands in `backoff` and not again in the next hop's `transit`,
//! so the phases never overlap and the `other` residual never goes
//! negative.

use std::sync::Arc;
use std::time::Duration;

use batsolv_faults::{FaultPlan, FaultRates};
use batsolv_fleet::{FleetConfig, FleetService, RetryPolicy};
use batsolv_formats::SparsityPattern;
use batsolv_gpusim::{LaunchHook, NoDisruption};
use batsolv_runtime::SolveRequest;
use batsolv_trace::{EventKind, MemorySink, TraceSink, Tracer};

#[test]
fn retry_backoff_is_booked_once() {
    let pattern = Arc::new(SparsityPattern::stencil_2d(5, 5, false));
    let n = pattern.num_rows();
    let values: Vec<f64> = (0..n)
        .flat_map(|r| {
            pattern
                .row_cols(r)
                .iter()
                .map(move |&c| if c as usize == r { 8.0 } else { -1.0 })
        })
        .collect();
    let sink = Arc::new(MemorySink::new());
    let failing = FaultPlan::new(
        0xf1ee,
        FaultRates {
            device_fail: 1.0,
            ..Default::default()
        },
    );
    let mut retry = RetryPolicy::new(2).with_seed(11);
    retry.base_backoff = Duration::from_millis(20);
    // Steal off: the first attempt runs on the failing shard 0, the
    // retry on shard 1.
    let cfg = FleetConfig::new(2)
        .with_min_batch_size(2)
        .with_max_batch_size(8)
        .with_steal(false)
        .with_retry(retry)
        .with_tracer(Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let hooks: Vec<Arc<dyn LaunchHook>> = vec![Arc::new(failing), Arc::new(NoDisruption)];
    let service = FleetService::start_with_hooks(Arc::clone(&pattern), cfg, hooks).unwrap();

    let group = (0..8)
        .map(|_| SolveRequest::new(values.clone(), vec![1.0; n]))
        .collect();
    for o in service.submit_group(group, Some(0)).unwrap().wait_all() {
        assert!(o.is_ok(), "the retry on the clean shard succeeds: {o:?}");
    }
    let snap = service.shutdown();
    assert_eq!(snap.retries(), 1);

    let ledgers: Vec<_> = sink
        .snapshot()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Ledger(l) => Some(l),
            _ => None,
        })
        .collect();
    assert_eq!(ledgers.len(), 8);
    for l in &ledgers {
        assert!(l.backoff_us >= 20_000.0, "the sleep is booked: {l:?}");
        assert!(
            l.transit_us < l.backoff_us,
            "the re-queue hop excludes the sleep: {l:?}"
        );
        assert!(l.other_us >= -1.0, "phases overlap: {l:?}");
        assert!(l.balanced_within(1.0), "unbalanced: {l:?}");
    }
}
