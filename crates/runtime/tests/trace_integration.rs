//! End-to-end trace assertions through the full service.
//!
//! The acceptance contract of the tracing layer, checked on a real run:
//! every accepted request has exactly one `terminal` event; every rung
//! span nests inside its request's `submitted → terminal` window; queue
//! waits surface as `dequeued` events; and the Prometheus exporter
//! agrees with the `StatsSnapshot` it renders.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use batsolv_formats::SparsityPattern;
use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{prometheus_text, RuntimeConfig, SolveRequest, SolveService};
use batsolv_trace::{
    parse_prom_value, EventKind, LedgerAggregator, MemorySink, TraceEvent, TraceSink, Tracer,
};

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

fn clean_system(pattern: &SparsityPattern, i: usize) -> (Vec<f64>, Vec<f64>) {
    let n = pattern.num_rows();
    let mut values = Vec::with_capacity(pattern.nnz());
    for r in 0..n {
        for &c in pattern.row_cols(r) {
            if c as usize == r {
                values.push(5.0 + 0.01 * (i % 17) as f64);
            } else {
                values.push(-1.0);
            }
        }
    }
    let rhs: Vec<f64> = (0..n).map(|r| 1.0 + 0.1 * ((i + r) % 7) as f64).collect();
    (values, rhs)
}

/// Drive `count` requests through a traced service and return the events
/// plus the final snapshot.
fn run_traced(count: usize) -> (Vec<TraceEvent>, batsolv_runtime::StatsSnapshot) {
    let pattern = tridiag_pattern(24);
    let sink = Arc::new(MemorySink::new());
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(4)
        .with_linger(Duration::from_millis(1))
        .with_tracer(Tracer::new(sink.clone()));
    let service = SolveService::start(Arc::clone(&pattern), config).unwrap();
    let tickets: Vec<_> = (0..count)
        .map(|i| {
            let (values, rhs) = clean_system(&pattern, i);
            service.submit(SolveRequest::new(values, rhs)).unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = service.shutdown();
    (sink.snapshot(), stats)
}

#[test]
fn every_accepted_request_has_exactly_one_terminal_event() {
    let (events, stats) = run_traced(10);
    let mut submitted: HashMap<u64, usize> = HashMap::new();
    let mut terminal: HashMap<u64, usize> = HashMap::new();
    for e in &events {
        match e.kind {
            EventKind::Submitted { .. } => {
                *submitted.entry(e.trace_id.unwrap()).or_insert(0) += 1;
            }
            EventKind::Terminal { .. } => {
                *terminal.entry(e.trace_id.unwrap()).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    assert_eq!(submitted.len(), 10);
    assert_eq!(stats.accepted, 10);
    for (id, &n) in &submitted {
        assert_eq!(n, 1, "request {id} submitted more than once");
        assert_eq!(
            terminal.get(id),
            Some(&1),
            "request {id} must reach exactly one terminal event"
        );
    }
    assert_eq!(terminal.len(), submitted.len(), "no orphan terminals");
}

#[test]
fn rung_spans_nest_inside_the_request_span() {
    let (events, _) = run_traced(6);
    // Per request: t(submitted) <= t(dequeued) <= t(rung_begin) <=
    // t(rung_end) <= t(terminal), and rung begins/ends pair up.
    let mut windows: HashMap<u64, (u64, u64)> = HashMap::new();
    for e in &events {
        match e.kind {
            EventKind::Submitted { .. } => {
                windows.entry(e.trace_id.unwrap()).or_insert((e.t_us, 0)).0 = e.t_us;
            }
            EventKind::Terminal { .. } => {
                windows.entry(e.trace_id.unwrap()).or_insert((0, e.t_us)).1 = e.t_us;
            }
            _ => {}
        }
    }
    let mut saw_rungs = 0usize;
    for e in &events {
        let (open, rung) = match e.kind {
            EventKind::RungBegin { rung, .. } => (true, rung),
            EventKind::RungEnd { rung, .. } => (false, rung),
            _ => continue,
        };
        saw_rungs += 1;
        let id = e.trace_id.expect("rung events are request-scoped");
        let &(start, end) = windows
            .get(&id)
            .unwrap_or_else(|| panic!("rung event for unknown request {id}"));
        assert!(
            e.t_us >= start && e.t_us <= end,
            "rung {rung} {} at {} outside request {id} span [{start}, {end}]",
            if open { "begin" } else { "end" },
            e.t_us
        );
    }
    assert!(saw_rungs >= 12, "6 requests × ≥1 rung × begin+end");
    // Every dequeued event carries the wait and belongs to a request.
    let dequeued: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Dequeued { .. }))
        .collect();
    assert_eq!(dequeued.len(), 6);
    assert!(dequeued.iter().all(|e| e.trace_id.is_some()));
}

#[test]
fn batches_and_launches_are_recorded() {
    let (events, stats) = run_traced(8);
    let formed: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BatchFormed { seq, .. } => Some(seq),
            _ => None,
        })
        .collect();
    assert_eq!(formed.len() as u64, stats.batches_formed);
    // Sequence numbers are unique and start at 0.
    let mut sorted = formed.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), formed.len());
    assert_eq!(sorted.first(), Some(&0));
    // At least one fused launch and its paired transfers made it out.
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::KernelLaunch { blocks, .. } if blocks >= 1)));
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::Transfer {
            direction: "h2d",
            ..
        }
    )));
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::Transfer {
            direction: "d2h",
            ..
        }
    )));
}

#[test]
fn prometheus_page_agrees_with_the_snapshot() {
    let (_, stats) = run_traced(10);
    let page = prometheus_text(&stats);
    assert_eq!(
        parse_prom_value(&page, "batsolv_requests_accepted_total"),
        Some(stats.accepted as f64)
    );
    assert_eq!(
        parse_prom_value(&page, "batsolv_requests_completed_total"),
        Some(stats.completed() as f64)
    );
    assert_eq!(
        parse_prom_value(&page, "batsolv_batches_formed_total"),
        Some(stats.batches_formed as f64)
    );
    assert_eq!(
        parse_prom_value(&page, "batsolv_solver_iterations_total"),
        Some(stats.solver_iterations_total as f64)
    );
    assert_eq!(
        parse_prom_value(&page, "batsolv_queue_wait_p50_us"),
        Some(stats.queue_wait_p50.as_secs_f64() * 1e6)
    );
    assert_eq!(
        parse_prom_value(&page, "batsolv_outcomes_total"),
        Some(stats.converged_iterative as f64),
        "first outcomes sample is the converged_bicgstab label"
    );
}

#[test]
fn untraced_service_emits_nothing_and_still_solves() {
    let pattern = tridiag_pattern(16);
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(2)
        .with_linger(Duration::from_millis(1));
    assert!(!config.tracer.is_enabled(), "default tracer is disabled");
    let service = SolveService::start(Arc::clone(&pattern), config).unwrap();
    let (values, rhs) = clean_system(&pattern, 0);
    let t = service.submit(SolveRequest::new(values, rhs)).unwrap();
    assert!(t.wait().is_ok());
    assert_eq!(service.shutdown().accepted, 1);
}

/// Sleeps before recording each `submitted` event: a worker that could
/// deliver before `submit` emits it would record its ledger first.
struct SlowSubmitted(Arc<MemorySink>);

impl TraceSink for SlowSubmitted {
    fn emit(&self, event: &TraceEvent) {
        if matches!(event.kind, EventKind::Submitted { .. }) {
            std::thread::sleep(Duration::from_millis(30));
        }
        self.0.emit(event);
    }
}

#[test]
fn submitted_is_recorded_before_the_ledger_that_closes_it() {
    let pattern = tridiag_pattern(24);
    let sink = Arc::new(MemorySink::new());
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(1)
        .with_linger(Duration::ZERO)
        .with_tracer(Tracer::new(Arc::new(SlowSubmitted(sink.clone()))));
    let service = SolveService::start(Arc::clone(&pattern), config).unwrap();
    let (values, rhs) = clean_system(&pattern, 0);
    let ticket = service.submit(SolveRequest::new(values, rhs)).unwrap();
    ticket.wait().unwrap();
    service.shutdown();

    let events = sink.snapshot();
    let at = |is: fn(&EventKind) -> bool| events.iter().position(|e| is(&e.kind)).unwrap();
    let submitted = at(|k| matches!(k, EventKind::Submitted { .. }));
    let ledger = at(|k| matches!(k, EventKind::Ledger(_)));
    assert!(
        submitted < ledger,
        "submitted at {submitted}, ledger at {ledger}"
    );
    assert_eq!(LedgerAggregator::build(&events).open_count(), 0);
}
