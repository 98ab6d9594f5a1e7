//! `serve`: single-system requests to `SolveService` (default
//! `RuntimeConfig`, V100 pricing), open loop through a ladder of rates.
//! Requests cycle through a seeded `XgcWorkload` of interleaved ion and
//! electron systems, so both species come in equal numbers. This path
//! runs admission → queue → linger batch former → ladder dispatch, where
//! small batches make launch, linger and queueing costs dominate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{
    RuntimeConfig, SolveOutcome, SolveRequest, SolveService, StatsSnapshot, SubmitError, Ticket,
};
use batsolv_trace::{MemorySink, Tracer};
use batsolv_types::Result;
use batsolv_xgc::XgcWorkload;

use crate::openloop::{self, Checks, Stage, Target};
use crate::pool::{Pool, SysRef};
use crate::report::{self, median, ms, timed, HostProbe, Outcome};
use crate::spans::Recorder;
use crate::{fleet, Options};

/// Ion/electron pairs in the request pool.
const POOL_PAIRS: usize = 64;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 11;
/// Latency limit on p99 that a ladder rate must meet to count.
const P99_LIMIT_MS: f64 = 50.0;
/// Light load, the reference rate, and one rate past the knee, req/s.
const RATES: [f64; 3] = [60.0, 200.0, 1000.0];
/// Outstanding requests past which a rate stops sending, well under the
/// default 1024-deep queue.
const BACKLOG_CAP: u64 = 400;

struct Serve<'a> {
    service: &'a SolveService,
    pool: &'a Pool,
    tol: f64,
}

fn sys_of(pool: &Pool, index: u64) -> SysRef {
    (0, (index % pool.parts[0].num_systems() as u64) as usize)
}

impl Target for Serve<'_> {
    type Item = SolveRequest;
    type Handle = Ticket;
    type Done = SolveOutcome;

    fn prepare(&self, index: u64) -> SolveRequest {
        self.pool.request(sys_of(self.pool, index))
    }

    fn submit(&self, item: SolveRequest) -> std::result::Result<Ticket, SubmitError> {
        self.service.submit(item)
    }

    fn redeem(&self, handle: Ticket, wait: Duration) -> std::result::Result<SolveOutcome, Ticket> {
        handle.wait_timeout(wait).ok_or(handle)
    }

    fn can_poll(&self) -> bool {
        true
    }

    fn verify(&self, index: u64, done: SolveOutcome, checks: &mut Checks) -> bool {
        self.pool
            .check(index, sys_of(self.pool, index), &done, self.tol, checks)
    }
}

/// Generate the pool and start a service. Returns the generation time.
fn set_up(opts: &Options, tracer: Tracer) -> Result<(Pool, SolveService, f64)> {
    let (workload, gen) = timed(|| XgcWorkload::generate(opts.grid, POOL_PAIRS, opts.seed));
    let pool = Pool {
        parts: vec![workload?],
    };
    let config = RuntimeConfig::new(DeviceSpec::v100()).with_tracer(tracer);
    let service = SolveService::start(Arc::clone(pool.pattern()), config)?;
    Ok((pool, service, ms(gen)))
}

/// Closed-loop requests sent before the timed stages so they start warm.
const WARM_UP: u64 = 16;

fn warm_up(target: &Serve<'_>) {
    for i in 0..WARM_UP {
        if let Ok(t) = target.submit(target.prepare(i)) {
            let _ = t.wait();
        }
    }
}

/// Service-side accounting: every accepted request reached exactly one
/// terminal outcome.
fn exactly_once(out: &mut Outcome, load: &openloop::LoadResult, stats: &StatsSnapshot) {
    let client = load.accepted + WARM_UP;
    if stats.accepted != client || stats.completed() != stats.accepted {
        out.miss(format!(
            "service accepted {} / completed {}, client sent {client}",
            stats.accepted,
            stats.completed(),
        ));
    }
}

pub fn run(opts: &Options, out: &mut Outcome) -> Result<Recorder> {
    let host = HostProbe::start();
    let epoch = Instant::now();
    let tol = RuntimeConfig::new(DeviceSpec::v100()).tolerance;
    let (pool, service) = report::set_up_repeatedly(
        out,
        SETUP_REPS,
        || set_up(opts, Tracer::disabled()).map(|(p, s, gen)| ((p, s), gen)),
        |(_, service)| {
            service.shutdown();
        },
    )?;

    let target = Serve {
        service: &service,
        pool: &pool,
        tol,
    };
    warm_up(&target);
    let s = opts.seconds.as_secs_f64();
    if !opts.traced {
        let stages = [
            Stage {
                name: "light",
                rate: RATES[0],
                seconds: 0.1 * s,
            },
            Stage {
                name: "reference",
                rate: RATES[1],
                seconds: 0.8 * s,
            },
            Stage {
                name: "past-knee",
                rate: RATES[2],
                seconds: 0.1 * s,
            },
        ];
        let load = openloop::drive(&target, &stages, BACKLOG_CAP, epoch);
        let stats = service.shutdown();
        exactly_once(out, &load, &stats);
        openloop::report(out, &load, 1, P99_LIMIT_MS);
        runtime_layers(out, &stats, &load);
        host.finish(out);
        return Ok(load.spans);
    }

    // Traced run: the reference rate untraced, then again on a service
    // with its tracer on, then on a traced fleet for the `fleet.*`
    // figures; the per-layer figures come from the traced thirds.
    let reference = [Stage {
        name: "reference",
        rate: RATES[1],
        seconds: s / 3.0,
    }];
    let plain = openloop::drive(&target, &reference, BACKLOG_CAP, epoch);
    let plain_stats = service.shutdown();
    exactly_once(out, &plain, &plain_stats);
    openloop::account(out, &plain);

    let sink = Arc::new(MemorySink::new());
    let (pool, service, _) = set_up(opts, Tracer::new(sink.clone()))?;
    let target = Serve {
        service: &service,
        pool: &pool,
        tol,
    };
    warm_up(&target);
    let traced = openloop::drive(&target, &reference, BACKLOG_CAP, epoch);
    let stats = service.shutdown();
    exactly_once(out, &traced, &stats);
    openloop::account(out, &traced);
    runtime_layers(out, &stats, &traced);
    out.layer(
        "runtime.queue_wait_p99_ms",
        ms(plain_stats.queue_wait_p99),
        "ms",
    );
    let ledger = openloop::ledger_means(out, &sink.snapshot(), traced.accepted + WARM_UP);
    for (metric, phase) in [
        ("runtime.queue_ms", "queue"),
        ("runtime.linger_ms", "linger"),
        ("runtime.solve_ms", "solve"),
        ("runtime.other_ms", "other"),
    ] {
        out.layer(metric, ledger(phase), "ms");
    }
    out.layer(
        "trace.overhead",
        traced.stages[0].p50_ms() / plain.stages[0].p50_ms(),
        "ratio",
    );
    let mut spans = traced.spans;
    let (_, fleet_spans) = fleet::traced_reference(opts, out, s / 3.0, epoch)?;
    spans.merge(fleet_spans);
    let first: Vec<SysRef> = (0..64).map(|i| sys_of(&pool, i)).collect();
    openloop::probe_layers(out, &mut spans, &pool, &first, tol)?;
    host.finish(out);
    Ok(spans)
}

/// `runtime.*` figures from the service's own snapshot and the client's
/// submit timings.
fn runtime_layers(out: &mut Outcome, stats: &StatsSnapshot, load: &openloop::LoadResult) {
    out.layer("runtime.submit_us", median(&load.submit_us), "us");
    out.layer("runtime.batch_size_mean", stats.mean_batch_size(), "count");
    out.layer("runtime.batches", stats.batches_formed as f64, "count");
    let escalated: u64 = stats.rung_hist.iter().skip(1).sum();
    out.layer("runtime.escalated", escalated as f64, "count");
    out.layer("runtime.rejected", stats.rejected_total() as f64, "count");
}
