//! `fleet`: groups of systems to a 2-shard `FleetService`
//! (`FleetConfig::new(2)` defaults), open loop through a ladder of rates.
//! Groups are mostly ion-like (short solves). Seeded sizes put some groups
//! under the spill cutoff, so they run on the CPU banded-LU pool, and
//! placement hints lean towards shard 0, so shard 1 steals. This is the
//! only workload that runs fleet routing, chunking, stealing and spill.
//!
//! `GroupTicket` offers only a blocking `wait_all`, so the collector
//! redeems groups in submission order: a group's outcome time is when it
//! and every group sent before it are complete, as a client consuming
//! groups in order sees them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use batsolv_fleet::{FleetConfig, FleetService, FleetSnapshot, GroupTicket};
use batsolv_runtime::{SolveOutcome, SolveRequest, SubmitError};
use batsolv_trace::{MemorySink, Tracer};
use batsolv_types::Result;
use batsolv_xgc::{Species, XgcWorkload};

use crate::openloop::{self, Checks, Stage, Target};
use crate::pool::{mix, Pool, SysRef};
use crate::report::{self, median, ms, timed, HostProbe, Outcome};
use crate::spans::Recorder;
use crate::Options;

/// Shards (simulated devices) in the fleet.
const SHARDS: usize = 2;
/// Ion and electron systems in the request pool.
const ION_SYSTEMS: usize = 96;
const ELECTRON_SYSTEMS: usize = 32;
/// Share of each group's members drawn from the ion pool, percent.
const ION_PERCENT: usize = 85;
/// Group sizes of one cycle of groups: five under the spill cutoff
/// (`DEFAULT_MIN_BATCH_SIZE` = 8), fifteen on the GPU shards. Every cycle
/// sends each size once, in a seeded order, so runs with different seeds
/// carry the same mix.
const CYCLE_SIZES: [usize; 20] = [
    2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
];
/// Every fourth size of the cycle goes unhinted; the rest are hinted to
/// shard 0, so shard 1 steals.
const UNHINTED_EVERY: usize = 4;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 11;
/// Latency limit on p99 that a ladder rate must meet to count.
const P99_LIMIT_MS: f64 = 150.0;
/// Light load, the reference rate, and one rate past the knee, groups/s.
const RATES: [f64; 3] = [10.0, 30.0, 150.0];
/// Outstanding groups past which a rate stops sending, under the
/// 256-chunk shard queues.
const BACKLOG_CAP: u64 = 40;

struct Group {
    members: Vec<SysRef>,
    hint: Option<u32>,
}

/// The seeded shape of group `index`.
fn group(seed: u64, index: u64) -> Group {
    let n = CYCLE_SIZES.len();
    let cycle = index / n as u64;
    // Fisher–Yates over the cycle's sizes.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed ^ cycle, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let shape = order[(index % n as u64) as usize];
    let size = CYCLE_SIZES[shape];
    let hint = (!shape.is_multiple_of(UNHINTED_EVERY)).then_some(0);
    let ions = (size * ION_PERCENT + 50) / 100;
    let members = (0..size)
        .map(|k| {
            let m = mix(seed ^ 0x6a09_e667, index * 32 + k as u64);
            if k < ions {
                (0, (m % ION_SYSTEMS as u64) as usize)
            } else {
                (1, (m % ELECTRON_SYSTEMS as u64) as usize)
            }
        })
        .collect();
    Group { members, hint }
}

struct Fleet<'a> {
    service: &'a FleetService,
    pool: &'a Pool,
    seed: u64,
    tol: f64,
}

impl Target for Fleet<'_> {
    type Item = (Vec<SolveRequest>, Option<u32>);
    type Handle = GroupTicket;
    type Done = Vec<SolveOutcome>;

    fn prepare(&self, index: u64) -> Self::Item {
        let g = group(self.seed, index);
        (
            g.members.iter().map(|&r| self.pool.request(r)).collect(),
            g.hint,
        )
    }

    fn submit(
        &self,
        (requests, hint): Self::Item,
    ) -> std::result::Result<GroupTicket, SubmitError> {
        self.service.submit_group(requests, hint)
    }

    fn redeem(
        &self,
        handle: GroupTicket,
        _wait: Duration,
    ) -> std::result::Result<Self::Done, GroupTicket> {
        Ok(handle.wait_all())
    }

    fn can_poll(&self) -> bool {
        false
    }

    fn verify(&self, index: u64, done: Vec<SolveOutcome>, checks: &mut Checks) -> bool {
        let g = group(self.seed, index);
        if done.len() != g.members.len() {
            checks.misses.push(format!(
                "group {index}: {} outcomes for {} members",
                done.len(),
                g.members.len()
            ));
            return false;
        }
        // Check every member, so each miss is reported.
        g.members
            .iter()
            .zip(&done)
            .filter(|(r, o)| !self.pool.check(index, **r, o, self.tol, checks))
            .count()
            == 0
    }
}

fn set_up(opts: &Options, tracer: Tracer) -> Result<(Pool, FleetService, f64)> {
    let (parts, gen) = timed(|| -> Result<Vec<XgcWorkload>> {
        Ok(vec![
            XgcWorkload::generate_single_species(
                opts.grid,
                Species::ion(),
                ION_SYSTEMS,
                opts.seed,
            )?,
            XgcWorkload::generate_single_species(
                opts.grid,
                Species::electron(),
                ELECTRON_SYSTEMS,
                opts.seed ^ 0xe1ec,
            )?,
        ])
    });
    let pool = Pool { parts: parts? };
    let service = FleetService::start(
        Arc::clone(pool.pattern()),
        FleetConfig::new(SHARDS).with_tracer(tracer),
    )?;
    Ok((pool, service, ms(gen)))
}

/// Closed-loop groups sent before the timed stages so they start warm.
const WARM_UP: u64 = 4;

/// Systems the warm-up sent.
fn warm_up(target: &Fleet<'_>) -> u64 {
    (0..WARM_UP)
        .filter_map(|i| {
            let item = target.prepare(i);
            let n = item.0.len() as u64;
            target.submit(item).ok().map(|t| {
                t.wait_all();
                n
            })
        })
        .sum()
}

/// Systems accepted in a load: every group's size.
fn systems_of(seed: u64, load: &openloop::LoadResult) -> u64 {
    let sent: u64 = load.stages.iter().map(|s| s.sent).sum();
    (0..sent).map(|i| group(seed, i).members.len() as u64).sum()
}

/// Fleet-side accounting: every accepted system reached exactly one
/// terminal outcome.
fn exactly_once(out: &mut Outcome, systems: u64, snap: &FleetSnapshot) {
    let terminal = snap.completed() + snap.failed();
    if snap.accepted != systems || terminal != snap.accepted {
        out.miss(format!(
            "fleet accepted {} systems / {} terminal, client sent {systems}",
            snap.accepted, terminal
        ));
    }
}

pub fn run(opts: &Options, out: &mut Outcome) -> Result<Recorder> {
    let host = HostProbe::start();
    let epoch = Instant::now();
    let tol = FleetConfig::new(SHARDS).ladder.default_tolerance;
    let (pool, service) = report::set_up_repeatedly(
        out,
        SETUP_REPS,
        || set_up(opts, Tracer::disabled()).map(|(p, s, gen)| ((p, s), gen)),
        |(_, service)| {
            service.shutdown();
        },
    )?;

    let target = Fleet {
        service: &service,
        pool: &pool,
        seed: opts.seed,
        tol,
    };
    let warm = warm_up(&target);
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
        let snap = service.shutdown();
        exactly_once(out, warm + systems_of(opts.seed, &load), &snap);
        openloop::report(out, &load, 1, P99_LIMIT_MS);
        fleet_layers(out, &snap, &load);
        host.finish(out);
        return Ok(load.spans);
    }

    // Traced run: the reference rate untraced, then again on a fleet
    // with its tracer on; per-layer figures come from the second half.
    let reference = [Stage {
        name: "reference",
        rate: RATES[1],
        seconds: 0.5 * s,
    }];
    let plain = openloop::drive(&target, &reference, BACKLOG_CAP, epoch);
    let snap = service.shutdown();
    exactly_once(out, warm + systems_of(opts.seed, &plain), &snap);
    openloop::account(out, &plain);
    let (traced, mut spans) = traced_reference(opts, out, 0.5 * s, epoch)?;
    out.layer("trace.overhead", traced / plain.stages[0].p50_ms(), "ratio");
    let first: Vec<SysRef> = (0..)
        .flat_map(|i| group(opts.seed, i).members)
        .take(64)
        .collect();
    openloop::probe_layers(out, &mut spans, &pool, &first, tol)?;
    host.finish(out);
    Ok(spans)
}

/// The reference rate for `seconds` on a fleet with its tracer on: the
/// `fleet.*` per-layer figures, from the fleet's snapshot and its phase
/// ledgers. Returns the stage's p50 and the client spans.
pub fn traced_reference(
    opts: &Options,
    out: &mut Outcome,
    seconds: f64,
    epoch: Instant,
) -> Result<(f64, Recorder)> {
    let sink = Arc::new(MemorySink::new());
    let (pool, service, _) = set_up(opts, Tracer::new(sink.clone()))?;
    let target = Fleet {
        service: &service,
        pool: &pool,
        seed: opts.seed,
        tol: FleetConfig::new(SHARDS).ladder.default_tolerance,
    };
    let warm = warm_up(&target);
    let reference = [Stage {
        name: "reference",
        rate: RATES[1],
        seconds,
    }];
    let traced = openloop::drive(&target, &reference, BACKLOG_CAP, epoch);
    let snap = service.shutdown();
    let systems = warm + systems_of(opts.seed, &traced);
    exactly_once(out, systems, &snap);
    openloop::account(out, &traced);
    fleet_layers(out, &snap, &traced);
    let ledger = openloop::ledger_means(out, &sink.snapshot(), systems);
    for (metric, phase) in [
        ("fleet.queue_ms", "queue"),
        ("fleet.transit_ms", "transit"),
        ("fleet.solve_ms", "solve"),
        ("fleet.spill_ms", "spill"),
    ] {
        out.layer(metric, ledger(phase), "ms");
    }
    Ok((traced.stages[0].p50_ms(), traced.spans))
}

/// `fleet.*` figures from the fleet's snapshot and the client's submit
/// timings.
fn fleet_layers(out: &mut Outcome, snap: &FleetSnapshot, load: &openloop::LoadResult) {
    out.layer("fleet.submit_us", median(&load.submit_us), "us");
    out.layer("fleet.spilled", snap.spilled as f64, "count");
    out.layer("fleet.steals", snap.steals() as f64, "count");
    out.layer("fleet.chunks", snap.gpu_chunks as f64, "count");
    out.layer("fleet.retries", snap.retries() as f64, "count");
    let done: Vec<f64> = snap.shards.iter().map(|s| s.completed as f64).collect();
    let mean = done.iter().sum::<f64>() / done.len().max(1) as f64;
    let max = done.iter().copied().fold(0.0, f64::max);
    out.layer(
        "fleet.shard_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
    );
}
