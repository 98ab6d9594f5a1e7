//! `batsolv-serve` — open-loop traffic generator for the solve service.
//!
//! Replays XGC ion/electron systems as concurrent solve requests: each
//! submitter thread fires requests at a fixed open-loop rate (arrivals
//! do not wait for completions), the service batches them dynamically,
//! and the final stats snapshot is printed. With `--compare`, the run is
//! repeated at batch target 1 and the simulated-throughput speedup is
//! reported (the launch-amortization effect the paper's Figure 6 shows
//! for pre-formed batches).
//!
//! Tracing and telemetry (the observability layer):
//!
//! * `--trace-out PATH` streams the structured event log to PATH as
//!   JSONL while the run is live;
//! * `--profile-out PATH` captures the per-request phase ledgers and
//!   writes the aggregated latency-attribution report (phase totals,
//!   per-class p50/p99, deadline hits, balance violations) as JSON;
//! * `--metrics-out PATH` writes the final stats snapshot as a
//!   Prometheus text page;
//! * `--flight-recorder` keeps a ring of recent events and writes
//!   `flight_dump.jsonl` if a breaker trip or watchdog stall dumped it;
//! * `--stats-interval-ms N` prints the Prometheus page of the *live*
//!   snapshot every N milliseconds instead of only at shutdown.
//!
//! Fleet serving (`--devices N` with N >= 1): instead of one
//! `SolveService`, traffic is sharded over a `batsolv-fleet`
//! `DeviceRange` of N simulated GPUs plus the CPU banded-LU spill pool.
//! Submitters send *groups* of `--target` systems; groups below
//! `--min-batch-size` spill to the CPU pool, idle shards steal queued
//! chunks unless `--no-steal`, and `--device-profile` picks the device
//! model behind every shard. The periodic `--stats-interval-ms` page and
//! the final report show the per-shard breakdown (queue depth, breaker
//! state, steals in/out); `--metrics-out` writes the Prometheus page
//! with per-device labels. `--compare` reruns with stealing toggled off
//! and reports the fleet p99/makespan delta.
//!
//! Robustness flags: `--deadline-ms N` attaches a deadline budget to
//! every request in both modes (spent budgets shed at dispatch; the
//! fleet also rejects infeasible ones at admission). In fleet mode,
//! `--retries N` re-routes retryably failed chunks to a different shard
//! up to N extra times with deterministic backoff, and `--hedge` lets
//! idle shards duplicate straggling peer flights (first terminal outcome
//! wins).
//!
//! Both modes run the same open-loop submitters and the same report
//! tail; they differ only in how a group is submitted and redeemed
//! (classic mode submits groups of one).
//!
//! ```text
//! batsolv-serve [--pairs 100] [--threads 4] [--target 100] [--linger-us 0]
//!               [--rate 20000] [--queue 1024] [--quick] [--compare]
//!               [--solver bicgstab|pipelined-bicgstab]
//!               [--trace-out trace.jsonl] [--profile-out profile.json]
//!               [--metrics-out metrics.prom] [--flight-recorder]
//!               [--stats-interval-ms 1000]
//!               [--devices N] [--min-batch-size N] [--steal | --no-steal]
//!               [--device-profile v100|a100|mi100]
//!               [--deadline-ms N] [--retries N] [--hedge | --no-hedge]
//! ```
//!
//! `--solver` picks the fused solver variant carrying rung 1 of the
//! escalation ladder, in both modes; every iterative rung runs under
//! scalar Jacobi. The menu holds what a BENCH_solve row justifies:
//! `bicgstab` (the default, with the fused-AXPY pass: 5 syncs per
//! iteration, bitwise the classical numerics) and `pipelined-bicgstab`
//! (2 syncs per iteration). The chosen variant and its cumulative
//! simulated sync count surface in the stats page
//! (`batsolv_solver_info`, `batsolv_sim_syncs_total`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use batsolv_fleet::{
    fleet_prometheus_text, DeviceProfile, FleetConfig, FleetService, FleetSnapshot, HedgeConfig,
    RetryPolicy, DEFAULT_MIN_BATCH_SIZE,
};
use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::{
    prometheus_text, RuntimeConfig, SolveRequest, SolveService, SolverVariant, StatsSnapshot,
    SubmitError,
};
use batsolv_trace::{
    FanoutSink, FlightRecorder, JsonlFileSink, LedgerAggregator, MemorySink, TraceSink, Tracer,
    DEFAULT_FLIGHT_CAPACITY,
};
use batsolv_xgc::{VelocityGrid, XgcWorkload};

struct Args {
    pairs: usize,
    threads: usize,
    target: usize,
    /// `RuntimeConfig`'s default (work-conserving) unless `--linger-us`.
    linger: Duration,
    rate: f64,
    queue: usize,
    quick: bool,
    compare: bool,
    solver: SolverVariant,
    trace_out: Option<PathBuf>,
    /// Write the aggregated phase-ledger report (JSON) here at shutdown.
    profile_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    flight_recorder: bool,
    stats_interval_ms: u64,
    /// 0 = classic single-service mode; >= 1 shards over a fleet.
    devices: usize,
    min_batch_size: usize,
    steal: bool,
    profile: DeviceProfile,
    /// Per-request deadline in milliseconds (0 = no deadline). Requests
    /// whose budget a chunk cannot possibly meet are rejected at
    /// admission; spent budgets shed at dispatch.
    deadline_ms: u64,
    /// Extra retry attempts after a retryable failure (0 = retries off).
    retries: u32,
    /// Hedge straggling flights from idle shards.
    hedge: bool,
}

impl Args {
    fn parse() -> Args {
        let mut out = Args {
            pairs: 100,
            threads: 4,
            target: 100,
            linger: RuntimeConfig::new(DeviceSpec::v100()).linger,
            rate: 20_000.0,
            queue: 1024,
            quick: false,
            compare: false,
            solver: SolverVariant::default(),
            trace_out: None,
            profile_out: None,
            metrics_out: None,
            flight_recorder: false,
            stats_interval_ms: 0,
            devices: 0,
            min_batch_size: DEFAULT_MIN_BATCH_SIZE,
            steal: true,
            profile: DeviceProfile::V100,
            deadline_ms: 0,
            retries: 0,
            hedge: false,
        };
        let mut args = std::env::args().skip(1);
        let next_usize = |args: &mut dyn Iterator<Item = String>, what: &str| -> usize {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{what} needs a positive integer");
                std::process::exit(2);
            })
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--pairs" => out.pairs = next_usize(&mut args, "--pairs"),
                "--threads" => out.threads = next_usize(&mut args, "--threads"),
                "--target" => out.target = next_usize(&mut args, "--target"),
                "--queue" => out.queue = next_usize(&mut args, "--queue"),
                "--linger-us" => {
                    out.linger = Duration::from_micros(next_usize(&mut args, "--linger-us") as u64)
                }
                "--rate" => {
                    out.rate = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--rate needs a number (requests/sec across all threads)");
                        std::process::exit(2);
                    })
                }
                "--quick" => out.quick = true,
                "--compare" => out.compare = true,
                "--solver" => {
                    let name = args.next().unwrap_or_default();
                    out.solver = SolverVariant::parse(&name).unwrap_or_else(|| {
                        eprintln!("--solver needs one of: {}", SolverVariant::NAMES.join(", "));
                        std::process::exit(2);
                    })
                }
                "--flight-recorder" => out.flight_recorder = true,
                "--trace-out" => {
                    out.trace_out = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                        eprintln!("--trace-out needs a file path");
                        std::process::exit(2);
                    })))
                }
                "--profile-out" => {
                    out.profile_out = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                        eprintln!("--profile-out needs a file path");
                        std::process::exit(2);
                    })))
                }
                "--metrics-out" => {
                    out.metrics_out = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                        eprintln!("--metrics-out needs a file path");
                        std::process::exit(2);
                    })))
                }
                "--stats-interval-ms" => {
                    out.stats_interval_ms = next_usize(&mut args, "--stats-interval-ms") as u64
                }
                "--devices" => out.devices = next_usize(&mut args, "--devices"),
                "--min-batch-size" => {
                    out.min_batch_size = next_usize(&mut args, "--min-batch-size")
                }
                "--steal" => out.steal = true,
                "--no-steal" => out.steal = false,
                "--deadline-ms" => out.deadline_ms = next_usize(&mut args, "--deadline-ms") as u64,
                "--retries" => out.retries = next_usize(&mut args, "--retries") as u32,
                "--hedge" => out.hedge = true,
                "--no-hedge" => out.hedge = false,
                "--device-profile" => {
                    let name = args.next().unwrap_or_default();
                    out.profile = DeviceProfile::parse(&name).unwrap_or_else(|| {
                        eprintln!(
                            "--device-profile needs one of: {}",
                            DeviceProfile::NAMES.join(", ")
                        );
                        std::process::exit(2);
                    })
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: batsolv-serve [--pairs N] [--threads N] [--target N] \
                         [--linger-us N] [--rate R] [--queue N] [--quick] [--compare] \
                         [--solver NAME] [--trace-out PATH] [--profile-out PATH] \
                         [--metrics-out PATH] \
                         [--flight-recorder] [--stats-interval-ms N] \
                         [--devices N] [--min-batch-size N] [--steal|--no-steal] \
                         [--device-profile NAME] [--deadline-ms N] [--retries N] \
                         [--hedge|--no-hedge]\n\
                         --profile-out: aggregated phase-ledger report (JSON)\n\
                         --solver: rung-1 variant under Jacobi, one of {}\n\
                         --devices: >= 1 shards traffic over a multi-device fleet\n\
                         --device-profile: one of {}\n\
                         --deadline-ms: per-request deadline budget, both modes (0 = none)\n\
                         --retries: extra attempts after retryable failures (0 = off)\n\
                         --hedge: duplicate straggling flights from idle shards",
                        SolverVariant::NAMES.join(", "),
                        DeviceProfile::NAMES.join(", ")
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unexpected argument `{other}` (try --help)");
                    std::process::exit(2);
                }
            }
        }
        out
    }
}

/// What the submitters of one run counted.
#[derive(Clone, Copy, Default)]
struct Tally {
    converged: usize,
    failed: usize,
    rejected: usize,
}

impl Tally {
    fn add(self, o: Tally) -> Tally {
        Tally {
            converged: self.converged + o.converged,
            failed: self.failed + o.failed,
            rejected: self.rejected + o.rejected,
        }
    }
}

/// Fire every workload system at a serving core from `--threads`
/// open-loop submitters, in groups of `group_size`. `submit` hands one
/// group to the core and returns its ticket; `redeem` waits on a ticket
/// and counts its members' outcomes. Every `--stats-interval-ms` the
/// `live_page` is printed (0 = only at shutdown). Returns the tally and
/// the wall time.
fn fire<K>(
    workload: &XgcWorkload,
    args: &Args,
    group_size: usize,
    submit: impl Fn(Vec<SolveRequest>) -> Result<K, SubmitError> + Sync,
    redeem: impl Fn(K) -> Tally + Sync,
    live_page: impl Fn() -> String + Sync,
) -> (Tally, Duration) {
    let total = workload.num_systems();
    let groups: Vec<(usize, usize)> = (0..total)
        .step_by(group_size)
        .map(|start| (start, (start + group_size).min(total)))
        .collect();
    let deadline = (args.deadline_ms > 0).then(|| Duration::from_millis(args.deadline_ms));
    let gap = Duration::from_secs_f64(args.threads as f64 / args.rate);
    let stop_stats = AtomicBool::new(false);
    let started = Instant::now();
    let tally = thread::scope(|scope| {
        if args.stats_interval_ms > 0 {
            let every = Duration::from_millis(args.stats_interval_ms);
            let (stop, live_page) = (&stop_stats, &live_page);
            scope.spawn(move || loop {
                thread::sleep(every);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                println!("{}", live_page());
            });
        }
        let handles: Vec<_> = (0..args.threads)
            .map(|t| {
                // Round-robin partition of the group stream across submitters.
                let mine: Vec<(usize, usize)> = groups
                    .iter()
                    .skip(t)
                    .step_by(args.threads)
                    .copied()
                    .collect();
                let (submit, redeem) = (&submit, &redeem);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut tickets = Vec::with_capacity(mine.len());
                    for (start, end) in mine {
                        let group: Vec<SolveRequest> = (start..end)
                            .map(|i| {
                                let sys = workload.system(i);
                                let req = SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec())
                                    .with_guess(sys.warm_guess.to_vec());
                                match deadline {
                                    Some(d) => req.with_deadline(d),
                                    None => req,
                                }
                            })
                            .collect();
                        let size = group.len();
                        match submit(group) {
                            Ok(ticket) => tickets.push(ticket),
                            Err(
                                SubmitError::QueueFull { .. }
                                | SubmitError::CircuitOpen { .. }
                                | SubmitError::Infeasible { .. },
                            ) => tally.rejected += size,
                            Err(e) => {
                                eprintln!("submit error: {e}");
                                tally.rejected += size;
                            }
                        }
                        // Open loop: pace arrivals, never wait on outcomes.
                        thread::sleep(gap * size as u32);
                    }
                    tickets.into_iter().map(redeem).fold(tally, Tally::add)
                })
            })
            .collect();
        let tally = handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .fold(Tally::default(), Tally::add);
        stop_stats.store(true, Ordering::Relaxed);
        tally
    });
    (tally, started.elapsed())
}

/// Count one member outcome.
fn outcome<T, E>(o: &Result<T, E>) -> Tally {
    Tally {
        converged: o.is_ok() as usize,
        failed: o.is_err() as usize,
        rejected: 0,
    }
}

/// Classic mode: requests one at a time to a `SolveService` that batches
/// them up to `target`.
fn drive(
    workload: &XgcWorkload,
    args: &Args,
    target: usize,
    tracer: Tracer,
) -> (StatsSnapshot, Tally, Duration) {
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(target)
        .with_linger(args.linger)
        .with_queue_capacity(args.queue)
        .with_solver(args.solver)
        .with_tracer(tracer);
    let service = SolveService::start(Arc::clone(workload.pattern()), config)
        .expect("service failed to start");
    let (tally, wall) = fire(
        workload,
        args,
        1,
        |mut group| service.submit(group.remove(0)),
        |ticket| outcome(&ticket.wait()),
        || format!("--- live metrics ---\n{}", service.prometheus()),
    );
    (service.shutdown(), tally, wall)
}

/// Fleet mode: groups of `--target` systems to a sharded `FleetService`.
fn drive_fleet(
    workload: &XgcWorkload,
    args: &Args,
    steal: bool,
    tracer: Tracer,
) -> (FleetSnapshot, Tally, Duration) {
    let retry = if args.retries > 0 {
        // `--retries N` = N extra attempts on top of the first execution.
        RetryPolicy::new(args.retries + 1)
    } else {
        RetryPolicy::disabled()
    };
    let hedge = if args.hedge {
        HedgeConfig::enabled()
    } else {
        HedgeConfig::disabled()
    };
    let mut config = FleetConfig::new(args.devices)
        .with_profile(args.profile)
        .with_min_batch_size(args.min_batch_size)
        .with_queue_capacity(args.queue)
        .with_steal(steal)
        .with_retry(retry)
        .with_hedge(hedge)
        .with_tracer(tracer);
    // GPU shards run the chosen rung-1 variant; the CPU spill pool stays
    // on the banded-LU baseline.
    config.ladder.solver = args.solver;
    let service =
        FleetService::start(Arc::clone(workload.pattern()), config).expect("fleet failed to start");
    let (tally, wall) = fire(
        workload,
        args,
        args.target.max(1),
        |group| service.submit_group(group, None),
        |ticket| {
            ticket
                .wait_all()
                .iter()
                .map(outcome)
                .fold(Tally::default(), Tally::add)
        },
        // The per-shard breakdown: queue depth, breaker state, steals.
        || format!("--- live fleet stats ---\n{}", service.snapshot().render()),
    );
    (service.shutdown(), tally, wall)
}

/// Aggregate the captured event stream into the phase-ledger report and
/// write it as JSON — the `--profile-out` contract. The 1 µs balance
/// tolerance matches the invariant the test suite asserts.
fn write_profile_report(path: &std::path::Path, sink: &MemorySink) {
    let agg = LedgerAggregator::build(&sink.snapshot());
    let report = agg.report(1.0);
    std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
        eprintln!("cannot write profile report {}: {e}", path.display());
        std::process::exit(2);
    });
    println!(
        "profile report written to {} ({} requests, {} balance violations, {} still open)",
        path.display(),
        report.requests,
        report.balance_violations,
        agg.open_count()
    );
}

fn main() {
    let args = Args::parse();
    let grid = if args.quick {
        VelocityGrid::small(10, 9)
    } else {
        VelocityGrid::xgc_standard()
    };
    let workload = XgcWorkload::generate(grid, args.pairs, 20220530).expect("workload generation");
    println!(
        "replaying {} XGC systems ({} ion/electron pairs, {} rows each) from {} threads at {:.0} req/s",
        workload.num_systems(),
        args.pairs,
        workload.grid.num_nodes(),
        args.threads,
        args.rate,
    );

    // Assemble the tracer from the observability flags. With none set the
    // tracer is disabled and the service runs the untraced (NoopLogger)
    // hot path.
    let recorder = args
        .flight_recorder
        .then(|| Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)));
    let file_sink: Option<Arc<dyn TraceSink>> = args.trace_out.as_deref().map(|path| {
        let sink = JsonlFileSink::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {}: {e}", path.display());
            std::process::exit(2);
        });
        Arc::new(sink) as Arc<dyn TraceSink>
    });
    // `--profile-out` needs the events back at shutdown, so it captures
    // the stream in memory (fanned out alongside any `--trace-out` file).
    let profile_sink = args
        .profile_out
        .is_some()
        .then(|| Arc::new(MemorySink::new()));
    let sink: Option<Arc<dyn TraceSink>> = match (file_sink, &profile_sink) {
        (None, None) => None,
        (Some(f), None) => Some(f),
        (None, Some(m)) => Some(Arc::clone(m) as Arc<dyn TraceSink>),
        (Some(f), Some(m)) => Some(Arc::new(FanoutSink::new(vec![
            f,
            Arc::clone(m) as Arc<dyn TraceSink>,
        ]))),
    };
    let tracer = match (sink, &recorder) {
        (None, None) => Tracer::disabled(),
        (Some(s), None) => Tracer::new(s),
        (None, Some(r)) => {
            Tracer::with_flight_recorder(Arc::new(batsolv_trace::NoopSink), Arc::clone(r))
        }
        (Some(s), Some(r)) => Tracer::with_flight_recorder(s, Arc::clone(r)),
    };

    // The report tail both modes share: the tally line, the final
    // snapshot, then every requested output file — the trace, the
    // phase-ledger report, the Prometheus page `metrics_page` renders,
    // and the flight recorder's dump.
    let report =
        |tally: Tally, wall: Duration, render: String, metrics_page: &dyn Fn() -> String| {
            println!(
                "wall {:.2}s: {} converged, {} failed, {} rejected at submission",
                wall.as_secs_f64(),
                tally.converged,
                tally.failed,
                tally.rejected
            );
            print!("{render}");

            tracer.flush();
            if let Some(path) = &args.trace_out {
                println!("trace written to {}", path.display());
            }
            if let (Some(path), Some(mem)) = (&args.profile_out, &profile_sink) {
                write_profile_report(path, mem);
            }
            if let Some(path) = &args.metrics_out {
                std::fs::write(path, metrics_page()).unwrap_or_else(|e| {
                    eprintln!("cannot write metrics file {}: {e}", path.display());
                    std::process::exit(2);
                });
                println!("metrics written to {}", path.display());
            }
            if let Some(r) = &recorder {
                match r.last_dump() {
                    Some(dump) => {
                        let path = PathBuf::from("flight_dump.jsonl");
                        std::fs::write(&path, dump.to_jsonl()).unwrap_or_else(|e| {
                            eprintln!("cannot write flight dump {}: {e}", path.display());
                            std::process::exit(2);
                        });
                        println!(
                            "flight recorder dumped ({}): {}",
                            dump.reason,
                            path.display()
                        );
                    }
                    None => println!("flight recorder armed; no dump was triggered"),
                }
            }
        };

    if args.devices > 0 {
        let (snap, tally, wall) = drive_fleet(&workload, &args, args.steal, tracer.clone());
        println!(
            "\n--- fleet: {} x {} shards + cpu pool (groups of {}, min batch {}, steal {}, \
             deadline {}, retries {}, hedge {}) ---",
            args.devices,
            args.profile.name(),
            args.target.max(1),
            args.min_batch_size,
            if args.steal { "on" } else { "off" },
            deadline_label(&args),
            args.retries,
            if args.hedge { "on" } else { "off" }
        );
        report(tally, wall, snap.render(), &|| fleet_prometheus_text(&snap));

        if args.compare {
            // Baseline: the same stream with stealing toggled the other way.
            let (base, ..) = drive_fleet(&workload, &args, !args.steal, Tracer::disabled());
            let label = |steal: bool| if steal { "steal" } else { "no-steal" };
            println!("\n--- fleet baseline ({}) ---", label(!args.steal));
            print!("{}", base.render());
            println!(
                "\nfleet p99 latency: {} {:.3} ms vs {} {:.3} ms; \
                 makespan {:.3} ms vs {:.3} ms",
                label(args.steal),
                snap.latency_p99.as_secs_f64() * 1e3,
                label(!args.steal),
                base.latency_p99.as_secs_f64() * 1e3,
                snap.makespan_s * 1e3,
                base.makespan_s * 1e3,
            );
        }
        return;
    }

    let (stats, tally, wall) = drive(&workload, &args, args.target, tracer.clone());
    println!(
        "\n--- batch target {} (linger {} us, deadline {}) ---",
        args.target,
        args.linger.as_micros(),
        deadline_label(&args)
    );
    report(tally, wall, stats.render(), &|| prometheus_text(&stats));

    if args.compare {
        let (base, ..) = drive(&workload, &args, 1, Tracer::disabled());
        let rate = stats.completed() as f64 / stats.sim_time_total_s;
        let base_rate = base.completed() as f64 / base.sim_time_total_s;
        println!("\n--- batch target 1 (baseline) ---");
        print!("{}", base.render());
        println!(
            "\nsimulated throughput: {:.0} req/s batched vs {:.0} req/s unbatched => {:.1}x",
            rate,
            base_rate,
            rate / base_rate
        );
    }
}

fn deadline_label(args: &Args) -> String {
    if args.deadline_ms > 0 {
        format!("{} ms", args.deadline_ms)
    } else {
        "off".to_string()
    }
}
