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
//! Robustness flags (fleet mode): `--deadline-ms N` attaches a deadline
//! budget to every request (infeasible deadlines are rejected at
//! admission, spent budgets shed at dispatch), `--retries N` re-routes
//! retryably failed chunks to a different shard up to N extra times
//! with deterministic backoff, and `--hedge` lets idle shards duplicate
//! straggling peer flights (first terminal outcome wins).
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
                         --deadline-ms: per-request deadline budget (0 = none)\n\
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

/// Fire every workload system at the service from `threads` open-loop
/// submitters; returns (snapshot, converged, failed, rejected, wall).
fn drive(
    workload: &XgcWorkload,
    args: &Args,
    target: usize,
    tracer: Tracer,
) -> (StatsSnapshot, usize, usize, usize, Duration) {
    let config = RuntimeConfig::new(DeviceSpec::v100())
        .with_batch_target(target)
        .with_linger(args.linger)
        .with_queue_capacity(args.queue)
        .with_solver(args.solver)
        .with_tracer(tracer);
    let service = Arc::new(
        SolveService::start(Arc::clone(workload.pattern()), config)
            .expect("service failed to start"),
    );
    // Periodic live telemetry: print the Prometheus page of the running
    // snapshot at the configured cadence (0 = only at shutdown).
    let stop_stats = Arc::new(AtomicBool::new(false));
    let stats_printer = (args.stats_interval_ms > 0).then(|| {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop_stats);
        let every = Duration::from_millis(args.stats_interval_ms);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(every);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                println!("--- live metrics ---\n{}", service.prometheus());
            }
        })
    });
    let total = workload.num_systems();
    let gap = Duration::from_secs_f64(args.threads as f64 / args.rate);
    let started = Instant::now();
    let (converged, failed, rejected) = thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..args.threads {
            let service = Arc::clone(&service);
            // Round-robin partition of the batch across submitters.
            let indices: Vec<usize> = (t..total).step_by(args.threads).collect();
            handles.push(scope.spawn(move || {
                let mut converged = 0usize;
                let mut failed = 0usize;
                let mut rejected = 0usize;
                let mut tickets = Vec::with_capacity(indices.len());
                for i in indices {
                    let sys = workload.system(i);
                    let req = SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec())
                        .with_guess(sys.warm_guess.to_vec());
                    match service.submit(req) {
                        Ok(ticket) => tickets.push(ticket),
                        Err(SubmitError::QueueFull { .. }) => rejected += 1,
                        Err(e) => {
                            eprintln!("submit error: {e}");
                            rejected += 1;
                        }
                    }
                    // Open loop: pace arrivals, never wait on outcomes.
                    thread::sleep(gap);
                }
                for ticket in tickets {
                    match ticket.wait() {
                        Ok(_) => converged += 1,
                        Err(_) => failed += 1,
                    }
                }
                (converged, failed, rejected)
            }));
        }
        handles.into_iter().fold((0, 0, 0), |acc, h| {
            let (c, f, r) = h.join().expect("submitter panicked");
            (acc.0 + c, acc.1 + f, acc.2 + r)
        })
    });
    let wall = started.elapsed();
    stop_stats.store(true, Ordering::Relaxed);
    if let Some(h) = stats_printer {
        let _ = h.join();
    }
    let service = Arc::into_inner(service).expect("submitters hold no service refs");
    let stats = service.shutdown();
    (stats, converged, failed, rejected, wall)
}

/// Fleet mode: fire groups of `--target` systems at a sharded
/// `FleetService`; returns (snapshot, converged, failed, rejected, wall).
fn drive_fleet(
    workload: &XgcWorkload,
    args: &Args,
    steal: bool,
    tracer: Tracer,
) -> (FleetSnapshot, usize, usize, usize, Duration) {
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
    let service = Arc::new(
        FleetService::start(Arc::clone(workload.pattern()), config).expect("fleet failed to start"),
    );
    // Periodic live telemetry: the per-shard breakdown (queue depth,
    // breaker state, steals in/out) at the configured cadence.
    let stop_stats = Arc::new(AtomicBool::new(false));
    let stats_printer = (args.stats_interval_ms > 0).then(|| {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop_stats);
        let every = Duration::from_millis(args.stats_interval_ms);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(every);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                println!("--- live fleet stats ---\n{}", service.snapshot().render());
            }
        })
    });
    let total = workload.num_systems();
    let group_size = args.target.max(1);
    let groups: Vec<(usize, usize)> = (0..total)
        .step_by(group_size)
        .map(|start| (start, (start + group_size).min(total)))
        .collect();
    let gap = Duration::from_secs_f64(args.threads as f64 / args.rate);
    let started = Instant::now();
    let (converged, failed, rejected) = thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..args.threads {
            let service = Arc::clone(&service);
            // Round-robin partition of the group stream across submitters.
            let mine: Vec<(usize, usize)> = groups
                .iter()
                .skip(t)
                .step_by(args.threads)
                .copied()
                .collect();
            handles.push(scope.spawn(move || {
                let mut rejected = 0usize;
                let mut tickets = Vec::with_capacity(mine.len());
                for (start, end) in mine {
                    let group: Vec<SolveRequest> = (start..end)
                        .map(|i| {
                            let sys = workload.system(i);
                            let mut req = SolveRequest::new(sys.values.to_vec(), sys.rhs.to_vec())
                                .with_guess(sys.warm_guess.to_vec());
                            if args.deadline_ms > 0 {
                                req = req.with_deadline(Duration::from_millis(args.deadline_ms));
                            }
                            req
                        })
                        .collect();
                    let size = group.len();
                    match service.submit_group(group, None) {
                        Ok(ticket) => tickets.push(ticket),
                        Err(SubmitError::QueueFull { .. })
                        | Err(SubmitError::CircuitOpen { .. })
                        | Err(SubmitError::Infeasible { .. }) => rejected += size,
                        Err(e) => {
                            eprintln!("submit error: {e}");
                            rejected += size;
                        }
                    }
                    // Open loop: pace arrivals, never wait on outcomes.
                    thread::sleep(gap * size as u32);
                }
                let mut converged = 0usize;
                let mut failed = 0usize;
                for ticket in tickets {
                    for outcome in ticket.wait_all() {
                        match outcome {
                            Ok(_) => converged += 1,
                            Err(_) => failed += 1,
                        }
                    }
                }
                (converged, failed, rejected)
            }));
        }
        handles.into_iter().fold((0, 0, 0), |acc, h| {
            let (c, f, r) = h.join().expect("submitter panicked");
            (acc.0 + c, acc.1 + f, acc.2 + r)
        })
    });
    let wall = started.elapsed();
    stop_stats.store(true, Ordering::Relaxed);
    if let Some(h) = stats_printer {
        let _ = h.join();
    }
    let service = Arc::into_inner(service).expect("submitters hold no service refs");
    let snap = service.shutdown();
    (snap, converged, failed, rejected, wall)
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

    if args.devices > 0 {
        let (snap, converged, failed, rejected, wall) =
            drive_fleet(&workload, &args, args.steal, tracer.clone());
        println!(
            "\n--- fleet: {} x {} shards + cpu pool (groups of {}, min batch {}, steal {}, \
             deadline {}, retries {}, hedge {}) ---",
            args.devices,
            args.profile.name(),
            args.target.max(1),
            args.min_batch_size,
            if args.steal { "on" } else { "off" },
            if args.deadline_ms > 0 {
                format!("{} ms", args.deadline_ms)
            } else {
                "off".to_string()
            },
            args.retries,
            if args.hedge { "on" } else { "off" }
        );
        println!(
            "wall {:.2}s: {converged} converged, {failed} failed, {rejected} rejected at submission",
            wall.as_secs_f64()
        );
        print!("{}", snap.render());

        tracer.flush();
        if let Some(path) = &args.trace_out {
            println!("trace written to {}", path.display());
        }
        if let (Some(path), Some(mem)) = (&args.profile_out, &profile_sink) {
            write_profile_report(path, mem);
        }
        if let Some(path) = &args.metrics_out {
            std::fs::write(path, fleet_prometheus_text(&snap)).unwrap_or_else(|e| {
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

    let (stats, converged, failed, rejected, wall) =
        drive(&workload, &args, args.target, tracer.clone());
    println!(
        "\n--- batch target {} (linger {} us) ---",
        args.target,
        args.linger.as_micros()
    );
    println!(
        "wall {:.2}s: {converged} converged, {failed} failed, {rejected} rejected at submission",
        wall.as_secs_f64()
    );
    print!("{}", stats.render());

    tracer.flush();
    if let Some(path) = &args.trace_out {
        println!("trace written to {}", path.display());
    }
    if let (Some(path), Some(mem)) = (&args.profile_out, &profile_sink) {
        write_profile_report(path, mem);
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, prometheus_text(&stats)).unwrap_or_else(|e| {
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
