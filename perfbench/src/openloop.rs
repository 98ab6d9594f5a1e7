//! Open-loop load: one thread sends on an absolute schedule through a
//! ladder of fixed rates, a second collects outcomes. Every latency is
//! timed from the request's due time, so a stall in the program also
//! delays — and is charged to — the requests scheduled behind it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use batsolv_gpusim::DeviceSpec;
use batsolv_runtime::SubmitError;
use batsolv_trace::{LedgerAggregator, TraceEvent, WALL_PHASES};

use crate::pool::{Pool, SysRef};
use crate::probes;
use crate::report::{best_window, median, ms, quantile, us, windowed, Outcome};
use crate::spans::Recorder;

/// One rung of the rate ladder.
#[derive(Clone, Copy, Debug)]
pub struct Stage {
    pub name: &'static str,
    /// Offered rate, operations per second.
    pub rate: f64,
    pub seconds: f64,
}

/// The system under load, seen from the client.
pub trait Target: Sync {
    /// A ready-to-send operation, built before its due time.
    type Item: Send;
    /// What a successful submit returns.
    type Handle: Send;
    /// What redeeming a handle yields.
    type Done: Send;

    fn prepare(&self, index: u64) -> Self::Item;
    fn submit(&self, item: Self::Item) -> Result<Self::Handle, SubmitError>;
    /// Take the outcome if it arrives within `wait`, else hand the
    /// handle back.
    fn redeem(&self, handle: Self::Handle, wait: Duration) -> Result<Self::Done, Self::Handle>;
    /// Whether `redeem` can return early; if not, handles are redeemed
    /// strictly in submission order.
    fn can_poll(&self) -> bool;
    /// Check one outcome; whether it passed every check.
    fn verify(&self, index: u64, done: Self::Done, checks: &mut Checks) -> bool;
}

/// Correctness tallies kept by the collector.
#[derive(Debug, Default)]
pub struct Checks {
    pub misses: Vec<String>,
    pub residual_max: f64,
    pub iterations: Vec<f64>,
}

/// Per-stage results.
#[derive(Debug)]
pub struct StageResult {
    pub stage: Stage,
    pub sent: u64,
    pub refused: u64,
    /// Latency from due time to outcome, ms, of every completed operation.
    pub latencies_ms: Vec<f64>,
    /// Operations still outstanding when the stage's sending ended.
    pub outstanding_at_end: u64,
    /// Wall time from the stage's first due time to its last outcome.
    pub span_s: f64,
    /// Whether sending stopped early because the backlog passed the cap.
    pub cut_short: bool,
}

/// Fewest outcomes a latency window holds.
const WINDOW_MIN: usize = 128;

impl StageResult {
    pub fn p50_ms(&self) -> f64 {
        quantile(&self.latencies_ms, 0.5)
    }

    pub fn p99_ms(&self) -> f64 {
        quantile(&self.latencies_ms, 0.99)
    }

    /// The `q`-quantile of each window of consecutive outcomes
    /// (completion order).
    pub fn windowed(&self, q: f64) -> Vec<f64> {
        windowed(&self.latencies_ms, WINDOW_MIN, 1, q)
    }

    /// Meets the latency limit — the median window's p99, so a minority
    /// of stalled windows does not decide — with no refusals and no
    /// growing backlog.
    pub fn passes(&self, p99_limit_ms: f64) -> bool {
        !self.cut_short
            && self.refused == 0
            && !self.latencies_ms.is_empty()
            && median(&self.windowed(0.99)) <= p99_limit_ms
            && (self.outstanding_at_end as f64) <= 0.05 * self.sent as f64
    }

    /// Completed operations per second over the stage's span.
    pub fn goodput(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.span_s.max(1e-9)
    }
}

pub struct LoadResult {
    pub stages: Vec<StageResult>,
    pub checks: Checks,
    /// Sender lateness past each due time, ms.
    pub lag_ms: Vec<f64>,
    /// Wall time of each submit call, µs.
    pub submit_us: Vec<f64>,
    pub failed: u64,
    pub accepted: u64,
    pub outcomes: u64,
    pub spans: Recorder,
}

/// How many pending handles past the oldest are polled per wake-up.
const SWEEP: usize = 256;
/// Longest a collector wait on the oldest handle lasts before it looks
/// for newly sent ones.
const POLL: Duration = Duration::from_millis(1);

#[derive(Clone, Copy)]
struct Meta {
    index: u64,
    stage: usize,
    due: Instant,
}

/// Drive `target` through `stages`; stop a stage's sending early once
/// more than `backlog_cap` operations are outstanding.
pub fn drive<T: Target>(
    target: &T,
    stages: &[Stage],
    backlog_cap: u64,
    epoch: Instant,
) -> LoadResult {
    let (tx, rx) = mpsc::channel::<(Meta, T::Handle)>();
    let completed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(target, rx, stages.len(), &completed, epoch));
        let mut rec = Recorder::new(epoch);
        let mut lag_ms = Vec::new();
        let mut submit_us = Vec::new();
        let mut results = Vec::with_capacity(stages.len());
        let mut index = 0u64;
        let mut accepted = 0u64;
        let outstanding = |accepted: u64| accepted - completed.load(Ordering::Relaxed);
        for (s, stage) in stages.iter().enumerate() {
            let start = Instant::now();
            let n = (stage.rate * stage.seconds).round() as u64;
            let (mut sent, mut refused, mut cut_short) = (0, 0, false);
            for k in 0..n {
                let due = start + Duration::from_secs_f64(k as f64 / stage.rate);
                let item = target.prepare(index);
                if outstanding(accepted) > backlog_cap {
                    cut_short = true;
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let t = Instant::now();
                lag_ms.push(ms(t.saturating_duration_since(due)));
                let span = rec.enter("client.submit", index);
                let r = target.submit(item);
                rec.exit(span);
                submit_us.push(us(t.elapsed()));
                sent += 1;
                match r {
                    Ok(handle) => {
                        accepted += 1;
                        let meta = Meta {
                            index,
                            stage: s,
                            due,
                        };
                        tx.send((meta, handle))
                            .expect("collector outlives the sender");
                    }
                    Err(_) => refused += 1,
                }
                index += 1;
            }
            results.push(StageResult {
                stage: *stage,
                sent,
                refused,
                latencies_ms: Vec::new(),
                outstanding_at_end: outstanding(accepted),
                span_s: 0.0,
                cut_short,
            });
        }
        drop(tx);
        let collected = collector.join().expect("collector thread panicked");
        let mut failed = collected.failed;
        for (r, (lat, span_s)) in results.iter_mut().zip(collected.per_stage) {
            failed += r.refused;
            r.latencies_ms = lat;
            r.span_s = span_s;
        }
        rec.merge(collected.spans);
        rec.link("client.submit", "client.request");
        LoadResult {
            stages: results,
            checks: collected.checks,
            lag_ms,
            submit_us,
            failed,
            accepted,
            outcomes: collected.outcomes,
            spans: rec,
        }
    })
}

struct Collected {
    /// Per stage: latencies and the span from first due time to last
    /// outcome, seconds.
    per_stage: Vec<(Vec<f64>, f64)>,
    checks: Checks,
    failed: u64,
    outcomes: u64,
    spans: Recorder,
}

fn collect<T: Target>(
    target: &T,
    rx: mpsc::Receiver<(Meta, T::Handle)>,
    stages: usize,
    completed: &AtomicU64,
    epoch: Instant,
) -> Collected {
    let mut pending: VecDeque<(Meta, T::Handle)> = VecDeque::new();
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); stages];
    let mut window: Vec<Option<(Instant, Instant)>> = vec![None; stages];
    let mut checks = Checks::default();
    let (mut failed, mut outcomes) = (0, 0);
    let mut rec = Recorder::new(epoch);
    let mut finish = |m: Meta, done: T::Done, checks: &mut Checks| {
        let at = Instant::now();
        lat[m.stage].push(ms(at.saturating_duration_since(m.due)));
        window[m.stage] =
            Some(window[m.stage].map_or((m.due, at), |(a, b)| (a.min(m.due), b.max(at))));
        rec.record(
            "client.request",
            m.index,
            m.due.saturating_duration_since(epoch),
            at.saturating_duration_since(epoch),
        );
        failed += u64::from(!target.verify(m.index, done, checks));
        outcomes += 1;
        completed.fetch_add(1, Ordering::Relaxed);
    };
    let mut open = true;
    loop {
        loop {
            match rx.try_recv() {
                Ok(s) => pending.push_back(s),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let Some((meta, handle)) = pending.pop_front() else {
            if !open {
                break;
            }
            match rx.recv_timeout(POLL) {
                Ok(s) => pending.push_back(s),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
            }
            continue;
        };
        if !target.can_poll() {
            match target.redeem(handle, Duration::MAX) {
                Ok(done) => finish(meta, done, &mut checks),
                Err(_) => unreachable!("a blocking redeem always yields"),
            }
            continue;
        }
        match target.redeem(handle, POLL) {
            Ok(done) => finish(meta, done, &mut checks),
            Err(handle) => pending.push_front((meta, handle)),
        }
        // Outcomes that landed meanwhile, oldest first.
        let mut kept = VecDeque::with_capacity(pending.len());
        for (k, (meta, handle)) in pending.drain(..).enumerate() {
            if k >= SWEEP {
                kept.push_back((meta, handle));
                continue;
            }
            match target.redeem(handle, Duration::ZERO) {
                Ok(done) => finish(meta, done, &mut checks),
                Err(handle) => kept.push_back((meta, handle)),
            }
        }
        pending = kept;
    }
    let per_stage = lat
        .into_iter()
        .zip(window)
        .map(|(l, w)| {
            let span = w.map_or(0.0, |(a, b)| b.saturating_duration_since(a).as_secs_f64());
            (l, span)
        })
        .collect();
    Collected {
        per_stage,
        checks,
        failed,
        outcomes,
        spans: rec,
    }
}

/// Fold one load's operation counts and checks into the run's outcome,
/// including the client-side exactly-once check.
pub fn account(out: &mut Outcome, load: &LoadResult) {
    out.attempted += load.stages.iter().map(|s| s.sent).sum::<u64>();
    out.failed += load.failed;
    out.misses.extend(load.checks.misses.iter().cloned());
    if load.outcomes != load.accepted {
        out.miss(format!(
            "{} outcomes for {} accepted operations",
            load.outcomes, load.accepted
        ));
    }
    out.residual_max = out.residual_max.max(load.checks.residual_max);
    out.iterations.extend(&load.checks.iterations);
    out.lag_ms.extend(&load.lag_ms);
}

/// Percentile gated as `tail_ms` on the open-loop workloads. p95 and
/// p99 move by a third or more between runs on a shared 2-core host even
/// best-of-windows; they are printed, not gated.
const TAIL: f64 = 0.9;

/// End-to-end figures of a ladder run: best-of-windows latency at the
/// `reference` rate and the goodput of the highest rate whose p99 meets
/// `p99_limit_ms` without refusals or a growing backlog.
pub fn report(out: &mut Outcome, load: &LoadResult, reference: usize, p99_limit_ms: f64) {
    account(out, load);
    let r = &load.stages[reference];
    out.e2e(
        "p50_ms",
        best_window(&r.latencies_ms, WINDOW_MIN, 1, 0.5),
        "ms",
    );
    out.e2e(
        "tail_ms",
        best_window(&r.latencies_ms, WINDOW_MIN, 1, TAIL),
        "ms",
    );
    let best = load
        .stages
        .iter()
        .filter(|s| s.passes(p99_limit_ms))
        .max_by(|a, b| a.stage.rate.total_cmp(&b.stage.rate));
    out.e2e(
        "max_rate_rps",
        best.map_or(0.0, StageResult::goodput),
        "1/s",
    );
    out.info("p50_ms", r.p50_ms(), "ms");
    out.info("p90_ms", quantile(&r.latencies_ms, 0.9), "ms");
    out.info("p95_ms", quantile(&r.latencies_ms, 0.95), "ms");
    out.info("p99_ms", r.p99_ms(), "ms");
    out.info("p99_samples", r.latencies_ms.len() as f64, "count");
    out.info("windows", r.windowed(0.5).len() as f64, "count");
    out.info("p99_limit_ms", p99_limit_ms, "ms");
    for s in &load.stages {
        out.note(format!(
            "rate {:>5.0}/s ({:<9}) sent {:>5} refused {} p50 {:>8.2} ms p99 {:>8.2} ms \
             outstanding at end {:>4}{} -> {}",
            s.stage.rate,
            s.stage.name,
            s.sent,
            s.refused,
            s.p50_ms(),
            s.p99_ms(),
            s.outstanding_at_end,
            if s.cut_short {
                " (backlog cap hit)"
            } else {
                ""
            },
            if s.passes(p99_limit_ms) {
                "meets limit"
            } else {
                "misses limit"
            },
        ));
    }
}

/// Fold the service's trace into phase ledgers; count unbalanced ledgers
/// (each is a correctness miss) and return each wall phase's mean, ms.
pub fn ledger_means(
    out: &mut Outcome,
    events: &[TraceEvent],
    expected: u64,
) -> impl Fn(&str) -> f64 {
    let report = LedgerAggregator::build(events).report(1.0);
    out.balance_violations += report.balance_violations;
    if report.balance_violations != 0 {
        out.miss(format!(
            "{} unbalanced phase ledgers",
            report.balance_violations
        ));
    }
    if report.requests != expected {
        out.miss(format!(
            "{} phase ledgers for {expected} requests",
            report.requests
        ));
    }
    let n = report.requests.max(1) as f64;
    move |phase: &str| {
        WALL_PHASES
            .iter()
            .position(|p| *p == phase)
            .map_or(0.0, |i| report.wall_totals_us[i] / n / 1e3)
    }
}

/// The solver- and kernel-layer probes on the workload's first systems,
/// with their true residuals checked.
pub fn probe_layers(
    out: &mut Outcome,
    rec: &mut Recorder,
    pool: &Pool,
    systems: &[SysRef],
    tol: f64,
) -> batsolv_types::Result<()> {
    let device = DeviceSpec::v100();
    let (a, b, guess) = pool.batch(systems)?;
    let solver = probes::solver(tol);
    let mut x = guess.clone();
    let solve = probes::ell_solve(rec, u64::MAX, &device, &solver, &a, &b, &mut x)?;
    let worst = probes::check_residuals(out, "probe batch", tol, &solve.ell, &b, &x);
    out.residual_max = out.residual_max.max(worst);
    probes::solve_layer_metrics(out, rec, std::slice::from_ref(&solve));
    probes::kernel_probes(out, rec, &device, &solver, &solve.ell, &b, &guess)
}
